"""Undirected graphs with optional loops, over GF(2) adjacency matrices.

Vertices carry opaque string ids; internally each graph stores dense bitmask
adjacency rows (bit j of row i set iff vertices i and j are adjacent, with
the diagonal bit encoding a loop).  Graphs are immutable: every operation
returns a new value, so concurrent reads are safe.

The structural operation the interlace recursion rests on lives here.  The
pivot ``g.pivot(u, v)`` on an edge uv splits the vertices other than u and
v into the three classes adjacent to u only, to v only, and to both,
toggles every non-loop edge between distinct classes and leaves everything
else alone.  It is an involution.  The local complement that the loop rule
needs is built inside the interlace kernel; see ``interlace``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .poly import Immutable


class Graph(Immutable):
    """Immutable undirected graph, loops allowed, no parallel edges."""

    __slots__ = ("ids", "rows")

    def __init__(self, ids: Sequence[str], rows: Sequence[int]):
        ids = tuple(str(v) for v in ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        rows = tuple(int(r) for r in rows)
        if len(rows) != len(ids):
            raise ValueError("row count does not match vertex count")
        n = len(ids)
        for i, r in enumerate(rows):
            if r >> n:
                raise ValueError("adjacency row has bits outside the vertex range")
            for j in bit_indices(r):
                if not rows[j] >> i & 1:
                    raise ValueError("adjacency is not symmetric")
        self._set(ids, rows)

    def _set(self, ids: tuple[str, ...], rows: tuple[int, ...]) -> "Graph":
        """Fill the slots unchecked and return self; the caller guarantees what
        ``__init__`` checks, as in ``Graph.__new__(Graph)._set(ids, rows)``."""
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rows", rows)
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple], vertices: Iterable[str] = ()) -> "Graph":
        """Build from (u, v) pairs; (v, v) is a loop.  Extra isolated vertices allowed."""
        index, rows = label_rows(map(str, vertices), ((str(u), str(v)) for u, v in edges))
        # label_rows sets both bits of every pair, on distinct str labels
        return cls.__new__(cls)._set(tuple(index), tuple(rows))

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls.from_edges([], [f"v{i}" for i in range(1, n + 1)])

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    def index_of(self, v) -> int:
        v = str(v)
        if v not in self.ids:
            raise ValueError(f"unknown vertex {v!r}")
        return self.ids.index(v)

    def edges(self) -> list[tuple]:
        """Each edge once as (ids[i], ids[j]) with i <= j, sorted by i, then j."""
        ids = self.ids
        return [(ids[i], ids[j]) for i, r in enumerate(self.rows) for j in bit_indices(r >> i << i)]

    def is_simple(self) -> bool:
        return all(not (r >> i & 1) for i, r in enumerate(self.rows))

    def require_simple(self, what: str = "operation") -> None:
        if not self.is_simple():
            raise ValueError(f"{what} requires a loopless graph")

    def __eq__(self, other) -> bool:
        """Labelled equality: same ids in any order, same adjacency."""
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self.ids) != set(other.ids):
            return False
        return set(map(frozenset, self.edges())) == set(map(frozenset, other.edges()))

    def __hash__(self):
        return hash((frozenset(self.ids), frozenset(map(frozenset, self.edges()))))

    def __repr__(self):
        return f"Graph({self.n} vertices, edges={self.edges()!r})"

    # -- structure ---------------------------------------------------------

    def components(self) -> list[tuple]:
        """Vertex ids of each connected component, in index order, ordered by lowest vertex."""
        return [tuple(self.ids[i] for i in bit_indices(c)) for c in component_masks(self.rows)]

    def is_connected(self) -> bool:
        return self.n > 0 and len(self.components()) == 1

    # -- pivot --------------------------------------------------------------

    def pivot(self, u, v) -> "Graph":
        """Pivot on the edge uv (toggles edges between the three u/v classes)."""
        i, j = self.index_of(u), self.index_of(v)
        if not (self.rows[i] >> j & 1) or i == j:
            raise ValueError(f"{u!r}{v!r} is not an edge")
        # pivot_rows toggles symmetric blocks of symmetric rows
        return Graph.__new__(Graph)._set(self.ids, tuple(pivot_rows(self.rows, i, j)))


# -- bitmask helpers shared with the other modules ---------------------------


def bit_indices(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def label_rows(labels: Iterable, pairs: Iterable[tuple]) -> tuple[dict, list[int]]:
    """Index hashable labels, then the pairs' unseen endpoints, in first-seen order.

    Returns the index and the adjacency rows of the pairs taken as undirected
    edges, (v, v) being a loop.
    """
    index = {v: i for i, v in enumerate(dict.fromkeys(labels))}
    rows = [0] * len(index)
    get = index.get
    for u, v in pairs:
        i = get(u)
        if i is None:
            i = index[u] = len(rows)
            rows.append(0)
        j = get(v)
        if j is None:
            j = index[v] = len(rows)
            rows.append(0)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return index, rows


def component_masks(rows: Sequence[int]) -> list[int]:
    """Vertex bitmasks of the connected components, ordered by lowest vertex.

    Each search stops as soon as its component covers every vertex not yet
    assigned, so on a dense connected graph only two or three rows are read.
    """
    rest = (1 << len(rows)) - 1
    out = []
    while rest:
        comp = todo = rest & -rest
        while todo and comp != rest:
            low = todo & -todo
            todo ^= low
            new = rows[low.bit_length() - 1] & ~comp
            comp |= new
            todo |= new
        out.append(comp)
        rest ^= comp
    return out


def compact_rows(rows: Sequence[int], mask: int) -> tuple[int, ...]:
    """Rows of the subgraph induced by a vertex bitmask, with indices compacted.

    Each run of dropped indices [start, top) goes in one pass, from the top.
    """
    rows = tuple(rows)
    drop = ((1 << len(rows)) - 1) & ~mask
    while drop:
        top = drop.bit_length()
        start = (~drop & (1 << top) - 1).bit_length()
        low = (1 << start) - 1
        rows = tuple([r & low | r >> top - start & ~low for r in rows[:start] + rows[top:]])
        drop &= low
    return rows


def bfs_rows(rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Rows in breadth-first order, ties broken by index, and the number of components.

    Each component is searched from its vertex of least degree, components
    in the order of those vertices, so a tree's last vertex is a leaf.  Rows
    already in that order, like a path in natural order, come back as they are.
    """
    deg = [r.bit_count() for r in rows]
    order: list[int] = []
    seen = components = 0
    for start in sorted(range(len(rows)), key=deg.__getitem__):
        if seen >> start & 1:
            continue
        components += 1
        head = len(order)
        order.append(start)
        seen |= 1 << start
        while head < len(order):
            new = rows[order[head]] & ~seen
            head += 1
            seen |= new
            if new & (new - 1):
                order.extend(bit_indices(new))
            elif new:
                order.append(new.bit_length() - 1)
    if order == list(range(len(rows))):
        return tuple(rows), components
    return reorder_rows(rows, order), components


def reorder_rows(rows: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The rows relabelled so that vertex order[i] becomes vertex i."""
    out = [0] * len(rows)
    for i, v in enumerate(order):
        toggle_rows(out, rows[v], 1 << i)
    return tuple([out[v] for v in order])


def toggle_rows(rows: list[int], mask: int, bits: int) -> None:
    """rows[k] ^= bits for every k in the bitmask ``mask``, in place."""
    while mask:
        low = mask & -mask
        rows[low.bit_length() - 1] ^= bits
        mask ^= low


def pivot_rows(rows: Sequence[int], i: int, j: int) -> list[int]:
    """Pivot toggle on dense rows; callers must know ij is an edge.

    Of the neighbours of i and j other than i and j, row k ^= N(j) for k in
    N(i) and row k ^= N(i) for k in N(j): this toggles N(i)-N(j), N(j)-N(i)
    and N(i)&N(j) against each other, and no diagonal bit.
    """
    exclude = (1 << i) | (1 << j)
    ni = rows[i] & ~exclude
    nj = rows[j] & ~exclude
    rows = list(rows)
    toggle_rows(rows, ni, nj)
    toggle_rows(rows, nj, ni)
    return rows


def delete_index(rows: Sequence[int], i: int) -> tuple[int, ...]:
    """Remove vertex i from dense rows, compacting indices."""
    low = (1 << i) - 1
    high = ~low
    return tuple([(r & low) | (r >> 1 & high) for r in rows[:i] + rows[i + 1:]])


# -- small named graphs (for the scripts and tests) --------------------------


def complete_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges([(u, v) for k, u in enumerate(vs) for v in vs[k + 1:]], vs)


def cycle_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges([(vs[i], vs[(i + 1) % n]) for i in range(n)], vs)


def path_graph(n: int) -> Graph:
    vs = [str(i) for i in range(1, n + 1)]
    return Graph.from_edges([(vs[i], vs[i + 1]) for i in range(n - 1)], vs)


def star_graph(m: int) -> Graph:
    """K_{1,m} with centre c."""
    leaves = [str(i) for i in range(1, m + 1)]
    return Graph.from_edges([("c", v) for v in leaves], ["c"] + leaves)
