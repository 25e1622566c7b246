"""Text formats for graphs, digraphs, rotation systems and construction scripts.

Every parser reports malformed input with the 1-based line number.  Blank
lines and lines starting with ``#`` are ignored everywhere.

* edge list (simple graph): ``u v`` per line, ``u u`` declares a loop,
  a single token ``v`` declares an isolated vertex.  Vertex order: the
  single-token lines first, wherever they stand, then the endpoints of the
  edge lines in first-seen order
* multigraph edge list: same syntax, repeated lines mean parallel edges
* arc list (2-in 2-out digraph): ``u -> v`` per line, repeats allowed
* rotation system: ``v: e1 e2 e3`` per vertex, the edges at v in cyclic
  order; each edge id appears twice overall, and its two listings are its
  ends in listing order (twice in one line means a loop at that vertex)
* series-parallel script: ``digon`` then ``series <edge>`` / ``parallel <edge>``
* chord word: whitespace-separated labels on one line
"""

from __future__ import annotations

from .chords import ChordDiagram
from .euler import EulerDigraph
from .graphs import Graph
from .planar import PlaneMultigraph, SPSequence


class FormatError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# -- graphs -----------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Simple graph: no parallel edges (repeated pairs are collapsed).

    One pass indexes the tokens in first-seen order and sets both bits of each
    pair; the graph is rebuilt only if that order breaks the module's rule.
    """
    lines = text.splitlines()
    index: dict[str, int] = {}
    rows = [0] * (2 * len(lines))  # a line brings at most two new vertices
    singles = []
    for i, line in enumerate(lines, start=1):
        parts = (line.split("#", 1)[0] if "#" in line else line).split()
        if len(parts) == 2:
            a = index.setdefault(parts[0], len(index))
            b = index.setdefault(parts[1], len(index))
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        elif len(parts) == 1:
            singles.append(parts[0])
            index.setdefault(parts[0], len(index))
        elif parts:
            line = line.split("#", 1)[0].strip()
            raise FormatError(f"expected 'u v' or a single vertex, got {line!r}", i)
    # every pair set both bits, and the ids are distinct split() tokens
    g = Graph.__new__(Graph)._set(tuple(index), tuple(rows[:len(index)]))
    ids = tuple(dict.fromkeys((*singles, *index)))
    return g if g.ids == ids else Graph.from_edges(g.edges(), ids)


def format_edge_list(g: Graph) -> str:
    """The isolated vertices as single-token lines, then one line per edge.

    Single-token lines come first, as ``parse_edge_list`` orders the vertices,
    so reading the text back needs no rebuild.
    """
    lines = [v for v, r in zip(g.ids, g.rows) if not r] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n" if lines else ""


def parse_multigraph_edges(text: str) -> list[tuple[str, str]]:
    """Multigraph edge list: repeated lines are parallel edges, 'u u' a loop."""
    edges = []
    for i, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", i)
        edges.append((parts[0], parts[1]))
    if not edges:
        raise FormatError("no edges in multigraph input")
    return edges


# -- digraphs ----------------------------------------------------------------


def parse_arc_list(text: str) -> EulerDigraph:
    pairs = []
    for i, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3 or parts[1] != "->":
            raise FormatError(f"expected 'u -> v', got {line!r}", i)
        pairs.append((parts[0], parts[2]))
    try:
        return EulerDigraph.from_pairs(pairs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_arc_list(g: EulerDigraph) -> str:
    return "\n".join(f"{t} -> {h}" for _, t, h in g.arcs) + "\n" if g.arcs else ""


# -- rotation systems ----------------------------------------------------------


def parse_rotation_system(text: str) -> PlaneMultigraph:
    rotations: dict[str, list[str]] = {}
    for i, line in _content_lines(text):
        if ":" not in line:
            raise FormatError(f"expected 'v: e1 e2 ...', got {line!r}", i)
        v, rest = line.split(":", 1)
        v = v.strip()
        if not v:
            raise FormatError("empty vertex name", i)
        if v in rotations:
            raise FormatError(f"vertex {v!r} listed twice", i)
        rotations[v] = rest.split()
    try:
        return PlaneMultigraph(rotations, rotations)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


# -- construction scripts ---------------------------------------------------------


def parse_sp_sequence(text: str) -> SPSequence:
    ops: list[tuple] = []
    for i, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "digon" and len(parts) == 1:
            ops.append(("digon",))
        elif parts[0] in ("series", "parallel") and len(parts) == 2:
            ops.append((parts[0], parts[1]))
        else:
            raise FormatError(f"expected 'digon', 'series <edge>' or "
                              f"'parallel <edge>', got {line!r}", i)
    try:
        return SPSequence(tuple(ops))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def parse_chord_word(text: str) -> ChordDiagram:
    tokens = text.split()
    if not tokens:
        raise FormatError("empty chord word")
    try:
        return ChordDiagram(tokens)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
