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
from .graphs import Graph, label_rows
from .planar import PlaneMultigraph, SPSequence


class FormatError(ValueError):
    """Malformed input text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _checked(build, *args):
    """build(*args), its ValueError raised again as a FormatError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _content_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


# -- graphs -----------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Simple graph: no parallel edges (repeated pairs are collapsed)."""
    singles = []
    pairs = []
    for i, line in enumerate(text.splitlines(), start=1):
        parts = (line.split("#", 1)[0] if "#" in line else line).split()
        if len(parts) == 2:
            pairs.append(parts)
        elif len(parts) == 1:
            singles.append(parts[0])
        elif parts:
            line = line.split("#", 1)[0].strip()
            raise FormatError(f"expected 'u v' or a single vertex, got {line!r}", i)
    index, rows = label_rows(singles, pairs)
    # label_rows sets both bits of every pair, and the ids are distinct split() tokens
    return Graph.__new__(Graph)._set(tuple(index), tuple(rows))


def format_edge_list(g: Graph) -> str:
    """The isolated vertices as single-token lines, then one line per edge.

    Single-token lines come first, as ``parse_edge_list`` orders the vertices,
    so reading the text back gives the same vertex order.
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
    return _checked(EulerDigraph.from_pairs, pairs)


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
    return _checked(PlaneMultigraph, rotations, rotations)


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
    return _checked(SPSequence, tuple(ops))


def parse_chord_word(text: str) -> ChordDiagram:
    tokens = text.split()
    if not tokens:
        raise FormatError("empty chord word")
    return _checked(ChordDiagram, tokens)
