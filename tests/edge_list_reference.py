"""The two-pass edge-list reader that ``fileio.parse_edge_list`` replaced.

It collects the single-token lines and the edge lines in two lists, indexes
the single tokens first and then the endpoints in first-seen order, and
builds the graph through the validating ``Graph`` constructor.  The one-pass
parser must give the same ids, in the same order, and the same rows, or the
same ``FormatError`` line.
"""

from __future__ import annotations

from graphpoly.fileio import FormatError
from graphpoly.graphs import Graph


def reference_parse_edge_list(text: str) -> Graph:
    edges = []
    vertices = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.append(parts[0])
        elif len(parts) == 2:
            edges.append((parts[0], parts[1]))
        else:
            raise FormatError(f"expected 'u v' or a single vertex, got {line!r}", i)
    index: dict[str, int] = {}
    rows: list[int] = []

    def add(v):
        if v not in index:
            index[v] = len(rows)
            rows.append(0)
        return index[v]

    for v in vertices:
        add(v)
    for u, v in edges:
        i, j = add(u), add(v)
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(list(index), rows)
