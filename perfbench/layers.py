"""Reduce a cProfile run of one pass to per-layer figures.

A layer is one module of the ``graphpoly`` package.  A function defined in
a layer is charged to it.  Time in anything else (built-ins, the standard
library, e.g. ``fractions``) is charged to the layer that called it,
following the caller edges that cProfile records, split in proportion to
each edge's own time.  Time reached only from the benchmark's code is
charged to no layer.
"""

from __future__ import annotations

import os
import pstats

LAYERS = ("poly", "graphs", "interlace", "chords", "euler", "planar", "dh", "fileio")

# (layer, function name) whose cumulative time is reported as "<layer>.<name>_ms".
CUMULATIVE = (
    ("dh", "qn_bdh_fast"), ("dh", "is_bdh"), ("dh", "bdh_to_sp"),
    ("planar", "build_sp"), ("planar", "sp_diagonal_tutte"),
    ("poly", "interpolate_integer"),
    ("interlace", "qn_recursive"), ("interlace", "gamma_invariant"),
    ("euler", "circuit_partition_polynomial"), ("euler", "euler_circuit"),
    ("chords", "circle_graph"),
    ("planar", "tutte_polynomial"), ("planar", "medial_digraph"),
    ("planar", "beta_invariant"),
)


def layer_of(func: tuple, pkg_dir: str) -> str | None:
    """Layer of a cProfile function key (filename, line, name), or None."""
    filename = func[0]
    if os.path.dirname(os.path.abspath(filename)) != pkg_dir:
        return None
    stem = os.path.splitext(os.path.basename(filename))[0]
    return stem if stem in LAYERS else None


def charge_shares(stats: dict, pkg_dir: str) -> dict:
    """For every function, the share of its self time owed to each layer."""
    shares: dict = {}

    def share(func, visiting):
        if func in shares:
            return shares[func]
        layer = layer_of(func, pkg_dir)
        if layer is not None:
            shares[func] = {layer: 1.0}
            return shares[func]
        if func not in stats or func in visiting:
            return {}
        visiting.add(func)
        # a caller already on the walk (recursion, a cycle) is left out and
        # the remaining edges share the whole time
        callers = {c: edge for c, edge in stats[func][4].items() if c not in visiting}
        weights = {c: edge[2] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()}
            total = sum(weights.values())
        out: dict = {}
        for caller, w in weights.items():
            if w <= 0:
                continue
            for name, frac in share(caller, visiting).items():
                out[name] = out.get(name, 0.0) + frac * w / total
        visiting.discard(func)
        shares[func] = out
        return out

    for func in stats:
        share(func, set())
    return shares


def reduce_stats(stats: dict, pkg_dir: str) -> dict:
    """Per-layer self time and calls, and cumulative times of the named functions."""
    pkg_dir = os.path.abspath(pkg_dir)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 0.0
        out[f"{layer}.calls"] = 0
    for func, frac in charge_shares(stats, pkg_dir).items():
        tt = stats[func][2]
        for layer, part in frac.items():
            out[f"{layer}.self_ms"] += 1000.0 * tt * part
    cumulative = {f"{layer}.{name}_ms": 0.0 for layer, name in CUMULATIVE}
    cumulative["fileio.parse_ms"] = 0.0
    for func, (_, nc, _, ct, _) in stats.items():
        layer = layer_of(func, pkg_dir)
        if layer is None:
            continue
        out[f"{layer}.calls"] += nc
        key = f"{layer}.{func[2]}_ms"
        if key in cumulative:
            cumulative[key] += 1000.0 * ct
        if layer == "fileio" and func[2].startswith("parse_"):
            cumulative["fileio.parse_ms"] += 1000.0 * ct
    out.update(cumulative)
    return out


def from_profile(profiler, pkg_dir: str) -> dict:
    return reduce_stats(pstats.Stats(profiler).stats, pkg_dir)
