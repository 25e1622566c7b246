"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py INPUT_DIR OUT_JSON MODE

MODE is ``setup`` (import and parse only), ``pass`` (time every instance)
or ``trace`` (the same pass under cProfile, reduced to per-layer figures).
Set-up is the import of ``graphpoly`` plus parsing every input through
``graphpoly.fileio``.  Before each timed instance every module-level memo of
the program is emptied and the garbage collector run, untimed, so no
instance is answered from work an earlier instance left behind.  Right
before and after every instance, and after set-up, the worker times a
fixed reference load of its own, so that ``run.py`` can report times at a
fixed machine speed.
The peak resident set of the process is read once the pass is over.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

PARSERS = {"edges": "parse_edge_list", "sp": "parse_sp_sequence", "arcs": "parse_arc_list"}


def poly_terms(p) -> dict:
    """Univariate SparsePoly as {degree: coefficient} with string keys for JSON."""
    return {str(e[0]): c for e, c in p.terms.items()}


def run_call(graphpoly, call: str, obj):
    """Invoke one public entry point; return (result, converter to JSON)."""
    if call == "qn_bdh_fast":
        return graphpoly.qn_bdh_fast(obj), poly_terms
    if call == "qn_recursive":
        return graphpoly.qn_recursive(obj), poly_terms
    if call == "theorem_a":
        return (graphpoly.verify_circuit_partition_identity(obj),
                lambda r: {"ok": r.ok, "f": poly_terms(r.f)})
    if call == "theorem_b":
        return (graphpoly.verify_medial_tutte_identity(obj),
                lambda r: {"ok": r.ok, "diag": poly_terms(r.tutte_diagonal),
                           "qn": poly_terms(r.qn_circle), "gamma": r.gamma, "beta": r.beta})
    raise ValueError(f"unknown call {call!r}")


def reference_seconds() -> float:
    """Time one round of a fixed load like the program's: big-int products and dict traffic."""
    t0 = time.perf_counter()
    table = {}
    x = 3 ** 400
    for i in range(20000):
        table[i & 1023, i & 7] = x * i % 1000003
    sum(table.values())
    return time.perf_counter() - t0


def clear_program_memos(modules) -> None:
    """Empty every module-level ``*_memo``/``*_cache`` dict and every lru_cache."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if isinstance(value, dict) and name.endswith(("_memo", "_cache")):
                value.clear()
            elif callable(value) and hasattr(value, "cache_clear"):
                value.cache_clear()


def main(input_dir: str, out_path: str, mode: str) -> None:
    with open(os.path.join(input_dir, "manifest.json")) as fh:
        instances = json.load(fh)["instances"]
    texts = []
    for rec in instances:
        with open(os.path.join(input_dir, rec["file"])) as fh:
            texts.append(fh.read())
    sys.path.insert(0, SRC)

    profiler = None
    if mode == "trace":
        import cProfile
        profiler = cProfile.Profile()

    t0 = time.perf_counter()
    import graphpoly
    from graphpoly import fileio
    if profiler:
        profiler.enable()
    objs = [getattr(fileio, PARSERS[rec["format"]])(text) for rec, text in zip(instances, texts)]
    if profiler:
        profiler.disable()
    setup_s = time.perf_counter() - t0

    setup_ref_s = statistics.median(reference_seconds() for _ in range(3))
    results = []
    if mode != "setup":
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("graphpoly.") and m is not None]
        for rec, obj in zip(instances, objs):
            clear_program_memos(modules)
            gc.collect()
            ref_before = reference_seconds()
            error = None
            t1 = time.perf_counter()
            if profiler:
                profiler.enable()
            try:
                value, convert = run_call(graphpoly, rec["call"], obj)
            except Exception as exc:  # an instance that raises is counted as failed
                error = f"{type(exc).__name__}: {exc}"
            if profiler:
                profiler.disable()
            seconds = time.perf_counter() - t1
            results.append({"id": rec["id"], "seconds": seconds, "error": error,
                            "ref_s": (ref_before + reference_seconds()) / 2,
                            "output": None if error else convert(value)})

    out = {"mode": mode, "setup_s": setup_s, "ref_s": setup_ref_s, "instances": results,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if profiler:
        import layers
        out["layers"] = layers.from_profile(profiler, os.path.dirname(graphpoly.__file__))
    with open(out_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
