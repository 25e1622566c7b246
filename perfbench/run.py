"""Benchmark for graphpoly: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/graphpoly`` must exist).  The
run generates the workload's pass from the seed, then repeats whole passes,
each in a fresh interpreter started after the previous one has exited,
until about S seconds of wall time have gone (at least two passes).  Every
output is checked by ``checks.py`` outside the timed region.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` the run makes one untraced pass, then traced passes, and
reports the per-layer metrics of one traced pass.  Details of every pass go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402

SETUP_PROBES = 9
MIN_PASSES = 2
# Times are reported at the machine speed at which worker.reference_seconds()
# takes this long (see README: the machine's own speed drifts by 30%).
REFERENCE_S = 0.010


def child(input_dir: str, mode: str, tag: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    out_path = os.path.join(OUT, "passes", f"{tag}.json")
    # Fixed hashing keeps call counts identical between runs; bytecode is
    # cached as in a normal installation.
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           input_dir, out_path, mode],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(out_path) as fh:
        return json.load(fh)


class Checker:
    """Checks each distinct (instance, output) once; a repeat reuses the verdict."""

    def __init__(self, records: dict, texts: dict):
        self.records = records
        self.texts = texts
        self.verdicts: dict = {}

    def failures(self, res: dict) -> list[str]:
        if res["error"]:
            return [res["error"]]
        key = (res["id"], json.dumps(res["output"], sort_keys=True))
        if key not in self.verdicts:
            rec = self.records[res["id"]]
            self.verdicts[key] = checks.check_instance(rec, self.texts[res["id"]], res["output"])
        return self.verdicts[key]


def work_counts(records: dict, results: list[dict]) -> dict:
    """Exact per-pass work taken from inputs and outputs."""
    vertices = terms = bits = 0
    for res in results:
        rec = records[res["id"]]
        vertices += rec["n"]
        out = res["output"] or {}
        polys = [out] if rec["call"] in ("qn_bdh_fast", "qn_recursive") else [
            v for v in out.values() if isinstance(v, dict)]
        for p in polys:
            terms += len(p)
            bits = max([bits] + [abs(int(c)).bit_length() for c in p.values()])
    return {"work.vertices": vertices, "work.output_terms": terms, "poly.coeff_bits_max": bits}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description="graphpoly benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "graphpoly", "__init__.py")):
        print("error: src/graphpoly not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    input_dir = os.path.join(OUT, "inputs", f"{args.workload}-s{args.seed}")
    shutil.rmtree(input_dir, ignore_errors=True)
    instances = gen.write_inputs(args.workload, args.seed, input_dir)
    records = {rec["id"]: rec for rec, _ in instances}
    texts = {rec["id"]: text for rec, text in instances}
    os.makedirs(os.path.join(OUT, "passes"), exist_ok=True)

    # The first import compiles bytecode; keep it out of every figure.
    child(input_dir, "setup", f"{tag}-warm")
    probes = [child(input_dir, "setup", f"{tag}-setup{k}") for k in range(SETUP_PROBES)]

    passes = []
    traced = []
    start = time.perf_counter()
    while True:
        mode = "trace" if args.trace and passes else "pass"
        began = time.perf_counter()
        res = child(input_dir, mode, f"{tag}-p{len(passes) + len(traced)}")
        (traced if mode == "trace" else passes).append(res)
        done = len(traced) if args.trace else len(passes)
        # Stop when one more pass as long as the last would end further past
        # --seconds than stopping now falls short of it.
        now = time.perf_counter()
        if (done >= (1 if args.trace else MIN_PASSES)
                and now - start + (now - began) / 2 >= args.seconds):
            break

    checker = Checker(records, texts)
    attempted = failed = 0
    correct = True
    for res in passes + traced:
        for inst in res["instances"]:
            attempted += 1
            bad = checker.failures(inst)
            if bad:
                failed += 1
                correct = correct and bool(inst["error"])
                print(f"FAILED {inst['id']}: {'; '.join(bad)}", file=sys.stderr)

    if args.trace:
        base = sum(i["seconds"] for i in passes[0]["instances"])
        overhead = [sum(i["seconds"] for i in t["instances"]) / base - 1.0 for t in traced]
        figures = {}
        for name in traced[0]["layers"]:
            figures[name] = statistics.median(t["layers"][name] for t in traced)
        figures.update(work_counts(records, passes[0]["instances"]))
        figures["trace.overhead_pct"] = 100.0 * statistics.median(overhead)
        units = {}
        for name in figures:
            units[name] = ("count" if name.endswith(".calls") or name.startswith("work.")
                           else "bits" if name.endswith("_bits_max")
                           else "%" if name.endswith("_pct") else "ms")
        metrics = {name: metric(value, units[name]) for name, value in figures.items()}
    else:
        # Each raw time is scaled by REFERENCE_S over the time of the
        # reference load right around it (set-up: right after it).
        times = [i["seconds"] * REFERENCE_S / i["ref_s"] for p in passes for i in p["instances"]]
        done = [(i, i["seconds"] * REFERENCE_S / i["ref_s"]) for p in passes
                for i in p["instances"] if not i["error"]]
        large = [t for i, t in done if records[i["id"]]["large"]]
        setup = [p["setup_s"] * REFERENCE_S / p["ref_s"] for p in probes + passes]
        metrics = {
            "instances_per_s": metric(len(done) / sum(times), "1/s"),
            "latency_p50_ms": metric(1000.0 * statistics.median(t for _, t in done), "ms"),
            "latency_large_p50_ms": metric(1000.0 * statistics.median(large), "ms"),
            "peak_rss_mib": metric(statistics.median(p["peak_rss_kib"] for p in passes) / 1024.0,
                                   "MiB"),
            "setup_s": metric(statistics.median(setup), "s"),
        }

    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(dict(summary, passes=len(passes), traced_passes=len(traced)), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
