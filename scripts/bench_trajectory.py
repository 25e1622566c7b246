#!/usr/bin/env python3
"""Record one point of the benchmark trajectory: BENCH_<short-sha>.json.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` for
each workload of ``BENCHMARK.json`` (or those given by ``--workloads``),
``RUNS`` times each, and writes ``BENCH_<short-sha>.json`` to ``--out``
(the root of the checkout by default).  The file holds the commit, whether
``src`` or ``perfbench`` differ from it (``dirty``), the seed, the seconds,
the Python version, and per workload the failed and attempted
instance counts and each end-to-end metric of ``BENCHMARK.json`` as its
median over the runs with every run's value.  It names the previous file:
the ``BENCH_*.json`` in ``--out`` of the nearest earlier commit, and gives
each metric's relative change against that file's median.  A run whose
output is wrong, or any failed instance, is an error.  Pairs against a
parent commit should still alternate which side runs first, since the
second of two back-to-back runs tends to read slower.

Usage: python scripts/bench_trajectory.py [--workloads bdh_fast,qn_dense]
       [--seed 1] [--seconds 10] [--out DIR]
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 3  # perfbench runs per workload; each metric is their median


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_workload(name: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its summary, the last line of standard output."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench {name} exited with {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    if not summary["correct"] or summary["failed"]:
        raise SystemExit(f"error: perfbench {name} failed {summary['failed']} of "
                         f"{summary['attempted']} instances")
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args()
    names = [m["name"] for m in spec["end_to_end"]]

    commits = _git("rev-list", "HEAD").split()
    sha = commits[0][:7] if commits else "nogit"
    previous = next((args.out / f"BENCH_{c[:7]}.json" for c in commits[1:]
                     if (args.out / f"BENCH_{c[:7]}.json").is_file()), None)
    before = json.loads(previous.read_text())["workloads"] if previous else {}

    workloads = {}
    for w in args.workloads.split(","):
        runs = [run_workload(w, args.seed, args.seconds) for _ in range(RUNS)]
        metrics = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"median": statistics.median(values), "runs": values}
            old = before.get(w, {}).get("metrics", {}).get(name)
            if old:
                metrics[name]["change_vs_previous"] = round(
                    metrics[name]["median"] / old["median"] - 1.0, 4)
        workloads[w] = {"attempted": sum(r["attempted"] for r in runs),
                        "failed": sum(r["failed"] for r in runs), "metrics": metrics}

    doc = {"commit": sha,
           "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
           "previous": previous.name if previous else None,
           "seed": args.seed, "seconds": args.seconds, "runs": RUNS,
           "python": platform.python_version(), "workloads": workloads}
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{sha}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
