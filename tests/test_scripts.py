"""Smoke tests of the runnable experiments in ``scripts/``.

Each script runs in its own interpreter on small inputs, so a script that
imports a renamed or removed name fails here instead of at its next use.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))


# the command line of each script and a line it must print, as a regular expression
SCRIPTS = [
    (("reproduce_known_values.py",), r"C\(1 2 1 2; Y, Z\) = Y\^2\*Z \+ 2\*Y \+ 1"),
    (("fastpath_scaling.py", "--sizes", "50,100", "--repeats", "1"),
     r"log-log slope 50 -> 100: peel -?\d+\.\d\d, pair DP -?\d+\.\d\d"),
    (("kernel_timing.py", "--only", "K_7,qN_P_160,peel_BDH_1600", "--repeats", "1"),
     r"qN_P_160 +qn_recursive +\d+\.\d{3} +\d+\.\d"),
]


@pytest.mark.parametrize("script, line", SCRIPTS, ids=[script[0] for script, _ in SCRIPTS])
def test_script_runs_and_prints_its_result(script, line):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 0, done.stderr
    assert any(re.fullmatch(line, s.strip()) for s in done.stdout.splitlines()), done.stdout


def test_kernel_timing_rejects_an_unknown_input_before_timing():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_timing.py"),
                           "--only", "K_7,nosuch", "--repeats", "1"],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 2
    assert done.stderr == "error: unknown input(s): nosuch\n" and done.stdout == ""


@pytest.mark.parametrize("repeats", ["0", "-2", "two"])
def test_kernel_timing_rejects_a_repeat_count_below_one_before_timing(repeats):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "kernel_timing.py"),
                           "--only", "K_7", "--repeats", repeats],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert "argument --repeats" in done.stderr


@pytest.mark.parametrize("repeats", ["0", "-2", "two"])
def test_fastpath_scaling_rejects_a_repeat_count_below_one_before_timing(repeats):
    # with no repeat, the loop that builds the polynomial never ran
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fastpath_scaling.py"),
                           "--sizes", "5", "--repeats", repeats],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert done.returncode == 2 and done.stdout == ""
    assert "argument --repeats" in done.stderr


def test_bench_trajectory_writes_every_end_to_end_metric(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
                           "--workloads", "bdh_fast", "--seconds", "0.1", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    (path,) = tmp_path.glob("BENCH_*.json")
    doc = json.loads(path.read_text())
    assert doc["seed"] == 1 and doc["seconds"] == 0.1 and doc["previous"] is None
    assert list(doc["workloads"]) == ["bdh_fast"]
    entry = doc["workloads"]["bdh_fast"]
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert len(names) == 5 and set(entry["metrics"]) == names
    assert entry["failed"] == 0 and entry["attempted"] > 0
    assert all(m["median"] > 0 and len(m["runs"]) == 3 for m in entry["metrics"].values())
