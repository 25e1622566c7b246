"""Seeded input generators for the benchmark.

Everything here is plain standard-library code, independent of
``graphpoly`` (its ``randgen`` module included), so that edits to the
program cannot change what the benchmark feeds it.  A workload's pass is a
fixed list of size slots; the seed only decides the random structure that
fills each slot.  Inputs are written in the program's own text formats
(edge lists, series-parallel scripts, arc lists) and parsed by
``graphpoly.fileio`` during set-up.

Regenerate the inputs of one workload and seed with

    python3 perfbench/gen.py --workload bdh_fast --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random

# Each slot is (family, size, large).  ``large`` marks the instances whose
# median latency is reported as latency_large_p50_ms.  Every pass puts a
# block of five like instances in the middle of its time order (on
# qn_sparse, paths of nearly equal length), so that latency_p50_ms is the
# median of like instances rather than of whichever family sits there.
PASSES = {
    "bdh_fast": (
        [("bdh", n, False) for n in (50, 60, 70, 90, 90, 90, 90, 90)]
        + [("bdh", 200, True)] * 3
    ),
    "qn_dense": (
        [("dense", n, False) for n in (12, 16, 18, 19, 20, 20, 20, 20, 20, 21, 21)]
        + [("dense", 22, True)] * 3
    ),
    "qn_sparse": (
        [("tree", n, False) for n in (22, 24, 26)]
        + [("dh", n, False) for n in (20, 22, 24)]
        + [("path", n, False) for n in (150, 155, 160, 165, 170, 185, 210, 230, 255)]
        + [("path", 300, True)]
    ),
    "verify_sweep": (
        [("cpp", n, False) for n in (8, 9, 10, 11, 12)]
        + [("sp", k, False) for k in (10, 11, 12, 12, 12, 12, 12, 13, 13, 14, 14)]
        + [("sp", 15, True)] * 3
    ),
}

# How each family is handed to the program.
CALLS = {
    "bdh": ("qn_bdh_fast", "edges"),
    "dense": ("qn_recursive", "edges"),
    "path": ("qn_recursive", "edges"),
    "tree": ("qn_recursive", "edges"),
    "dh": ("qn_recursive", "edges"),
    "cpp": ("theorem_a", "arcs"),
    "sp": ("theorem_b", "sp"),
}

WORKLOAD_SALT = {"bdh_fast": 1, "qn_dense": 2, "qn_sparse": 3, "verify_sweep": 4}


# -- graph families -------------------------------------------------------------


def dh_script(n: int, rng: random.Random, kinds: tuple) -> list[tuple]:
    """Construction script: root, a first pendant, then random moves on earlier vertices."""
    ops = [("root", "v1"), ("pendant", "v2", "v1")]
    for k in range(3, n + 1):
        ops.append((rng.choice(kinds), f"v{k}", f"v{rng.randrange(1, k)}"))
    return ops


def replay_dh(ops: list[tuple]) -> dict[str, set]:
    """Adjacency sets of the graph a pendant/twin script builds."""
    adj: dict[str, set] = {ops[0][1]: set()}
    for kind, new, at in ops[1:]:
        if kind == "pendant":
            adj[new] = {at}
        else:
            adj[new] = set(adj[at]) | ({at} if kind == "truetwin" else set())
        for z in adj[new]:
            adj[z].add(new)
    return adj


def edges_of(adj: dict[str, set]) -> list[tuple[str, str]]:
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def is_connected(adj: dict[str, set]) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def dense_graph(n: int, rng: random.Random) -> dict[str, set]:
    """Connected G(n, 1/2), by rejection."""
    while True:
        adj = {f"v{i}": set() for i in range(1, n + 1)}
        vs = list(adj)
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                if rng.random() < 0.5:
                    adj[u].add(v)
                    adj[v].add(u)
        if is_connected(adj):
            return adj


def random_tree(n: int, rng: random.Random) -> dict[str, set]:
    """Uniform labelled tree on n vertices, decoded from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj = {f"v{i + 1}": set() for i in range(n)}

    def link(a, b):
        adj[f"v{a + 1}"].add(f"v{b + 1}")
        adj[f"v{b + 1}"].add(f"v{a + 1}")

    for x in seq:
        leaf = min(i for i in range(n) if degree[i] == 1)
        link(leaf, x)
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [i for i in range(n) if degree[i] == 1]
    link(u, v)
    return adj


def path_edges(n: int) -> list[tuple[str, str]]:
    return [(f"p{i}", f"p{i + 1}") for i in range(1, n)]


def relabel(edges: list[tuple[str, str]], rng: random.Random) -> list[tuple[str, str]]:
    """Random vertex names and a random edge order, so no input arrives pre-sorted."""
    vs = sorted({z for e in edges for z in e})
    names = [f"u{i}" for i in range(1, len(vs) + 1)]
    rng.shuffle(names)
    rename = dict(zip(vs, names))
    out = [(rename[u], rename[v]) if rng.random() < 0.5 else (rename[v], rename[u])
           for u, v in edges]
    rng.shuffle(out)
    return out


def edge_text(edges: list[tuple[str, str]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


# -- digraphs and series-parallel scripts --------------------------------------------


def random_2in2out(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """Random pairing of out-stubs to in-stubs, rejecting a disconnected support."""
    vs = [f"w{i}" for i in range(1, n + 1)]
    while True:
        tails = [v for v in vs for _ in range(2)]
        heads = list(tails)
        rng.shuffle(heads)
        arcs = list(zip(tails, heads))
        rng.shuffle(arcs)
        adj = {v: set() for v in vs}
        for t, h in arcs:
            adj[t].add(h)
            adj[h].add(t)
        if is_connected(adj):
            return arcs


def random_sp_script(k: int, rng: random.Random) -> list[tuple]:
    """Digon followed by k series/parallel operations on uniformly chosen edges."""
    ops = [("digon",)]
    for count in range(2, k + 2):
        ops.append((rng.choice(("series", "parallel")), f"e{rng.randrange(1, count + 1)}"))
    return ops


# -- workload assembly ---------------------------------------------------------------


def make_instance(family: str, size: int, rng: random.Random) -> tuple[dict, str]:
    """One instance record and its input text."""
    call, fmt = CALLS[family]
    rec = {"family": family, "call": call, "format": fmt, "size": size, "n": size,
           "true_twins": None}
    if family == "bdh":
        ops = dh_script(size, rng, ("pendant", "falsetwin"))
        text = edge_text(relabel(edges_of(replay_dh(ops)), rng))
        rec["true_twins"] = 0
    elif family == "dh":
        ops = dh_script(size, rng, ("pendant", "truetwin", "falsetwin"))
        text = edge_text(relabel(edges_of(replay_dh(ops)), rng))
        rec["true_twins"] = sum(1 for op in ops if op[0] == "truetwin")
    elif family == "dense":
        text = edge_text(relabel(edges_of(dense_graph(size, rng)), rng))
    elif family == "tree":
        text = edge_text(relabel(edges_of(random_tree(size, rng)), rng))
    elif family == "path":
        # Paths keep their natural order: the pendant recurrence check needs
        # only the length, and the order is the one ``graphpoly.path_graph`` uses.
        text = edge_text(path_edges(size))
    elif family == "cpp":
        text = "".join(f"{t} -> {h}\n" for t, h in random_2in2out(size, rng))
    elif family == "sp":
        ops = random_sp_script(size, rng)
        text = "".join(op[0] + (f" {op[1]}" if len(op) > 1 else "") + "\n" for op in ops)
        rec["n"] = 2 + sum(1 for op in ops if op[0] == "series")
    else:
        raise ValueError(f"unknown family {family!r}")
    return rec, text


def generate(workload: str, seed: int) -> list[tuple[dict, str]]:
    """The pass of one workload: (record, input text) per slot, fixed by the seed."""
    if workload not in PASSES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed * 1009 + WORKLOAD_SALT[workload])
    out = []
    for k, (family, size, large) in enumerate(PASSES[workload]):
        rec, text = make_instance(family, size, rng)
        rec.update(id=f"{k:02d}-{family}-{size}",
                   file=f"{k:02d}-{family}-{size}.{rec['format']}", large=large)
        out.append((rec, text))
    return out


def write_inputs(workload: str, seed: int, directory: str) -> list[tuple[dict, str]]:
    """Write the input files and ``manifest.json``; returns what ``generate`` gave."""
    os.makedirs(directory, exist_ok=True)
    instances = generate(workload, seed)
    for rec, text in instances:
        with open(os.path.join(directory, rec["file"]), "w") as fh:
            fh.write(text)
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "instances": [rec for rec, _ in instances]}, fh, indent=1)
    return instances


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the input files")
    args = ap.parse_args()
    write_inputs(args.workload, args.seed, args.out)
    print(os.path.join(args.out, "manifest.json"))


if __name__ == "__main__":
    main()
