"""Command-line front end for every pipeline.

Exit codes: 0 on success or a verified identity, 1 when a verification or
recognition comes back negative, 2 on usage or input-format errors and on
an input too large for the chosen method (a ``RecursionError`` or
``MemoryError``, reported in one line that names the method), and 3 when
an internal invariant check fails (an ``AssertionError``, reported in one
line; it means a bug, not bad input).  The 2^n enumerations (``q --method
state-sum``, ``qn --method specialize``, ``cpp`` and the four ``verify``
actions, whose largest instance is the file given or the largest
``--max-size`` can draw) first compare their state count with
``MAX_STATES`` and exit 2, naming a faster method, when it is over.
``--format json`` wraps results as {"input", "method", "result",
"elapsed_ms"}; polynomial results serialize as a list of
{"exps": {var: exponent}, "coeff": "<integer>"}.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import fileio
from .chords import circle_graph, verify_c_identity, verify_c_reduction
from .dh import bdh_to_sp, is_bdh, qn_bdh_fast, recognize_dh
from .euler import (chord_diagram_from_circuit, circuit_partition_polynomial,
                    euler_circuit, verify_circuit_partition_identity)
from .graphs import Graph
from .interlace import (coefficient_checks, gamma_invariant, q_recursive,
                        q_state_sum, qn_from_q, qn_of_q, qn_recursive)
from .planar import (beta_invariant, build_sp, diagonal, medial_digraph,
                     sp_diagonal_tutte, tutte_polynomial,
                     verify_medial_tutte_identity)
from .poly import SparsePoly
from . import randgen

OK, FAILED, USAGE, INTERNAL = 0, 1, 2, 3
MAX_STATES = 1 << 24  # largest 2^n state enumeration a command starts


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise fileio.FormatError(f"cannot read {path}: {exc.strerror}") from exc


def _emit(args, payload, method: str, started: float) -> None:
    if args.format == "json":
        if isinstance(payload, SparsePoly):
            result = payload.to_json_obj()
        elif hasattr(payload, "__dataclass_fields__"):
            result = str(payload)
        else:
            result = payload
        doc = {
            "input": getattr(args, "input_desc", None),
            "method": method,
            "result": result,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        print(payload)


def _load_graph(args) -> Graph:
    args.input_desc = args.edges
    return fileio.parse_edge_list(_read(args.edges))


def _over_budget(n: int, what: str, faster: str) -> bool:
    """Report and return True when 2^n states exceed ``MAX_STATES``."""
    if 1 << n <= MAX_STATES:
        return False
    print(f"error: {what} would enumerate 2^{n} states, over the limit of "
          f"{MAX_STATES}; use {faster}", file=sys.stderr)
    return True


def _too_small(value: int, least: int, what: str, unit: str = "") -> bool:
    """Report and return True when an option is below the smallest value it accepts."""
    if value >= least:
        return False
    print(f"error: {what} must be at least {least}{unit}", file=sys.stderr)
    return True


_CIRCLE_QN = ("qn --method recursion on the circle graph from circle-graph --arcs; "
              "f(G; x) = x*q_N(H; x+1)")
_SP_TUTTE = "tutte-diag-sp for t(G; x, x) = q_N(H; x)"
_CIRCLE_Q = "q --method recursion on the circle graph from circle-graph --word"


# -- subcommand handlers ------------------------------------------------------


def cmd_q(args) -> int:
    g = _load_graph(args)
    if args.method == "state-sum" and _over_budget(g.n, "q --method state-sum",
                                                   "--method recursion"):
        return USAGE
    t0 = time.perf_counter()
    poly = q_state_sum(g) if args.method == "state-sum" else q_recursive(g)
    _emit(args, poly, args.method, t0)
    return OK


def cmd_qn(args) -> int:
    g = _load_graph(args)
    if args.method == "specialize" and _over_budget(g.n, "qn --method specialize",
                                                    "--method recursion"):
        return USAGE
    t0 = time.perf_counter()
    if args.method == "recursion":
        poly = qn_recursive(g)
    elif args.method == "specialize":
        poly = qn_from_q(g)
    else:
        poly = qn_bdh_fast(g)
    _emit(args, poly, args.method, t0)
    return OK


def cmd_gamma(args) -> int:
    g = _load_graph(args)
    t0 = time.perf_counter()
    _emit(args, gamma_invariant(g), "pivot-recursion", t0)
    return OK


def cmd_tutte(args) -> int:
    args.input_desc = args.edges
    edges = fileio.parse_multigraph_edges(_read(args.edges))
    t0 = time.perf_counter()
    _emit(args, tutte_polynomial(edges), "deletion-contraction", t0)
    return OK


def cmd_tutte_diag_sp(args) -> int:
    args.input_desc = args.sp
    seq = fileio.parse_sp_sequence(_read(args.sp))
    t0 = time.perf_counter()
    _emit(args, sp_diagonal_tutte(seq), "two-terminal-dp", t0)
    return OK


def cmd_beta(args) -> int:
    args.input_desc = args.edges
    edges = fileio.parse_multigraph_edges(_read(args.edges))
    t0 = time.perf_counter()
    _emit(args, beta_invariant(edges), "deletion-contraction", t0)
    return OK


def cmd_cpp(args) -> int:
    args.input_desc = args.arcs
    g = fileio.parse_arc_list(_read(args.arcs))
    if _over_budget(g.n, "cpp", _CIRCLE_QN):
        return USAGE
    t0 = time.perf_counter()
    _emit(args, circuit_partition_polynomial(g), "state-enumeration", t0)
    return OK


def cmd_euler_circuit(args) -> int:
    args.input_desc = args.arcs
    g = fileio.parse_arc_list(_read(args.arcs))
    t0 = time.perf_counter()
    circ = euler_circuit(g)
    word = " ".join(g.arc(a)[1] for a in circ)
    _emit(args, {"arcs": list(circ), "visit_word": word} if args.format == "json"
          else " ".join(circ) + "\n# visits: " + word, "hierholzer", t0)
    return OK


def cmd_circle_graph(args) -> int:
    t0 = time.perf_counter()
    if args.word is not None:
        args.input_desc = args.word
        d = fileio.parse_chord_word(args.word)
    else:
        args.input_desc = args.arcs
        g = fileio.parse_arc_list(_read(args.arcs))
        d = chord_diagram_from_circuit(g, euler_circuit(g))
    h = circle_graph(d)
    if args.format == "json":
        _emit(args, {"vertices": list(h.ids), "edges": [list(e) for e in h.edges()]},
              "interleaving", t0)
    else:
        _emit(args, fileio.format_edge_list(h).rstrip("\n"), "interleaving", t0)
    return OK


def cmd_medial(args) -> int:
    t0 = time.perf_counter()
    if args.rotation is not None:
        args.input_desc = args.rotation
        g = fileio.parse_rotation_system(_read(args.rotation))
    else:
        args.input_desc = args.sp
        g = build_sp(fileio.parse_sp_sequence(_read(args.sp)))
    med = medial_digraph(g)
    _emit(args, fileio.format_arc_list(med).rstrip("\n"), "rotation-pairs", t0)
    return OK


def cmd_dh(args) -> int:
    g = _load_graph(args)
    t0 = time.perf_counter()
    if args.action == "recognize":
        rec = recognize_dh(g)
        if rec.accepted:
            _emit(args, rec.sequence.to_text().rstrip("\n"), "greedy-peel", t0)
            return OK
        _emit(args, "not distance-hereditary; stuck residual:\n"
              + fileio.format_edge_list(rec.residual).rstrip("\n"), "greedy-peel", t0)
        return FAILED
    if args.action == "is-bdh":
        check = is_bdh(g)
        _emit(args, f"{'yes' if check.value else 'no'}: {check.reason}", "greedy-peel", t0)
        return OK if check.value else FAILED
    check = is_bdh(g)
    if not check.value or g.n == 1:
        reason = check.reason if not check.value else "a single vertex has no edge to build"
        _emit(args, f"no series-parallel form: {reason}", "greedy-peel", t0)
        return FAILED
    sp, edge_of = bdh_to_sp(check.recognition.sequence)
    text = sp.to_text().rstrip("\n")
    mapping = ", ".join(f"{v}->{e}" for v, e in sorted(edge_of.items()))
    _emit(args, text + "\n# vertex to edge: " + mapping, "colour-states", t0)
    return OK


def _report_exit(args, report, method, t0) -> int:
    _emit(args, report, method, t0)
    return OK if report.ok else FAILED


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    if args.what == "theorem-a":
        if args.arcs:
            args.input_desc = args.arcs
            g = fileio.parse_arc_list(_read(args.arcs))
            if _over_budget(g.n, "verify theorem-a --arcs", _CIRCLE_QN):
                return USAGE
            return _report_exit(args, verify_circuit_partition_identity(g), "theorem-a", t0)
        if (_too_small(args.max_size, 2, "verify theorem-a --max-size", " vertices")
                or _over_budget(args.max_size, "verify theorem-a --max-size", _CIRCLE_QN)):
            return USAGE
        rng = random.Random(args.seed)
        for k in range(args.count):
            g = randgen.random_2in2out(rng.randrange(2, args.max_size + 1), rng)
            rep = verify_circuit_partition_identity(g)
            if not rep.ok:
                _emit(args, f"instance {k}: {rep}", "theorem-a", t0)
                return FAILED
        _emit(args, f"circuit partition identity holds on {args.count} random digraphs",
              "theorem-a", t0)
        return OK
    if args.what == "theorem-b":
        if args.sp:
            args.input_desc = args.sp
            seq = fileio.parse_sp_sequence(_read(args.sp))
            if _over_budget(len(seq) + 1, "verify theorem-b --sp", _SP_TUTTE):
                return USAGE
            return _report_exit(args, verify_medial_tutte_identity(seq), "theorem-b", t0)
        # a script of M ops has M + 2 edges, one vertex of H each
        if (_too_small(args.max_size, 1, "verify theorem-b --max-size", " op")
                or _over_budget(args.max_size + 2, "verify theorem-b --max-size", _SP_TUTTE)):
            return USAGE
        rng = random.Random(args.seed)
        for k in range(args.count):
            seq = randgen.random_sp_sequence(rng.randrange(1, args.max_size + 1), rng)
            rep = verify_medial_tutte_identity(seq)
            if not rep.ok:
                _emit(args, f"instance {k}: {rep}", "theorem-b", t0)
                return FAILED
        _emit(args, f"medial diagonal identity holds on {args.count} random constructions",
              "theorem-b", t0)
        return OK
    # cpoly and identities run state sums over the 2^M subsets of M chords or vertices
    what = f"verify {args.what} --max-size"
    unit, faster = ((" chord", _CIRCLE_Q) if args.what == "cpoly"
                    else (" vertex", "q --method recursion"))
    if _too_small(args.max_size, 1, what, unit) or _over_budget(args.max_size, what, faster):
        return USAGE
    if args.what == "cpoly":
        rng = random.Random(args.seed)
        points = ((1, 1), (2, 4), (3, 9), (5, 16))
        for k in range(args.count):
            d = randgen.random_chord_diagram(rng.randrange(1, args.max_size + 1), rng)
            rep = verify_c_identity(d, points)
            if not rep.ok:
                _emit(args, f"diagram {d}: {rep}", "cpoly", t0)
                return FAILED
            h = circle_graph(d)
            for a, b in h.edges()[:1]:
                red = verify_c_reduction(d, a, b)
                if not red.variant_minus_b_ok:
                    _emit(args, f"diagram {d}: {red}", "cpoly", t0)
                    return FAILED
        _emit(args, f"C-polynomial identity holds on {args.count} random diagrams",
              "cpoly", t0)
        return OK
    # identities
    rng = random.Random(args.seed)
    failures = []
    for k in range(args.count):
        g = randgen.random_graph(rng.randrange(1, args.max_size + 1), rng)
        if not g.is_simple():
            continue
        q = q_state_sum(g)
        qn = qn_of_q(q)
        if qn != qn_recursive(g):
            failures.append(f"{k}: q_N route mismatch")
        if any(c <= 0 for c in qn.terms.values()):
            failures.append(f"{k}: non-positive q_N coefficient")
        if qn.min_total_degree() != len(g.components()):
            failures.append(f"{k}: lowest degree is not the component count")
        rep = coefficient_checks(g, q)
        if not rep.ok:
            failures.append(f"{k}: {rep}")
        for u, v in g.edges()[:1]:
            if qn != qn_from_q(g.pivot(u, v)):
                failures.append(f"{k}: q_N not pivot-invariant")
    if failures:
        _emit(args, "; ".join(failures), "identities", t0)
        return FAILED
    _emit(args, f"identity suite passed on {args.count} random graphs", "identities", t0)
    return OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphpoly",
        description="exact interlace / circuit-partition / Tutte polynomial toolkit")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    def with_edges(sp):
        sp.add_argument("--edges", required=True, help="edge list file")

    s = sub.add_parser("q", help="two-variable interlace polynomial")
    with_edges(s)
    s.add_argument("--method", choices=("state-sum", "recursion"), default="state-sum")
    s.set_defaults(func=cmd_q)

    s = sub.add_parser("qn", help="vertex-nullity interlace polynomial")
    with_edges(s)
    s.add_argument("--method", choices=("recursion", "specialize", "bdh-fast"),
                   default="recursion")
    s.set_defaults(func=cmd_qn)

    s = sub.add_parser("gamma", help="coefficient of x^1 in q_N")
    with_edges(s)
    s.set_defaults(func=cmd_gamma)

    s = sub.add_parser("tutte", help="Tutte polynomial of a multigraph")
    s.add_argument("--edges", required=True, help="multigraph edge list file")
    s.set_defaults(func=cmd_tutte)

    s = sub.add_parser("tutte-diag-sp", help="diagonal Tutte of a series-parallel script")
    s.add_argument("--sp", required=True, help="series-parallel script file")
    s.set_defaults(func=cmd_tutte_diag_sp)

    s = sub.add_parser("beta", help="beta invariant of a multigraph")
    s.add_argument("--edges", required=True, help="multigraph edge list file")
    s.set_defaults(func=cmd_beta)

    s = sub.add_parser("cpp", help="circuit partition polynomial")
    s.add_argument("--arcs", required=True, help="arc list file (u -> v)")
    s.set_defaults(func=cmd_cpp)

    s = sub.add_parser("euler-circuit", help="one Euler circuit of a 2-in 2-out digraph")
    s.add_argument("--arcs", required=True)
    s.set_defaults(func=cmd_euler_circuit)

    s = sub.add_parser("circle-graph", help="circle graph of a chord word or digraph circuit")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--word", help="chord word, e.g. '1 2 1 2'")
    grp.add_argument("--arcs", help="arc list file; uses an Euler circuit")
    s.set_defaults(func=cmd_circle_graph)

    s = sub.add_parser("medial", help="oriented medial digraph of a plane multigraph")
    grp = s.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rotation", help="rotation system file")
    grp.add_argument("--sp", help="series-parallel script file")
    s.set_defaults(func=cmd_medial)

    s = sub.add_parser("dh", help="distance-hereditary tooling")
    s.add_argument("action", choices=("recognize", "is-bdh", "to-sp"))
    with_edges(s)
    s.set_defaults(func=cmd_dh)

    s = sub.add_parser("verify", help="identity verification suites")
    s.add_argument("what", choices=("theorem-a", "theorem-b", "cpoly", "identities"))
    s.add_argument("--seed", type=int, help="seed for randomized corpora")
    s.add_argument("--count", type=int, default=50)
    s.add_argument("--max-size", type=int, default=8)
    s.add_argument("--arcs", help="single-instance mode for theorem-a")
    s.add_argument("--sp", help="single-instance mode for theorem-b")
    s.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    if args.command == "verify" and not {"theorem-a": args.arcs,
                                         "theorem-b": args.sp}.get(args.what):
        if args.seed is None:
            print("error: randomized verification requires --seed", file=sys.stderr)
            return USAGE
        if _too_small(args.count, 1, "verify --count"):
            return USAGE
    try:
        return args.func(args)
    except fileio.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (RecursionError, MemoryError) as exc:
        method = " ".join(filter(None, (args.command, getattr(args, "method", None))))
        print(f"error: input too large for {method} ({type(exc).__name__})", file=sys.stderr)
        return USAGE
    except AssertionError as exc:
        print(f"error: internal invariant broken: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
