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
{"exps": {var: exponent}, "coeff": "<integer>"}.  On every command
``elapsed_ms`` is the time from the end of parsing the input (for a
randomized ``verify``, from the end of the option checks) to the result.
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
from .interlace import (coefficient_checks, gamma_invariant, q_recursive,
                        q_state_sum, qn_from_q, qn_of_q, qn_recursive)
from .planar import (beta_invariant, build_sp, medial_digraph, sp_diagonal_tutte,
                     tutte_polynomial, verify_medial_tutte_identity)
from .poly import SparsePoly
from . import randgen

OK, FAILED, USAGE, INTERNAL = 0, 1, 2, 3
MAX_STATES = 1 << 24  # largest 2^n state enumeration a command starts


def _read(args, option: str, parse):
    """Parse the file named by ``--option`` and record its path as the input."""
    path = args.input_desc = getattr(args, option)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise fileio.FormatError(f"cannot read {path}: {exc.strerror}") from exc
    return parse(text)


def _emit(args, payload, method: str, started: float) -> None:
    if args.format == "json":
        if isinstance(payload, SparsePoly):
            result = payload.to_json_obj()
        elif hasattr(payload, "_fields"):  # a NamedTuple report prints as its str
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

# Commands that are one library call on one parsed file: command -> (help, file
# option, its help, parser, {method: (function name, faster method)}).  The first
# method is the default; with one method there is no --method option.  A faster
# method marks a 2^n enumeration.  Functions are looked up when the command runs.
_CALLS = {
    "q": ("two-variable interlace polynomial", "edges", "edge list file",
          fileio.parse_edge_list,
          {"state-sum": ("q_state_sum", "--method recursion"),
           "recursion": ("q_recursive", None)}),
    "qn": ("vertex-nullity interlace polynomial", "edges", "edge list file",
           fileio.parse_edge_list,
           {"recursion": ("qn_recursive", None),
            "specialize": ("qn_from_q", "--method recursion"),
            "bdh-fast": ("qn_bdh_fast", None)}),
    "gamma": ("coefficient of x^1 in q_N", "edges", "edge list file",
              fileio.parse_edge_list, {"pivot-recursion": ("gamma_invariant", None)}),
    "tutte": ("Tutte polynomial of a multigraph", "edges", "multigraph edge list file",
              fileio.parse_multigraph_edges,
              {"deletion-contraction": ("tutte_polynomial", None)}),
    "tutte-diag-sp": ("diagonal Tutte of a series-parallel script", "sp",
                      "series-parallel script file", fileio.parse_sp_sequence,
                      {"two-terminal-dp": ("sp_diagonal_tutte", None)}),
    "beta": ("beta invariant of a multigraph", "edges", "multigraph edge list file",
             fileio.parse_multigraph_edges,
             {"deletion-contraction": ("beta_invariant", None)}),
    "cpp": ("circuit partition polynomial", "arcs", "arc list file (u -> v)",
            fileio.parse_arc_list,
            {"state-enumeration": ("circuit_partition_polynomial", _CIRCLE_QN)}),
}


def _theorem(verify: str):
    """Check of the k-th instance by the report function of a theorem."""
    def check(k, instance) -> list[str]:
        rep = globals()[verify](instance)
        return [] if rep.ok else [f"instance {k}: {rep}"]
    return check


def _check_cpoly(k, d) -> list[str]:
    rep = verify_c_identity(d, ((1, 1), (2, 4), (3, 9), (5, 16)))
    if not rep.ok:
        return [f"diagram {d}: {rep}"]
    for a, b in circle_graph(d).edges()[:1]:
        red = verify_c_reduction(d, a, b)
        if not red.ok:
            return [f"diagram {d}: {red}"]
    return []


def _check_identities(k, g) -> list[str]:
    q = q_state_sum(g)
    qn = qn_of_q(q)
    failures = []
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
    return failures


# The verify suites: suite -> (randgen function, smallest size, its unit, extra,
# faster method, check, message on success, single-instance mode).  A draw of
# size M has 2^(M + extra) states; check(k, instance) returns the failures of
# the k-th instance.  The single-instance mode is (file option, parser, size of
# the parsed instance, report function name), or None.
_SUITES = {
    "theorem-a": ("random_2in2out", 2, " vertices", 0, _CIRCLE_QN,
                  _theorem("verify_circuit_partition_identity"),
                  "circuit partition identity holds on {} random digraphs",
                  ("arcs", fileio.parse_arc_list, lambda g: g.n,
                   "verify_circuit_partition_identity")),
    # a script of M ops after the digon has M + 2 edges, one vertex of H each
    "theorem-b": ("random_sp_sequence", 1, " op", 2, _SP_TUTTE,
                  _theorem("verify_medial_tutte_identity"),
                  "medial diagonal identity holds on {} random constructions",
                  ("sp", fileio.parse_sp_sequence, lambda seq: len(seq) - 1,
                   "verify_medial_tutte_identity")),
    # cpoly and identities run state sums over the 2^M subsets of M chords or vertices
    "cpoly": ("random_chord_diagram", 1, " chord", 0, _CIRCLE_Q, _check_cpoly,
              "C-polynomial identity holds on {} random diagrams", None),
    "identities": ("random_graph", 1, " vertex", 0, "q --method recursion",
                   _check_identities, "identity suite passed on {} random graphs", None),
}


# -- subcommand handlers ------------------------------------------------------


def cmd_call(args) -> int:
    _, option, _, parse, methods = _CALLS[args.command]
    value = _read(args, option, parse)
    method = getattr(args, "method", next(iter(methods)))
    function, faster = methods[method]
    what = args.command if len(methods) == 1 else f"{args.command} --method {method}"
    if faster and _over_budget(value.n, what, faster):
        return USAGE
    t0 = time.perf_counter()
    _emit(args, globals()[function](value), method, t0)
    return OK


def cmd_euler_circuit(args) -> int:
    g = _read(args, "arcs", fileio.parse_arc_list)
    t0 = time.perf_counter()
    circ = euler_circuit(g)
    word = " ".join(g.arc(a)[1] for a in circ)
    _emit(args, {"arcs": list(circ), "visit_word": word} if args.format == "json"
          else " ".join(circ) + "\n# visits: " + word, "hierholzer", t0)
    return OK


def cmd_circle_graph(args) -> int:
    if args.word is not None:
        args.input_desc = args.word
        d = fileio.parse_chord_word(args.word)
        t0 = time.perf_counter()
    else:
        g = _read(args, "arcs", fileio.parse_arc_list)
        t0 = time.perf_counter()
        d = chord_diagram_from_circuit(g, euler_circuit(g))
    h = circle_graph(d)
    if args.format == "json":
        _emit(args, {"vertices": list(h.ids), "edges": [list(e) for e in h.edges()]},
              "interleaving", t0)
    else:
        _emit(args, fileio.format_edge_list(h).rstrip("\n"), "interleaving", t0)
    return OK


def cmd_medial(args) -> int:
    if args.rotation is not None:
        g = _read(args, "rotation", fileio.parse_rotation_system)
        t0 = time.perf_counter()
    else:
        seq = _read(args, "sp", fileio.parse_sp_sequence)
        t0 = time.perf_counter()
        g = build_sp(seq)
    med = medial_digraph(g)
    _emit(args, fileio.format_arc_list(med).rstrip("\n"), "rotation-pairs", t0)
    return OK


def cmd_dh(args) -> int:
    g = _read(args, "edges", fileio.parse_edge_list)
    t0 = time.perf_counter()
    if args.action == "recognize":
        rec = recognize_dh(g)
        if rec.accepted:
            _emit(args, rec.sequence.to_text().rstrip("\n"), "greedy-peel", t0)
            return OK
        _emit(args, "not distance-hereditary; stuck residual:\n"
              + fileio.format_edge_list(rec.residual).rstrip("\n"), "greedy-peel", t0)
        return FAILED
    check = is_bdh(g)
    if args.action == "is-bdh":
        _emit(args, f"{'yes' if check.value else 'no'}: {check.reason}", "greedy-peel", t0)
        return OK if check.value else FAILED
    if not check.value or g.n == 1:
        reason = check.reason if not check.value else "a single vertex has no edge to build"
        _emit(args, f"no series-parallel form: {reason}", "greedy-peel", t0)
        return FAILED
    sp, edge_of = bdh_to_sp(check.recognition.sequence)
    text = sp.to_text().rstrip("\n")
    mapping = ", ".join(f"{v}->{e}" for v, e in sorted(edge_of.items()))
    _emit(args, text + "\n# vertex to edge: " + mapping, "colour-states", t0)
    return OK


def cmd_verify(args) -> int:
    draw, least, unit, extra, faster, check, passed, single = _SUITES[args.what]
    if single and getattr(args, single[0]):
        option, parse, size, verify = single
        instance = _read(args, option, parse)
        if _over_budget(size(instance) + extra, f"verify {args.what} --{option}", faster):
            return USAGE
        t0 = time.perf_counter()
        rep = globals()[verify](instance)
        _emit(args, rep, args.what, t0)
        return OK if rep.ok else FAILED
    if args.seed is None:
        print("error: randomized verification requires --seed", file=sys.stderr)
        return USAGE
    what = f"verify {args.what} --max-size"
    if (_too_small(args.count, 1, "verify --count")
            or _too_small(args.max_size, least, what, unit)
            or _over_budget(args.max_size + extra, what, faster)):
        return USAGE
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    for k in range(args.count):
        instance = getattr(randgen, draw)(rng.randrange(least, args.max_size + 1), rng)
        failures = check(k, instance)
        if failures:
            _emit(args, "; ".join(failures), args.what, t0)
            return FAILED
    _emit(args, passed.format(args.count), args.what, t0)
    return OK


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphpoly",
        description="exact interlace / circuit-partition / Tutte polynomial toolkit")
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="command", required=True)

    for command, (summary, option, file_help, _, methods) in _CALLS.items():
        s = sub.add_parser(command, help=summary)
        s.add_argument(f"--{option}", required=True, help=file_help)
        if len(methods) > 1:
            s.add_argument("--method", choices=tuple(methods), default=next(iter(methods)))
        s.set_defaults(func=cmd_call)

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
    s.add_argument("--edges", required=True, help="edge list file")
    s.set_defaults(func=cmd_dh)

    s = sub.add_parser("verify", help="identity verification suites")
    s.add_argument("what", choices=tuple(_SUITES))
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
    try:
        return args.func(args)
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
