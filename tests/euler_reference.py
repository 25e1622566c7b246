"""Binary-counter reference enumeration of transition systems.

Every state rebuilds its successor map and counts its cycles from scratch,
with nothing shared between states.  It is the oracle for the Gray-code walk
``euler._transition_systems`` behind ``circuit_partition_polynomial`` and
``all_euler_circuits``.
"""

from __future__ import annotations

from graphpoly.euler import EulerDigraph


def count_cycles(successor: dict) -> int:
    seen = set()
    cycles = 0
    for start in successor:
        if start in seen:
            continue
        cycles += 1
        a = start
        while a not in seen:
            seen.add(a)
            a = successor[a]
    return cycles


def reference_states(g: EulerDigraph):
    """Yield (pairing, successor map, cycle count) for all 2^n transition systems.

    The pairing lists, per vertex in id order, (v, ((in1, out), (in2, out)))
    with the in-arcs in arc order.  Bit k
    of the counter swaps the out-arcs at vertex k.
    """
    ins: dict[str, list] = {v: [] for v in g.vertex_ids}
    outs: dict[str, list] = {v: [] for v in g.vertex_ids}
    for aid, tail, head in g.arcs:
        outs[tail].append(aid)
        ins[head].append(aid)
    for code in range(1 << g.n):
        successor = {}
        pairing = []
        for k, v in enumerate(g.vertex_ids):
            (i1, i2), (o1, o2) = ins[v], outs[v]
            if code >> k & 1:
                o1, o2 = o2, o1
            successor[i1] = o1
            successor[i2] = o2
            pairing.append((v, ((i1, o1), (i2, o2))))
        yield tuple(pairing), successor, count_cycles(successor)
