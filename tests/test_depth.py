"""Deep inputs under a small recursion limit.

Each route below must stay iterative, or recurse only a constant depth, on
inputs of hundreds or thousands of vertices: it runs with the limit a few
frames above the test's own stack depth.
"""

import inspect
import random
import sys

from builders import path_qn
from graphpoly.dh import qn_bdh_fast, recognize_dh
from graphpoly.graphs import cycle_graph, path_graph
from graphpoly.interlace import gamma_state_sum, q_recursive, q_state_sum, qn_recursive
from graphpoly.planar import tutte_polynomial
from graphpoly.randgen import random_bdh_graph


def test_long_inputs_run_a_few_frames_above_the_callers_depth():
    qn_path, q_path = path_qn(2000), q_state_sum(path_graph(60))
    bdh = random_bdh_graph(800, random.Random(83))
    cycle_edges = cycle_graph(2000).edges()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        assert qn_recursive(path_graph(2000)) == qn_path
        assert q_recursive(path_graph(60)) == q_path
        qn_bdh_fast(bdh)
        assert recognize_dh(bdh).accepted
        tutte_polynomial(cycle_edges)
        assert gamma_state_sum(path_graph(200)) == 2
    finally:
        sys.setrecursionlimit(limit)
