"""Exact graph-polynomial workbench.

Interlace polynomials (state sum and pivot recursion), circuit partition
polynomials of 2-in 2-out digraphs, Tutte polynomials of multigraphs with a
polynomial-time diagonal evaluator for series-parallel constructions, chord
diagrams and their C-polynomial, and distance-hereditary recognition with a
fast vertex-nullity route for the bipartite class.  Every pipeline has an
independent brute-force oracle in the test suite.  Values are immutable
``__slots__`` classes and check reports are ``typing.NamedTuple`` classes,
which keeps ``import graphpoly`` to a few milliseconds; ``tests/test_exports.py``
names the standard modules the import must not load.
"""

from .chords import (ChordDiagram, c_polynomial, chord_pivot, circle_graph,
                     verify_c_identity, verify_c_reduction)
from .dh import (DHSequence, apply_dh_sequence, bdh_to_sp, gamma_from_sequence,
                 is_bdh, qn_bdh_fast, recognize_dh)
from .euler import (EulerDigraph, all_euler_circuits, chord_diagram_from_circuit,
                    circuit_partition_polynomial, euler_circuit,
                    verify_circuit_partition_identity)
from .graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .interlace import (coefficient_checks, gamma_invariant, q_recursive,
                        q_state_sum, qn_from_q, qn_recursive)
from .planar import (PlaneMultigraph, SPSequence, beta_invariant, build_sp,
                     diagonal, medial_digraph, sp_diagonal_tutte,
                     tutte_polynomial, verify_medial_tutte_identity)
from .poly import SparsePoly, VariableMismatchError

__version__ = "0.1.0"

__all__ = [
    "ChordDiagram", "c_polynomial", "chord_pivot", "circle_graph",
    "verify_c_identity", "verify_c_reduction",
    "DHSequence", "apply_dh_sequence", "bdh_to_sp", "gamma_from_sequence",
    "is_bdh", "qn_bdh_fast", "recognize_dh",
    "EulerDigraph", "all_euler_circuits", "chord_diagram_from_circuit",
    "circuit_partition_polynomial", "euler_circuit",
    "verify_circuit_partition_identity",
    "Graph", "complete_graph", "cycle_graph", "path_graph", "star_graph",
    "coefficient_checks", "gamma_invariant",
    "q_recursive", "q_state_sum", "qn_from_q", "qn_recursive",
    "PlaneMultigraph", "SPSequence", "beta_invariant", "build_sp",
    "diagonal", "medial_digraph", "sp_diagonal_tutte",
    "tutte_polynomial", "verify_medial_tutte_identity",
    "SparsePoly", "VariableMismatchError",
]
