"""The data-argument rules, one table across the layers that take them.

Data integers (vertex ids, sizes, counts, partition parts) accept integral
values (1.0, numpy integers) and are stored and used as plain ints; others
raise the layer's typed error.  Settings (seeds, starts, max_iter, k) keep
their own Integral-only rule, tested beside the solver and the deciders.
"""

from typing import NamedTuple

import numpy as np
import pytest

from hspex import (
    ForbiddenFamily,
    Hypergraph,
    complete_r_graph,
    ell_cliques,
    extremal_pi,
    is_k_bridge,
    is_lambda_plateau,
    l_gadget,
    parse_hypergraph,
    partitions_of,
    serialize,
    solve_rho_p,
)
from hspex.errors import (
    BadPartition,
    Infeasible,
    NoSuchEdge,
    OutOfRange,
    ParseError,
    TargetMismatch,
)
from hspex.experiments import (
    connected_graph_classes,
    random_connected_hypergraph,
    run_degree_bound_suite,
)
from hspex.structure import tightness_violation_holds, validate_partition
from conftest import path3

TWO_TRIANGLES = Hypergraph(6, 2, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
K3_FREE = ForbiddenFamily((complete_r_graph(3, 2),))


class Raises(NamedTuple):
    error: type
    message: str  # the start of the error's text


def _shape(value):
    """value with each leaf replaced by its type, so == compares types too."""
    if isinstance(value, (tuple, list)):
        return type(value), [_shape(v) for v in value]
    return type(value)


# (call, expected): the error the call raises, or the value it returns, with
# the same types at every leaf
CASES = [
    # sizes: the checked ints are the ones stored and used
    pytest.param(lambda: Hypergraph(4.0, 2, ((0, 1),)).n, 4, id="n-float-stored-as-int"),
    pytest.param(lambda: serialize(Hypergraph(4.0, 2, ((0, 1),))), "2 4 1\n0 1\n",
                 id="n-float-serializes-as-int"),
    pytest.param(lambda: Hypergraph(np.int64(3), 2).n, 3, id="n-numpy-stored-as-int"),
    pytest.param(lambda: Hypergraph(3, 2.0, ((0, 1), (1, 2))).r, 2, id="r-float-stored-as-int"),
    pytest.param(lambda: solve_rho_p(Hypergraph(3, 2.0, ((0, 1), (1, 2))), 2.0).rho,
                 solve_rho_p(path3(), 2.0).rho, id="r-float-solves"),
    pytest.param(lambda: random_connected_hypergraph(5.0, 2, 5, 1).edges,
                 random_connected_hypergraph(5, 2, 5, 1).edges, id="random-connected-n-float"),
    pytest.param(lambda: random_connected_hypergraph(5, 2, 5.0, 1).edges,
                 random_connected_hypergraph(5, 2, 5, 1).edges, id="random-connected-m-float"),
    pytest.param(lambda: random_connected_hypergraph(5, 2, 5.5, 1),
                 Raises(Infeasible, "edge count 5.5 is not an integer"),
                 id="random-connected-m-non-integer"),
    pytest.param(lambda: random_connected_hypergraph(5, 2, "5", 1),
                 Raises(Infeasible, "edge count '5' is not an integer"),
                 id="random-connected-m-string"),
    pytest.param(lambda: run_degree_bound_suite(1, r_set=(2.0,)).parameters["r_set"], [2],
                 id="degree-bound-r-float"),
    pytest.param(lambda: extremal_pi(K3_FREE, 4.0).n, 4, id="extremal-pi-n-float"),
    pytest.param(lambda: len(connected_graph_classes(3.0)), 2, id="connected-classes-v-float"),
    # vertex ids: one rule, integral values in [0, n)
    pytest.param(lambda: path3().degree(1.5), Raises(OutOfRange, "vertex 1.5 is not an integer"),
                 id="degree-non-integer"),
    pytest.param(lambda: tightness_violation_holds(TWO_TRIANGLES, 1, (0, 1, 2, 9)),
                 Raises(OutOfRange, "vertex 9 outside [0, 6)"), id="tightness-witness-vertex-9"),
    pytest.param(lambda: tightness_violation_holds(TWO_TRIANGLES, 1, (0, 1, 2, -1)),
                 Raises(OutOfRange, "vertex -1 outside [0, 6)"), id="tightness-witness-vertex-neg"),
    # edges: one lookup, one NoSuchEdge text
    pytest.param(lambda: is_k_bridge(path3(), (0, 2), 1),
                 Raises(NoSuchEdge, "edge (0, 2) not in graph"), id="bridge-no-such-edge"),
    pytest.param(lambda: is_lambda_plateau(path3(), (2, 0), (1, 1)),
                 Raises(NoSuchEdge, "edge (0, 2) not in graph"), id="plateau-no-such-edge"),
    # counts and partition parts
    pytest.param(lambda: l_gadget(2, (1.9, 1.1), 4),
                 Raises(BadPartition, "part 1.9 is not an integer"), id="gadget-part-non-integer"),
    pytest.param(lambda: validate_partition((2.7, 1.3)),
                 Raises(TargetMismatch, "part 2.7 is not an integer"),
                 id="partition-part-non-integer"),
    pytest.param(lambda: ell_cliques(2.0, 3, 2).edges, ell_cliques(2, 3, 2).edges,
                 id="cliques-count-float"),
    pytest.param(lambda: partitions_of(3.0), [(3,), (2, 1), (1, 1, 1)], id="partitions-of-float"),
    # the .hg format lists each edge once
    pytest.param(lambda: parse_hypergraph("2 3 2\n0 1\n1 0\n"),
                 Raises(ParseError, "line 3: edge (0, 1) repeats line 2"),
                 id="parse-repeated-edge"),
]


@pytest.mark.parametrize("call, expected", CASES)
def test_data_argument_rule(call, expected):
    if isinstance(expected, Raises):
        with pytest.raises(expected.error) as err:
            call()
        assert str(err.value).startswith(expected.message)
    else:
        got = call()
        assert got == expected and _shape(got) == _shape(expected)
