"""The benchmark tracer's hooks name attributes that exist in the package.

``perfbench/spans.py`` wraps hspex functions by (module, attribute) and
notes which strategy each solve ran; a refactor that drops or renames what
they read would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hspex import SolverConfig, complete_r_graph, solve_rho_p

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _wrapped():
    return [(module, attr) for module, attr, _, _ in _spans().WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("p", [4.0, 2.0])  # p >= r and p < r at r = 3
def test_solve_note_names_the_strategy_that_ran(p):
    g, cfg = complete_r_graph(4, 3), SolverConfig(starts=2, seed=1)
    sol = solve_rho_p(g, p, cfg)
    note = _spans()._solve_note((g, p, cfg), {}, sol)
    assert note["fp"] == (sol.per_start[0].strategy == "fixed-point-shifted")
    assert note["iterations"] == sol.iterations
