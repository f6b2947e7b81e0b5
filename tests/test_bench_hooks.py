"""The benchmark tracer's and the work counter's hooks name what exists in
the package.

``perfbench/spans.py`` wraps hspex functions by (module, attribute) and
notes which strategy each solve ran; ``scripts/work_calls.py`` counts calls
by function name.  A refactor that drops or renames what they read would
otherwise surface only in a traced benchmark run, or as a count of 0.
"""

import ast
import importlib
import importlib.util
import inspect
from itertools import combinations
from pathlib import Path

import pytest

import hspex.embedding
import hspex.families
import hspex.hypergraph
from hspex import ForbiddenFamily, Hypergraph, SolverConfig, complete_r_graph, saturate, solve_rho_p
from hspex.spectral import _Lagrangian

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hspex.__file__).parent


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load(ROOT / "perfbench" / "spans.py")


def _work_calls():
    return _load(ROOT / "scripts" / "work_calls.py")


def _defined_functions() -> set:
    """The name of every function and method defined in the package, nested ones too."""
    return {node.name for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)}


def test_counted_names_are_package_functions():
    assert set(_work_calls().COUNTED) - _defined_functions() == set()


def test_work_calls_count_one_solve():
    """The hook reads `_block`'s grad argument by name and each
    solve's iterations from solve_rho_p's return: one fixed-point solve
    (p >= r) makes every lock step inside the run, and every kernel block
    but the one that gives the returned vector's value and residual."""
    assert "grad" in inspect.signature(_Lagrangian._block).parameters
    g, cfg = complete_r_graph(5, 3), SolverConfig(starts=3, seed=2)
    sol = solve_rho_p(g, 4.0, cfg)
    counts = _work_calls().counted(lambda: solve_rho_p(g, 4.0, cfg), str(PACKAGE))
    assert (counts["solves"], counts["iterations"]) == (1, sol.iterations)
    assert counts["steps"] > 0 and counts["fp.steps"] == counts["steps"]
    for kind in ("gather", "grad"):
        assert counts["fp." + kind] == counts[kind] - 1


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


def test_saturate_checks_and_validates_each_candidate_once(monkeypatch):
    """`embedding.creates_copy_calls` counts calls through the
    ``hspex.families.creates_copy`` binding: saturating the empty graph in
    F({K4^(3)}) makes one per candidate non-edge, and validates each
    candidate once, in that check, not again when it adds the edge."""
    checked, validated = [], []
    create, normalize = hspex.families.creates_copy, hspex.hypergraph._normalize_edge

    def counted_create(host, e, pattern):
        checked.append(e)
        return create(host, e, pattern)

    def counted_normalize(*args):
        validated.append(args[0])
        return normalize(*args)

    fam, empty = ForbiddenFamily((complete_r_graph(4, 3),)), Hypergraph(8, 3)
    monkeypatch.setattr(hspex.families, "creates_copy", counted_create)
    for module in (hspex.embedding, hspex.hypergraph):
        monkeypatch.setattr(module, "_normalize_edge", counted_normalize)
    g = saturate(fam, empty, "random", seed=3)
    candidates = sorted(combinations(range(8), 3))
    assert sorted(checked) == candidates
    assert sorted(validated) == candidates
    assert 0 < g.m < len(candidates)
