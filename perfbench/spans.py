"""In-memory spans around calls into hspex, and the per-layer metrics they give.

Nothing inside hspex is edited: a span is recorded by replacing a public
function at the module attribute its caller looks up (``wrap``), or by a
``span`` block around the benchmark's own calls.  Spans are kept in memory
as [name, start, end, parent, note] and written out once the round ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager


def _solve_note(args, kwargs, sol):
    g, p = args[0], args[1]
    cfg = args[2] if len(args) > 2 else kwargs.get("config")
    strategy = (cfg.strategy if cfg is not None else None) or (
        "fixed-point-shifted" if p >= g.r else "projected-gradient"
    )
    return {
        "iterations": sol.iterations,
        "converged": sol.converged,
        "fp": strategy == "fixed-point-shifted",
        "m": g.m,
        "r": g.r,
    }


# Each entry is a public function, replaced at the name its caller binds:
# (module, attribute, span name, note taken from the call's result).
# The ``hspex`` package attributes are the ones the benchmark itself calls;
# ``experiments`` imports ``solve_rho_p`` from ``hspex.spectral`` at call time.
WRAPPED = [
    ("hspex", "solve_rho_p", "spectral.solve_rho_p", _solve_note),
    ("hspex.spectral", "solve_rho_p", "spectral.solve_rho_p", _solve_note),
    ("hspex.families", "solve_rho_p", "spectral.solve_rho_p", _solve_note),
    ("hspex", "extremal_pi", "families.extremal_pi",
     lambda a, k, res: {"members": res.count_members}),
    ("hspex", "extremal_lambda_p", "families.extremal_lambda_p",
     lambda a, k, res: {"classes": res.classes_solved}),
    ("hspex", "saturate", "families.saturate", lambda a, k, g: {"edges": g.m}),
    ("hspex.families", "refinement_signature", "canonical.refinement_signature", None),
    ("hspex.families", "canonical_key", "canonical.canonical_key", None),
    ("hspex.families", "creates_copy", "embedding.creates_copy",
     lambda a, k, hit: {"hit": bool(hit)}),
    ("hspex.families", "labeled_copy_edge_sets", "embedding.labeled_copy_edge_sets", None),
    ("hspex", "is_k_tight", "structure.is_k_tight", None),
    ("hspex", "find_k_bridges", "structure.find_k_bridges",
     lambda a, k, certs: {"found": len(certs)}),
    ("hspex.structure", "is_k_bridge", "structure.is_k_bridge", None),
    ("hspex.experiments", "run_degree_bound_suite", "experiments.run_degree_bound_suite", None),
    ("hspex.experiments", "dumps", "jsonio.dumps", lambda a, k, text: {"bytes": len(text)}),
    ("hspex.jsonio", "dumps", "jsonio.dumps", lambda a, k, text: {"bytes": len(text)}),
]


@contextmanager
def no_span(name: str):
    """Stand-in for ``Tracer.span`` in untraced rounds."""
    yield [name, 0.0, 0.0, -1, None]


class Tracer:
    """Records nested spans; ``spans[i][3]`` is the index of the enclosing span."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code; the block may set ``span[4]``."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, inner))

    def install(self) -> None:
        for module, attr, name, note in WRAPPED:
            self.wrap(importlib.import_module(module), attr, name, note)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, inner = self._undo.pop()
            setattr(owner, attr, inner)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "note": s[4]}
                 for s in self.spans],
                fh,
            )


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and seconds from one round's spans.

    Self time is a span's duration minus the durations of its direct child
    spans (children nest inside their parent in a single thread).
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += s[2] - s[1]
    by_name: dict[str, list[tuple[float, float, dict]]] = {}
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        by_name.setdefault(s[0], []).append((dur, dur - child_s[i], s[4] or {}))

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(d for d, _, _ in calls(name))

    def self_total(name):
        return sum(st for _, st, _ in calls(name))

    def note_sum(name, key):
        return sum(n[key] for _, _, n in calls(name))

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls("spectral.solve_rho_p")
    fp = [c for c in solves if c[2]["fp"]]
    pg = [c for c in solves if not c[2]["fp"]]
    iterations = sum(n["iterations"] for _, _, n in solves)
    solve_s = sum(d for d, _, _ in solves)
    # one value and one gradient evaluation per iteration, each gathering
    # float64 entries of the (m, r) edge index: about m*r*r*8 bytes
    gather_bytes = sum(n["iterations"] * n["m"] * n["r"] * n["r"] * 8 for _, _, n in solves)
    sweep_s = self_total("families.extremal_pi")
    members = note_sum("families.extremal_pi", "members")
    copies = calls("embedding.creates_copy")
    return {
        "spectral.solves": len(solves),
        "spectral.solve_s": solve_s,
        "spectral.iterations": iterations,
        "spectral.us_per_iter": ratio(solve_s * 1e6, iterations),
        "spectral.nonconverged": sum(1 for _, _, n in solves if not n["converged"]),
        "spectral.fp.iterations": sum(n["iterations"] for _, _, n in fp),
        "spectral.pg.iterations": sum(n["iterations"] for _, _, n in pg),
        "spectral.fp.solve_s": sum(d for d, _, _ in fp),
        "spectral.pg.solve_s": sum(d for d, _, _ in pg),
        "spectral.gather_mb_computed": gather_bytes / 1e6,
        "families.sweep_s": sweep_s,
        "families.members": members,
        "families.members_per_s": ratio(members, sweep_s),
        "families.lambda_s": self_total("families.extremal_lambda_p"),
        "families.classes": note_sum("families.extremal_lambda_p", "classes"),
        "canonical.signature_calls": len(calls("canonical.refinement_signature")),
        "canonical.signature_s": total("canonical.refinement_signature"),
        "canonical.key_calls": len(calls("canonical.canonical_key")),
        "canonical.key_s": total("canonical.canonical_key"),
        "families.saturate_s": self_total("families.saturate"),
        "families.saturated_edges": note_sum("families.saturate", "edges"),
        "embedding.creates_copy_calls": len(copies),
        "embedding.creates_copy_s": total("embedding.creates_copy"),
        "embedding.copy_hit_ratio": ratio(sum(1 for _, _, n in copies if n["hit"]), len(copies)),
        "embedding.copy_sets_s": total("embedding.labeled_copy_edge_sets"),
        "structure.tight_calls": len(calls("structure.is_k_tight")),
        "structure.tight_s": total("structure.is_k_tight"),
        "structure.bridge_calls": len(calls("structure.is_k_bridge")),
        "structure.bridge_s": total("structure.is_k_bridge"),
        "structure.bridges_found": note_sum("structure.find_k_bridges", "found"),
        "hypergraph.build_s": total("hypergraph.build"),
        "hypergraph.edges_built": note_sum("hypergraph.build", "edges"),
        "experiments.self_s": self_total("experiments.run_degree_bound_suite"),
        "jsonio.dumps_s": total("jsonio.dumps"),
        "jsonio.bytes": note_sum("jsonio.dumps", "bytes"),
    }
