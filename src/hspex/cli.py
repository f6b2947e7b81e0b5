"""Command-line interface.

Exit-code contract: 0 success / 1 input error / 2 solver did not converge /
3 checked property is false (certificate printed) / 4 instance exceeds the
desk-scale guard.  Each command declares exactly the flags it reads, and a
usage error is an input error (exit 1, one ``error:`` line).  Identical
invocations with identical seeds produce byte-identical JSON; wall-clock
timings are only emitted behind --timings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import HspexError, TooLarge
from .experiments import (
    run_bridgeless_tight_suite,
    run_coarseness_probe,
    run_degree_bound_suite,
    run_density_trend,
    run_plateau_construction,
    run_ratio_scaling,
)
from .families import ForbiddenFamily, extremal_lambda_p, extremal_pi, saturate
from .canonical import canonical_key_string
from .hypergraph import Hypergraph, parse_hypergraph, serialize
from .jsonio import dumps
from .spectral import SolverConfig, solve_rho_p
from .structure import is_k_bridge, is_k_tight, is_lambda_plateau

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_PROPERTY_FALSE = 3
EXIT_TOO_LARGE = 4


class _Once(argparse.Action):
    """Store a single-valued flag; giving it twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if self.dest in parser.given:
            parser.error(f"argument {option_string}: given more than once")
        parser.given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise HspexError, so they exit 1 like any input error.
    Flags are matched whole (no abbreviations), and a single-valued flag
    may be given once; subparsers are built from this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.register("action", None, _Once)
        self.register("action", "store", _Once)

    def parse_known_args(self, args=None, namespace=None):
        self.given: set[str] = set()  # the single-valued flags seen so far
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise HspexError(message)


def _load_graph(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text(encoding="utf-8"))


def _load_family(paths: list[str]) -> ForbiddenFamily:
    return ForbiddenFamily(tuple(_load_graph(p) for p in paths))


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {tok!r}") from None


def _count(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(_int(tok) for tok in text.split(","))


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(_int(lo), _int(hi) + 1))
        if not values:
            raise argparse.ArgumentTypeError(f"empty range: {text!r}")
        return values
    return list(_parse_ids(text))


def _plateau_construct(args):
    if len(args.forbid) != 1:
        raise HspexError(
            f"experiment plateau-construct takes a single --forbid, got {len(args.forbid)}")
    return run_plateau_construction(_load_graph(args.forbid[0]), args.k, args.ell)


# experiment flag, or (suite, flag) for one suite's own variant -> add_argument keywords
EXPERIMENT_FLAGS = {
    "forbid": dict(action="append", required=True),
    "p": dict(type=float, default=2.0),
    "n": dict(type=_parse_range, default=[4, 5, 6],
              help="single n, list 4,5,6, or range 4..8 (default 4..6)"),
    ("bridgeless-tight", "n"): dict(type=int, required=True),
    "k": dict(type=int, default=1),
    "ell": dict(type=int, default=2),
    "count": dict(type=_count, default=100),
    "trials": dict(type=_count, default=20),
    "seed": dict(type=int, default=0),
    "starts": dict(type=int, default=4),
    "out": dict(default="."),
    "json": dict(action="store_true"),
}

# suite -> (the flags its runner reads besides --out and --json, the runner)
SUITES = {
    "degree-bound": ("count seed starts", lambda a: run_degree_bound_suite(
        a.count, seed=a.seed, config=SolverConfig(starts=a.starts))),
    "ratio-scaling": ("forbid p n seed starts", lambda a: run_ratio_scaling(
        _load_family(a.forbid), a.p, a.n, SolverConfig(starts=a.starts, seed=a.seed))),
    "bridgeless-tight": ("forbid k n trials seed", lambda a: run_bridgeless_tight_suite(
        [_load_graph(p) for p in a.forbid], a.k, a.n, a.trials, seed=a.seed)),
    "plateau-construct": ("forbid k ell", _plateau_construct),
    "coarseness-probe": ("forbid p n seed starts", lambda a: run_coarseness_probe(
        _load_family(a.forbid), a.p, a.n, SolverConfig(starts=a.starts, seed=a.seed))),
    "density-trend": ("forbid n", lambda a: run_density_trend(_load_family(a.forbid), a.n)),
}


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hspex",
                 description="p-spectral radius and structural checks for uniform hypergraphs")
    sub = ap.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="solve the p-spectral radius of a .hg file")
    rho.set_defaults(run=_cmd_rho)
    rho.add_argument("--input", required=True)
    rho.add_argument("--p", type=float, required=True)
    rho.add_argument("--tol", type=float, default=SolverConfig.tol)
    rho.add_argument("--starts", type=int, default=SolverConfig.starts)
    rho.add_argument("--seed", type=int, default=SolverConfig.seed)
    rho.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    rho.add_argument("--json", action="store_true")
    rho.add_argument("--stats", action="store_true",
                     help="add each start's value, iterations, converged and strategy")

    chk = sub.add_parser("check", help="decide a structural property with certificate")
    chk.set_defaults(run=_cmd_check)
    props = chk.add_subparsers(dest="property", required=True)
    tight, bridge, plateau = (props.add_parser(name) for name in ("tight", "bridge", "plateau"))
    for prop in (tight, bridge, plateau):
        prop.add_argument("--input", required=True)
    for prop in (bridge, plateau):
        prop.add_argument("--edge", type=_parse_ids, required=True)
    for prop in (tight, bridge):
        prop.add_argument("--k", type=int, required=True)
    plateau.add_argument("--lambda", dest="lam", type=_parse_ids, required=True)

    ext = sub.add_parser("extremal", help="extremal edge count or p-spectral radius")
    ext.set_defaults(run=_cmd_extremal)
    ext.add_argument("--forbid", action="append", required=True)
    ext.add_argument("--n", type=int, required=True)
    ext.add_argument("--p", type=float, help="if omitted, computes the edge-count extremum")
    ext.add_argument("--starts", type=int, help="solver starts (needs --p; default 8)")
    ext.add_argument("--seed", type=int, help="solver seed (needs --p; default 0)")
    ext.add_argument("--full", action="store_true",
                     help="audit all members, not only edge-maximal ones (needs --p)")
    ext.add_argument("--timings", action="store_true")
    ext.add_argument("--stats", action="store_true",
                     help="append non_converged, classes_solved and the argmax "
                          "solves' residual, iterations and flags")

    sat = sub.add_parser("saturate", help="greedy saturation inside a family")
    sat.set_defaults(run=_cmd_saturate)
    sat.add_argument("--forbid", action="append", required=True)
    sat.add_argument("--n", type=int, required=True)
    sat.add_argument("--input", help="start graph (default: empty)")
    sat.add_argument("--order", choices=["lex", "random"], default="lex")
    sat.add_argument("--seed", type=int, help="needs --order random (default 0)")

    exp = sub.add_parser("experiment", help="run a named theorem-check suite")
    exp.set_defaults(run=_cmd_experiment)
    suites = exp.add_subparsers(dest="name", required=True)
    for name, (flags, _) in SUITES.items():
        suite = suites.add_parser(name)
        for flag in flags.split() + ["out", "json"]:
            spec = EXPERIMENT_FLAGS.get((name, flag), EXPERIMENT_FLAGS[flag])
            suite.add_argument(f"--{flag}", **spec)
    return ap


def _cmd_rho(args) -> int:
    g = _load_graph(args.input)
    cfg = SolverConfig(tol=args.tol, max_iter=args.max_iter, starts=args.starts,
                       seed=args.seed)
    sol = solve_rho_p(g, args.p, cfg)
    if args.json:
        print(dumps(sol.to_json_dict(stats=args.stats)))
    else:
        flags = f" flags={','.join(sol.flags)}" if sol.flags else ""
        print(f"rho = {sol.rho:.12g}  residual = {sol.residual:.3g}{flags}")
        if args.stats:
            for i, rec in enumerate(sol.per_start):
                print(f"start {i}: value = {rec.value:.12g}  iterations = {rec.iterations}"
                      f"  converged = {rec.converged}  strategy = {rec.strategy}")
    return EXIT_OK if sol.converged else EXIT_NO_CONVERGENCE


def _cmd_check(args) -> int:
    g = _load_graph(args.input)
    if args.property == "plateau":
        result, grouping = is_lambda_plateau(g, args.edge, args.lam)
        payload = {
            "property": "lambda-plateau",
            "edge": list(args.edge),
            "lambda": list(args.lam),
            "result": result,
            "grouping": [[list(c) for c in grp] for grp in grouping] if grouping else None,
        }
    else:
        cert = is_k_tight(g, args.k) if args.property == "tight" else is_k_bridge(
            g, args.edge, args.k)
        payload, result = cert.to_json_dict(), cert.result
    print(dumps(payload))
    return EXIT_OK if result else EXIT_PROPERTY_FALSE


def _cmd_extremal(args) -> int:
    fam = _load_family(args.forbid)
    if args.p is None:
        given = ("full", args.full or None), ("starts", args.starts), ("seed", args.seed)
        for flag, value in given:
            if value is not None:
                raise HspexError(f"--{flag} requires --p")
        res = extremal_pi(fam, args.n)
    else:
        cfg = SolverConfig(starts=8 if args.starts is None else args.starts,
                           seed=args.seed or 0)
        res = extremal_lambda_p(fam, args.n, args.p, cfg, full=args.full)
    payload = res.to_json_dict(timings=args.timings, stats=args.stats)
    payload["argmax_keys"] = [canonical_key_string(g) for g in res.argmax]
    print(dumps(payload))
    if res.non_converged:
        print(f"did not converge: {res.non_converged} of {res.classes_solved} classes",
              file=sys.stderr)
    return EXIT_NO_CONVERGENCE if res.non_converged else EXIT_OK


def _cmd_saturate(args) -> int:
    if args.order == "lex" and args.seed is not None:
        raise HspexError("--seed requires --order random")
    fam = _load_family(args.forbid)
    g0 = _load_graph(args.input) if args.input else Hypergraph(args.n, fam.r, ())
    if g0.n != args.n:
        raise HspexError(f"--n {args.n} but {args.input} has {g0.n} vertices")
    g = saturate(fam, g0, order=args.order, seed=args.seed or 0)
    sys.stdout.write(serialize(g))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    report = SUITES[args.name][1](args)
    jpath, cpath = report.save(args.out)
    if args.json:
        sys.stdout.write(report.to_json())
    verdict = report.verdict if report.verdict is not None else "exploratory"
    print(f"{args.name}: {verdict}  rows={len(report.rows)}  -> {jpath} {cpath}",
          file=sys.stderr)
    return EXIT_OK if verdict != "fail" else EXIT_PROPERTY_FALSE


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except HspexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
