"""Command-line interface.

Exit-code contract: 0 success / 1 input error / 2 solver did not converge /
3 checked property is false (certificate printed) / 4 instance exceeds the
desk-scale guard.  Identical invocations with identical seeds produce
byte-identical JSON; wall-clock timings are only emitted behind --timings.
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
from .families import (
    ForbiddenFamily,
    extremal_lambda_p,
    extremal_pi,
    saturate,
)
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


def _load_graph(path: str) -> Hypergraph:
    return parse_hypergraph(Path(path).read_text(encoding="utf-8"))


def _load_family(paths: list[str]) -> ForbiddenFamily:
    return ForbiddenFamily(tuple(_load_graph(p) for p in paths))


def _int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise HspexError(f"not an integer: {tok!r}") from None


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(_int(tok) for tok in text.split(","))


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(_int(lo), _int(hi) + 1))
        if not values:
            raise HspexError(f"empty range: {text!r}")
        return values
    return list(_parse_ids(text))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hspex",
        description="p-spectral radius and structural checks for uniform hypergraphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rho = sub.add_parser("rho", help="solve the p-spectral radius of a .hg file")
    rho.add_argument("--input", required=True)
    rho.add_argument("--p", type=float, required=True)
    rho.add_argument("--tol", type=float, default=1e-10)
    rho.add_argument("--starts", type=int, default=16)
    rho.add_argument("--seed", type=int, default=0)
    rho.add_argument("--max-iter", type=int, default=100_000)
    rho.add_argument("--json", action="store_true")
    rho.add_argument("--stats", action="store_true",
                     help="add each start's value, iterations, converged and strategy")

    chk = sub.add_parser("check", help="decide a structural property with certificate")
    chk.add_argument("property", choices=["tight", "bridge", "plateau"])
    chk.add_argument("--input", required=True)
    chk.add_argument("--k", type=int)
    chk.add_argument("--edge", type=str)
    chk.add_argument("--lambda", dest="lam", type=str)

    ext = sub.add_parser("extremal", help="extremal edge count or p-spectral radius")
    ext.add_argument("--forbid", action="append", required=True)
    ext.add_argument("--n", type=int, required=True)
    ext.add_argument("--p", type=float, default=None,
                     help="if omitted, computes the edge-count extremum")
    ext.add_argument("--starts", type=int, default=8)
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--full", action="store_true",
                     help="audit all members, not only edge-maximal ones (needs --p)")
    ext.add_argument("--timings", action="store_true")
    ext.add_argument("--stats", action="store_true",
                     help="append non_converged, classes_solved and the argmax "
                          "solves' residual, iterations and flags")

    sat = sub.add_parser("saturate", help="greedy saturation inside a family")
    sat.add_argument("--forbid", action="append", required=True)
    sat.add_argument("--n", type=int, required=True)
    sat.add_argument("--input", default=None, help="start graph (default: empty)")
    sat.add_argument("--order", choices=["lex", "random"], default="lex")
    sat.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a named theorem-check suite")
    exp.add_argument(
        "name",
        choices=[
            "degree-bound",
            "ratio-scaling",
            "bridgeless-tight",
            "plateau-construct",
            "coarseness-probe",
            "density-trend",
        ],
    )
    exp.add_argument("--forbid", action="append", default=[])
    exp.add_argument("--p", type=float, default=2.0)
    exp.add_argument("--n", type=str, default=None,
                     help="single n, list 4,5,6, or range 4..8 (default 4..6); "
                          "bridgeless-tight requires a single n")
    exp.add_argument("--k", type=int, default=1)
    exp.add_argument("--ell", type=int, default=2)
    exp.add_argument("--count", type=int, default=100)
    exp.add_argument("--trials", type=int, default=20)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--starts", type=int, default=4)
    exp.add_argument("--out", type=str, default=".")
    exp.add_argument("--json", action="store_true")
    return ap


def _cmd_rho(args) -> int:
    g = _load_graph(args.input)
    cfg = SolverConfig(
        tol=args.tol, max_iter=args.max_iter, starts=args.starts, seed=args.seed
    )
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
    if args.property == "tight":
        if args.k is None:
            raise HspexError("check tight requires --k")
        cert = is_k_tight(g, args.k)
        print(dumps(cert.to_json_dict()))
        return EXIT_OK if cert.result else EXIT_PROPERTY_FALSE
    if args.property == "bridge":
        if args.k is None or args.edge is None:
            raise HspexError("check bridge requires --k and --edge")
        cert = is_k_bridge(g, _parse_ids(args.edge), args.k)
        print(dumps(cert.to_json_dict()))
        return EXIT_OK if cert.result else EXIT_PROPERTY_FALSE
    if args.edge is None or args.lam is None:
        raise HspexError("check plateau requires --edge and --lambda")
    result, grouping = is_lambda_plateau(g, _parse_ids(args.edge), _parse_ids(args.lam))
    payload = {
        "property": "lambda-plateau",
        "edge": list(_parse_ids(args.edge)),
        "lambda": list(_parse_ids(args.lam)),
        "result": result,
        "grouping": [[list(c) for c in grp] for grp in grouping] if grouping else None,
    }
    print(dumps(payload))
    return EXIT_OK if result else EXIT_PROPERTY_FALSE


def _cmd_extremal(args) -> int:
    fam = _load_family(args.forbid)
    if args.p is None:
        if args.full:
            raise HspexError("--full requires --p")
        res = extremal_pi(fam, args.n)
    else:
        cfg = SolverConfig(starts=args.starts, seed=args.seed)
        res = extremal_lambda_p(fam, args.n, args.p, cfg, full=args.full)
    payload = res.to_json_dict(timings=args.timings, stats=args.stats)
    payload["argmax_keys"] = [canonical_key_string(g) for g in res.argmax]
    print(dumps(payload))
    if res.non_converged:
        print(f"did not converge: {res.non_converged} of {res.classes_solved} classes",
              file=sys.stderr)
    return EXIT_NO_CONVERGENCE if res.non_converged else EXIT_OK


def _cmd_saturate(args) -> int:
    fam = _load_family(args.forbid)
    g0 = _load_graph(args.input) if args.input else Hypergraph(args.n, fam.r, ())
    if g0.n != args.n:
        raise HspexError(f"--n {args.n} but {args.input} has {g0.n} vertices")
    g = saturate(fam, g0, order=args.order, seed=args.seed)
    sys.stdout.write(serialize(g))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    name = args.name
    if name != "degree-bound" and not args.forbid:
        raise HspexError(f"experiment {name} requires --forbid")
    n_list = _parse_range("4..6" if args.n is None else args.n)
    for flag, value in (("--count", args.count), ("--trials", args.trials)):
        if value < 0:
            raise HspexError(f"{flag} must be >= 0, got {value}")
    cfg = SolverConfig(starts=args.starts, seed=args.seed)
    if name == "degree-bound":
        report = run_degree_bound_suite(args.count, seed=args.seed, config=cfg)
    elif name == "ratio-scaling":
        report = run_ratio_scaling(_load_family(args.forbid), args.p, n_list, cfg)
    elif name == "bridgeless-tight":
        if args.n is None:
            raise HspexError(f"experiment {name} requires a single --n")
        if len(n_list) != 1:
            raise HspexError(f"experiment {name} takes a single --n, got {args.n!r}")
        hs = [_load_graph(p) for p in args.forbid]
        report = run_bridgeless_tight_suite(
            hs, args.k, n_list[0], args.trials, seed=args.seed
        )
    elif name == "plateau-construct":
        if len(args.forbid) != 1:
            raise HspexError(f"experiment {name} takes a single --forbid, got {len(args.forbid)}")
        report = run_plateau_construction(_load_graph(args.forbid[0]), args.k, args.ell)
    elif name == "coarseness-probe":
        report = run_coarseness_probe(_load_family(args.forbid), args.p, n_list, cfg)
    else:
        report = run_density_trend(_load_family(args.forbid), n_list)
    jpath, cpath = report.save(args.out)
    if args.json:
        sys.stdout.write(report.to_json())
    verdict = report.verdict if report.verdict is not None else "exploratory"
    print(f"{name}: {verdict}  rows={len(report.rows)}  -> {jpath} {cpath}",
          file=sys.stderr)
    return EXIT_OK if verdict != "fail" else EXIT_PROPERTY_FALSE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rho":
            return _cmd_rho(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "extremal":
            return _cmd_extremal(args)
        if args.command == "saturate":
            return _cmd_saturate(args)
        return _cmd_experiment(args)
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
