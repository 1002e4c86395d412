"""Command-line front end.

Exit codes are stable across subcommands: 0 success (and VALID verdicts),
1 error, 2 INVALID verdict, 3 enumeration budget exceeded (spectrum and
crosscheck).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import dsl, genfun, maxent, spectrum

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _units_value(x: float, units: str) -> float:
    return x / math.log(2) if units == "bits" else x


def _load_system(args) -> dsl.SystemDef:
    if args.jk is not None:
        return dsl.build_jk_system(*args.jk)
    return dsl.load_system(args.system)


def _read_support(path: str) -> tuple[maxent.WeightedSupport, maxent.Pmf | None]:
    with open(path, encoding="utf-8") as fh:
        return maxent.parse_support_file(fh.read())


def _add_system_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", metavar="FILE", help="system definition file")
    group.add_argument(
        "--jk", nargs=2, type=int, metavar=("J", "K"), help="(j,k) run-length preset"
    )


def _add_units(p: argparse.ArgumentParser) -> None:
    p.add_argument("--units", choices=("nats", "bits"), default="nats")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=genfun.DEFAULT_TOL)
    _add_units(p)


def cmd_capacity(args) -> int:
    system = _load_system(args)
    result = genfun.abscissa(system, tol=args.tol)
    q = _units_value(result.q, args.units)
    name = system.name or "system"
    print(f"system      {name}")
    print(f"capacity    {q:.12f} {args.units}")
    print(f"bracket     [{result.bracket_lo:.15g}, {result.bracket_hi:.15g}]")
    print(f"residual    {result.residual:.3g}")
    print(f"iterations  {result.iterations}")
    if result.finite_language:
        print("note        finite language; capacity reported as 0")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    system = _load_system(args)
    sp = spectrum.enumerate_spectrum(
        system, max_weight=args.max_weight, max_strings=args.max_strings
    )
    density = spectrum.density_check(sp, args.density_l, args.density_k)
    text = spectrum.format_spectrum(sp)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if len(sp.entries) >= 2:
        cap = _units_value(spectrum.capacity_estimate(sp), args.units)
        c0 = _units_value(spectrum.c0_estimate(sp), args.units)
        growth = _units_value(spectrum.growth_rate_estimate(sp), args.units)
        print(f"capacity_estimate     {cap:.6f} {args.units}")
        print(f"c0_estimate           {c0:.6f} {args.units}")
        print(f"growth_rate_estimate  {growth:.6f} {args.units}")
    verdict = "satisfied" if density.satisfied else f"violated at n={density.worst_n}"
    print(f"density_check         L={density.L:g} K={density.K:g}: {verdict}")
    if not sp.complete:
        print(f"budget exceeded: spectrum truncated at weight {sp.horizon:g}")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    system = _load_system(args)
    if args.s <= 0.0 or not genfun.converges(system, args.s):  # capacity >= 0
        q = genfun.abscissa(system, tol=args.tol)
        raise ValueError(f"s={args.s} is inside the divergence region (Q={q.q:.6f})")
    sp = spectrum.enumerate_spectrum(
        system, max_weight=args.max_weight, max_strings=args.max_strings
    )
    if not sp.complete:
        print(f"budget exceeded: spectrum truncated at weight {sp.horizon:g}")
        return EXIT_BUDGET
    check = spectrum.cross_check_gf(sp, system, args.s)
    print(f"partial_sum  {check.partial_sum:.9f}")
    print(f"gf_value     {check.gf_value:.9f}")
    print(f"difference   {check.difference:.3g}")
    print(f"tail_bound   {check.tail_bound:.3g}")
    print(f"ambiguous    {'yes' if check.ambiguous else 'no'}")
    return EXIT_INVALID if check.ambiguous else EXIT_OK


def cmd_maxent(args) -> int:
    support, _ = _read_support(args.support)
    result = maxent.solve_rate(support, tol=args.tol)
    p = maxent.maxentropic_pmf(support, result)
    print(f"rate        {_units_value(result.rate, args.units):.12f} {args.units}")
    print(f"residual    {result.residual:.3g}")
    if result.degenerate:
        print("note        single-item support; rate is 0")
    sys.stdout.write(maxent.format_pmf(p))
    return EXIT_OK


def cmd_validate(args) -> int:
    system = _load_system(args)
    support, pmf = _read_support(args.support)
    if pmf is None:  # the verdict reads only which blocks are positive: all of them
        pmf = maxent.Pmf(support, (1.0 / len(support),) * len(support))
    report = maxent.validate_input_process(pmf, system, depth=args.depth)
    verdict = "VALID" if report.valid else "INVALID"
    print(f"verdict {verdict} depth={report.depth}")
    if report.witness:
        print(f"witness {report.witness}")
    if report.reason:
        print(f"reason  {report.reason}")
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_simulate(args) -> int:
    system = _load_system(args) if (args.system or args.jk) else None
    if args.support:
        support, pmf = _read_support(args.support)
    elif args.jk:
        support, pmf = maxent.jk_phrase_support(*args.jk), None
    else:
        raise ValueError("--support is required unless --jk is given")
    if pmf is None:
        pmf = maxent.maxentropic_pmf(support)
    report = maxent.sample_process(pmf, n_blocks=args.blocks, seed=args.seed, system=system)
    print(f"blocks           {report.n_blocks}")
    print(f"exact_rate       {_units_value(report.rate, args.units):.9f} {args.units}")
    print(f"empirical_rate   {_units_value(report.empirical_rate, args.units):.9f} {args.units}")
    print(f"mean_weight      {report.mean_weight:.9f}")
    if report.accepted is not None:
        print(f"accepted         {'yes' if report.accepted else 'no'}")
        if not report.accepted:
            return EXIT_INVALID
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.string + "\n")
    return EXIT_OK


def cmd_jk_table(args) -> int:
    if args.jmax > 64 or args.kmax > 64:
        raise ValueError("table bounds must be <= 64")
    if args.jmax < 1 or args.kmax < 1:
        raise ValueError("table bounds must be >= 1")
    rows = [
        f"{j:<4d}" + " ".join(
            f"{_units_value(genfun.capacity_jk(j, k, tol=args.tol), args.units):8.5f}"
            for k in range(1, args.kmax + 1)
        )
        for j in range(1, args.jmax + 1)
    ]
    print("j\\k " + " ".join(f"{k:>8d}" for k in range(1, args.kmax + 1)))
    for row in rows:
        print(row)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="concap",
        description="Capacity and maxentropic input processes of weighted constrained systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="abscissa-of-convergence capacity of a system")
    _add_system_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("spectrum", help="enumerate the weight spectrum and estimators")
    _add_system_args(p)
    _add_units(p)
    p.add_argument("--max-weight", type=float, required=True)
    p.add_argument("--max-strings", type=int, default=spectrum.DEFAULT_MAX_STRINGS)
    p.add_argument("--density-l", type=float, default=1.0)
    p.add_argument("--density-k", type=float, default=2.0)
    p.add_argument("--output", metavar="FILE")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("crosscheck", help="partial-sum vs generating-function check")
    _add_system_args(p)
    p.add_argument("--tol", type=float, default=genfun.DEFAULT_TOL)
    p.add_argument("--s", type=float, required=True, help="evaluation point")
    p.add_argument("--max-weight", type=float, required=True)
    p.add_argument("--max-strings", type=int, default=spectrum.DEFAULT_MAX_STRINGS)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("maxent", help="maxentropic rate and PMF of a support file")
    p.add_argument("--support", required=True, metavar="FILE")
    _add_common(p)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser("validate", help="input-process validation against a system")
    _add_system_args(p)
    p.add_argument("--support", required=True, metavar="FILE")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="sample an IID block process")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--system", metavar="FILE")
    group.add_argument("--jk", nargs=2, type=int, metavar=("J", "K"))
    p.add_argument("--support", metavar="FILE")
    p.add_argument("--blocks", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", metavar="FILE")
    _add_units(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("jk-table", help="capacity grid over (j,k)")
    p.add_argument("--jmax", type=int, default=8)
    p.add_argument("--kmax", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_jk_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a bad command line, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, genfun.SolverError, OSError) as exc:
        # ValueError covers DslError, MaxentError, SpectrumError and bad arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
