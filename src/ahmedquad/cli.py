"""Command-line front end.

Subcommands:

* ``eval ID``    integrate one registry integrand and print the result
* ``verify``     run the eight-step identity chain plus the sampled
                 parametric checks; exit 0 only if everything passes
* ``bench``      sweep every engine on the headline integral and emit
                 benchmark rows (optionally plot-ready data files)
* ``nodes N``    print a Gauss-Legendre node table at full precision
* ``version``    print the package version

Exit codes: 0 success / all checks passed, 1 computational or
verification failure, 2 usage or configuration error. The default tier
comes from --tier, then the AHMEDQUAD_TIER environment variable, then
NATIVE64.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bench import bench_rows, rows_to_csv, write_plot_files
from .errors import AhmedQuadError, ConfigError, NonFiniteError
from .integrands import get as get_integrand
from .quad import (
    AdaptiveSimpson,
    EngineConfig,
    GaussLegendre,
    Mode,
    TanhSinh,
    gl_nodes,
    integrate_1d,
    integrate_2d,
)
from .scalar import Real, Tier, build_info
from .verify import (
    check_eq3,
    default_config,
    report_to_dict,
    reports_to_csv,
    resolve_mode,
    run_chain,
    seeded_a_values,
)

_ENV_TIER = "AHMEDQUAD_TIER"

# each method's flags; --method is one of its keys
_METHOD_FLAGS = {
    "tanh-sinh": ("level", "tol"),
    "gauss-legendre": ("order", "tol"),
    "simpson": ("tol", "max_depth"),
}


def _resolve_tier(flag: str | None) -> Tier:
    name = flag if flag is not None else os.environ.get(_ENV_TIER, "native64")
    for tier in Tier:
        if tier.value == name:
            return tier
    raise ConfigError(
        f"unknown tier {name!r}; choose from "
        + ", ".join(t.value for t in Tier)
    )


def _build_engine(args, tier: Tier) -> EngineConfig:
    method = args.method
    flags = {
        "order": args.order,
        "level": args.level,
        "tol": args.tol,
        "max_depth": args.max_depth,
    }
    if method is None:
        given = {name for name, v in flags.items() if v is not None}
        if not given:
            return default_config(tier)
        # the one method that takes every given flag, else tanh-sinh
        owners = [m for m, names in _METHOD_FLAGS.items() if given <= set(names)]
        method = owners[0] if len(owners) == 1 else "tanh-sinh"
    allowed = _METHOD_FLAGS[method]
    for name, value in flags.items():
        if value is not None and name not in allowed:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply to {method}")
    if method == "tanh-sinh":
        level = args.level if args.level is not None else 10
        tol = args.tol if args.tol is not None else (
            1e-13 if tier is Tier.NATIVE64 else 1e-26
        )
        return EngineConfig(TanhSinh(max_level=level, target_eps=tol), tier)
    if method == "gauss-legendre":
        order = args.order if args.order is not None else 64
        return EngineConfig(GaussLegendre(order=order, tol=args.tol), tier)
    tol = args.tol if args.tol is not None else (
        1e-10 if tier is Tier.NATIVE64 else 1e-20
    )
    depth = args.max_depth if args.max_depth is not None else 40
    return EngineConfig(AdaptiveSimpson(tol=tol, max_depth=depth), tier)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise AhmedQuadError(f"cannot write {output}: {exc}") from exc


def _parse_a(text: str | None, tier: Tier) -> Real | None:
    # a literal that is not a finite binary64 value is a usage error
    if text is None:
        return None
    try:
        return Real.from_decimal(text, tier)
    except NonFiniteError as exc:
        raise ConfigError(f"--a must be a finite number, not {text!r}") from exc


def _cmd_eval(args) -> int:
    tier = _resolve_tier(args.tier)
    engine = _build_engine(args, tier)
    entry = get_integrand(args.integrand)
    a = _parse_a(args.a, tier)
    if entry.dim == 1:
        if args.mode is not None:
            raise ConfigError(f"--mode applies only to 2-D integrands; {args.integrand} is 1-D")
        result = integrate_1d(args.integrand, config=engine, a=a)
    else:
        if a is not None:
            raise ConfigError(f"{args.integrand} takes no parameter")
        mode = resolve_mode(None if args.mode is None else Mode(args.mode), engine)
        result = integrate_2d(args.integrand, config=engine, mode=mode)
    fields = {
        "integrand": args.integrand,
        "tier": tier.value,
        "value": result.value.to_decimal_string(),
        "error_estimate": result.error_estimate.to_decimal_string(),
        "evaluations": result.evaluations,
        "converged": result.converged,
    }
    if args.format == "json":
        text = json.dumps(fields, indent=2) + "\n"
    elif args.format == "csv":
        text = (
            "integrand,tier,value,error_estimate,evaluations,converged\n"
            f"{fields['integrand']},{fields['tier']},{fields['value']},"
            f"{fields['error_estimate']},{fields['evaluations']},"
            f"{fields['converged']}\n"
        )
    else:
        text = (
            f"integrand        {fields['integrand']}\n"
            f"tier             {fields['tier']}\n"
            f"value            {fields['value']}\n"
            f"error_estimate   {fields['error_estimate']}\n"
            f"evaluations      {fields['evaluations']}\n"
            f"converged        {fields['converged']}\n"
        )
    _emit(text, args.output)
    return 0


def _cmd_verify(args) -> int:
    tier = _resolve_tier(args.tier)
    engine = _build_engine(args, tier)
    fault = args.inject_fault.upper() if args.inject_fault else None
    chain = run_chain(tier, engine, inject_fault=fault)
    samples = check_eq3(seeded_a_values(tier), engine)
    all_passed = all(r.passed for r in chain) and all(r.passed for r in samples)
    if args.format == "json":
        payload = {
            "tier": tier.value,
            "all_passed": all_passed,
            "steps": [report_to_dict(r) for r in chain],
            "eq3_samples": [report_to_dict(r) for r in samples],
        }
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = reports_to_csv(list(chain) + list(samples))
    else:
        lines = []
        for r in list(chain) + list(samples):
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"{r.key:18s} {status}  residual={r.residual:.3e}"
                f"  tolerance={r.tolerance:.0e}  evaluations={r.evaluations}"
            )
            if r.note:
                line += f"  [{r.note}]"
            lines.append(line)
        verdict = "all checks passed" if all_passed else "FAILURES PRESENT"
        lines.append(f"{len(chain)} chain steps, {len(samples)} samples: {verdict}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if all_passed else 1


def _cmd_bench(args) -> int:
    tier = _resolve_tier(args.tier)
    rows = bench_rows(tier)
    text = rows_to_csv(rows)
    _emit(text, args.output)
    if args.plot_dir is not None:
        write_plot_files(rows, args.plot_dir)
    return 0


def _cmd_nodes(args) -> int:
    tier = _resolve_tier(args.tier)
    table = gl_nodes(args.n, tier)
    if args.format == "json":
        payload = {
            "order": table.order,
            "tier": tier.value,
            "nodes": [x.to_decimal_string() for x in table.nodes],
            "weights": [w.to_decimal_string() for w in table.weights],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["index,node,weight"]
        for i, (x, w) in enumerate(zip(table.nodes, table.weights)):
            lines.append(f"{i},{x.to_decimal_string()},{w.to_decimal_string()}")
        text = "\n".join(lines) + "\n"
        if args.format == "text":
            header = f"Gauss-Legendre order {table.order} at {tier.value}"
            text = header + "\n" + text
    _emit(text, args.output)
    return 0


def _cmd_version(args) -> int:
    sys.stdout.write(f"ahmedquad {__version__}\n{build_info()}\n")
    return 0


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tier", choices=[t.value for t in Tier], default=None)
    p.add_argument("--method", choices=list(_METHOD_FLAGS), default=None)
    p.add_argument("--order", type=int, default=None,
                   help="Gauss-Legendre order")
    p.add_argument("--level", type=int, default=None,
                   help="tanh-sinh maximum refinement level")
    p.add_argument("--tol", type=float, default=None,
                   help="target tolerance (any method; with gauss-legendre it "
                        "makes the order adaptive, doubling up to --order)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="adaptive Simpson recursion limit")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahmedquad",
        description=(
            "Precision-parametric quadrature and mechanical verification "
            "of the 5 pi^2/96 integral identity."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"ahmedquad {__version__}\n{build_info()}",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="integrate a registry integrand")
    p_eval.add_argument("integrand")
    _add_engine_flags(p_eval)
    p_eval.add_argument("--a", default=None,
                        help="parameter for the parametric kernel")
    p_eval.add_argument("--mode", choices=["tensor", "iterated"], default=None)
    p_eval.add_argument("--format", choices=["text", "csv", "json"],
                        default="text")
    p_eval.add_argument("--output", default=None)
    p_eval.set_defaults(fn=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the verification chain")
    _add_engine_flags(p_verify)
    p_verify.add_argument("--format", choices=["text", "csv", "json"],
                          default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p_verify.set_defaults(fn=_cmd_verify)

    p_bench = sub.add_parser("bench", help="benchmark engines")
    p_bench.add_argument("--tier", choices=[t.value for t in Tier], default=None)
    p_bench.add_argument("--output", default=None)
    p_bench.add_argument("--plot-dir", default=None,
                         help="directory for per-method plot data files")
    p_bench.set_defaults(fn=_cmd_bench)

    p_nodes = sub.add_parser("nodes", help="print a Gauss-Legendre table")
    p_nodes.add_argument("n", type=int)
    p_nodes.add_argument("--tier", choices=[t.value for t in Tier], default=None)
    p_nodes.add_argument("--format", choices=["text", "csv", "json"],
                         default="text")
    p_nodes.add_argument("--output", default=None)
    p_nodes.set_defaults(fn=_cmd_nodes)

    p_version = sub.add_parser("version", help="print the version")
    p_version.set_defaults(fn=_cmd_version)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AhmedQuadError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
