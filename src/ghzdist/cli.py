"""Command-line front end: simulate, analytic, sweep, verify.

Exit codes: 0 on success, 1 for configuration and file errors, 2 when
verification fails.  CSV output is byte-identical for identical configs and
seeds; the timestamp header line can be suppressed for that purpose.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import asdict
from datetime import datetime, timezone
from typing import TextIO

from . import analytics
from .analytics import GSpec
from .factory import Estimates, estimate
from .params import ConfigError, SimParams, load_params
from .svgplot import Panel, Series, render_sweep_svg
from .switch import WARMUP_EXECUTIONS, check_register_limit, estimate_switch

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "shots",
    "seed",
    "rate_mean",
    "rate_stderr",
    "fid_mean",
    "fid_stderr",
    "analytic_rate_exact",
    "analytic_rate_leading",
    "analytic_fid_leading",
    "analytic_fid_lower_bound",
]


def _fmt(value) -> str:
    if value == "":
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_overrides(pairs: list[str] | None) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        overrides[key.strip()] = val.strip()
    return overrides


def _parse_list(flag: str, text: str, kind) -> tuple:
    try:
        return tuple(kind(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        ) from None


def _analytic_columns(protocol: str, params: SimParams) -> dict:
    if protocol != "factory":
        return {key: "" for key in CSV_COLUMNS[8:]}
    return {
        "analytic_rate_exact": analytics.rate_exact(
            params.n_end_nodes, params.q_link, params.q_bsm, params.dt
        ),
        "analytic_rate_leading": analytics.rate_leading(
            params.n_end_nodes, params.q_link, params.q_bsm, params.dt
        ),
        "analytic_fid_leading": analytics.fidelity_closed_form(params, "leading").value,
        "analytic_fid_lower_bound": analytics.fidelity_closed_form(
            params, "lower_bound"
        ).value,
    }


def _resolve_point(protocol: str, params: SimParams) -> dict:
    """The analytic columns of one point; raises on any input the point
    would fail on, so that a run checks every point before simulating one."""
    if protocol == "switch":
        check_register_limit(params)
    return _analytic_columns(protocol, params)


def _result_row(
    params: SimParams, analytic: dict, est: Estimates, sweep_param="", sweep_value=""
) -> dict:
    return {
        "sweep_param": sweep_param,
        "sweep_value": sweep_value,
        "shots": est.shots,
        "seed": params.seed,
        "rate_mean": est.rate_mean,
        "rate_stderr": est.rate_stderr,
        "fid_mean": est.fidelity_mean,
        "fid_stderr": est.fidelity_stderr,
        **analytic,
    }


def _open_output(stack: ExitStack, path: str | None) -> TextIO:
    if path is None:
        return sys.stdout
    return stack.enter_context(open(path, "w", newline=""))


def _write_csv(
    rows: list[dict],
    out: TextIO,
    timestamp: bool,
    metadata: list[str] | None = None,
) -> None:
    lines = []
    if timestamp:
        lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
    lines.extend(metadata or [])
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_COLUMNS))
    out.write("\n".join(lines) + "\n")


def _run_point(protocol: str, params: SimParams) -> Estimates:
    if protocol == "factory":
        return estimate(params)
    return estimate_switch(params)


def _metadata(protocol: str) -> list[str]:
    if protocol == "switch":
        return [f"# switch_warmup_executions = {WARMUP_EXECUTIONS}"]
    return []


def cmd_simulate(args) -> int:
    params = load_params(args.config, _parse_overrides(args.set))
    analytic = _resolve_point(args.protocol, params)
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        est = _run_point(args.protocol, params)
        _write_csv(
            [_result_row(params, analytic, est)],
            out,
            not args.no_timestamp,
            metadata=_metadata(args.protocol),
        )
    return 0


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    overrides = _parse_overrides(args.set)
    points = []
    for value in values:
        params = load_params(args.config, {**overrides, args.param: value})
        points.append((value, params, _resolve_point(args.protocol, params)))
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        svg = stack.enter_context(open(args.svg, "w")) if args.svg else None
        rows = [
            _result_row(
                params, analytic, _run_point(args.protocol, params), args.param, value
            )
            for value, params, analytic in points
        ]
        _write_csv(
            rows, out, not args.no_timestamp, metadata=_metadata(args.protocol)
        )
        if svg is not None:
            _render_sweep_chart(args, rows, svg)
    return 0


def _render_sweep_chart(args, rows: list[dict], out: TextIO) -> None:
    x = [float(r["sweep_value"]) for r in rows]
    rate_panel = Panel(
        "rate",
        [
            Series(
                "MC",
                [r["rate_mean"] for r in rows],
                yerr=[r["rate_stderr"] for r in rows],
                line=False,
            )
        ],
    )
    fid_panel = Panel(
        "fidelity",
        [
            Series(
                "MC",
                [r["fid_mean"] for r in rows],
                yerr=[r["fid_stderr"] for r in rows],
                line=False,
            )
        ],
    )
    if args.protocol == "factory":
        rate_panel.series.append(
            Series("exact", [r["analytic_rate_exact"] for r in rows], markers=False)
        )
        rate_panel.series.append(
            Series("leading", [r["analytic_rate_leading"] for r in rows], markers=False)
        )
        fid_panel.series.append(
            Series("leading", [r["analytic_fid_leading"] for r in rows], markers=False)
        )
        fid_panel.series.append(
            Series(
                "lower bound",
                [r["analytic_fid_lower_bound"] for r in rows],
                markers=False,
            )
        )
    render_sweep_svg(
        out,
        f"{args.protocol}: sweep over {args.param}",
        args.param,
        x,
        [rate_panel, fid_panel],
    )


def cmd_analytic(args) -> int:
    params = load_params(args.config, _parse_overrides(args.set))
    n, q = params.n_end_nodes, params.q_link
    result: dict = {"quantity": args.quantity, "mode": args.mode, "params": asdict(params)}
    if args.quantity == "rate":
        if args.mode == "exact":
            result["value"] = analytics.rate_exact(n, q, params.q_bsm, params.dt)
        elif args.mode == "leading":
            result["value"] = analytics.rate_leading(n, q, params.q_bsm, params.dt)
        else:
            raise ConfigError(f"rate has modes exact|leading, got {args.mode!r}")
    elif args.quantity == "fidelity":
        if args.mode not in ("leading", "lower_bound"):
            raise ConfigError(
                f"fidelity has modes leading|lower_bound, got {args.mode!r}"
            )
        breakdown = analytics.fidelity_closed_form(params, args.mode)
        result["value"] = breakdown.value
    elif args.quantity == "order-stat":
        if args.index is None:
            raise ConfigError("order-stat needs --index")
        if not 1 <= args.index <= n:
            raise ConfigError(f"--index must lie in 1..{n}, got {args.index}")
        if args.mode not in ("exact", "leading", "upper_bound"):
            raise ConfigError(
                f"order-stat --mode must be exact|leading|upper_bound, got {args.mode!r}"
            )
        result["index"] = args.index
        result["value"] = analytics.expected_order_stat(args.index, n, q, args.mode)
    elif args.quantity == "g":
        if args.positions is None:
            raise ConfigError("quantity g needs --positions")
        positions = _parse_list("--positions", args.positions, int)
        if args.rates is not None:
            rates = _parse_list("--rates", args.rates, float)
        else:
            rates = (1.0 - params.p_mem**2,) * len(positions)
        if args.mode not in ("leading", "lower_bound"):
            raise ConfigError(f"g has modes leading|lower_bound, got {args.mode!r}")
        try:
            spec = GSpec(n, positions, rates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        result["positions"] = list(positions)
        result["rates"] = list(rates)
        result["value"] = analytics.g_value(spec, q, args.mode)
    else:
        raise ConfigError(f"unknown quantity {args.quantity!r}")
    print(json.dumps(result))
    return 0


def cmd_verify(args) -> int:
    from .oracles import run_verification

    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        rep = run_verification(inject_coefficient_error=args.inject_coefficient_error)
        out.write(json.dumps(rep, indent=2) + "\n")
    return 0 if rep["all_passed"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzdist",
        description="GHZ-state distribution over star networks: simulators and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value parameter file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a parameter (repeatable)",
        )

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate at one point")
    add_common(p_sim)
    p_sim.add_argument("--protocol", choices=("factory", "switch"), required=True)
    p_sim.add_argument("--output", help="CSV path (stdout if omitted)")
    p_sim.add_argument("--no-timestamp", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, CSV + optional SVG")
    add_common(p_sweep)
    p_sweep.add_argument("--protocol", choices=("factory", "switch"), required=True)
    p_sweep.add_argument("--param", required=True, help="SimParams field to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--output", help="CSV path (stdout if omitted)")
    p_sweep.add_argument("--svg", help="also render a chart to this path")
    p_sweep.add_argument("--no-timestamp", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_an = sub.add_parser("analytic", help="closed-form quantities as JSON")
    add_common(p_an)
    p_an.add_argument(
        "--quantity", choices=("rate", "fidelity", "order-stat", "g"), required=True
    )
    p_an.add_argument("--mode", required=True)
    p_an.add_argument("--index", type=int, help="order statistic index i")
    p_an.add_argument("--positions", help="comma-separated ranks for g")
    p_an.add_argument("--rates", help="comma-separated per-rank loss rates for g")
    p_an.set_defaults(func=cmd_analytic)

    p_ver = sub.add_parser("verify", help="run the oracle suite, JSON report")
    p_ver.add_argument("--output", help="report path (stdout if omitted)")
    p_ver.add_argument(
        "--inject-coefficient-error",
        type=float,
        default=0.0,
        help=argparse.SUPPRESS,  # negative control for tests
    )
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
