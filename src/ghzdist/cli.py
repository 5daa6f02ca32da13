"""Command-line front end: simulate, analytic, sweep, verify.

Parameters: ``--config``, then each ``--set`` (one ``key = value``, the last
one winning), then a sweep's point, read as ``--param``.  Exit codes: 0 on
success, 1 for configuration and file errors, 2 when verification fails.
CSV output is byte-identical for identical configs and seeds; the timestamp
header line can be suppressed for that purpose.
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
from .factory import check_attempt_budget, estimate, worker_count
from .params import ConfigError, SimParams, load_params
from .svgplot import Panel, Series, render_sweep_svg
from .switch import WARMUP_EXECUTIONS, check_measurement_budget, estimate_switch

# (column, quantity, mode, chart label, form); forms look up analytics.<fn> when called
ANALYTIC_COLUMNS = [
    ("analytic_rate_exact", "rate", "exact", "exact",
     lambda p: analytics.rate_exact(p.n_end_nodes, p.q_link, p.q_bsm, p.dt)),
    ("analytic_rate_leading", "rate", "leading", "leading",
     lambda p: analytics.rate_leading(p.n_end_nodes, p.q_link, p.q_bsm, p.dt)),
    ("analytic_fid_leading", "fidelity", "leading", "leading",
     lambda p: analytics.fidelity_closed_form(p, "leading").value),
    ("analytic_fid_lower_bound", "fidelity", "lower_bound", "lower bound",
     lambda p: analytics.fidelity_closed_form(p, "lower_bound").value),
]

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "shots",
    "seed",
    "rate_mean",
    "rate_stderr",
    "fid_mean",
    "fid_stderr",
    *(column for column, *_ in ANALYTIC_COLUMNS),
]

# the valid --mode values of each analytic quantity
ANALYTIC_MODES = {
    "rate": ("exact", "leading"),
    "fidelity": ("leading", "lower_bound"),
    "order-stat": ("exact", "leading", "upper_bound"),
    "g": ("leading", "lower_bound"),
}

# (panel, MC column, error column); a factory panel adds its quantity's closed forms
CHART = [("rate", "rate_mean", "rate_stderr"), ("fidelity", "fid_mean", "fid_stderr")]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _parse_list(flag: str, text: str, kind) -> tuple:
    try:
        return tuple(kind(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(
            f"{flag} expects comma-separated numbers, got {text!r}"
        ) from None


def _resolve_point(protocol: str, params: SimParams) -> dict:
    """The analytic columns of one point; raises on any input the point
    would fail on, so that a run checks every point before simulating one."""
    if protocol == "switch":
        check_measurement_budget(params)
        return {column: "" for column, *_ in ANALYTIC_COLUMNS}
    check_attempt_budget(params)
    worker_count()
    analytics.check_node_cap(params.n_end_nodes)
    return {column: form(params) for column, *_, form in ANALYTIC_COLUMNS}


def _open_output(stack: ExitStack, path: str | None) -> TextIO:
    if path is None:
        return sys.stdout
    return stack.enter_context(open(path, "w", newline=""))


def _render_chart(protocol: str, sweep_param: str, rows: list[dict], out: TextIO) -> None:
    panels = [
        Panel(panel, [
            Series("MC", [r[col] for r in rows], [r[err] for r in rows]),
            *(Series(label, [r[column] for r in rows])
              for column, quantity, _, label, _ in ANALYTIC_COLUMNS
              if quantity == panel and protocol == "factory"),
        ])
        for panel, col, err in CHART
    ]
    x = [float(r["sweep_value"]) for r in rows]
    render_sweep_svg(out, f"{protocol}: sweep over {sweep_param}", sweep_param, x, panels)


def _run_points(args, sweep_param: str, values: list[str], svg_path: str | None) -> int:
    """Check every point, open the outputs, simulate each point and write
    one CSV row per point, plus the chart if ``svg_path`` is given.  An empty
    ``sweep_param`` runs the single point of the config."""
    points = []
    for value in values:
        setting = value and f"{sweep_param}={value}"
        params = load_params(args.config, args.set or (), setting)
        points.append((value, params, _resolve_point(args.protocol, params)))
    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        svg = stack.enter_context(open(svg_path, "w")) if svg_path else None
        run = estimate if args.protocol == "factory" else estimate_switch
        rows = []
        for value, params, analytic in points:
            est = run(params)
            rows.append({
                "sweep_param": sweep_param,
                "sweep_value": value,
                "shots": est.shots,
                "seed": params.seed,
                "rate_mean": est.rate_mean,
                "rate_stderr": est.rate_stderr,
                "fid_mean": est.fidelity_mean,
                "fid_stderr": est.fidelity_stderr,
                **analytic,
            })
        lines = []
        if not args.no_timestamp:
            lines.append(f"# generated {datetime.now(timezone.utc).isoformat()}")
        if args.protocol == "switch":
            lines.append(f"# switch_warmup_executions = {WARMUP_EXECUTIONS}")
        lines.append(",".join(CSV_COLUMNS))
        lines.extend(",".join(_fmt(row[col]) for col in CSV_COLUMNS) for row in rows)
        out.write("\n".join(lines) + "\n")
        if svg is not None:
            _render_chart(args.protocol, sweep_param, rows, svg)
    return 0


def cmd_simulate(args) -> int:
    return _run_points(args, "", [""], None)


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    if "#" in args.values:
        raise ConfigError(f"--values cannot hold '#', got {args.values!r}")
    return _run_points(args, args.param, values, args.svg)


def cmd_analytic(args) -> int:
    params = load_params(args.config, args.set or ())
    modes = ANALYTIC_MODES[args.quantity]
    if args.mode not in modes:
        raise ConfigError(
            f"--mode for {args.quantity} must be {'|'.join(modes)}, got {args.mode!r}"
        )
    n, q = params.n_end_nodes, params.q_link
    analytics.check_node_cap(n)
    # every rate is a factor q_bsm^N, which below the normal doubles would lose digits
    if args.quantity == "rate" and params.q_bsm**n < 2.0**-1022:
        raise ConfigError(f"q_bsm ** n_end_nodes underflows (q_bsm = {params.q_bsm}, N = {n})")
    forms = {(quantity, mode): form for _, quantity, mode, _, form in ANALYTIC_COLUMNS}
    result: dict = {"quantity": args.quantity, "mode": args.mode, "params": asdict(params)}
    if (args.quantity, args.mode) in forms:
        result["value"] = forms[args.quantity, args.mode](params)
    elif args.quantity == "order-stat":
        if args.index is None:
            raise ConfigError("order-stat needs --index")
        if not 1 <= args.index <= n:
            raise ConfigError(f"--index must lie in 1..{n}, got {args.index}")
        result["index"] = args.index
        result["value"] = analytics.expected_order_stat(args.index, n, q, args.mode)
    else:
        if args.positions is None:
            raise ConfigError("quantity g needs --positions")
        positions = _parse_list("--positions", args.positions, int)
        if args.rates is not None:
            rates = _parse_list("--rates", args.rates, float)
        else:
            rates = (1.0 - params.p_mem**2,) * len(positions)
        try:
            spec = GSpec(n, positions, rates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        result["positions"] = list(positions)
        result["rates"] = list(rates)
        result["value"] = analytics.g_value(spec, q, args.mode)
    print(json.dumps(result))
    return 0


def cmd_verify(args) -> int:
    from .oracles import run_verification

    with ExitStack() as stack:
        out = _open_output(stack, args.output)
        rep = run_verification()
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

    def add_points(name, summary, func):
        p = sub.add_parser(name, help=summary)
        add_common(p)
        p.add_argument("--protocol", choices=("factory", "switch"), required=True)
        p.add_argument("--output", help="CSV path (stdout if omitted)")
        p.add_argument("--no-timestamp", action="store_true")
        p.set_defaults(func=func)
        return p

    add_points("simulate", "Monte Carlo estimate at one point", cmd_simulate)
    p_sweep = add_points("sweep", "sweep one parameter, CSV + optional SVG", cmd_sweep)
    p_sweep.add_argument("--param", required=True, help="SimParams field to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--svg", help="also render a chart to this path")

    p_an = sub.add_parser("analytic", help="closed-form quantities as JSON")
    add_common(p_an)
    p_an.add_argument("--quantity", choices=tuple(ANALYTIC_MODES), required=True)
    p_an.add_argument("--mode", required=True)
    p_an.add_argument("--index", type=int, help="order statistic index i")
    p_an.add_argument("--positions", help="comma-separated ranks for g")
    p_an.add_argument("--rates", help="comma-separated per-rank loss rates for g")
    p_an.set_defaults(func=cmd_analytic)

    p_ver = sub.add_parser("verify", help="run the oracle suite, JSON report")
    p_ver.add_argument("--output", help="report path (stdout if omitted)")
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
