"""Write perfbench/references.json, the values the benchmark's gate checks
outputs against.

    python3 perfbench/make_references.py

Run from the root of a source checkout.  Factory entries are the closed forms
(exact and leading-order rate, leading-order and lower-bound fidelity).  Switch
entries come from the engine itself: REFERENCE_POINTS independent
``estimate_switch`` points of exactly the workload's size, each with its own
seed.  An entry stores the mean over points, its standard error, and the
spread of single points, which the gate needs because the engine's own stderr
treats consecutive deliveries as independent and so understates it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from run import ROOT, checkout_identity, load_package

REFERENCE_POINTS = 100


def switch_entry(row) -> dict:
    import ghzdist.switch

    seeds = random.Random(f"reference/{row.kind}")
    rates, fids = [], []
    for _ in range(REFERENCE_POINTS):
        est = ghzdist.switch.estimate_switch(row.params(seeds.getrandbits(63)))
        rates.append(est.rate_mean)
        fids.append(est.fidelity_mean)
    rate_sd, fid_sd = statistics.stdev(rates), statistics.stdev(fids)
    return {
        "protocol": "switch",
        "n": row.n,
        "q_link": row.q_link,
        "deliveries_per_point": row.shots,
        "points": REFERENCE_POINTS,
        "rate": statistics.fmean(rates),
        "rate_se": rate_sd / REFERENCE_POINTS**0.5,
        "rate_point_sd": rate_sd,
        "fid": statistics.fmean(fids),
        "fid_se": fid_sd / REFERENCE_POINTS**0.5,
        "fid_point_sd": fid_sd,
    }


def factory_entry(row) -> dict:
    from ghzdist import analytics

    params = row.params(0)
    return {
        "protocol": "factory",
        "n": row.n,
        "q_link": row.q_link,
        "rate_exact": analytics.rate_exact(row.n, row.q_link, params.q_bsm, params.dt),
        "rate_leading": analytics.rate_leading(row.n, row.q_link, params.q_bsm, params.dt),
        "fid_leading": analytics.fidelity_closed_form(params, "leading").value,
        "fid_lower_bound": analytics.fidelity_closed_form(params, "lower_bound").value,
    }


def main() -> int:
    load_package()
    import workloads

    rows = {r.kind: r for cycle in workloads.CYCLES.values() for point in cycle for r in point}
    entries = []
    for row in rows.values():
        t0 = time.perf_counter()
        entries.append(factory_entry(row) if row.protocol == "factory"
                       else switch_entry(row))
        print(f"{row.kind}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    doc = {
        "command": "python3 perfbench/make_references.py",
        "source": checkout_identity(),
        "entries": entries,
    }
    (ROOT / "perfbench" / "references.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
