"""Sweep charts: every x tick is labelled with the value where it sits."""

import io
import re

import pytest

from ghzdist.svgplot import MARGIN_L, MARGIN_T, PANEL_H, PANEL_W, Panel, Series, render_sweep_svg


def x_ticks(x: list[float]) -> list[tuple[float, str]]:
    """(pixel, label) of each x tick of a one-panel chart over x."""
    out = io.StringIO()
    render_sweep_svg(out, "sweep", "q_link", x, [Panel("rate", [Series("MC", [1.0] * len(x))])])
    row = MARGIN_T + PANEL_H + 16
    ticks = re.findall(rf'<text x="([^"]+)" y="{row}" text-anchor="middle">([^<]+)</text>',
                       out.getvalue())
    return [(float(px), label) for px, label in ticks]


@pytest.mark.parametrize(
    "x, labels",
    [
        # max / min = 50 puts the axis on a log scale: the middle tick sits at
        # the geometric mean, not at the arithmetic one (0.0255)
        ([0.001, 0.005, 0.05], ["0.001", "0.007071", "0.05"]),
        ([0.1, 0.2, 0.4], ["0.1", "0.25", "0.4"]),
    ],
    ids=["log", "linear"],
)
def test_each_x_tick_reads_its_position(x, labels):
    ticks = x_ticks(x)
    assert [label for _, label in ticks] == labels
    assert [px for px, _ in ticks] == pytest.approx(
        [MARGIN_L, MARGIN_L + PANEL_W / 2, MARGIN_L + PANEL_W])
