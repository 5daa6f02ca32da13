"""Command-line surface: CSV schema, JSON output, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzdist.analytics import expected_n_all_exact, switch_fidelity_perfect_memory
from ghzdist.cli import CSV_COLUMNS, main


def write_config(tmp_path, **kwargs):
    path = tmp_path / "point.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in kwargs.items()))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [l for l in fh.read().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


class TestSimulate:
    def test_factory_perfect_rate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, n_end_nodes=5, q_link=1.0, q_bsm=1.0, shots=50, seed=3
        )
        out = tmp_path / "res.csv"
        code = main(
            ["simulate", "--protocol", "factory", "--config", cfg, "--output", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert float(rows[0]["rate_mean"]) == 1.0
        assert float(rows[0]["analytic_rate_exact"]) == 1.0

    def test_factory_point_computes_the_exact_n_all_once(self, tmp_path):
        # E[n_all] costs O(N^2): the control's mean and analytic_rate_exact
        # share one computation
        cfg = write_config(tmp_path, n_end_nodes=16, q_link=0.01, q_bsm=0.95, shots=50, seed=3)
        out = tmp_path / "res.csv"
        assert main(["simulate", "--protocol", "factory", "--config", cfg,
                     "--output", str(out)]) == 0
        info = expected_n_all_exact.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_switch_perfect_rate_near_half(self, tmp_path):
        cfg = write_config(
            tmp_path, n_end_nodes=5, q_link=1.0, q_bsm=1.0, shots=50, seed=3
        )
        out = tmp_path / "res.csv"
        assert (
            main(
                ["simulate", "--protocol", "switch", "--config", cfg, "--output", str(out)]
            )
            == 0
        )
        row = read_rows(out)[0]
        assert 0.45 <= float(row["rate_mean"]) <= 0.55
        assert row["analytic_rate_exact"] == ""

    def test_missing_key_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5)
        code = main(["simulate", "--protocol", "factory", "--config", cfg])
        assert code == 1
        assert "q_link" in capsys.readouterr().err

    def test_unknown_key_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.1, q_linc=0.2)
        code = main(["simulate", "--protocol", "factory", "--config", cfg])
        assert code == 1
        assert "q_linc" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [16, 32])
    def test_switch_runs_past_eleven_end_nodes(self, tmp_path, n):
        # the read-out's cost grows with the ledger, not as 2^N, so no node
        # limit is left; at p_mem = 1 every delivery has the tree closed form
        out = tmp_path / "res.csv"
        code = main(
            ["simulate", "--protocol", "switch", "--set", f"n_end_nodes={n}",
             "--set", "q_link=0.5", "--set", "p_link=0.99", "--set", "p_bsm=0.98",
             "--set", "p_mem=1", "--set", "shots=3", "--output", str(out)]
        )
        assert code == 0
        (row,) = read_rows(out)
        closed_form = switch_fidelity_perfect_memory(n, 0.99, 0.98)
        assert abs(float(row["fid_mean"]) - closed_form) <= 1e-12

    def test_switch_runs_where_the_factory_coin_cannot(self, capsys):
        # q_bsm^32 ~ 1.9e-17 is below 2^-53, which only the factory's coin
        # u < q_bsm^N meets (its draw budget rejects the point); the
        # switch's coin is u < q_bsm
        argv = ["simulate", "--set", "n_end_nodes=32", "--set", "q_link=0.3",
                "--set", "q_bsm=0.3", "--set", "shots=2"]
        assert main([*argv, "--protocol", "switch"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main([*argv, "--protocol", "factory"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    def test_switch_measurement_budget_is_one_error_line(self, capsys):
        # (2 + 1) deliveries of (5 - 1) / 1e-7 measurements each: 1.2e8, at
        # 4 to 10 us a measurement 8 to 20 minutes
        argv = ["simulate", "--protocol", "switch", "--set", "n_end_nodes=5",
                "--set", "q_link=1", "--set", "q_bsm=1e-7", "--set", "shots=2"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    def test_fidelity_node_cap_fires_before_the_exact_rate(self, capsys, monkeypatch):
        # the exact rate costs O(N^2), seconds at N = 4000, and its value
        # would be thrown away once the closed-form fidelity rejects N
        def refuse(*args):
            raise AssertionError("rate_exact evaluated")

        monkeypatch.setattr("ghzdist.analytics.rate_exact", refuse)
        code = main(
            ["simulate", "--protocol", "factory", "--set", "n_end_nodes=4000",
             "--set", "q_link=0.5", "--set", "shots=2"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "n_end_nodes" in err[0]

    @pytest.mark.parametrize("protocol", ["factory", "switch"])
    def test_single_shot_is_one_error_line(self, capsys, protocol):
        code = main(
            ["simulate", "--protocol", protocol, "--set", "n_end_nodes=3",
             "--set", "q_link=0.5", "--set", "shots=1"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "shots" in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "factory", "--set", "dt=1e-320"],
            ["simulate", "--protocol", "switch", "--set", "dt=1e-320"],
            ["simulate", "--protocol", "factory", "--set", "dt=1e300"],
            ["analytic", "--quantity", "rate", "--mode", "exact", "--set", "dt=1e-320"],
        ],
    )
    def test_extreme_dt_is_one_error_line(self, capsys, argv):
        # an underflowing t_mean**2 or an infinite rate must not reach output
        argv = [*argv, "--set", "n_end_nodes=3", "--set", "q_link=0.1", "--set", "shots=2"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "dt" in err[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "factory", "--set", "shots=2"],
            ["analytic", "--quantity", "rate", "--mode", "exact"],
        ],
    )
    def test_underflowing_q_bsm_power_is_one_error_line(self, capsys, argv):
        # q_bsm^5 underflows to 0: the factory's coin could never land and the
        # rate would print as 0
        argv = [*argv, "--set", "n_end_nodes=5", "--set", "q_link=0.5",
                "--set", "q_bsm=1e-70"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    @pytest.mark.parametrize("mode", ["exact", "leading"])
    def test_rate_below_the_normal_doubles_is_one_error_line(self, capsys, mode):
        # q_bsm^40 = 1e-400 underflows to 0 and 1e-320 is subnormal: the
        # rate would print as 0, or with lost digits
        for q_bsm in ("1e-10", "1e-8"):
            argv = ["analytic", "--quantity", "rate", "--mode", mode, "--set",
                    "n_end_nodes=40", "--set", "q_link=0.5", "--set", f"q_bsm={q_bsm}"]
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    @pytest.mark.parametrize("protocol", ["factory", "switch"])
    def test_unresolvable_q_bsm_power_is_one_error_line(self, capsys, protocol):
        # q_bsm = 1e-60 and q_bsm^5 = 1e-300 do not underflow, but a uniform
        # draw on the 2^-53 grid meets either only at u = 0, so the switch's
        # coin u < q_bsm and the factory's u < q_bsm^5 would all but hang
        argv = ["simulate", "--protocol", protocol, "--set", "n_end_nodes=5",
                "--set", "q_link=0.5", "--set", "q_bsm=1e-60", "--set", "shots=2"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    def test_factory_attempt_budget_is_one_error_line(self):
        # q_bsm^5 = 1e-15 passes validation, but each shot would need ~1e15
        # teleportation attempts; run in a child process so that a missing
        # check fails on the timeout instead of hanging the suite
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        argv = ["simulate", "--protocol", "factory", "--set", "n_end_nodes=5",
                "--set", "q_link=0.5", "--set", "q_bsm=1e-3", "--set", "shots=2"]
        proc = subprocess.run(
            [sys.executable, "-m", "ghzdist.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(err) == 1 and err[0].startswith("error:") and "q_bsm" in err[0]

    def test_factory_duration_past_int64_is_one_error_line(self, capsys):
        # ~1.1e19 rounds a shot: durations would wrap past 2^63
        argv = ["simulate", "--protocol", "factory", "--set", "n_end_nodes=40",
                "--set", "q_bsm=0.8", "--set", "q_link=2.97e-15", "--set", "shots=2326",
                "--set", "seed=0"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "q_link" in err[0]

    def test_switch_duration_past_int64_runs(self, tmp_path, capsys):
        # a delivery takes ~q_bsm^-1 / q_link ~ 1e19 rounds, past 2^63: the
        # engine's round counter is a Python int, and the durations summarize
        # reads must not overflow on their way into an array
        out = tmp_path / "out.csv"
        argv = ["simulate", "--protocol", "switch", "--set", "n_end_nodes=2",
                "--set", "q_link=1e-15", "--set", "q_bsm=1e-4", "--set", "shots=2",
                "--set", "seed=1", "--output", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        (row,) = read_rows(out)
        rate = float(row["rate_mean"])
        assert 0.0 < rate < 2.0**-63 and math.isfinite(rate)

    @pytest.mark.parametrize("target", ["output", "svg", "config"])
    def test_file_error_is_one_error_line(self, tmp_path, capsys, target):
        missing = str(tmp_path / "no_such_dir" / "x")
        argv = ["--set", "n_end_nodes=3", "--set", "q_link=0.5", "--set", "shots=2"]
        if target == "output":
            argv = ["simulate", "--protocol", "factory", *argv, "--output", missing]
        elif target == "svg":
            argv = ["sweep", "--protocol", "factory", *argv, "--param", "q_bsm",
                    "--values", "1", "--svg", missing]
        else:
            argv = ["simulate", "--protocol", "factory", *argv, "--config", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert (str(tmp_path) if target == "config" else missing) in err[0]


    @pytest.mark.parametrize("source", ["set", "config"])
    def test_t_cl_is_an_unknown_key(self, tmp_path, capsys, source):
        if source == "set":
            argv = ["--set", "n_end_nodes=3", "--set", "q_link=0.5", "--set", "t_cl=0"]
        else:
            argv = ["--config", write_config(tmp_path, n_end_nodes=3, q_link=0.5, t_cl=0)]
        assert main(["simulate", "--protocol", "factory", *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "t_cl" in err[0]


POINT = ["--set", "n_end_nodes=4", "--set", "q_link=0.2", "--set", "q_bsm=0.9",
         "--set", "p_mem=0.99", "--set", "p_ghz=0.9", "--set", "seed=5"]


class TestSharedPipeline:
    @pytest.mark.parametrize("protocol, shots", [("factory", 300), ("switch", 10)])
    def test_simulate_is_the_one_point_sweep(self, tmp_path, protocol, shots):
        one, swept = tmp_path / "one.csv", tmp_path / "swept.csv"
        argv = ["--protocol", protocol, *POINT, "--no-timestamp"]
        assert main(["simulate", *argv, "--set", f"shots={shots}",
                     "--output", str(one)]) == 0
        assert main(["sweep", *argv, "--param", "shots", "--values", str(shots),
                     "--output", str(swept)]) == 0
        [row], [swept_row] = read_rows(one), read_rows(swept)
        assert (row.pop("sweep_param"), row.pop("sweep_value")) == ("", "")
        assert (swept_row.pop("sweep_param"), swept_row.pop("sweep_value")) == (
            "shots", str(shots))
        assert row == swept_row

    def test_analytic_matches_the_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["simulate", "--protocol", "factory", *POINT, "--set", "shots=50",
                     "--output", str(out)]) == 0
        [row] = read_rows(out)
        for quantity, mode, column in [
            ("rate", "exact", "analytic_rate_exact"),
            ("rate", "leading", "analytic_rate_leading"),
            ("fidelity", "leading", "analytic_fid_leading"),
            ("fidelity", "lower_bound", "analytic_fid_lower_bound"),
        ]:
            assert main(["analytic", "--quantity", quantity, "--mode", mode, *POINT]) == 0
            assert json.loads(capsys.readouterr().out)["value"] == float(row[column])

    @pytest.mark.parametrize("protocol, shots", [("factory", 200), ("switch", 10)])
    def test_chart_draws_mc_as_markers_and_closed_forms_as_lines(
        self, tmp_path, protocol, shots
    ):
        svg = tmp_path / "sweep.svg"
        assert main(["sweep", "--protocol", protocol, *POINT, "--set", f"shots={shots}",
                     "--param", "q_link", "--values", "0.1,0.2,0.4",
                     "--output", str(tmp_path / "sweep.csv"), "--svg", str(svg)]) == 0
        text = svg.read_text()
        # two MC series (rate, fidelity) of three points, each with an error bar
        assert text.count("<circle ") == 6 and text.count("<line ") == 6
        assert text.count(">MC</text>") == 2
        closed_forms = [">exact<", ">leading<", ">lower bound<"]
        if protocol == "factory":
            assert text.count("<polyline ") == 4
            assert all(name in text for name in closed_forms)
        else:
            assert "<polyline " not in text
            assert not any(name in text for name in closed_forms)


class TestAnalytic:
    def run_json(self, capsys, *argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_rate_leading(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01, q_bsm=0.95)
        out = self.run_json(
            capsys, "analytic", "--quantity", "rate", "--mode", "leading",
            "--config", cfg,
        )
        assert out["value"] == pytest.approx(0.003389, abs=5e-7)

    def test_rate_exact_stays_positive_at_large_n(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=200, q_link=0.01)
        out = self.run_json(
            capsys, "analytic", "--quantity", "rate", "--mode", "exact",
            "--config", cfg,
        )
        # q_bsm = 1: the rate is 1 / E[max of 200 geometric(0.01)] = 1 / 585.359...
        assert out["value"] == pytest.approx(1 / 585.3591563309344, rel=1e-12)

    def test_fidelity_noiseless(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01)
        out = self.run_json(
            capsys, "analytic", "--quantity", "fidelity", "--mode", "leading",
            "--config", cfg,
        )
        assert out["value"] == pytest.approx(1.0, abs=1e-12)

    def test_g_leading(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=2, q_link=0.01)
        out = self.run_json(
            capsys, "analytic", "--quantity", "g", "--mode", "leading",
            "--config", cfg, "--positions", "1,2", "--rates", "0.01,0.01",
        )
        assert out["value"] == pytest.approx(0.5, abs=1e-12)

    def test_order_stat(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=2, q_link=0.5)
        out = self.run_json(
            capsys, "analytic", "--quantity", "order-stat", "--mode", "exact",
            "--config", cfg, "--index", "2",
        )
        assert out["value"] == pytest.approx(8 / 3, abs=1e-10)

    def test_bad_mode(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01)
        code = main(
            ["analytic", "--quantity", "rate", "--mode", "wrong", "--config", cfg]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--quantity", "order-stat", "--mode", "exact", "--index", "9"], "--index"),
            (["--quantity", "order-stat", "--mode", "bogus", "--index", "2"], "--mode"),
            (["--quantity", "g", "--mode", "leading", "--positions", "1,x"],
             "--positions"),
            (["--quantity", "g", "--mode", "leading", "--positions", "1,2",
              "--rates", "0.1,y"], "--rates"),
            (["--quantity", "fidelity", "--mode", "leading", "--set",
              "n_end_nodes=1024"], "n_end_nodes"),
            (["--quantity", "rate", "--mode", "lower_bound"], "--mode"),
            (["--quantity", "fidelity", "--mode", "exact"], "--mode"),
            (["--quantity", "g", "--mode", "upper_bound", "--positions", "1,2"],
             "--mode"),
            (["--quantity", "rate", "--mode", "exact", "--set", "n_end_nodes=1024"],
             "n_end_nodes"),
            (["--quantity", "order-stat", "--mode", "exact", "--index", "1", "--set",
              "n_end_nodes=200000"], "n_end_nodes"),
            (["--quantity", "rate", "--mode", "leading", "--set", "n_end_nodes=1024"],
             "n_end_nodes"),
            (["--quantity", "order-stat", "--mode", "upper_bound", "--index", "1",
              "--set", "n_end_nodes=1024"], "n_end_nodes"),
            (["--quantity", "g", "--mode", "leading", "--positions", "1", "--set",
              "n_end_nodes=1024"], "n_end_nodes"),
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, flags, named):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01)
        assert main(["analytic", "--config", cfg, *flags]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    @pytest.mark.parametrize("n", [25, 200])
    def test_fidelity_has_no_subset_cap(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, n_end_nodes=n, q_link=0.01, p_mem=0.9999)
        out = self.run_json(
            capsys, "analytic", "--quantity", "fidelity", "--mode", "leading",
            "--config", cfg,
        )
        assert 2.0**-n <= out["value"] <= 1.0


class TestSweep:
    def test_factory_sweep_columns_and_bound(self, tmp_path):
        cfg = write_config(
            tmp_path, n_end_nodes=5, q_link=0.01, q_bsm=0.95, shots=1500, seed=11,
            p_link=0.99, p_bsm=0.99, p_mem=0.9999, p_ghz=0.8967741935483872,
        )
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--protocol", "factory", "--config", cfg,
                "--param", "q_link", "--values", "0.005,0.01,0.05",
                "--output", str(out), "--no-timestamp",
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert [r["sweep_value"] for r in rows] == ["0.005", "0.01", "0.05"]
        for row in rows:
            bound = float(row["analytic_fid_lower_bound"])
            mc = float(row["fid_mean"])
            sigma = float(row["fid_stderr"])
            assert bound <= mc + 3 * sigma

    def test_sweep_n_monotone_rate(self, tmp_path):
        cfg = write_config(tmp_path, n_end_nodes=3, q_link=0.01, shots=3000, seed=2)
        out = tmp_path / "n.csv"
        code = main(
            [
                "sweep", "--protocol", "factory", "--config", cfg,
                "--param", "n_end_nodes", "--values", "3,4,5,6,7,8",
                "--output", str(out), "--no-timestamp",
            ]
        )
        assert code == 0
        rates = [float(r["rate_mean"]) for r in read_rows(out)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_empty_values_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01)
        code = main(
            [
                "sweep", "--protocol", "factory", "--config", cfg,
                "--param", "q_link", "--values", ",",
            ]
        )
        assert code == 1

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = write_config(tmp_path, n_end_nodes=5, q_link=0.01)
        code = main(
            [
                "sweep", "--protocol", "factory", "--config", cfg,
                "--param", "q_lonk", "--values", "0.1",
            ]
        )
        assert code == 1

    def test_svg_artifact(self, tmp_path):
        cfg = write_config(tmp_path, n_end_nodes=4, q_link=0.05, shots=400, seed=5)
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        code = main(
            [
                "sweep", "--protocol", "factory", "--config", cfg,
                "--param", "q_link", "--values", "0.02,0.1,0.5",
                "--output", str(out), "--svg", str(svg), "--no-timestamp",
            ]
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, n_end_nodes=4, q_link=0.1, shots=500, seed=9)
        argv = [
            "sweep", "--protocol", "factory", "--config", cfg,
            "--param", "q_link", "--values", "0.1,0.3",
            "--no-timestamp",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestInputCheckedBeforeAnyPoint:
    @pytest.fixture
    def no_points(self, monkeypatch):
        def refuse(params):
            raise AssertionError("a point ran before the input was checked")

        monkeypatch.setattr("ghzdist.cli.estimate", refuse)
        monkeypatch.setattr("ghzdist.cli.estimate_switch", refuse)

    @pytest.mark.parametrize(
        "protocol, param, values, named",
        [
            ("factory", "q_link", "0.01,abc", "abc"),
            ("factory", "n_end_nodes", "5,1", "n_end_nodes"),
            ("factory", "n_end_nodes", "5,1024", "n_end_nodes"),
            ("switch", "n_end_nodes", "5,1", "n_end_nodes"),
        ],
    )
    def test_bad_last_sweep_value(
        self, capsys, no_points, protocol, param, values, named
    ):
        argv = ["sweep", "--protocol", protocol, "--set", "n_end_nodes=5",
                "--set", "q_link=0.5", "--param", param, "--values", values]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and named in err[0]

    @pytest.mark.parametrize(
        "command, flag",
        [("sweep", "--output"), ("sweep", "--svg"), ("simulate", "--output"),
         ("verify", "--output")],
    )
    def test_unwritable_output(
        self, tmp_path, capsys, monkeypatch, no_points, command, flag
    ):
        def refuse(**kwargs):
            raise AssertionError("verification ran before --output was opened")

        monkeypatch.setattr("ghzdist.oracles.run_verification", refuse)
        missing = str(tmp_path / "no_such_dir" / "x")
        argv = [command, flag, missing]
        if command != "verify":
            argv += ["--protocol", "factory", "--set", "n_end_nodes=3",
                     "--set", "q_link=0.5"]
        if command == "sweep":
            argv += ["--param", "q_bsm", "--values", "1,0.9"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and missing in err[0]


    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count(self, tmp_path, capsys, monkeypatch, no_points, value):
        monkeypatch.setenv("GHZDIST_WORKERS", value)
        out = tmp_path / "res.csv"
        argv = ["simulate", "--protocol", "factory", "--set", "n_end_nodes=3",
                "--set", "q_link=0.5", "--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "GHZDIST_WORKERS" in err[0]
        assert not out.exists()


class TestVerify:
    def test_verify_passes(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["verify", "--output", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["all_passed"]
        assert report["runtime_s"] > 0
        assert all({"name", "tolerance", "observed", "passed"} <= set(c) for c in report["checks"])

    def test_verify_negative_control_exit_code(self, tmp_path, capsys, skewed_b0):
        code = main(["verify"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert not report["all_passed"]
