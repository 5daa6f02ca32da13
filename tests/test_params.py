"""Parameter validation, config parsing, seeding, geometric sampling."""

import math
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghzdist import params as params_module
from ghzdist.cli import main
from ghzdist.factory import check_attempt_budget
from ghzdist.params import (
    BLOCK,
    ConfigError,
    SimParams,
    Uniforms,
    derive_p_ghz,
    geometric_log_miss,
    geometric_rounds,
    geometric_rounds_array,
    load_params,
    parse_config_text,
    sample_geometric,
    shot_rng,
)

LARGEST_UNIFORM = 1.0 - 2.0**-53  # the largest double rng.random() returns
q_links = st.floats(1e-15, 1.0)
uniforms = st.floats(0.0, LARGEST_UNIFORM)


class TestSimParams:
    def test_valid_defaults(self):
        p = SimParams(n_end_nodes=5, q_link=0.01)
        assert p.shots == 10_000 and p.dt == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_end_nodes": 1},
            {"q_link": 0.0},
            {"q_link": 1.5},
            {"q_link": 1e-16},
            {"q_bsm": 0.0},
            {"p_mem": -0.1},
            {"p_ghz": 1.2},
            {"dt": 0.0},
            {"dt": float("nan")},
            {"dt": float("inf")},
            {"shots": 0},
            {"shots": 1},
            {"dt": 1e-320},
            {"dt": 1e300},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        base = dict(n_end_nodes=5, q_link=0.01)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SimParams(**base)

    @pytest.mark.parametrize(
        "q_bsm, n", [(1e-70, 5), (1e-60, 5), (1e-10, 40), (5e-324, 2), (1e-8, 2)]
    )
    def test_rejects_q_bsm_power_underflow(self, q_bsm, n):
        # the factory's coin u < q_bsm^N draws u on a 2^-53 grid: below that
        # step it lands only at u = 0, with the wrong probability.  SimParams
        # rejects a q_bsm below it, the draw budget any smaller q_bsm^N
        # (q_bsm^N = 0 and q_bsm^-N = inf included)
        with pytest.raises(ConfigError, match="q_bsm"):
            check_attempt_budget(SimParams(n_end_nodes=n, q_link=0.01, q_bsm=q_bsm))

    def test_accepts_small_q_bsm_power(self):
        assert SimParams(n_end_nodes=5, q_link=0.01, q_bsm=1e-3).q_bsm == 1e-3
        assert SimParams(n_end_nodes=2, q_link=0.01, q_bsm=1e-6).q_bsm == 1e-6

    def test_coin_limit_is_on_q_bsm_alone(self):
        # the switch's coin is u < q_bsm, whatever q_bsm^N
        assert SimParams(n_end_nodes=32, q_link=0.3, q_bsm=0.3).q_bsm == 0.3
        assert SimParams(n_end_nodes=2, q_link=0.01, q_bsm=2.0**-53).q_bsm == 2.0**-53
        with pytest.raises(ConfigError, match="q_bsm"):
            SimParams(n_end_nodes=2, q_link=0.01, q_bsm=2.0**-54)

    def test_overrides(self):
        p = replace(SimParams(n_end_nodes=5, q_link=0.01), p_mem=0.5)
        assert p.p_mem == 0.5 and p.q_link == 0.01


class TestConfigFile:
    def test_parse_and_load(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text(
            "# comment\n"
            "n_end_nodes = 5\n"
            "q_link = 0.01\n"
            "q_bsm = 0.95  # inline comment\n"
            "seed = 7\n"
        )
        p = load_params(cfg)
        assert p.n_end_nodes == 5 and p.q_bsm == 0.95 and p.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("qlink = 0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("q_link = 0.1\nq_link = 0.2\n")

    def test_missing_required_keys_listed(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_end_nodes = 5\n")
        with pytest.raises(ConfigError, match="q_link"):
            load_params(cfg)

    def test_cli_style_overrides_win(self, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n_end_nodes = 5\nq_link = 0.01\n")
        p = load_params(cfg, ["q_link=0.5"])
        assert p.q_link == 0.5

    def test_t_cl_is_an_unknown_key(self, tmp_path):
        # classical messages are instantaneous; there is no t_cl knob
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n_end_nodes = 5\nq_link = 0.01\nt_cl = 0\n")
        with pytest.raises(ConfigError, match="unknown key 't_cl'"):
            load_params(cfg)
        with pytest.raises(ConfigError, match="unknown key 't_cl'"):
            load_params(None, ["n_end_nodes=5", "q_link=0.01", "t_cl=0"])

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("q_link = fast\n")


BASE_SETTINGS = ["n_end_nodes = 5", "q_link = 0.01"]
INT_FIELDS = [f for f in fields(SimParams) if f.type == "int"]
REQUIRED_FIELDS = [f for f in fields(SimParams) if f.default is MISSING]


def field_line(field) -> str:
    """A valid ``key = value`` line for one field: 7 for an int, 0.5 else."""
    return f"{field.name} = {7 if field.type == 'int' else 0.5}"


class TestOneReader:
    """A config file, each ``--set`` and a sweep's ``--param`` are read by one
    parser, and the integer and required keys come from the SimParams fields."""

    def test_field_tables_are_not_empty(self):
        # the cases below run over these, so an empty table would pass vacuously
        assert [f.name for f in INT_FIELDS] == ["n_end_nodes", "shots", "seed"]
        assert [f.name for f in REQUIRED_FIELDS] == ["n_end_nodes", "q_link"]

    @pytest.mark.parametrize("field", fields(SimParams), ids=lambda f: f.name)
    def test_config_line_and_setting_agree(self, tmp_path, field):
        base = [line for line in BASE_SETTINGS if not line.startswith(field.name)]
        with_line = tmp_path / "with.cfg"
        with_line.write_text("\n".join([*base, field_line(field)]) + "\n")
        without = tmp_path / "without.cfg"
        without.write_text("\n".join(base) + "\n")
        from_file = load_params(with_line)
        assert load_params(without, [field_line(field)]) == from_file
        assert load_params(without, [], field_line(field)) == from_file
        value = getattr(from_file, field.name)
        assert type(value) is (int if field.type == "int" else float)

    @pytest.mark.parametrize("field", INT_FIELDS, ids=lambda f: f.name)
    def test_fractional_int_fails_naming_the_key(self, tmp_path, field):
        # read as a float, seed = 1.5 would pass SimParams' own range check
        message = f"cannot parse value '1.5' for key '{field.name}'"
        with pytest.raises(ConfigError, match=f"--set:1: {message}"):
            load_params(None, [*BASE_SETTINGS, f"{field.name}=1.5"])
        with pytest.raises(ConfigError, match=f"--param:1: {message}"):
            load_params(None, BASE_SETTINGS, f"{field.name}=1.5")
        cfg = tmp_path / "point.cfg"
        cfg.write_text(f"{field.name} = 1.5\n")
        with pytest.raises(ConfigError, match=message):
            load_params(cfg, BASE_SETTINGS)

    @pytest.mark.parametrize("field", REQUIRED_FIELDS, ids=lambda f: f.name)
    def test_missing_required_field_is_named(self, field):
        settings = [line for line in BASE_SETTINGS if not line.startswith(field.name)]
        with pytest.raises(ConfigError, match=f"missing required keys: {field.name}$"):
            load_params(None, settings)

    def test_later_setting_wins(self):
        settings = [*BASE_SETTINGS, "q_link=0.3", "seed = 4", "q_link = 0.2"]
        p = load_params(None, settings)
        assert p.q_link == 0.2 and p.seed == 4
        assert load_params(None, settings, "q_link=0.7").q_link == 0.7

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--set", ""], "--set"),
            (["--set", "   "], "--set"),
            (["--set", "# only a comment"], "--set"),
            (["--set", "q_bsm = 0.9\np_mem = 0.9"], "--set"),
            (["--set", "q_bsm = 0.9\nq_bsm = 0.8"], "--set:2: duplicate key 'q_bsm'"),
            (["--set", "q_linc = 0.2"], "--set:1: unknown key 'q_linc'"),
            (["--set", "q_link"], "--set:1:"),
            (["--param", "q_lonk", "--values", "0.1"], "--param:1: unknown key 'q_lonk'"),
            (["--param", "", "--values", "0.1"], "--param:1: unknown key ''"),
            (["--param", "seed", "--values", "1,1.5"], "--param:1: cannot parse"),
            (["--param", "q_link", "--values", "0.1,0.2#x"], "--values"),
        ],
    )
    def test_bad_setting_is_one_error_line(self, capsys, flags, named):
        command = "sweep" if "--param" in flags else "simulate"
        argv = [command, "--protocol", "factory", "--set", "n_end_nodes=3",
                "--set", "q_link=0.5", *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}")


class TestRngStreams:
    def test_same_coordinates_same_stream(self):
        a = shot_rng(123, 42, 1).random(16)
        b = shot_rng(123, 42, 1).random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_tags_differ(self):
        a = shot_rng(123, 42, 1).random(16)
        b = shot_rng(123, 42, 2).random(16)
        assert not np.array_equal(a, b)

    def test_distinct_shots_differ(self):
        a = shot_rng(123, 1, 1).random(16)
        b = shot_rng(123, 2, 1).random(16)
        assert not np.array_equal(a, b)

    def test_streams_equidistributed(self):
        # crude uniformity smoke test across (shot, tag) pairs
        means = [
            shot_rng(5, shot, tag).random(2000).mean()
            for shot in range(4)
            for tag in (1, 2)
        ]
        assert all(abs(m - 0.5) < 0.03 for m in means)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1])
    def test_pinned_to_numpy_seed_sequence(self, seed):
        shots = [*range(0, 3001, 97), 1023, 1024, 1025, 2**32 - 1, 2**32, 2**33 + 5,
                 2**64 - 1]
        for tag in (0, 1, 3, 9, 2**32 + 1):
            for shot in shots:
                ref = np.random.PCG64(np.random.SeedSequence(entropy=(seed, shot, tag)))
                got = shot_rng(seed, shot, tag)
                assert got.bit_generator.state == ref.state, (seed, shot, tag)
                expected = np.random.Generator(ref).random(16)
                np.testing.assert_array_equal(got.random(16), expected)

    @pytest.mark.parametrize("arg", ["seed", "shot_index", "tag"])
    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_rejects_arguments_outside_64_bits(self, arg, value):
        kwargs = {"seed": 5, "shot_index": 3, "tag": 1, arg: value}
        with pytest.raises(ValueError, match=arg):
            shot_rng(**kwargs)


# one op of a draw sequence: a scalar draw (None) or a batch of that size,
# some spanning more than one block
draw_ops = st.one_of(st.none(), st.integers(0, 3 * BLOCK))


class TestUniforms:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ops=st.lists(draw_ops, max_size=12), seed=st.integers(0, 2**64 - 1))
    @example(ops=[BLOCK - 1, None, None, 3], seed=0)
    @example(ops=[None] * (BLOCK + 1), seed=1)
    @example(ops=[BLOCK, BLOCK, None, 2 * BLOCK + 1, None], seed=2)
    @example(ops=[5, 3 * BLOCK, 0, None], seed=3)
    def test_equals_the_generator_draw_for_draw(self, ops, seed):
        buffered, plain = Uniforms(shot_rng(seed, 0, 3)), shot_rng(seed, 0, 3)
        for size in ops:
            got, expected = buffered.random(size), plain.random(size)
            if size is None:
                assert type(got) is float and got == expected
            else:
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("count", range(2, 56))
    def test_largest_uniform_picks_the_last_of_count(self, count):
        # the switch picks valid[int(u * count)] among at most C(11, 2) = 55
        # pairs; the largest uniform must not round up to count
        assert int(np.nextafter(1.0, 0.0) * count) == count - 1


class TestGeometricSampling:
    def test_certain_success(self):
        rng = shot_rng(0, 0, 1)
        assert sample_geometric(rng, 1.0, 100) == [1] * 100

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            sample_geometric(shot_rng(0, 0, 1), 0.0, 1)

    @pytest.mark.parametrize("q", [0.3, 1.0])
    def test_batch_equals_single_draws(self, q):
        # one rng.random(k) call must consume exactly the uniforms of k calls
        # with size 1, so batching leaves every fixed-seed stream unchanged
        batched, single = shot_rng(5, 3, 1), shot_rng(5, 3, 1)
        draws = sample_geometric(batched, q, 17)
        assert draws == [sample_geometric(single, q, 1)[0] for _ in range(17)]
        assert all(type(d) is int for d in draws)
        assert batched.random() == single.random()

    def test_mean_at_half(self):
        rng = shot_rng(11, 0, 1)
        draws = np.array(sample_geometric(rng, 0.5, 1_000_000))
        assert draws.min() >= 1
        assert abs(draws.mean() - 2.0) < 0.01

    def test_first_round_mass_small_q(self):
        rng = shot_rng(12, 0, 1)
        n = 1_000_000
        hits = sample_geometric(rng, 0.01, n).count(1)
        sigma = np.sqrt(n * 0.01 * 0.99)
        assert abs(hits - n * 0.01) < 3 * sigma

    def test_mean_at_tiny_q_is_uncapped(self):
        # the variance of a geometric law is (1 - q)/q^2, so sigma ~ 1/q
        q, n = 1e-9, 200_000
        draws = np.array(sample_geometric(shot_rng(13, 0, 1), q, n), dtype=float)
        assert abs(draws.mean() - 1 / q) < 5 / (q * np.sqrt(n))


def boundary_uniforms(q: float, steps: int) -> np.ndarray:
    """The uniforms where the inverse CDF steps from k to k + 1, u_k =
    -expm1(k log1p(-q)) for k = 1..steps, and one ulp either side, in [0, 1)."""
    u = -np.expm1(np.arange(1, steps + 1) * geometric_log_miss(q))
    near = np.concatenate([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])
    return near[near <= LARGEST_UNIFORM]


BOUNDARY_QS = (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999)


class TestGeometricRoundsArray:
    """The block engine's geometric map must give ``geometric_rounds``'
    integers, also where numpy's log1p rounds differently from math's."""

    @pytest.mark.parametrize("q", BOUNDARY_QS)
    def test_equals_scalar_map_at_the_steps(self, q):
        u = boundary_uniforms(q, 20_000)
        log_miss = geometric_log_miss(q)
        got = geometric_rounds_array(u.reshape(-1, 1), log_miss)
        assert got.shape == (len(u), 1) and got.dtype == np.int64
        assert got.ravel().tolist() == geometric_rounds(u.tolist(), log_miss)

    def test_plain_numpy_log1p_misses_a_step(self):
        # negative control: without the math.log1p redo, some boundary
        # uniform lands one round off
        off = 0
        for q in BOUNDARY_QS:
            u = boundary_uniforms(q, 20_000)
            log_miss = geometric_log_miss(q)
            plain = (np.log1p(-u) / log_miss).astype(np.int64) + 1
            off += int(np.sum(plain != geometric_rounds(u.tolist(), log_miss)))
        assert off > 0

    def test_guard_flags_what_the_spacing_rule_flags(self, monkeypatch):
        # every boundary uniform whose quotient lies within 4 spacing(q) of
        # an integer, the rule before the two-truncation guard, is redone
        redone = []

        def recording(us, log_miss):
            redone.extend(us)
            return geometric_rounds(us, log_miss)

        monkeypatch.setattr(params_module, "geometric_rounds", recording)
        flagged = 0
        for q in BOUNDARY_QS:
            u = boundary_uniforms(q, 20_000)
            redone.clear()
            geometric_rounds_array(u, geometric_log_miss(q))
            quotient = np.log1p(-u) / geometric_log_miss(q)
            spacing_rule = np.abs(quotient - np.rint(quotient)) <= 4 * np.spacing(quotient)
            assert set(u[spacing_rule].tolist()) <= set(redone), q
            flagged += int(spacing_rule.sum())
        assert flagged > 0

    def test_narrow_guard_misses_a_step(self, monkeypatch):
        # negative control: a 2^-60 bracket rounds back onto the quotient
        # itself, flags nothing, and some boundary uniform lands one round off
        monkeypatch.setattr(params_module, "NEAR_INTEGER", 2.0**-60)
        off = 0
        for q in BOUNDARY_QS:
            u = boundary_uniforms(q, 20_000)
            log_miss = geometric_log_miss(q)
            off += int(np.sum(geometric_rounds_array(u, log_miss) != geometric_rounds(u.tolist(), log_miss)))
        assert off > 0

    def test_certain_success_maps_every_uniform_to_one(self):
        u = np.array([[0.0, 0.5], [LARGEST_UNIFORM, 2.0**-53]])
        assert geometric_rounds_array(u, geometric_log_miss(1.0)).tolist() == [[1, 1], [1, 1]]

    @settings(deadline=None)
    @given(q=q_links, us=st.lists(uniforms, min_size=1, max_size=20))
    @example(q=1e-15, us=[0.0, LARGEST_UNIFORM])
    def test_equals_scalar_map(self, q, us):
        log_miss = geometric_log_miss(q)
        got = geometric_rounds_array(np.array(us), log_miss)
        assert got.tolist() == geometric_rounds(us, log_miss)


class TestLongestRound:
    """A failed teleportation attempt adds only the wait of its largest
    uniform, which must equal the largest of its N rounds: ``run_block``
    maps each failed row's largest uniform through
    ``geometric_rounds_array``."""

    @settings(deadline=None)
    @given(q=q_links, us=st.lists(uniforms, min_size=1, max_size=20))
    @example(q=1.0, us=[0.0, LARGEST_UNIFORM])
    @example(q=1e-15, us=[0.0, LARGEST_UNIFORM])
    def test_equals_max_of_rounds(self, q, us):
        log_miss = geometric_log_miss(q)
        longest = geometric_rounds_array(np.array([max(us)]), log_miss)[0]
        assert longest == max(geometric_rounds(us, log_miss))

    @settings(deadline=None)
    @given(q=q_links, frac=st.floats(0.0, 1.0))
    @example(q=0.5, frac=0.0)
    @example(q=1e-15, frac=1.0)
    def test_monotone_across_step(self, q, frac):
        # the inverse CDF steps from k to k + 1 at u_k = -expm1(k log1p(-q));
        # the rounds of the uniforms a few ulps either side must not decrease
        assume(q < 1.0)
        log_miss = geometric_log_miss(q)
        k = 1 + int(frac * (36.0 / -log_miss))
        u = -math.expm1(k * log_miss)
        assume(u < LARGEST_UNIFORM)
        near = [u]
        for _ in range(4):
            near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 1.0)]
        near = [v for v in near if 0.0 <= v <= LARGEST_UNIFORM]
        rounds = geometric_rounds(near, log_miss)
        assert rounds == sorted(rounds)
        assert geometric_rounds_array(np.array(near), log_miss).tolist() == rounds

    def test_certain_success_maps_every_uniform_to_one(self):
        assert geometric_rounds([0.0, 0.5, LARGEST_UNIFORM], geometric_log_miss(1.0)) == [1, 1, 1]

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="success probability"):
            geometric_log_miss(0.0)


class TestDerivePGhz:
    def test_endpoints(self):
        assert derive_p_ghz(1.0, 5) == pytest.approx(1.0, abs=1e-14)
        assert derive_p_ghz(2.0**-5, 5) == pytest.approx(0.0, abs=1e-14)

    def test_direct_inversion_value(self):
        assert derive_p_ghz(0.9, 5) == pytest.approx(0.8967741935483872, abs=1e-12)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            derive_p_ghz(0.01, 5)
