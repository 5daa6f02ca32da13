"""Factory-protocol engine: fast path and aggregation."""

import concurrent.futures
import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghzdist import factory as factory_module
from ghzdist.analytics import rate_exact
from ghzdist.factory import (
    _DRAW_CAP,
    _SPAN,
    ATTEMPT_DRAW_BUDGET,
    DepolarizingTable,
    _run_spans,
    check_attempt_budget,
    estimate,
    fidelity_from_deltas,
    run_block,
    run_shot_fast,
    summarize,
    worker_count,
)
from ghzdist.params import TAG_FACTORY, ConfigError, SimParams, shot_rng


def make_params(**kwargs):
    base = dict(n_end_nodes=5, q_link=0.01, q_bsm=0.95, seed=123, shots=100)
    base.update(kwargs)
    return SimParams(**base)


class TestRunShotFast:
    def test_instant_success(self):
        params = make_params(q_link=1.0, q_bsm=1.0)
        rec = run_shot_fast(params, shot_rng(0, 0, TAG_FACTORY))
        assert rec.duration_rounds == 1
        assert rec.teleport_attempts == 1
        assert rec.rounds == (1,) * 5

    def test_noiseless_fidelity_is_one(self):
        params = make_params(q_link=0.2, q_bsm=0.8)
        for s in range(50):
            rec = run_shot_fast(params, shot_rng(5, s, TAG_FACTORY))
            assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_no_waiting_means_memory_independent(self):
        for p_mem in (0.2, 0.7, 1.0):
            params = make_params(q_link=1.0, q_bsm=1.0, p_mem=p_mem, p_link=0.9)
            rec = run_shot_fast(params, shot_rng(9, 0, TAG_FACTORY))
            assert rec.rounds == (1,) * 5
            assert rec.fidelity == pytest.approx(
                fidelity_from_deltas(params, (0,) * 5), abs=1e-14
            )

    def test_record_consistency(self):
        params = make_params(q_link=0.05)
        for s in range(100):
            rec = run_shot_fast(params, shot_rng(7, s, TAG_FACTORY))
            n_all = max(rec.rounds)
            assert all(r >= 1 for r in rec.rounds)
            assert rec.duration_rounds >= n_all
            assert rec.fidelity == fidelity_from_deltas(
                params, [n_all - r for r in rec.rounds]
            )
            assert 2.0**-5 - 1e-12 <= rec.fidelity <= 1.0

    def test_deterministic_given_seed(self):
        params = make_params(p_mem=0.999, p_link=0.98)
        a = [run_shot_fast(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        b = [run_shot_fast(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        assert a == b

    def test_timing_invariant_under_noise_parameters(self):
        # noise parameters consume no randomness, so durations are identical
        base = make_params(p_link=1.0, p_mem=1.0, p_bsm=1.0, p_ghz=1.0)
        noisy = make_params(p_link=0.9, p_mem=0.95, p_bsm=0.9, p_ghz=0.8)
        for s in range(50):
            rec_a = run_shot_fast(base, shot_rng(21, s, TAG_FACTORY))
            rec_b = run_shot_fast(noisy, shot_rng(21, s, TAG_FACTORY))
            assert rec_a.duration_rounds == rec_b.duration_rounds
            assert rec_a.rounds == rec_b.rounds

    def test_fidelity_monotone_in_each_noise_parameter(self):
        for name in ("p_link", "p_mem", "p_bsm", "p_ghz"):
            last = None
            for value in (0.5, 0.8, 0.95, 1.0):
                params = replace(
                    make_params(q_link=0.1, p_link=0.9, p_mem=0.99, p_bsm=0.9, p_ghz=0.9),
                    **{name: value},
                )
                rec = run_shot_fast(params, shot_rng(31, 0, TAG_FACTORY))
                if last is not None:
                    assert rec.fidelity >= last - 1e-12
                last = rec.fidelity


class TestEstimate:
    def test_perfect_point(self):
        params = make_params(q_link=1.0, q_bsm=1.0, shots=200)
        est = estimate(params)
        assert est.rate_mean == pytest.approx(1.0, abs=1e-15)
        assert est.rate_stderr == 0.0
        assert est.fidelity_stderr == 0.0

    def test_rate_matches_exact_within_3_sigma(self):
        params = make_params(q_link=0.05, q_bsm=0.95, shots=4000, seed=77)
        est = estimate(params)
        exact = rate_exact(5, 0.05, 0.95)
        assert abs(est.rate_mean - exact) < 3 * est.rate_stderr

    def test_dt_scaling(self):
        slow = estimate(make_params(q_link=0.2, shots=500, dt=2.0))
        fast = estimate(make_params(q_link=0.2, shots=500, dt=1.0))
        assert slow.rate_mean == pytest.approx(fast.rate_mean / 2.0, rel=1e-12)
        assert slow.fidelity_mean == fast.fidelity_mean

    def test_worker_count_does_not_change_results(self):
        params = make_params(q_link=0.1, shots=600, seed=9)
        old = os.environ.get("GHZDIST_WORKERS")
        try:
            os.environ["GHZDIST_WORKERS"] = "1"
            one = estimate(params)
            os.environ["GHZDIST_WORKERS"] = "3"
            three = estimate(params)
        finally:
            if old is None:
                os.environ.pop("GHZDIST_WORKERS", None)
            else:
                os.environ["GHZDIST_WORKERS"] = old
        assert one == three

    def test_one_two_and_three_workers_give_equal_estimates(self, monkeypatch):
        # 2,500 shots are three spans: one worker runs all, two split them
        # 1 + 2, three take one each
        params = make_params(q_link=0.1, shots=2500, seed=9)
        estimates = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("GHZDIST_WORKERS", workers)
            estimates.append(estimate(params))
        assert estimates[0] == estimates[1] == estimates[2]

    def test_one_span_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("GHZDIST_WORKERS", "3")
        assert estimate(make_params(q_link=0.1, shots=_SPAN, seed=9)).shots == _SPAN

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("GHZDIST_WORKERS", value)
        with pytest.raises(ConfigError, match="GHZDIST_WORKERS"):
            estimate(make_params(q_link=0.5, shots=8))

    @pytest.mark.parametrize("value", [None, ""])
    def test_unset_or_empty_worker_count_is_one(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("GHZDIST_WORKERS", raising=False)
        else:
            monkeypatch.setenv("GHZDIST_WORKERS", value)
        assert worker_count() == 1
        assert estimate(make_params(q_link=0.5, shots=8)).shots == 8

    def test_summarize_rejects_single_shot(self):
        with pytest.raises(ValueError):
            summarize(np.array([3]), np.array([0.9]), 1.0)


def assert_block_matches_shots(params, span, shots):
    block = run_block(params, span, shots)
    rng = shot_rng(params.seed, span, TAG_FACTORY)
    for row in range(shots):
        rec = run_shot_fast(params, rng)
        assert rec.teleport_attempts == block.teleport_attempts[row], row
        assert rec.rounds == tuple(block.rounds[row].tolist()), row
        assert rec.duration_rounds == block.duration_rounds[row], row
        assert rec.fidelity == block.fidelity[row], row


BLOCK_SEEDS = (0, 7, 2**40 + 3, 2**64 - 1)
# (span, shots): a whole span, an odd count, a single shot, and the last
# span index
BLOCK_CASES = ((0, _SPAN), (1, 7), (2**40, 1), (2**64 - 1, 300))


# q_bsm^-40 H_40 / q_link ~ 1.1e19 rounds a shot, past 2^63: run_block
# would wrap durations negative
OVERFLOWING_POINT = dict(n_end_nodes=40, q_bsm=0.8, q_link=2.97e-15, shots=2326, seed=0)
# ~8 attempts of ~1.5e15 rounds a shot: a span's running total of rounds
# passes 2^63 while every shot stays far below it
WRAPPING_TOTAL_POINT = dict(n_end_nodes=2, q_bsm=2**-1.5, q_link=1e-15, shots=774, seed=0)
# the property guard runs as many shots of a point, up to a whole span, as
# the loop's expected q_bsm^-N (N + 1) uniforms a shot allow within this
GUARD_UNIFORMS = 20_000


@st.composite
def factory_points(draw):
    """The keys of a factory point: N up to 1,023, any q_link ``SimParams``
    accepts and q_bsm down to q_bsm^N = 2^-53 (below it the draw budget
    rejects every point), drawn as the point's q_bsm^-N attempts a shot on
    a log scale, so that cheap points and points too costly to accept both
    come up."""
    n = draw(st.integers(2, 1023))
    attempts_log2 = draw(st.floats(0.0, 53.0))
    return dict(
        n_end_nodes=n,
        q_link=draw(st.floats(1e-15, 1.0)),
        q_bsm=2.0 ** (-attempts_log2 / n),
        shots=draw(st.integers(2, 3000)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def block_matches_loop_unless_rejected(point, uniforms=GUARD_UNIFORMS):
    """Asserts that ``SimParams`` or ``check_attempt_budget`` rejects
    ``point`` with a ``ConfigError``, or that ``run_block(params, 0, rows)``
    equals ``rows`` sequential ``run_shot_fast`` calls, ``rows`` as many
    shots as ``uniforms`` allow.  False for a point too costly to compare."""
    try:
        params = SimParams(**point)
        factory_module.check_attempt_budget(params)
    except ConfigError:
        return True
    n = params.n_end_nodes
    rows = min(params.shots, _SPAN, int(uniforms / ((n + 1) * params.q_bsm**-n)))
    if rows >= 1:
        assert_block_matches_shots(params, 0, rows)
    return rows >= 1


class TestKernelAgainstReference:
    """``run_block``, the kernel every estimate runs, against the plain loop
    ``run_shot_fast`` (which turns every attempt's uniforms into rounds and
    draws the coin with a second call): at N = 64, which the block grid
    leaves out, at q_bsm = 0.5, and over the whole domain ``estimate``
    accepts."""

    @pytest.mark.parametrize(
        "n, q_link, q_bsm",
        [
            c
            for c in itertools.product((2, 5, 16, 64), (1e-6, 0.01, 0.5, 1.0), (1.0, 0.95, 0.5))
            # 0.5^64 is below a uniform's resolution, and 0.5^16 costs the
            # loop ~65k attempts per shot (one case below)
            if c[0] <= 5 or c[2] != 0.5
        ],
    )
    def test_records_equal(self, n, q_link, q_bsm):
        for seed, span in ((4, 0), (4, 1), (2**32 + 4, 0), (2**40 + 1, 2**33 + 5)):
            params = make_params(
                n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, p_link=0.98, p_mem=0.999, seed=seed
            )
            assert_block_matches_shots(params, span, 2)

    def test_records_equal_at_half_q_bsm_and_sixteen_nodes(self):
        params = make_params(n_end_nodes=16, q_link=0.5, q_bsm=0.5, seed=2**32 + 4)
        assert_block_matches_shots(params, 0, 1)

    @settings(deadline=None, max_examples=50)
    @given(point=factory_points())
    @example(point=OVERFLOWING_POINT)
    @example(point=WRAPPING_TOTAL_POINT)
    def test_records_equal_on_random_points(self, point):
        assume(block_matches_loop_unless_rejected(point))


def assert_job_matches_shots(params, first, last):
    """``_run_spans`` over spans [first, last), one job sharing one table,
    gives each shot the duration and fidelity of sequential
    ``run_shot_fast`` calls on its span's stream."""
    durations, fidelities = _run_spans((params, first, last))
    records = []
    for span in range(first, last):
        rng = shot_rng(params.seed, span, TAG_FACTORY)
        shots = min(_SPAN, params.shots - span * _SPAN)
        records += [run_shot_fast(params, rng) for _ in range(shots)]
    assert durations.tolist() == [r.duration_rounds for r in records]
    assert fidelities.tolist() == [r.fidelity for r in records]


def largest_wait(block):
    """The largest wait Δ of any shot of a ``ShotBlock``."""
    return int((block.rounds.max(axis=1) - block.rounds.min(axis=1)).max())


# N = 2, three whole spans: the job's table bound is N * shots / 2 = 3,072
# rounds, and at seed 1 span 0 waits at most 2,286 rounds (below it, the
# table) and spans 1 and 2 3,194 and 3,462 (at or above it, np.unique)
STRADDLING_JOB = dict(
    n_end_nodes=2, q_link=0.0025, q_bsm=0.95, seed=1, shots=3 * _SPAN,
    p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9,
)


class WaitsPastBound(Exception):
    """``qubit_depolarizing`` was asked for more waits than allowed."""


def depolarizing_waits(monkeypatch, params, bound):
    """The waits one single-worker ``estimate(params)`` passes to
    ``qubit_depolarizing``; raises ``WaitsPastBound`` as soon as they pass
    ``bound``, before the call that would pass it runs."""
    original = factory_module.qubit_depolarizing
    waits = 0

    def counting(params, deltas):
        nonlocal waits
        waits += len(deltas)
        if waits > bound:
            raise WaitsPastBound(waits)
        return original(params, deltas)

    monkeypatch.setenv("GHZDIST_WORKERS", "1")
    monkeypatch.setattr(factory_module, "qubit_depolarizing", counting)
    estimate(params)
    return waits


class CountingGenerator:
    """A generator that keeps every array its ``random`` draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, size=None, out=None):
        self.draws.append(self.rng.random(size, out=out))
        return self.draws[-1]


class TestBlockKernel:
    """``run_block(params, span, m)`` must reproduce m sequential
    ``run_shot_fast`` calls on the span's ``shot_rng`` stream, field by
    field."""

    @pytest.mark.parametrize(
        "n, q_link, q_bsm",
        list(itertools.product((2, 5, 16), (1.0, 0.2, 1e-3), (1.0, 0.6, 0.95))),
    )
    def test_equals_per_shot_kernel(self, n, q_link, q_bsm):
        # each seed takes one case, every case is taken; at N = 16,
        # q_bsm = 0.6 a shot needs ~3,500 attempts, so only the short ones
        cases = BLOCK_CASES[1:3] if n == 16 and q_bsm == 0.6 else BLOCK_CASES
        for i, seed in enumerate(BLOCK_SEEDS):
            params = make_params(
                n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, seed=seed,
                p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9,
            )
            assert_block_matches_shots(params, *cases[(i + n) % len(cases)])

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(2, 12),
        q_link=st.floats(1e-15, 1.0),
        q_bsm=st.sampled_from([1.0, 0.99, 0.9, 0.75]),
        seed=st.integers(0, 2**64 - 1),
        span=st.integers(0, 2**64 - 1),
        shots=st.integers(1, 40),
    )
    def test_equals_per_shot_kernel_on_random_points(self, n, q_link, q_bsm, seed, span, shots):
        params = make_params(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, seed=seed, p_mem=0.999)
        assert_block_matches_shots(params, span, shots)

    @pytest.mark.parametrize(
        "n, q_bsm, shots, seed",
        # several chunks of a whole span; shots of ~3,500 attempts, where
        # seed 13 draws a chunk that holds no success; 200 waits a row at
        # q_bsm = 1
        [(16, 0.8, _SPAN, 4), (16, 0.6, 3, 13), (200, 1.0, _SPAN, 4)],
    )
    def test_no_draw_exceeds_the_cap(self, monkeypatch, n, q_bsm, shots, seed):
        params = make_params(n_end_nodes=n, q_link=0.01, q_bsm=q_bsm, seed=seed)
        streams = []

        def counting_shot_rng(*args):
            streams.append(CountingGenerator(shot_rng(*args)))
            return streams[-1]

        monkeypatch.setattr(factory_module, "shot_rng", counting_shot_rng)
        assert_block_matches_shots(params, 1, shots)
        (stream,) = streams
        assert len(stream.draws) > 1
        assert all(u.size <= _DRAW_CAP for u in stream.draws)
        if q_bsm == 0.6:
            assert any((u[:, n] >= q_bsm**n).all() for u in stream.draws)

    def test_job_straddling_the_table_bound_equals_per_shot_kernel(self):
        params = make_params(**STRADDLING_JOB)
        bound = params.n_end_nodes * params.shots / 2
        tops = [largest_wait(run_block(params, k, _SPAN)) for k in range(3)]
        assert tops[0] < bound <= min(tops[1:])
        assert_job_matches_shots(params, 0, 3)

    def test_only_spans_at_or_above_the_bound_take_distinct_deltas(self, monkeypatch):
        # the straddling job asks qubit_depolarizing for span 0's table,
        # every Δ through its largest, then for each later span's distinct Δ
        params = make_params(**STRADDLING_JOB)
        blocks = [run_block(params, k, _SPAN) for k in range(3)]
        waits = [b.rounds.max(axis=1)[:, None] - b.rounds for b in blocks]
        original = factory_module.qubit_depolarizing
        calls = []

        def recording(params, deltas):
            calls.append(deltas.tolist())
            return original(params, deltas)

        monkeypatch.setattr(factory_module, "qubit_depolarizing", recording)
        _run_spans((params, 0, 3))
        assert calls == [
            list(range(largest_wait(blocks[0]) + 1)),
            np.unique(waits[1]).tolist(),
            np.unique(waits[2]).tolist(),
        ]

    def test_table_one_entry_off_fails_the_job_check(self, monkeypatch):
        # negative control: the table's entry for Δ holds Δ + 1's parameter
        def grow_one_off(table, top):
            more = factory_module.qubit_depolarizing(
                table.params, np.arange(len(table.p) + 1, top + 2)
            )
            table.p = np.concatenate((table.p, more))

        monkeypatch.setattr(DepolarizingTable, "_grow", grow_one_off)
        with pytest.raises(AssertionError):
            assert_job_matches_shots(make_params(**STRADDLING_JOB), 0, 3)

    def test_grown_table_gives_what_a_fresh_table_gives(self):
        params = make_params(q_link=0.05, p_mem=0.999, p_link=0.98, seed=21)
        table = DepolarizingTable(params, params.n_end_nodes * 4 * _SPAN)
        sizes = []
        for k, shots in ((1, 10), (2, 100), (3, _SPAN)):
            run_block(params, k, shots, table)
            sizes.append(len(table.p))
        assert sizes[0] < sizes[1] < sizes[2]  # grown by each span
        shared = run_block(params, 0, 300, table)
        # span 0 took every parameter from entries the other spans made
        assert len(table.p) == sizes[2]
        fresh = run_block(params, 0, 300)
        assert largest_wait(fresh) < params.n_end_nodes * 300 / 2  # its own table's side
        for field, value in shared._asdict().items():
            assert np.array_equal(value, getattr(fresh, field)), field

    def test_depolarizing_waits_stay_within_twice_the_job_waits(self, monkeypatch):
        # at q_link = 1e-6 a span's waits reach millions of rounds: every
        # span takes np.unique, and no table grows to its largest wait
        params = make_params(q_link=1e-6, shots=10_000)
        bound = 2 * params.n_end_nodes * params.shots
        assert 0 < depolarizing_waits(monkeypatch, params, bound) <= bound

    def test_unbounded_table_passes_more_waits(self, monkeypatch):
        # negative control: a table that grows to any span's largest wait
        bounded_init = DepolarizingTable.__init__

        def unbounded_init(table, params, waits):
            bounded_init(table, params, waits)
            table.limit = math.inf

        monkeypatch.setattr(DepolarizingTable, "__init__", unbounded_init)
        params = make_params(q_link=1e-6, shots=10_000)
        with pytest.raises(WaitsPastBound):
            depolarizing_waits(monkeypatch, params, 2 * params.n_end_nodes * params.shots)


class TestAttemptBudget:
    @pytest.mark.parametrize(
        "point",
        [dict(q_link=q, shots=10_000) for q in (0.001, 0.005, 0.01, 0.05)]
        + [dict(n_end_nodes=16, shots=10_000), dict(q_bsm=0.5, shots=100_000)],
    )
    def test_accepts_feasible_points(self, point):
        check_attempt_budget(make_params(**point))

    def test_rejects_expected_draws_over_budget(self):
        # q_bsm^-5 = 1e15 attempts of 6 uniforms per shot
        params = make_params(q_link=0.5, q_bsm=1e-3, shots=2)
        with pytest.raises(ConfigError, match="q_bsm"):
            check_attempt_budget(params)
        with pytest.raises(ConfigError, match="q_bsm"):
            estimate(params)

    def test_rejects_durations_near_int64(self, monkeypatch):
        params = SimParams(**OVERFLOWING_POINT)
        with pytest.raises(ConfigError, match="q_link"):
            check_attempt_budget(params)
        with pytest.raises(ConfigError, match="q_link"):
            estimate(params)
        # negative control: let through, run_block's int64 durations wrap
        # (an overflow warning, an error in this suite, or a mismatch with
        # the loop); two shots of its ~3 * 10^5 uniforms each
        monkeypatch.setattr(factory_module, "check_attempt_budget", lambda params: None)
        with pytest.raises((AssertionError, RuntimeWarning)):
            block_matches_loop_unless_rejected(OVERFLOWING_POINT, uniforms=7e5)

    def test_durations_within_headroom_run_exactly(self):
        # q_bsm^-2 H_2 / q_link ~ 1.7e16 rounds a shot, a factor ~550 below
        # 2^63: accepted, and a whole span matches the plain loop with no
        # overflow warning (warnings are errors in this suite)
        params = make_params(n_end_nodes=2, q_bsm=0.3, q_link=1e-15, shots=_SPAN, seed=0)
        check_attempt_budget(params)
        block = run_block(params, 0, _SPAN)
        rng = shot_rng(params.seed, 0, TAG_FACTORY)
        for row in range(_SPAN):
            rec = run_shot_fast(params, rng)
            assert rec.duration_rounds == block.duration_rounds[row] > 0, row
            assert rec.fidelity == block.fidelity[row], row

    def test_budget_scales_with_shots(self):
        shots = int(ATTEMPT_DRAW_BUDGET / 6)
        check_attempt_budget(make_params(q_bsm=1.0, shots=shots))
        with pytest.raises(ConfigError, match="shots"):
            check_attempt_budget(make_params(q_bsm=1.0, shots=shots + 1))
