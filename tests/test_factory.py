"""Factory-protocol engine: fast path and aggregation."""

import concurrent.futures
import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ghzdist import factory as factory_module
from ghzdist.analytics import expected_n_all_exact, rate_exact
from ghzdist.factory import (
    _DRAW_CAP,
    _SPAN,
    ATTEMPT_DRAW_BUDGET,
    _run_spans,
    check_attempt_budget,
    estimate,
    fidelity_from_deltas,
    run_block,
    run_shots_fast,
    summarize,
    worker_count,
)
from ghzdist.params import TAG_FACTORY, ConfigError, SimParams, derive_p_ghz, shot_rng


def make_params(**kwargs):
    base = dict(n_end_nodes=5, q_link=0.01, q_bsm=0.95, seed=123, shots=100)
    base.update(kwargs)
    return SimParams(**base)


def clear_table():
    """Drop the process's depolarizing table, as the autouse fixture does."""
    factory_module._key, factory_module._table = None, np.empty(0)


# N = 2, three whole spans: the estimate's table bound is N * shots / 2 =
# 3,072 rounds, and at seed 40 span 0 waits at most 2,892 rounds (below it,
# the table) and spans 1 and 2 4,088 and 3,113 (at or above it, np.unique)
STRADDLING_JOB = dict(
    n_end_nodes=2, q_link=0.0025, q_bsm=0.95, seed=40, shots=3 * _SPAN,
    p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9,
)


def first_shot(params, rng):
    """The record of a span's shot 0 when the span holds one shot."""
    (record,) = run_shots_fast(params, rng, 1)
    return record


class TestRunShotFast:
    def test_instant_success(self):
        params = make_params(q_link=1.0, q_bsm=1.0)
        rec = first_shot(params, shot_rng(0, 0, TAG_FACTORY))
        assert rec.duration_rounds == 1
        assert rec.teleport_attempts == 1
        assert rec.rounds == (1,) * 5

    def test_noiseless_fidelity_is_one(self):
        params = make_params(q_link=0.2, q_bsm=0.8)
        for s in range(50):
            rec = first_shot(params, shot_rng(5, s, TAG_FACTORY))
            assert rec.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_no_waiting_means_memory_independent(self):
        for p_mem in (0.2, 0.7, 1.0):
            params = make_params(q_link=1.0, q_bsm=1.0, p_mem=p_mem, p_link=0.9)
            rec = first_shot(params, shot_rng(9, 0, TAG_FACTORY))
            assert rec.rounds == (1,) * 5
            assert rec.fidelity == pytest.approx(
                fidelity_from_deltas(params, (0,) * 5), abs=1e-14
            )

    def test_record_consistency(self):
        params = make_params(q_link=0.05)
        for s in range(100):
            rec = first_shot(params, shot_rng(7, s, TAG_FACTORY))
            n_all = max(rec.rounds)
            assert all(r >= 1 for r in rec.rounds)
            assert rec.duration_rounds >= n_all
            assert rec.fidelity == fidelity_from_deltas(
                params, [n_all - r for r in rec.rounds]
            )
            assert 2.0**-5 - 1e-12 <= rec.fidelity <= 1.0

    def test_deterministic_given_seed(self):
        params = make_params(p_mem=0.999, p_link=0.98)
        a = [first_shot(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        b = [first_shot(params, shot_rng(3, s, TAG_FACTORY)) for s in range(20)]
        assert a == b

    def test_timing_invariant_under_noise_parameters(self):
        # noise parameters consume no randomness, so durations are identical
        base = make_params(p_link=1.0, p_mem=1.0, p_bsm=1.0, p_ghz=1.0)
        noisy = make_params(p_link=0.9, p_mem=0.95, p_bsm=0.9, p_ghz=0.8)
        for s in range(50):
            rec_a = first_shot(base, shot_rng(21, s, TAG_FACTORY))
            rec_b = first_shot(noisy, shot_rng(21, s, TAG_FACTORY))
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
                rec = first_shot(params, shot_rng(31, 0, TAG_FACTORY))
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

    def test_one_two_and_three_workers_give_equal_estimates(self, monkeypatch):
        # 2,500 shots are three spans: one worker runs all, two split them
        # 1 + 2, three take one each; the straddling job's last two spans
        # reach the estimate's table bound in whichever worker runs them
        for params in (make_params(q_link=0.1, shots=2500, seed=9), make_params(**STRADDLING_JOB)):
            estimates = []
            for workers in ("1", "2", "3"):
                monkeypatch.setenv("GHZDIST_WORKERS", workers)
                clear_table()
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

    def test_integer_dt_gives_the_float_dt_estimate(self):
        # summarize works on the durations times dt in place, which an
        # integer product could not hold
        params = make_params(q_link=0.3, shots=500, seed=4)
        assert estimate(replace(params, dt=2)) == estimate(replace(params, dt=2.0))


def attempts_cdf_gap(p_teleport):
    """The largest gap between the empirical CDF of ``run_block``'s attempt
    counts over 20 spans at N = 5, q_bsm = 0.8 and that of geometric
    attempts at success probability ``p_teleport``, 1 - (1 - p)^a."""
    params = make_params(q_bsm=0.8, q_link=0.5, seed=8)
    attempts = np.sort(np.concatenate([run_block(params, k, _SPAN).teleport_attempts for k in range(20)]))
    a = np.arange(1, attempts[-1] + 1)
    empirical = np.searchsorted(attempts, a, side="right") / len(attempts)
    return float(np.abs(empirical + np.expm1(a * np.log1p(-p_teleport))).max())


class TestDrawDistribution:
    """A shot's attempts are geometric in q_bsm^N, and by Wald's identity its
    mean duration is E[attempts] E[n_all], the reciprocal of the exact rate."""

    def test_attempts_are_geometric_in_the_teleportation_probability(self):
        # 20,480 counts put the largest CDF gap below 1.95 / sqrt(20,480) =
        # 0.0136 but at a chance of about 10^-3
        assert attempts_cdf_gap(0.8**5) < 0.0136

    def test_attempts_fail_a_geometric_of_another_probability(self):
        # negative control: q_bsm^(N - 1), one node's measurement too few
        assert attempts_cdf_gap(0.8**4) > 0.0136

    @pytest.mark.parametrize(
        "n, q_link, q_bsm", list(itertools.product((2, 5, 16), (0.01, 0.5, 1.0), (0.8, 0.95, 1.0)))
    )
    def test_mean_duration_matches_the_exact_rate(self, n, q_link, q_bsm):
        est = estimate(make_params(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, shots=4000, seed=n))
        assert abs(est.rate_mean - rate_exact(n, q_link, q_bsm)) <= 5 * est.rate_stderr


# the paper's Fig-5 noise at N = 5, local GHZ fidelity 0.9
FIG5 = dict(n_end_nodes=5, q_bsm=0.95, p_link=0.99, p_bsm=0.99, p_mem=1 - 1e-4,
            p_ghz=derive_p_ghz(0.9, 5))


def mean_summed_wait(params):
    """E[S] = N (E[n_all] - 1 / q_link): the successful attempt's rounds
    are plain geometric draws."""
    n, q = params.n_end_nodes, params.q_link
    return n * (expected_n_all_exact(n, q) - 1.0 / q)


def plain_and_control(params, mean_wait=None):
    """``summarize`` of one run of ``params``' spans without controls (the
    plain mean) and with the summed waits of known mean ``mean_wait``
    (default E[S])."""
    durations, fidelities, summed_waits = _run_spans((params, 0, -(-params.shots // _SPAN)))
    if mean_wait is None:
        mean_wait = mean_summed_wait(params)
    return (summarize(durations, fidelities, params.dt),
            summarize(durations, fidelities, params.dt, summed_waits, mean_wait))


class TestControlVariate:
    """The factory's fidelity is the plain mean corrected by the summed-wait
    control, mean(F) - beta (mean(S) - E[S]); its stderr comes from the
    regression residuals."""

    def test_estimate_is_summarize_with_the_exact_mean_wait(self):
        params = make_params(shots=3000, seed=5, p_mem=0.999, p_link=0.98)
        _, control = plain_and_control(params)
        assert estimate(params) == control

    @pytest.mark.parametrize("q_link", [0.001, 0.01])
    def test_reported_stderr_covers_the_spread_over_seeds(self, q_link):
        # the spread of 40 estimates over their mean reported stderr; 40
        # seeds resolve the ratio to about +-0.11
        ests = [estimate(SimParams(q_link=q_link, shots=10_000, seed=seed, **FIG5))
                for seed in range(40)]
        spread = np.std([e.fidelity_mean for e in ests], ddof=1)
        ratio = spread / np.mean([e.fidelity_stderr for e in ests])
        assert 0.8 <= ratio <= 1.25, ratio

    @pytest.mark.parametrize(
        "n, q_link, q_bsm, p_mem",
        list(itertools.product((2, 5, 16), (0.001, 0.05, 0.5), (0.8, 1.0), (0.999, 1 - 1e-5))),
    )
    def test_control_and_plain_means_agree(self, n, q_link, q_bsm, p_mem):
        params = make_params(n_end_nodes=n, q_link=q_link, q_bsm=q_bsm, p_mem=p_mem,
                             p_link=0.98, p_bsm=0.99, p_ghz=0.9, shots=3000, seed=n)
        plain, control = plain_and_control(params)
        assert abs(control.fidelity_mean - plain.fidelity_mean) <= 5 * plain.fidelity_stderr
        # the residuals never spread wider than F; n - 2 degrees of freedom
        # and the (mean(S) - E[S])^2 / S_xx term widen by O(1 / shots)
        assert control.fidelity_stderr <= 1.01 * plain.fidelity_stderr
        assert (control.rate_mean, control.rate_stderr) == (plain.rate_mean, plain.rate_stderr)

    def test_shifted_mean_wait_fails_agreement(self):
        # negative control: E[S] off by 1 / q_link moves the estimate by
        # beta / q_link, far beyond 5 plain stderrs
        params = SimParams(q_link=0.01, shots=10_000, seed=1, **FIG5)
        plain, control = plain_and_control(params, mean_summed_wait(params) + 1 / params.q_link)
        assert abs(control.fidelity_mean - plain.fidelity_mean) > 5 * plain.fidelity_stderr

    @pytest.mark.parametrize(
        "point",
        # S has no spread: every link arrives in round 1
        [dict(q_link=1.0, shots=3000),
         # no residual degree of freedom is left after the slope
         dict(q_link=0.01, shots=2)],
    )
    def test_plain_mean_where_no_slope_is_fit(self, point):
        params = SimParams(seed=7, **point, **FIG5)
        plain, control = plain_and_control(params)
        assert estimate(params) == control == plain

    def test_plain_summary_is_numpy_mean_and_std(self):
        # the switch's case: no controls, n - 1 degrees of freedom
        rng = np.random.default_rng(3)
        fidelities = rng.random(500)
        est = summarize(rng.integers(1, 100, 500), fidelities, 1.0)
        assert est.fidelity_mean == fidelities.mean()
        assert est.fidelity_stderr == fidelities.std(ddof=1) / np.sqrt(500)


def assert_block_matches_shots(params, span, shots):
    block = run_block(params, span, shots)
    records = run_shots_fast(params, shot_rng(params.seed, span, TAG_FACTORY), shots)
    for row, rec in enumerate(records):
        assert rec.teleport_attempts == block.teleport_attempts[row], row
        assert rec.rounds == tuple(block.rounds[row].tolist()), row
        assert rec.duration_rounds == block.duration_rounds[row], row
        assert rec.fidelity == block.fidelity[row], row
        assert_summed_wait(rec, block.summed_wait[row])


def summed_wait(record):
    """A shot record's summed wait S, the sum of n_all - r_i."""
    return sum(max(record.rounds) - r for r in record.rounds)


def assert_summed_wait(record, got):
    """``got``, a double, is the record's summed wait: exactly below 2^53,
    and past it (N of about 10^3 at a q_link near 1e-15) within the N
    roundings of its sum."""
    want = summed_wait(record)
    if want < 2**53:
        assert got == want, record
    else:
        assert got == pytest.approx(want, rel=len(record.rounds) * 2.0**-53), record


BLOCK_SEEDS = (0, 7, 2**40 + 3, 2**64 - 1)
# (span, shots): a whole span, an odd count, a single shot, and the last
# span index
BLOCK_CASES = ((0, _SPAN), (1, 7), (2**40, 1), (2**64 - 1, 300))


# q_bsm^-40 H_40 / q_link ~ 1.1e19 rounds a shot, past 2^63: run_block
# would wrap durations negative
OVERFLOWING_POINT = dict(n_end_nodes=40, q_bsm=0.8, q_link=2.97e-15, shots=2326, seed=0)
# ~8 attempts of ~1.5e15 rounds a shot: a span's total of rounds passes
# 2^63 while every shot stays far below it, so no sum may run across shots
WRAPPING_TOTAL_POINT = dict(n_end_nodes=2, q_bsm=2**-1.5, q_link=1e-15, shots=774, seed=0)
# the property guard runs as many shots of a point, up to a whole span, as
# the loop's expected N + q_bsm^-N uniforms a shot allow within this
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
    equals ``run_shots_fast`` for ``rows`` shots, ``rows`` as many shots as
    ``uniforms`` allow.  False for a point too costly to compare."""
    try:
        params = SimParams(**point)
        factory_module.check_attempt_budget(params)
    except ConfigError:
        return True
    n = params.n_end_nodes
    rows = min(params.shots, _SPAN, int(uniforms / (n + params.q_bsm**-n)))
    if rows >= 1:
        assert_block_matches_shots(params, 0, rows)
    return rows >= 1


class TestKernelAgainstReference:
    """``run_block``, the kernel every estimate runs, against the plain loops
    of ``run_shots_fast`` (a scalar map per attempt count, per wait and per
    failed attempt): at N = 64, which the block grid leaves out, at
    q_bsm = 0.5, and over the whole domain ``estimate`` accepts."""

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
    gives each shot the duration, fidelity and summed wait of sequential
    ``run_shots_fast`` on its span's stream."""
    durations, fidelities, summed_waits = _run_spans((params, first, last))
    records = []
    for span in range(first, last):
        rng = shot_rng(params.seed, span, TAG_FACTORY)
        records += run_shots_fast(params, rng, min(_SPAN, params.shots - span * _SPAN))
    assert durations.tolist() == [r.duration_rounds for r in records]
    assert fidelities.tolist() == [r.fidelity for r in records]
    for record, got in zip(records, summed_waits.tolist(), strict=True):
        assert_summed_wait(record, got)


def largest_wait(block):
    """The largest wait Δ of any shot of a ``ShotBlock``."""
    return int((block.rounds.max(axis=1) - block.rounds.min(axis=1)).max())


def job_waits(params):
    """Each span's waits Δ, one array per span of ``params.shots``."""
    spans = range(-(-params.shots // _SPAN))
    blocks = [run_block(params, k, min(_SPAN, params.shots - k * _SPAN)) for k in spans]
    clear_table()
    return [b.rounds.max(axis=1)[:, None] - b.rounds for b in blocks]


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

    with monkeypatch.context() as patch:
        patch.setenv("GHZDIST_WORKERS", "1")
        patch.setattr(factory_module, "qubit_depolarizing", counting)
        estimate(params)
    return waits


class CountingGenerator:
    """A generator that keeps every array its ``random`` draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self, size=None, out=None):
        self.draws.append(self.rng.random(size, out=out))
        return self.draws[-1]


def span_draws(monkeypatch, params, shots):
    """Asserts that ``run_block(params, 1, shots)`` equals the plain loop,
    and returns the arrays that its stream drew, in order."""
    streams = []

    def counting_shot_rng(*args):
        streams.append(CountingGenerator(shot_rng(*args)))
        return streams[-1]

    with monkeypatch.context() as patch:
        patch.setattr(factory_module, "shot_rng", counting_shot_rng)
        assert_block_matches_shots(params, 1, shots)
    (stream,) = streams
    return stream.draws


class TestBlockKernel:
    """``run_block(params, span, m)`` must reproduce ``run_shots_fast`` for m
    shots on the span's ``shot_rng`` stream, field by field."""

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
        # ~35,000 failed attempts of a whole span; shots of ~3,500 attempts
        # each; 200 waits a shot at q_bsm = 1, with no count draw
        [(16, 0.8, _SPAN, 4), (16, 0.6, 3, 13), (200, 1.0, _SPAN, 4)],
    )
    def test_no_draw_exceeds_the_cap(self, monkeypatch, n, q_bsm, shots, seed):
        draws = span_draws(monkeypatch, make_params(n_end_nodes=n, q_link=0.01, q_bsm=q_bsm, seed=seed), shots)
        assert len(draws) > 1
        assert all(u.size <= _DRAW_CAP for u in draws)

    def test_failed_attempts_over_several_blocks_equal_the_loop(self, monkeypatch):
        # 8 shots of ~3,550 attempts: their failed attempts fill two blocks
        # after the count draw and the one block of waits
        params = make_params(n_end_nodes=16, q_link=0.01, q_bsm=0.6, seed=13)
        draws = span_draws(monkeypatch, params, 8)
        assert len(draws) - 2 >= 2

    def test_job_straddling_the_table_bound_equals_per_shot_kernel(self):
        params = make_params(**STRADDLING_JOB)
        bound = params.n_end_nodes * params.shots / 2
        tops = [largest_wait(run_block(params, k, _SPAN)) for k in range(3)]
        assert tops[0] < bound <= min(tops[1:])
        assert_job_matches_shots(params, 0, 3)

    def test_only_spans_at_or_above_the_bound_take_distinct_deltas(self, monkeypatch):
        # on a cleared table the straddling job asks qubit_depolarizing for
        # each Δ below the bound once, the first time a span uses it, and
        # for the distinct Δ at or above it of each span that reaches it
        params = make_params(**STRADDLING_JOB)
        bound = params.n_end_nodes * params.shots / 2
        waits = job_waits(params)
        original = factory_module.qubit_depolarizing
        calls = []

        def recording(params, deltas):
            calls.append(deltas.tolist())
            return original(params, deltas)

        monkeypatch.setattr(factory_module, "qubit_depolarizing", recording)
        _run_spans((params, 0, 3))
        assert all(min(c) >= bound or max(c) < bound for c in calls)
        far = [c for c in calls if min(c) >= bound]
        near = [d for c in calls if max(c) < bound for d in c]
        assert far == [np.unique(w[w >= bound]).tolist() for w in waits[1:]]
        below = np.unique(np.concatenate([w[w < bound] for w in waits]))
        assert sorted(near) == below.tolist()  # each Δ below the bound once

    def test_table_one_entry_off_fails_the_job_check(self):
        # negative control: the table at the job's noise holds, for each Δ
        # below the bound, Δ + 1's parameter
        params = make_params(**STRADDLING_JOB)
        bound = params.n_end_nodes * params.shots // 2
        factory_module._key = factory_module.depolarizing_key(params)
        factory_module._table = factory_module.qubit_depolarizing(params, np.arange(bound) + 1)
        with pytest.raises(AssertionError):
            assert_job_matches_shots(params, 0, 3)

    def test_grown_table_gives_what_a_fresh_table_gives(self):
        params = make_params(q_link=0.05, p_mem=0.999, p_link=0.98, seed=21, shots=4 * _SPAN)
        filled = []
        for k, shots in ((1, 10), (2, 100), (3, _SPAN)):
            run_block(params, k, shots)
            filled.append(int(np.count_nonzero(~np.isnan(factory_module._table))))
        assert filled[0] < filled[1] < filled[2]  # filled by each span
        shared = run_block(params, 0, 300)
        clear_table()
        fresh = run_block(params, 0, 300)
        assert largest_wait(fresh) < params.n_end_nodes * params.shots / 2  # the table's side
        for field, value in shared._asdict().items():
            assert np.array_equal(value, getattr(fresh, field)), field

    def test_depolarizing_waits_stay_within_twice_the_job_waits(self, monkeypatch):
        # at q_link = 1e-6 (1e-5) a span's waits reach millions (about a
        # million) of rounds: waits at or above the bound take np.unique,
        # and the table holds no entry past the bound
        for q_link in (1e-6, 1e-5):
            clear_table()
            params = make_params(q_link=q_link, shots=10_000)
            bound = 2 * params.n_end_nodes * params.shots
            assert 0 < depolarizing_waits(monkeypatch, params, bound) <= bound
            assert len(factory_module._table) <= params.n_end_nodes * params.shots / 2

    def test_unbounded_table_holds_more_entries(self, monkeypatch):
        # negative control: a table that grows to any span's largest wait,
        # its bound that of an estimate of 2^50 shots
        bounded = factory_module.depolarizing

        def unbounded(params, deltas):
            return bounded(replace(params, shots=2**50), deltas)

        monkeypatch.setattr(factory_module, "depolarizing", unbounded)
        params = make_params(q_link=1e-5, shots=10_000)
        depolarizing_waits(monkeypatch, params, 2 * params.n_end_nodes * params.shots)
        assert len(factory_module._table) > params.n_end_nodes * params.shots / 2

    @pytest.mark.parametrize("seed", [11, 15])
    def test_cliff_job_fills_only_the_deltas_it_uses(self, monkeypatch, seed):
        # at N = 5, q_link = 3e-4 and 10^4 shots the largest waits of the
        # spans sit about the bound, 25,000 rounds: each Δ below it is
        # computed once for the job, each Δ above it once for its span
        params = make_params(q_link=3e-4, shots=10_000, seed=seed, p_mem=0.9999)
        bound = params.n_end_nodes * params.shots / 2
        waits = job_waits(params)
        assert any(w.max() >= bound for w in waits) and any(w.max() < bound for w in waits)
        below = len(np.unique(np.concatenate([w[w < bound] for w in waits])))
        above = sum(len(np.unique(w[w >= bound])) for w in waits)
        assert depolarizing_waits(monkeypatch, params, below + above) <= below + above


NOISE = dict(p_link=0.98, p_mem=0.999, p_bsm=0.99, p_ghz=0.9)
# two noise settings, q_link on both sides of the table bound (N = 2 at
# 0.0025 straddles it), a few shots each
SHARED_GRID = [
    make_params(n_end_nodes=n, q_link=q_link, shots=shots, seed=seed, **noise)
    for noise in (NOISE, dict(NOISE, p_mem=0.9999))
    for n, q_link, shots, seed in ((5, 0.01, 2000, 3), (2, 0.0025, 3 * _SPAN, 40), (5, 0.5, 2, 9), (8, 1e-3, 1500, 4))
]


def changed_noise_estimates(field):
    """``estimate`` with ``field`` lowered by 0.01, after an estimate at the
    unchanged noise, and again from a cleared table."""
    params = make_params(**NOISE)
    changed = replace(params, **{field: getattr(params, field) - 0.01})
    estimate(params)
    shared = estimate(changed)
    clear_table()
    return shared, estimate(changed)


class TestSharedTable:
    """One depolarizing table per noise setting serves every estimate in a
    process; what an estimate returns does not depend on what ran before."""

    def test_second_estimate_at_the_same_noise_asks_for_no_entry(self, monkeypatch):
        params = make_params(q_link=0.01, shots=3000, **NOISE)
        estimate(params)
        assert depolarizing_waits(monkeypatch, params, 0) == 0

    def test_grid_is_equal_forward_reversed_or_cleared(self, monkeypatch):
        monkeypatch.setenv("GHZDIST_WORKERS", "1")
        forward = [estimate(p) for p in SHARED_GRID]
        clear_table()
        backward = [estimate(p) for p in SHARED_GRID[::-1]][::-1]
        cleared = []
        for p in SHARED_GRID:
            clear_table()
            cleared.append(estimate(p))
        assert forward == backward == cleared

    @pytest.mark.parametrize("field", ["p_link", "p_bsm", "p_mem"])
    def test_changed_noise_gives_what_a_cleared_table_gives(self, field):
        shared, cleared = changed_noise_estimates(field)
        assert shared == cleared

    def test_key_without_p_bsm_fails(self, monkeypatch):
        # negative control: p_bsm alone changed keeps the stale table
        monkeypatch.setattr(
            factory_module, "depolarizing_key", lambda params: (params.p_link, params.p_mem)
        )
        shared, cleared = changed_noise_estimates("p_bsm")
        assert shared != cleared


class TestAttemptBudget:
    @pytest.mark.parametrize(
        "point",
        [dict(q_link=q, shots=10_000) for q in (0.001, 0.005, 0.01, 0.05)]
        + [dict(n_end_nodes=16, shots=10_000), dict(q_bsm=0.5, shots=100_000)],
    )
    def test_accepts_feasible_points(self, point):
        check_attempt_budget(make_params(**point))

    def test_rejects_expected_draws_over_budget(self):
        # q_bsm^-5 = 1e15 attempts a shot, a uniform for each that fails
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
        # the loop); three shots of its ~7,600 uniforms each, the third of
        # which, at 6,472 attempts, runs past 2^63
        monkeypatch.setattr(factory_module, "check_attempt_budget", lambda params: None)
        with pytest.raises((AssertionError, RuntimeWarning)):
            block_matches_loop_unless_rejected(OVERFLOWING_POINT, uniforms=3e4)

    def test_durations_within_headroom_run_exactly(self):
        # q_bsm^-2 H_2 / q_link ~ 1.7e16 rounds a shot, a factor ~550 below
        # 2^63: accepted, and a whole span matches the plain loop with no
        # overflow warning (warnings are errors in this suite)
        params = make_params(n_end_nodes=2, q_bsm=0.3, q_link=1e-15, shots=_SPAN, seed=0)
        check_attempt_budget(params)
        block = run_block(params, 0, _SPAN)
        records = run_shots_fast(params, shot_rng(params.seed, 0, TAG_FACTORY), _SPAN)
        for row, rec in enumerate(records):
            assert rec.duration_rounds == block.duration_rounds[row] > 0, row
            assert rec.fidelity == block.fidelity[row], row

    def test_budget_scales_with_shots(self):
        # at q_bsm = 1 a shot draws its N = 5 waits and nothing else
        shots = int(ATTEMPT_DRAW_BUDGET / 5)
        check_attempt_budget(make_params(q_bsm=1.0, shots=shots))
        with pytest.raises(ConfigError, match="shots"):
            check_attempt_budget(make_params(q_bsm=1.0, shots=shots + 1))
