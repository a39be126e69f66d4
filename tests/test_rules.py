import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccut import sequence_model
from speccut.problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem
from speccut.rules import (
    RULE_NAMES,
    RuleConfig,
    _first_level,
    balancing,
    combined,
    constants,
    det_strong,
    det_weak,
    dp_at_m,
    dp_modified,
    early_stop,
    empirical_sup_deviation,
    oracle_opt,
    oracle_strong,
    oracle_weak,
    select_all,
)
from speccut.sequence_model import (
    NoiseModel,
    NoisyObservation,
    observe,
    sample_noise,
    strong_error_sq_profile,
    weak_error_sq_profile,
)

from error_oracles import strong_error_literal

GAUSS = NoiseModel("gaussian")


def unit_problem(D):
    return SpectralProblem("unit", np.ones(D), np.zeros(D))


def direct_obs(y, delta=1.0):
    """Data y of the unit-sigma, zero-truth problem: pure noise, as the residual rules see it."""
    y = np.asarray(y, dtype=float)
    return NoisyObservation(unit_problem(y.shape[-1]), y, delta)


def on_problem(p, obs):
    """The same data and noise level, as an observation of problem p."""
    return NoisyObservation(p, obs.y_obs, obs.delta)


def random_instance(rng, D, delta=0.1, s=1.0, q=2.0):
    p = build_synthetic(D, "poly", q=q, truth_power=s)
    return p, observe(p, delta, GAUSS, int(rng.integers(0, 2**32)))


def first_coefficients(obs, m):
    """The observation and its problem cut to their first m coefficients (a resolution m <= D)."""
    p = obs.problem
    cut = SpectralProblem(p.name, p.sigma[:m], p.x_true[:m])
    return NoisyObservation(cut, obs.y_obs[..., :m], obs.delta)


# --------------------------------------------------------------------------
# literal scan oracles, deliberately naive


def scan_dp_at_m(y, delta, tau, m):
    for k in range(0, m + 1):
        if math.sqrt(sum(float(v) ** 2 for v in y[k:m])) <= tau * math.sqrt(m) * delta:
            return k
    raise AssertionError("unreachable: k = m always satisfies")


def scan_dp_modified(y, delta, tau, m_cap):
    return max(scan_dp_at_m(y, delta, tau, m) for m in range(1, m_cap + 1))


def scan_balancing(sigma, y, delta, kappa, m_cap):
    coeff = [float(v) / float(s) for v, s in zip(y, sigma)]
    for k in range(0, m_cap + 1):
        ok = True
        for m in range(k + 1, m_cap + 1):
            diff = math.sqrt(sum(c**2 for c in coeff[k:m]))
            w = sum(float(s) ** -2 for s in sigma[:m])
            if diff > kappa * delta * math.sqrt(w):
                ok = False
                break
        if ok:
            return k
    raise AssertionError("unreachable")


def suffix_max_balancing(sigma, y, delta, kappa):
    """`balancing` as the smallest k whose P_k reaches the suffix maximum of the gaps.

    With P the prefix sums of (y/sigma)^2 and gap_m = P_m - (kappa delta)^2
    sum_{j<=m} sigma_j^-2, level k is admitted when P_k >= gap_m for every
    m > k. The same floating-point sums as the rule, compared per level
    instead of once at the largest gap. Works on one row or a block.
    """
    with np.errstate(over="ignore"):
        sq = np.cumsum((y / sigma) ** 2, axis=-1)
        P = np.concatenate([np.zeros(y.shape[:-1] + (1,)), sq], axis=-1)
        try:
            factor = (kappa * delta) ** 2
        except OverflowError:
            factor = math.inf
        gaps = P[..., 1:] - factor * np.cumsum(sigma**-2.0)
    suffix = np.full(P.shape, -np.inf)
    suffix[..., :-1] = np.maximum.accumulate(gaps[..., ::-1], axis=-1)[..., ::-1]
    k = (suffix <= P).argmax(axis=-1)
    return k if k.ndim else int(k)


# --------------------------------------------------------------------------
# frozen examples


def test_dp_at_m_examples():
    assert dp_at_m(direct_obs([0.0, 0.0, 0.0]), 1.5, 3) == 0
    assert dp_at_m(direct_obs([4.0, 0.0, 0.0, 0.0]), 1.5, 4) == 1
    assert dp_at_m(direct_obs([3.0, 0.0, 0.0, 0.0]), 1.5, 4) == 0  # boundary inclusive
    with pytest.raises(ValueError):
        dp_at_m(direct_obs([1.0, 2.0]), 1.5, 3)
    with pytest.raises(ValueError):
        dp_at_m(direct_obs([1.0, 2.0]), 1.0, 2)
    for m in (1.5, 2.0, 0):
        with pytest.raises(ValueError, match="^need an integer m >= 1, got "):
            dp_at_m(direct_obs([1.0, 2.0]), 1.5, m)


def test_dp_modified_examples():
    assert dp_modified(direct_obs(np.zeros(4)), 1.5) == 0
    obs = direct_obs([2.0, 2.0, 2.0, 2.0])
    assert [dp_at_m(obs, 1.5, m) for m in range(1, 5)] == [1, 1, 2, 2]
    assert dp_modified(obs, 1.5) == 2
    obs = direct_obs([4.0, 0.0, 0.0, 0.0])
    assert [dp_at_m(obs, 1.5, m) for m in range(1, 5)] == [1, 1, 1, 1]
    assert dp_modified(obs, 1.5) == 1
    # a resolution of one coefficient is the observation's first coefficient
    assert dp_modified(direct_obs([1.0]), 1.5) == dp_at_m(direct_obs([1.0, 1.0]), 1.5, 1)


def test_lepski_examples():
    # Lepski's rule is the balancing rule with unit singular values
    assert balancing(direct_obs(np.zeros(5)), 1.5) == 0
    assert balancing(direct_obs([4.0, 0.0, 0.0, 0.0]), 1.5) == 1
    with pytest.raises(ValueError):
        balancing(direct_obs([1.0]), 1.0)


def test_balancing_examples():
    assert balancing(direct_obs([0.0, 0.0]), 1.5) == 0
    assert balancing(direct_obs([4.0, 0.0]), 1.5) == 1
    with pytest.raises(ValueError):
        balancing(direct_obs([1.0, 1.0]), 1.0)


def test_balancing_exponential_spectrum_late_stop():
    # a single large late coordinate forces the rule past that index
    delta = math.exp(-2.0)
    m_crit = math.ceil(math.log(delta**-2))
    D = m_crit + 10
    p = build_synthetic(D, "exp")
    z = np.zeros(D)
    z[m_crit - 1] = 10.0
    obs = NoisyObservation(p, delta * z, delta)
    assert balancing(obs, 4.0) >= m_crit


def test_balancing_rejects_overflowing_sums():
    # exponential spectra where the sum of (y_obs/sigma)^2 to D, or the threshold
    # (kappa delta)^2 sum sigma^-2, is not a finite double
    for D, delta in ((709, 1.0), (300, 1e100)):
        p = build_synthetic(D, "exp", truth_power=1.0)
        for seed in (1, [1, 2]):  # one row, then a 2-row block
            obs = observe(p, delta, GAUSS, seed)
            with pytest.raises(ValueError, match="overflow"):
                balancing(obs, 4.0)
            with pytest.raises(ValueError, match="overflow"):
                select_all(obs, RuleConfig())


def test_estimate_norms_are_memoised_on_the_observation(monkeypatch):
    # ||x_k||^2 is S where every sigma is 1, and the strong error profile on a zero truth
    direct, zero = make_problem(ProblemSpec("direct", 40)), build_synthetic(40, "exp")
    for seed in (6, [6, 7]):  # a row and a 2-row block
        for p, twin in ((direct, lambda o: o.prefix_sq), (zero, strong_error_sq_profile)):
            obs = observe(p, 0.1, GAUSS, seed)
            assert obs.estimate_sq.shape == twin(obs).shape
            assert obs.estimate_sq.tobytes() == twin(obs).tobytes(), p.name
    # balancing builds the sum once per observation, whatever kappa it is called with
    builds = []
    prefix_sq = sequence_model._prefix_sq

    def counted(y):
        builds.append(y.shape)
        return prefix_sq(y)

    monkeypatch.setattr(sequence_model, "_prefix_sq", counted)
    obs = observe(zero, 0.1, GAUSS, [6, 7])
    levels = [balancing(obs, kappa).tolist() for kappa in (1.5, 4.0)]
    assert builds == [(2, 40)]
    # and the memo gives each kappa the levels a fresh observation gives
    assert levels == [balancing(on_problem(zero, obs), kappa).tolist() for kappa in (1.5, 4.0)]


def test_balancing_threshold_overflow_admits_every_level():
    # the sum of (y_obs/sigma)^2 is finite (about 2.6e290), only the threshold
    # (kappa delta)^2 sum sigma^-2 overflows: it admits every level, so k = 0
    p = build_synthetic(300, "exp", truth_power=1.0)
    obs = observe(p, 1e80, GAUSS, 1)
    assert math.isfinite(float(np.sum((obs.y_obs / p.sigma) ** 2)))
    assert balancing(obs, 1e10) == 0
    assert np.array_equal(balancing(observe(p, 1e80, GAUSS, [1, 2]), 1e10), [0, 0])
    # the same data scaled by an exact power of two, where nothing overflows
    c = 2.0**-500
    small = SpectralProblem(p.name, p.sigma, c * p.x_true)
    assert balancing(NoisyObservation(small, c * obs.y_obs, c * obs.delta), 1e10) == 0


def test_balancing_rejects_undetermined_thresholds():
    # sum sigma^-2 overflows while (kappa delta)^2 = 2.25e-340 underflows to 0: the
    # product 0 * inf is undetermined; in exact arithmetic the level is 0
    sigma = np.array([1.0, 1e-3, 1e-100, 1e-150, 1e-160, 1e-170])
    p = SpectralProblem("steep", sigma, np.zeros(6))
    y = np.full(6, 1e-170)
    # 1e160 * 4 squared overflows while sigma^-2 = 1e-400 underflows to 0
    huge = SpectralProblem("flat", np.full(2, 1e200), np.zeros(2))
    for problem, rows, delta in ((p, y, 1e-170), (huge, np.ones(2), 1e160)):
        for block in (rows, np.stack([rows, 0.5 * rows])):  # one row, then a 2-row block
            obs = NoisyObservation(problem, block, delta)
            with pytest.raises(ValueError, match="overflow"):
                balancing(obs, 1.5 if problem is p else 4.0)


def test_overflowing_threshold_factors_give_level_zero():
    # (factor * delta)^2 overflows a Python float: the threshold is infinite
    p, obs = random_instance(np.random.default_rng(8), 16, delta=1e-2)
    for o in (obs, observe(p, 1e-2, GAUSS, [1, 2, 3])):
        for level in (
            dp_modified(o, 1e200), dp_at_m(o, 1e200, 16), combined(o, 1e200),
            early_stop(o, tau=1e200), balancing(o, 1e200),
        ):
            assert np.all(level == 0)
    # delta^2 = 1e320 overflows too: one level of variance outweighs any bias
    assert det_weak(p, 1e160) == det_strong(p, 1e160) == 1


def test_residual_rules_reject_overflowing_data():
    # the prefix sums of y_obs^2 overflow: no level past D is returned
    p = make_problem(ProblemSpec("direct", 5000))
    for seed in (3, [3, 4]):
        obs = observe(p, 1e153, GAUSS, seed)
        for call in (
            lambda: dp_modified(obs, 1.5), lambda: early_stop(obs), lambda: combined(obs, 1.5),
            lambda: dp_at_m(obs, 1.5, 5000), lambda: select_all(obs, RuleConfig()),
        ):
            with pytest.raises(ValueError, match="overflow"):
                call()
        # unit sigma: balancing reads S, and still reports its own sums
        with pytest.raises(ValueError, match="^balancing sums overflow"):
            balancing(observe(p, 1e153, GAUSS, seed), 4.0)


def test_early_stop_examples():
    assert early_stop(direct_obs(np.zeros(6))) == 0
    assert early_stop(direct_obs([4.0, 0.0, 0.0, 0.0])) == 1
    assert early_stop(direct_obs([4.0, 0.0, 0.0, 0.0]), tau=2.0) == 0  # boundary inclusive
    with pytest.raises(TypeError):  # the threshold factor is keyword-only
        early_stop(direct_obs([1.0, 1.0]), 3)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            early_stop(direct_obs([1.0, 1.0]), tau=bad)


def test_combined_examples():
    zeros = direct_obs(np.zeros(5))
    assert combined(zeros, 1.5) == 0 and early_stop(zeros) == 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(30)
        obs = direct_obs(y, 0.5)
        m_max = early_stop(obs, tau=1.0)
        trace = [dp_at_m(obs, 1.5, m) for m in range(1, m_max + 1)]
        assert combined(obs, 1.5, 1.0) == max(trace, default=0)
        assert combined(obs, 1.5, 1.0) <= dp_modified(obs, 1.5)
    with pytest.raises(ValueError):
        combined(zeros, 1.5, 1.5)
    with pytest.raises(ValueError):
        combined(zeros, 1.2, 0.5)


def test_oracle_opt_examples():
    p = build_synthetic(10, "poly", q=2.0, truth_power=1.0)
    noiseless = NoisyObservation(p, p.sigma * p.x_true, 1e-12)
    assert oracle_opt(noiseless) == 10  # bias strictly decreasing
    p0 = build_synthetic(10, "poly", q=2.0)
    assert oracle_opt(observe(p0, 0.1, GAUSS, 1)) == 0  # zero truth: any k adds variance


def test_oracle_opt_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p, obs = random_instance(rng, int(rng.integers(2, 40)))
        errs = [strong_error_literal(obs, k) for k in range(p.size + 1)]
        assert oracle_opt(obs) == int(np.argmin(errs))


def test_oracle_weak_examples():
    p = SpectralProblem("unit", np.ones(4), np.array([2.0, 1.0, 0.0, 0.0]))  # y_clean = x_true
    assert oracle_weak(NoisyObservation(p, p.y_clean + 1.0, 1.0)) == 1
    zero = build_synthetic(4, "poly", q=2.0)
    assert oracle_weak(observe(zero, 1.0, GAUSS, 2)) == 0
    # no trailing zeros: the tail empties only at D
    full = SpectralProblem("unit", np.ones(4), np.array([2.0, 1.0, 0.5, 0.25]))
    assert oracle_weak(NoisyObservation(full, full.y_clean, 1.0)) == 4


def test_oracle_strong_examples():
    p = SpectralProblem("unit", np.ones(4), np.array([2.0, 1.0, 0.0, 0.0]))  # sigma 1: x = y_clean
    obs = NoisyObservation(p, p.y_clean + 1.0, 1.0)
    assert oracle_strong(obs) == oracle_weak(obs) == 1
    zero = build_synthetic(4, "poly", q=2.0)
    assert oracle_strong(observe(zero, 1.0, GAUSS, 3)) == 0


def test_oracle_ordering_weak_before_strong():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, obs = random_instance(rng, 64, delta=10.0 ** rng.uniform(-3, 0))
        assert oracle_weak(obs) <= oracle_strong(obs)


def test_near_optimality_of_balanced_levels():
    from speccut.sequence_model import strong_error_sq_profile, weak_error_sq_profile

    rng = np.random.default_rng(29)
    for _ in range(100):
        p, obs = random_instance(rng, 64, delta=10.0 ** rng.uniform(-3, 0))
        k_pr, k_st = oracle_weak(obs), oracle_strong(obs)
        weak_sq = weak_error_sq_profile(obs)
        strong_sq = strong_error_sq_profile(obs)
        if k_pr >= 1:
            assert 2.0 * weak_sq.min() >= min(weak_sq[k_pr], weak_sq[k_pr - 1])
        if k_st >= 1:
            assert 2.0 * strong_sq.min() >= min(strong_sq[k_st], strong_sq[k_st - 1])


def test_det_weak_examples():
    p = unit_problem(4)
    with_signal = SpectralProblem("unit", np.ones(4), np.array([2.0, 1.0, 0.0, 0.0]))
    assert det_weak(p, 1.0) == 0  # zero truth
    assert det_weak(with_signal, 1.0) == 1
    assert det_weak(with_signal, 10.0) <= 1  # huge noise level
    with pytest.raises(ValueError):
        det_weak(p, 0.0)


def test_thresholds_square_by_multiplication():
    # x * x = 2.299567948083348 is correctly rounded, and x ** 2 gives 2.2995679480833475, one
    # ulp less. Each threshold below equals its sum exactly when squared as x * x, which admits
    # the lower level; squared as x ** 2 it would fall one ulp short and admit only the higher.
    x = 1.5164326388215692
    obs = NoisyObservation(unit_problem(1), np.array([x]), 1.0)  # S_1 = P_1 = x * x
    assert dp_at_m(obs, x, 1) == dp_modified(obs, x) == early_stop(obs, tau=x) == 0
    assert combined(obs, x, 1.0) == balancing(obs, x) == 0
    assert det_weak(SpectralProblem("unit", np.ones(2), np.array([1.0, x])), x) == 1


def exact_det_strong(p, delta):
    """`det_strong` in exact rational arithmetic: the first k whose variance
    delta^2 sum_{j<=k} sigma_j^-2 reaches the bias sum_{j>k} x_true_j^2."""
    terms = [Fraction(delta) ** 2 / Fraction(float(s)) ** 2 for s in p.sigma]
    bias = [Fraction(float(x)) ** 2 for x in p.x_true]
    return next(k for k in range(p.size + 1) if sum(terms[:k]) >= sum(bias[k:]))


def test_det_strong_equals_exact_arithmetic():
    # delta^2 and sigma^-2 formed apart would give 0 * inf in the first two (1e-340 * 1e320,
    # 1e320 * 1e-400) and an infinite weight in the third; each level is exact
    steep = SpectralProblem("steep", [1.0, 1e-160], [1.0, 1.0])
    flat = SpectralProblem("flat", [1e200, 1e200], [1.0, 1.0])
    for p, delta in ((steep, 1e-170), (flat, 1e160), (steep, 1e-3)):
        assert det_strong(p, delta) == exact_det_strong(p, delta) == 2
    # spectra down to 1e-170 and at 1e200, over 400 decades of delta, where no tail overflows
    steep6 = [1.0, 1e-3, 1e-100, 1e-150, 1e-160, 1e-170]
    for p in (
        steep, flat, SpectralProblem("steep", steep6, np.ones(6)),
        SpectralProblem("steep", steep6, [1e100, 1e-50, 3e21, 1.0, 1e-100, 3.0]),
        SpectralProblem("flat", np.full(4, 1e200), [3.0, 1e-150, 2e-5, 1e-20]),
    ):
        for e in range(-200, 201, 10):
            assert det_strong(p, 10.0**e) == exact_det_strong(p, 10.0**e), (p.sigma, e)


def test_overflowing_bias_tails_raise():
    # the squared truth (1e200)^2 overflows a double, so no level compared with the bias
    # is exact (exact arithmetic gives 3 for each); they raise instead of warning
    p = SpectralProblem("unit", np.ones(3), np.full(3, 1e200))
    obs = NoisyObservation(p, p.y_clean + np.array([3e199, -1e199, 5e198]), 1e199)
    for call in (
        lambda: oracle_opt(obs), lambda: oracle_weak(obs), lambda: oracle_strong(obs),
        lambda: det_weak(p, 1e199), lambda: det_strong(p, 1e199),
        lambda: strong_error_sq_profile(obs), lambda: weak_error_sq_profile(obs),
    ):
        with pytest.raises(ValueError, match="overflow"):
            call()


def test_overflowing_noise_sums_give_exact_levels():
    # the squared noise (1e200 - 1)^2 overflows, the bias stays finite: an infinite
    # variance outweighs it, so the levels are exact, without an overflow warning
    p = SpectralProblem("unit", np.ones(3), np.ones(3))
    obs = NoisyObservation(p, np.array([1e200, 1.0, 1.0]), 1e199)
    assert (oracle_opt(obs), oracle_weak(obs), oracle_strong(obs)) == (0, 1, 1)
    assert np.isinf(weak_error_sq_profile(obs)[1:]).all()


def test_det_strong_examples():
    zero = build_synthetic(6, "poly", q=2.0)
    assert det_strong(zero, 1.0) == 0
    unit = SpectralProblem("unit", np.ones(4), np.array([2.0, 1.0, 0.0, 0.0]))
    assert det_strong(unit, 0.7) == det_weak(unit, 0.7)
    rng = np.random.default_rng(31)
    for _ in range(50):
        p = build_synthetic(32, "poly", q=float(rng.uniform(0.5, 3)), truth_power=1.0)
        delta = float(10.0 ** rng.uniform(-3, 0))
        assert det_strong(p, delta) >= det_weak(p, delta)


def test_constants_arithmetic():
    assert constants(3.0).a_tau == pytest.approx(4.0, rel=1e-15)
    c = constants(1.5)
    assert (c.a_tau, c.b_tau) == (25.0, 7.5625)
    # squared as x * x, correctly rounded; x ** 2 is one ulp off in both
    tilted = constants(3.2828012933111457)
    assert (tilted.a_tau, tilted.b_tau) == (3.519813319980855, 29.421966685538717)
    assert c.c_tau_weak == pytest.approx(math.sqrt(6.0 * 46.5625), rel=1e-14)
    # at tau=1.5 the first branch of the max wins: (tau+1)/(tau-1) + 1 = 6
    assert c.c_tau_strong == pytest.approx(math.sqrt(2.0) * 6.0, rel=1e-14)
    assert c.c_tau_cor is None
    full = constants(1.5, q=2.0)
    expected = math.sqrt(2.0) + 4.0 * math.sqrt(9.0**3 * 3.0 * 4.0)
    assert full.c_tau_cor == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        constants(1.0)
    for bad in (dict(tau=math.nan), dict(tau=math.inf), dict(tau=1.5, q=math.nan)):
        with pytest.raises(ValueError):
            constants(**bad)
    # (3 tau + 1)^2 overflows; an inf constant would make c * rhs NaN at rhs = 0
    for tau, shown in ((1e200, "1e\\+200"), (1.7e308, "1.7e\\+308")):
        with pytest.raises(ValueError, match=f"^guarantee constants overflow for tau={shown}$"):
            constants(tau)


def test_constants_reject_decay_exponents_they_cannot_evaluate():
    # q <= 0 is the bound `build_synthetic` applies; 9^(1+q) overflows a double past q ~ 322
    for q, message in ((0.0, "exceed 0.0"), (-2.0, "exceed 0.0"), (math.inf, "be finite")):
        with pytest.raises(ValueError, match=f"^q must {message}, got "):
            constants(1.5, q=q)
    with pytest.raises(ValueError, match="q=1000000.0"):
        constants(1.5, q=1e6)
    assert math.isfinite(constants(1.5, q=300.0).c_tau_cor)
    with pytest.raises(ValueError, match=r"^c_tau_cor overflows for tau=4e\+153, q=320.0$"):
        constants(4e153, q=320.0)


def test_empirical_sup_deviation_examples():
    assert empirical_sup_deviation(np.ones(5), 1) == 0.0
    assert empirical_sup_deviation(np.array([2.0, 0.0]), 1) == 3.0
    assert empirical_sup_deviation(np.zeros(7), 3) == 1.0
    # integer noise, such as +-1 draws, gives the float result
    signs = empirical_sup_deviation(np.array([1, -1, 1]), 1)
    assert type(signs) is float and signs == empirical_sup_deviation(np.array([1.0, -1.0, 1.0]), 1)
    assert empirical_sup_deviation(np.array([2, 0]), 1) == 3.0
    with pytest.raises(ValueError):
        empirical_sup_deviation(np.ones(5), 6)
    for kappa_idx in (2.0, 0, True):
        with pytest.raises(ValueError, match="^need an integer kappa_idx >= 1, got "):
            empirical_sup_deviation(np.ones(5), kappa_idx)


def test_empirical_sup_deviation_rejects_what_it_cannot_evaluate():
    # a list is converted, as an array is
    assert empirical_sup_deviation([2.0, 0.0], 1) == 3.0
    assert empirical_sup_deviation([[2.0, 0.0], [1.0, 1.0]], 1).tolist() == [3.0, 0.0]
    for z in (np.float64(2.0), np.ones((2, 2, 3))):
        with pytest.raises(ValueError, match=r"^z must be one row \(D,\) or a block \(R, D\)"):
            empirical_sup_deviation(z, 1)
    # a non-finite entry reaches every later running mean, so also the deviation past kappa_idx
    for bad in (math.nan, math.inf, -math.inf):
        row = np.array([1.0, bad, 1.0, 1.0])
        for z, kappa_idx in ((row, 1), (row, 4), (np.stack([np.ones(4), row]), 3)):
            with pytest.raises(ValueError, match="^running-mean deviation is not finite"):
                empirical_sup_deviation(z, kappa_idx)


# --------------------------------------------------------------------------
# the one level search of every rule and oracle


def bisected_level(row, t):
    """The smallest k with row[k] >= t in a nondecreasing row, by bisection."""
    return int(np.searchsorted(row, t, side="left"))


def first_true_level(a, b):
    """The smallest k with a[k] >= b[k], by a literal loop."""
    return next(k for k in range(len(a)) if a[k] >= b[k])


MAGNITUDES = st.just(0.0) | st.floats(1e-150, 1e150)
SHAPES = st.sampled_from([None, 1, 3])  # None: one row; else a block of that many rows


@st.composite
def nondecreasing_rows(draw, D, rows):
    """`rows` nondecreasing rows of D + 1 entries from a few magnitudes, so ties are common."""
    pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=6))
    entries = st.lists(st.sampled_from(pool), min_size=D + 1, max_size=D + 1)
    return np.sort(draw(st.lists(entries, min_size=rows, max_size=rows)), axis=-1)


@st.composite
def reached_threshold(draw, row):
    """A threshold some entry of the nondecreasing row reaches: an entry, a value between
    two, an entry less a nonnegative amount, or -inf, as the residual rules search for."""
    m = draw(st.integers(0, row.size - 1))
    kind = draw(st.sampled_from(["entry", "between", "less", "-inf"]))
    if kind == "entry":
        return row[m]
    if kind == "between":
        return ((row[m - 1] if m else 0.0) + row[m]) / 2
    if kind == "less":
        return row[m] - draw(MAGNITUDES)
    return -np.inf


def assert_levels(k, shape, want):
    """One row's level is an int; a block's is the (R,) array of its rows' levels."""
    if shape is None:
        assert type(k) is int and [k] == want
    else:
        assert k.shape == (shape,) and k.tolist() == want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(D=st.integers(0, 40), shape=SHAPES, data=st.data())
def test_first_level_equals_bisection_of_each_row(D, shape, data):
    S = data.draw(nondecreasing_rows(D, shape or 1))
    t = np.array([data.draw(reached_threshold(row)) for row in S])
    rows = 0 if shape is None else slice(None)  # one row, or the block
    want = [bisected_level(row, row_t) for row, row_t in zip(S, t)]
    assert_levels(_first_level(S[rows], t[rows, None]), shape, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(D=st.integers(0, 40), shape=SHAPES, data=st.data())
def test_first_level_equals_first_crossing_of_each_row(D, shape, data):
    # an oracle's accumulated sums per row against one nonincreasing tail that ends at 0
    acc = data.draw(nondecreasing_rows(D, shape or 1))
    tail = data.draw(nondecreasing_rows(D, 1))[0, ::-1].copy()
    tail[-1] = 0.0
    rows = 0 if shape is None else slice(None)
    assert_levels(_first_level(acc[rows], tail), shape, [first_true_level(a, tail) for a in acc])


# --------------------------------------------------------------------------
# oracle equivalences and invariants


def test_dp_modified_equals_scan():
    rng = np.random.default_rng(37)
    for _ in range(60):
        D = int(rng.integers(2, 33))
        delta = float(10.0 ** rng.uniform(-2, 0))
        tau = float(rng.uniform(1.05, 3.0))
        y = rng.standard_normal(D) * float(10.0 ** rng.uniform(-1, 1))
        assert dp_modified(direct_obs(y, delta), tau) == scan_dp_modified(y, delta, tau, D)


def test_dp_at_m_equals_scan():
    rng = np.random.default_rng(41)
    for _ in range(60):
        D = int(rng.integers(2, 33))
        m = int(rng.integers(1, D + 1))
        delta = float(10.0 ** rng.uniform(-2, 0))
        y = rng.standard_normal(D)
        assert dp_at_m(direct_obs(y, delta), 1.5, m) == scan_dp_at_m(y, delta, 1.5, m)


def test_lepski_equals_scan():
    rng = np.random.default_rng(43)
    for _ in range(40):
        D = int(rng.integers(2, 25))
        delta = float(10.0 ** rng.uniform(-2, 0))
        y = rng.standard_normal(D)
        # Lepski's rule: balancing with unit singular values
        assert balancing(direct_obs(y, delta), 1.5) == scan_balancing(np.ones(D), y, delta, 1.5, D)


def test_lepski_coincides_with_dp_in_direct_case():
    rng = np.random.default_rng(47)
    for _ in range(50):
        D = int(rng.integers(2, 129))
        delta = float(10.0 ** rng.uniform(-2, 0))
        fudge = float(rng.uniform(1.05, 3.0))
        y = rng.standard_normal(D)
        obs = NoisyObservation(make_problem(ProblemSpec("direct", D)), y, delta)
        assert balancing(obs, fudge) == dp_modified(obs, fudge)


def test_balancing_equals_scan():
    rng = np.random.default_rng(53)
    for _ in range(50):
        D = int(rng.integers(2, 20))
        p = build_synthetic(D, "poly", q=float(rng.uniform(0.5, 2.5)), truth_power=1.0)
        obs = observe(p, float(10.0 ** rng.uniform(-2, 0)), GAUSS, int(rng.integers(1e6)))
        assert balancing(obs, 2.0) == scan_balancing(p.sigma, obs.y_obs, obs.delta, 2.0, D)


@settings(max_examples=300, deadline=None)
@given(
    D=st.integers(1, 300),
    rows=st.sampled_from([None, 1, 3]),  # None: one row
    # sigma falls from 1 to 10^-decades: past ~151.5 decades the thresholds can
    # overflow, past ~154.1 their weights and often the data sums do
    decades=st.floats(0.0, 151.5) | st.floats(151.5, 154.1) | st.floats(154.1, 170.0),
    scale=st.floats(-3.0, 3.0),
    log_delta=st.floats(-12.0, 0.0),
    log_kappa=st.floats(math.log10(1.01), 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_balancing_equals_suffix_max_formulation(
    D, rows, decades, scale, log_delta, log_kappa, seed
):
    # steep spectra make the thresholds, their weights or the data sums overflow
    sigma = 10.0 ** (-decades * np.arange(D) / max(D - 1, 1))
    delta, kappa = 10.0**log_delta, 10.0**log_kappa
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(D if rows is None else (rows, D))
    p = SpectralProblem("steep", sigma, 10.0**scale * rng.uniform(-1.0, 1.0, D))
    obs = NoisyObservation(p, p.y_clean + delta * z, delta)
    with np.errstate(over="ignore"):  # the rule's sequential sums, last entries
        weights = np.cumsum(sigma**-2.0)[-1]
        sums = np.cumsum((obs.y_obs / sigma) ** 2, axis=-1)[..., -1]
    # (kappa delta)^2 <= 1e6 is finite, so overflowing weights leave the thresholds undetermined
    if not (np.isfinite(sums).all() and math.isfinite(weights)):
        with pytest.raises(ValueError, match="overflow"):
            balancing(obs, kappa)
    else:
        want = suffix_max_balancing(sigma, obs.y_obs, delta, kappa)
        assert np.array_equal(balancing(obs, kappa), want)


def test_early_stop_equals_scan():
    rng = np.random.default_rng(59)
    for _ in range(40):
        D = int(rng.integers(2, 33))
        D_used = int(rng.integers(1, D + 1))
        delta = float(10.0 ** rng.uniform(-1.5, 0))
        y = rng.standard_normal(D)[:D_used]  # a resolution D_used <= D
        # early stopping: the discrepancy choice at m = D
        assert early_stop(direct_obs(y, delta)) == scan_dp_at_m(y, delta, 1.0, D_used)
        tau = float(rng.uniform(1.0, 3.0))
        assert early_stop(direct_obs(y, delta), tau=tau) == scan_dp_at_m(y, delta, tau, D_used)


def test_dp_at_m_never_exceeds_m_and_modified_dominates():
    rng = np.random.default_rng(61)
    y = rng.standard_normal(64)
    obs = direct_obs(y, 0.3)
    trace = [dp_at_m(obs, 1.5, m) for m in range(1, 65)]
    k = dp_modified(obs, 1.5)
    for m in range(1, 65):
        assert trace[m - 1] <= m
        assert k >= trace[m - 1]
    assert k == max(trace)


def test_selectors_scale_invariant():
    rng = np.random.default_rng(67)
    for _ in range(20):
        delta = float(10.0 ** rng.uniform(-3, -1))
        p = build_synthetic(48, "poly", q=2.0, truth_power=1.0)
        z = sample_noise(GAUSS, 48, int(rng.integers(0, 2**32)))
        unit = unit_problem(48)

        def levels(obs):
            return (
                dp_modified(obs, 1.5),
                balancing(on_problem(unit, obs), 1.5),
                balancing(obs, 4.0),
                early_stop(obs),
                combined(obs, 1.5),
                oracle_weak(obs),
                oracle_strong(obs),
            )

        base = levels(NoisyObservation(p, p.y_clean + delta * z, delta))
        for c in (1e-3, 1e3):
            p2 = SpectralProblem(p.name, p.sigma, c * p.x_true)
            assert levels(NoisyObservation(p2, p2.y_clean + (c * delta) * z, c * delta)) == base


def test_single_search_equals_max_of_per_m_trace():
    # dp and com search once, at the largest threshold; the per-m trace calls
    # dp_at_m for every m. Levels must agree exactly, also where the thresholds
    # underflow the rounding of the prefix sums (tiny delta), and whether or not
    # the observation's memoised sums were built by another rule first. Each
    # rule runs at the full resolution D and at a resolution m_cap < D (the
    # first m_cap coefficients).
    rng = np.random.default_rng(73)
    for i in range(240):
        D = int(rng.integers(2, 513))
        kind = ("poly", "exp", "direct")[i % 3]
        if kind == "direct":
            p = make_problem(ProblemSpec("direct", D))
        else:
            p = build_synthetic(D, kind, q=float(rng.uniform(0.5, 3.0)), truth_power=1.0)
        delta = float(10.0 ** -rng.uniform(0, 12))
        tau = float(rng.uniform(1.05, 3.0))
        tau_min = 1.0 + (tau - 1.0) * float(rng.uniform(0.05, 0.95))
        kappa = float(rng.uniform(1.05, 5.0))
        m_cap = int(rng.integers(1, D))
        seed = int(rng.integers(0, 2**32))
        rules = {
            "dp": lambda o: dp_modified(o, tau),
            "dp_at_m": lambda o: dp_at_m(o, tau, o.size),
            "lepski": lambda o: balancing(on_problem(unit_problem(o.size), o), kappa),
            "bal": lambda o: balancing(o, kappa),
            "es": lambda o: early_stop(o),
            "m_max": lambda o: early_stop(o, tau=tau_min),
            "com": lambda o: combined(o, tau, tau_min),
            "opt": oracle_opt,
            "pr": oracle_weak,
            "st": oracle_strong,
        }
        obs = observe(p, delta, GAUSS, seed)
        trace = [dp_at_m(obs, tau, m) for m in range(1, D + 1)]
        for n in (D, m_cap):
            cut = first_coefficients(obs, n)
            # a shorter resolution's trace is the prefix of the full one
            assert [dp_at_m(cut, tau, m) for m in range(1, n + 1)] == trace[:n]
            assert dp_modified(cut, tau) == max(trace[:n])
            m_max = early_stop(cut, tau=tau_min)
            assert combined(cut, tau, tau_min) == max(trace[:m_max], default=0)
            for name, rule in rules.items():
                # this rule builds the sums it reads
                fresh = first_coefficients(observe(p, delta, GAUSS, seed), n)
                assert rule(fresh) == rule(cut), (i, n, name)


def test_rule_config_validation():
    cfg = RuleConfig()
    assert cfg.tau == 1.5 and cfg.kappa == 4.0
    for bad in (
        dict(tau=1.0), dict(kappa=0.9), dict(tau_min=0.5), dict(tau=1.2, tau_min=1.3),
        dict(tau=math.nan), dict(tau=math.inf), dict(kappa=math.nan), dict(kappa=math.inf),
        dict(tau_min=math.nan),
    ):
        with pytest.raises(ValueError):
            RuleConfig(**bad)


def test_rules_reject_non_finite_parameters():
    p, obs = random_instance(np.random.default_rng(5), 16)
    for call in (
        lambda x: dp_at_m(obs, x, 4),
        lambda x: dp_modified(obs, x),
        lambda x: early_stop(obs, tau=x),
        lambda x: balancing(obs, x),
        lambda x: combined(obs, x),
        lambda x: combined(obs, 1.5, x),
        lambda x: det_weak(p, x),
        lambda x: det_strong(p, x),
        lambda x: NoisyObservation(p, obs.y_obs, x),
        lambda x: observe(p, x, GAUSS, 0),
    ):
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError):
                call(x)


def test_select_all_returns_every_rule():
    p = build_synthetic(32, "poly", q=2.0, truth_power=1.0)
    obs = observe(p, 0.05, GAUSS, 101)
    ks = select_all(obs, RuleConfig())
    assert set(ks) == {"dp", "bal", "es", "com", "opt", "pr", "st"}
    assert all(0 <= k <= 32 for k in ks.values())
    assert ks["pr"] <= ks["st"]
    assert ks["com"] <= ks["dp"]
    strong_sq = strong_error_sq_profile(obs)
    assert strong_sq[ks["opt"]] <= min(strong_sq[ks[r]] for r in ("dp", "bal", "es"))
    assert math.sqrt(weak_error_sq_profile(obs)[0]) == np.linalg.norm(p.y_clean)


def test_row_block_equals_scalar_rule_per_row():
    # Every rule and both profiles on an (R, D) block must equal the one-row
    # call on each row, bit for bit. The residual and comparison rules run on
    # the first m_cap coefficients. Some blocks rescale single rows by 1e-8 or
    # 1e8, so one block mixes rows that stop at 0 with rows saturated at m_cap.
    rng = np.random.default_rng(4242)
    phillips = make_problem(ProblemSpec("phillips", 40))
    extremes = {"zero": 0, "saturated": 0}
    for i in range(64):
        kind = ("poly", "exp", "direct", "phillips")[i % 4]
        R = (1, 2, 37, 64)[(i // 4) % 4]
        if kind == "phillips":
            base = phillips
        elif kind == "direct":
            base = make_problem(ProblemSpec("direct", int(rng.integers(2, 513))))
        else:
            D = int(rng.integers(2, 513))
            base = build_synthetic(D, kind, q=float(rng.uniform(0.5, 3.0)), truth_power=1.0)
        scale = float(10.0 ** rng.uniform(-3, 3))
        p = SpectralProblem(base.name, base.sigma, scale * base.x_true)
        D = p.size
        delta = float(10.0 ** -rng.uniform(0, 12))
        tau = float(rng.uniform(1.05, 3.0))
        tau_min = 1.0 + (tau - 1.0) * float(rng.uniform(0.05, 0.95))
        kappa = float(rng.uniform(1.05, 5.0))
        m_cap = int(rng.integers(1, D)) if D > 1 else 1
        m = int(rng.integers(1, D + 1))
        seeds = [int(s) for s in rng.integers(0, 2**32, size=R)]
        block = observe(p, delta, GAUSS, seeds)
        singles = [observe(p, delta, GAUSS, s) for s in seeds]
        assert block.y_obs.shape == (R, D)
        if i % 2:
            row_scale = rng.choice([1e-8, 1.0, 1e8], size=(R, 1))
            block = NoisyObservation(p, row_scale * block.y_obs, delta)
            singles = [NoisyObservation(p, block.y_obs[r], delta) for r in range(R)]
        cfg = RuleConfig(tau=tau, kappa=kappa, tau_min=tau_min)
        unit = unit_problem(D)
        rules = {
            "dp": lambda o: dp_modified(first_coefficients(o, m_cap), tau),
            "dp_at_m": lambda o: dp_at_m(o, tau, m),
            "lepski": lambda o: balancing(on_problem(unit, o), kappa),
            "bal": lambda o: balancing(first_coefficients(o, m_cap), kappa),
            "es": lambda o: early_stop(first_coefficients(o, m_cap)),
            "com": lambda o: combined(first_coefficients(o, m_cap), tau, tau_min),
            "m_max": lambda o: early_stop(first_coefficients(o, m_cap), tau=tau_min),
            "opt": oracle_opt,
            "pr": oracle_weak,
            "st": oracle_strong,
            "strong_sq": strong_error_sq_profile,
            "weak_sq": weak_error_sq_profile,
            "prefix_sq": lambda o: o.prefix_sq,
            "sup_dev": lambda o: empirical_sup_deviation((o.y_obs - p.y_clean) / delta, m),
            **{f"select_all.{r}": (lambda o, r=r: select_all(o, cfg)[r]) for r in RULE_NAMES},
        }
        for name, rule in rules.items():
            got = rule(block)
            assert got.shape[0] == R, (i, name)
            want = [rule(o) for o in singles]
            scalar = float if name == "sup_dev" else int
            if name not in ("strong_sq", "weak_sq", "prefix_sq"):
                assert all(type(w) is scalar for w in want), (i, name)
            assert np.array_equal(got, np.array(want)), (i, name)
        ks = rules["dp"](block)
        extremes["zero"] += int(np.sum(ks == 0))
        extremes["saturated"] += int(np.sum(ks == m_cap))
    assert extremes["zero"] >= 50 and extremes["saturated"] >= 50, extremes


def test_block_observation_shapes():
    p = build_synthetic(8, "poly", q=2.0, truth_power=1.0)
    block = observe(p, 0.1, GAUSS, range(3))
    assert block.y_obs.shape == (3, 8) and block.problem is p
    assert block.size == 8 and block.prefix_sq.shape == (3, 9)
    # rows and blocks whose width is not the problem's size, no rows, and three axes
    for y_obs in (
        np.ones(7), np.ones(9), block.y_obs[:, :7], np.ones((3, 9)), np.zeros((0, 8)),
        np.zeros((2, 2, 8)), np.float64(1.0),
    ):
        with pytest.raises(ValueError, match="y_obs must be one row"):
            NoisyObservation(p, y_obs, 0.1)
