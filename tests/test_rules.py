import math

import numpy as np
import pytest

from speccut.problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem
from speccut.rules import (
    RuleConfig,
    balancing,
    combined,
    constants,
    det_strong,
    det_weak,
    dp_at_m,
    dp_modified,
    early_stop,
    empirical_sup_deviation,
    lepski_direct,
    oracle_opt,
    oracle_strong,
    oracle_weak,
    select_all,
)
from speccut.sequence_model import (
    NoiseModel,
    NoisyObservation,
    observe,
    strong_error,
    weak_error,
)

GAUSS = NoiseModel("gaussian")


def direct_obs(y, delta=1.0):
    y = np.asarray(y, dtype=float)
    return NoisyObservation(y, np.zeros_like(y), y / delta, delta, 0)


def unit_problem(D):
    return SpectralProblem("unit", np.ones(D), np.zeros(D))


def random_instance(rng, D, delta=0.1, s=1.0, q=2.0):
    p = build_synthetic(D, "poly", q=q, truth_power=s)
    return p, observe(p, delta, GAUSS, int(rng.integers(0, 2**32)))


# --------------------------------------------------------------------------
# literal scan oracles, deliberately naive


def scan_dp_at_m(y, delta, tau, m):
    for k in range(0, m + 1):
        if math.sqrt(sum(float(v) ** 2 for v in y[k:m])) <= tau * math.sqrt(m) * delta:
            return k
    raise AssertionError("unreachable: k = m always satisfies")


def scan_dp_modified(y, delta, tau, m_cap):
    return max(scan_dp_at_m(y, delta, tau, m) for m in range(1, m_cap + 1))


def scan_lepski(y, delta, kappa):
    D = len(y)
    for k in range(0, D + 1):
        if all(
            math.sqrt(sum(float(v) ** 2 for v in y[k:m])) <= kappa * math.sqrt(m) * delta
            for m in range(k + 1, D + 1)
        ):
            return k
    raise AssertionError("unreachable")


def scan_balancing(sigma, y, delta, kappa, m_cap, printed_rhs=False):
    coeff = [float(v) / float(s) for v, s in zip(y, sigma)]
    for k in range(0, m_cap + 1):
        ok = True
        for m in range(k + 1, m_cap + 1):
            diff = math.sqrt(sum(c**2 for c in coeff[k:m]))
            w = sum(float(s) ** -2 for s in sigma[:m])
            thr = kappa * delta**2 * w if printed_rhs else kappa * delta * math.sqrt(w)
            if diff > thr:
                ok = False
                break
        if ok:
            return k
    raise AssertionError("unreachable")


def scan_early_stop(y, delta, D_used):
    for k in range(0, D_used + 1):
        if math.sqrt(sum(float(v) ** 2 for v in y[k:D_used])) <= math.sqrt(D_used) * delta:
            return k
    raise AssertionError("unreachable")


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


def test_dp_modified_examples():
    assert dp_modified(direct_obs(np.zeros(4)), 1.5).k == 0
    res = dp_modified(direct_obs([2.0, 2.0, 2.0, 2.0]), 1.5, keep_trace=True)
    assert list(res.trace) == [1, 1, 2, 2] and res.k == 2
    res = dp_modified(direct_obs([4.0, 0.0, 0.0, 0.0]), 1.5, keep_trace=True)
    assert list(res.trace) == [1, 1, 1, 1] and res.k == 1
    assert dp_modified(direct_obs([1.0, 1.0]), 1.5, m_cap=1).k == dp_at_m(
        direct_obs([1.0, 1.0]), 1.5, 1
    )


def test_lepski_examples():
    assert lepski_direct(direct_obs(np.zeros(5)), 1.5) == 0
    assert lepski_direct(direct_obs([4.0, 0.0, 0.0, 0.0]), 1.5) == 1
    with pytest.raises(ValueError):
        lepski_direct(direct_obs([1.0]), 1.5, sigma=np.array([2.0]))
    with pytest.raises(ValueError):
        lepski_direct(direct_obs([1.0]), 1.0)


def test_balancing_examples():
    p = unit_problem(2)
    assert balancing(p, direct_obs([0.0, 0.0]), 1.5) == 0
    assert balancing(p, direct_obs([4.0, 0.0]), 1.5) == 1
    with pytest.raises(ValueError):
        balancing(p, direct_obs([1.0, 1.0]), 1.0)


def test_balancing_exponential_spectrum_late_stop():
    # a single large late coordinate forces the rule past that index
    delta = math.exp(-2.0)
    m_crit = math.ceil(math.log(delta**-2))
    D = m_crit + 10
    p = build_synthetic(D, "exp")
    z = np.zeros(D)
    z[m_crit - 1] = 10.0
    obs = NoisyObservation(delta * z, np.zeros(D), z, delta, 0)
    assert balancing(p, obs, 4.0, D) >= m_crit


def test_early_stop_examples():
    assert early_stop(direct_obs(np.zeros(6))) == 0
    assert early_stop(direct_obs([4.0, 0.0, 0.0, 0.0])) == 1
    with pytest.raises(ValueError):
        early_stop(direct_obs([1.0, 1.0]), 3)


def test_combined_examples():
    zeros = direct_obs(np.zeros(5))
    res = combined(zeros, 1.5)
    assert res.k == 0 and res.m_max == 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = rng.standard_normal(30)
        obs = direct_obs(y, 0.5)
        res = combined(obs, 1.5, 1.0)
        assert res.m_max == early_stop(obs)
        assert res.k <= dp_modified(obs, 1.5).k
    with pytest.raises(ValueError):
        combined(zeros, 1.5, 1.5)
    with pytest.raises(ValueError):
        combined(zeros, 1.2, 0.5)


def test_oracle_opt_examples():
    p = build_synthetic(10, "poly", q=2.0, truth_power=1.0)
    y = p.sigma * p.x_true
    noiseless = NoisyObservation(y, y, np.zeros(10), 1e-12, 0)
    assert oracle_opt(p, noiseless) == 10  # bias strictly decreasing
    p0 = build_synthetic(10, "poly", q=2.0)
    obs = observe(p0, 0.1, GAUSS, 1)
    assert oracle_opt(p0, obs) == 0  # zero truth: any k adds variance


def test_oracle_opt_matches_exhaustive_scan():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p, obs = random_instance(rng, int(rng.integers(2, 40)))
        errs = [strong_error(p, obs, k) for k in range(p.size + 1)]
        assert oracle_opt(p, obs) == int(np.argmin(errs))


def test_oracle_weak_examples():
    p = unit_problem(4)
    y_clean = np.array([2.0, 1.0, 0.0, 0.0])
    obs = NoisyObservation(y_clean + 1.0, y_clean, np.ones(4), 1.0, 0)
    assert oracle_weak(p, obs) == 1
    zero = build_synthetic(4, "poly", q=2.0)
    assert oracle_weak(zero, observe(zero, 1.0, GAUSS, 2)) == 0
    full = np.array([2.0, 1.0, 0.5, 0.25])  # no trailing zeros: tail empties only at D
    noiseless = NoisyObservation(full, full, np.zeros(4), 1.0, 0)
    assert oracle_weak(p, noiseless) == 4


def test_oracle_strong_examples():
    p = unit_problem(4)
    y_clean = np.array([2.0, 1.0, 0.0, 0.0])
    x = SpectralProblem("unit", np.ones(4), y_clean)  # sigma 1: x = y_clean
    obs = NoisyObservation(y_clean + 1.0, y_clean, np.ones(4), 1.0, 0)
    assert oracle_strong(x, obs) == oracle_weak(p, obs) == 1
    zero = build_synthetic(4, "poly", q=2.0)
    assert oracle_strong(zero, observe(zero, 1.0, GAUSS, 3)) == 0


def test_oracle_ordering_weak_before_strong():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p, obs = random_instance(rng, 64, delta=10.0 ** rng.uniform(-3, 0))
        assert oracle_weak(p, obs) <= oracle_strong(p, obs)


def test_near_optimality_of_balanced_levels():
    from speccut.sequence_model import strong_error_sq_profile, weak_error_sq_profile

    rng = np.random.default_rng(29)
    for _ in range(100):
        p, obs = random_instance(rng, 64, delta=10.0 ** rng.uniform(-3, 0))
        k_pr, k_st = oracle_weak(p, obs), oracle_strong(p, obs)
        weak_sq = weak_error_sq_profile(p, obs)
        strong_sq = strong_error_sq_profile(p, obs)
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
    assert c.b_tau == pytest.approx(7.5625, rel=1e-15)
    assert c.c_tau_weak == pytest.approx(math.sqrt(6.0 * 46.5625), rel=1e-14)
    # at tau=1.5 the first branch of the max wins: (tau+1)/(tau-1) + 1 = 6
    assert c.c_tau_strong == pytest.approx(math.sqrt(2.0) * 6.0, rel=1e-14)
    assert c.c_tau_cor is None
    full = constants(1.5, q=2.0, c_q=1.0, C_q=1.0)
    expected = math.sqrt(2.0) + 4.0 * math.sqrt(9.0**3 * 3.0 * 4.0)
    assert full.c_tau_cor == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        constants(1.0)
    with pytest.raises(ValueError):
        constants(1.5, q=2.0, c_q=2.0, C_q=1.0)
    with pytest.raises(ValueError):
        constants(1.5, q=2.0)


def test_empirical_sup_deviation_examples():
    assert empirical_sup_deviation(np.ones(5), 1) == 0.0
    assert empirical_sup_deviation(np.array([2.0, 0.0]), 1) == 3.0
    assert empirical_sup_deviation(np.zeros(7), 3) == 1.0
    with pytest.raises(ValueError):
        empirical_sup_deviation(np.ones(5), 6)


# --------------------------------------------------------------------------
# oracle equivalences and invariants


def test_dp_modified_equals_scan():
    rng = np.random.default_rng(37)
    for _ in range(60):
        D = int(rng.integers(2, 33))
        delta = float(10.0 ** rng.uniform(-2, 0))
        tau = float(rng.uniform(1.05, 3.0))
        y = rng.standard_normal(D) * float(10.0 ** rng.uniform(-1, 1))
        assert dp_modified(direct_obs(y, delta), tau).k == scan_dp_modified(y, delta, tau, D)


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
        assert lepski_direct(direct_obs(y, delta), 1.5) == scan_lepski(y, delta, 1.5)


def test_lepski_coincides_with_dp_in_direct_case():
    rng = np.random.default_rng(47)
    for _ in range(50):
        D = int(rng.integers(2, 129))
        delta = float(10.0 ** rng.uniform(-2, 0))
        fudge = float(rng.uniform(1.05, 3.0))
        y = rng.standard_normal(D)
        obs = direct_obs(y, delta)
        assert lepski_direct(obs, fudge) == dp_modified(obs, fudge, D).k


def test_balancing_equals_scan():
    rng = np.random.default_rng(53)
    for printed in (False, True):
        for _ in range(25):
            D = int(rng.integers(2, 20))
            p = build_synthetic(D, "poly", q=float(rng.uniform(0.5, 2.5)), truth_power=1.0)
            obs = observe(p, float(10.0 ** rng.uniform(-2, 0)), GAUSS, int(rng.integers(1e6)))
            got = balancing(p, obs, 2.0, D, printed_rhs=printed)
            want = scan_balancing(p.sigma, obs.y_obs, obs.delta, 2.0, D, printed_rhs=printed)
            assert got == want


def test_early_stop_equals_scan():
    rng = np.random.default_rng(59)
    for _ in range(40):
        D = int(rng.integers(2, 33))
        D_used = int(rng.integers(1, D + 1))
        delta = float(10.0 ** rng.uniform(-1.5, 0))
        y = rng.standard_normal(D)
        assert early_stop(direct_obs(y, delta), D_used) == scan_early_stop(y, delta, D_used)


def test_dp_at_m_never_exceeds_m_and_modified_dominates():
    rng = np.random.default_rng(61)
    y = rng.standard_normal(64)
    obs = direct_obs(y, 0.3)
    res = dp_modified(obs, 1.5, keep_trace=True)
    for m in range(1, 65):
        assert res.trace[m - 1] <= m
        assert res.k >= res.trace[m - 1]


def test_selectors_scale_invariant():
    rng = np.random.default_rng(67)
    for _ in range(20):
        p, obs = random_instance(rng, 48, delta=float(10.0 ** rng.uniform(-3, -1)))
        base = (
            dp_modified(obs, 1.5).k,
            lepski_direct(obs, 1.5),
            balancing(p, obs, 4.0),
            early_stop(obs),
            combined(obs, 1.5).k,
            oracle_weak(p, obs),
            oracle_strong(p, obs),
        )
        for c in (1e-3, 1e3):
            p2 = SpectralProblem(p.name, p.sigma, c * p.x_true, p.ill_posedness)
            y_clean = c * obs.y_clean
            obs2 = NoisyObservation(
                y_clean + (c * obs.delta) * obs.z, y_clean, obs.z, c * obs.delta, obs.seed
            )
            scaled = (
                dp_modified(obs2, 1.5).k,
                lepski_direct(obs2, 1.5),
                balancing(p2, obs2, 4.0),
                early_stop(obs2),
                combined(obs2, 1.5).k,
                oracle_weak(p2, obs2),
                oracle_strong(p2, obs2),
            )
            assert scaled == base


def test_single_search_equals_max_of_per_m_trace():
    # dp and com search once, at the largest threshold; the per-m trace searches
    # every m. Levels must agree exactly, also where the thresholds underflow
    # the rounding of the prefix sums (tiny delta), and whether or not the
    # observation's memoised sums were built by another rule first.
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
            "dp": lambda o: dp_modified(o, tau, m_cap).k,
            "dp_at_m": lambda o: dp_at_m(o, tau, m_cap),
            "lepski": lambda o: lepski_direct(o, kappa),
            "bal": lambda o: balancing(p, o, kappa, m_cap),
            "es": lambda o: early_stop(o, m_cap),
            "com": lambda o: combined(o, tau, tau_min, m_cap).k,
            "opt": lambda o: oracle_opt(p, o),
            "pr": lambda o: oracle_weak(p, o),
            "st": lambda o: oracle_strong(p, o),
        }
        obs = observe(p, delta, GAUSS, seed)
        trace = dp_modified(obs, tau, m_cap, keep_trace=True).trace
        assert dp_modified(obs, tau, m_cap).k == trace.max()
        com = combined(obs, tau, tau_min, m_cap)
        assert com.k == (trace[: com.m_max].max() if com.m_max else 0)
        for name, rule in rules.items():
            fresh = observe(p, delta, GAUSS, seed)  # this rule builds the sums it reads
            assert rule(fresh) == rule(obs), (i, name)


def test_rule_config_validation():
    cfg = RuleConfig()
    assert cfg.tau == 1.5 and cfg.kappa == 4.0
    for bad in (dict(tau=1.0), dict(kappa=0.9), dict(tau_min=0.5), dict(tau=1.2, tau_min=1.3)):
        with pytest.raises(ValueError):
            RuleConfig(**bad)
    with pytest.raises(ValueError):
        RuleConfig(m_cap=0)


def test_select_all_returns_every_rule():
    p = build_synthetic(32, "poly", q=2.0, truth_power=1.0)
    obs = observe(p, 0.05, GAUSS, 101)
    ks = select_all(p, obs, RuleConfig())
    assert set(ks) == {"dp", "bal", "es", "com", "opt", "pr", "st"}
    assert all(0 <= k <= 32 for k in ks.values())
    assert ks["pr"] <= ks["st"]
    assert ks["com"] <= ks["dp"]
    assert strong_error(p, obs, ks["opt"]) <= min(
        strong_error(p, obs, ks[r]) for r in ("dp", "bal", "es")
    )
    assert weak_error(p, obs, 0) == np.linalg.norm(obs.y_clean)
