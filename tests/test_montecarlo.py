import math

import numpy as np
import pytest

from speccut import montecarlo, problems, rules, sequence_model
from speccut.montecarlo import (
    BoxplotStats,
    ExperimentConfig,
    ReplicateRecord,
    boxplot_stats,
    counterexample_tail_prob,
    evaluate_replicate,
    example1_frequency,
    prop2_check,
    replicate_seed,
    run_experiment,
    summarize,
    theorem_frequency,
)
from speccut.problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem, suffix_sum
from speccut.rules import (
    RuleConfig,
    _dp_thresholds,
    balancing,
    combined,
    constants,
    dp_modified,
    early_stop,
    empirical_sup_deviation,
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

SMALL = ExperimentConfig(
    ProblemSpec("synthetic-poly", 48, q=2.0, truth_power=1.0),
    deltas=(1e-1, 1e-2),
    replicates=25,
    base_seed=99,
)


@pytest.fixture(scope="module")
def small_records():
    return run_experiment(SMALL)


def test_run_experiment_shape(small_records):
    assert len(small_records) == 2 * 25
    deltas = {r.delta for r in small_records}
    assert deltas == {1e-1, 1e-2}
    for r in small_records:
        assert set(r.k_by_rule) == {"dp", "bal", "es", "com", "opt", "pr", "st"}
        assert all(0 <= k <= 48 for k in r.k_by_rule.values())
        assert all(v >= 0 and math.isfinite(v) for v in r.e_strong_by_rule.values())
        assert all(v >= 0 and math.isfinite(v) for v in r.e_weak_by_rule.values())


def test_run_experiment_deterministic(small_records):
    again = run_experiment(SMALL)
    assert len(again) == len(small_records)
    for a, b in zip(small_records, again):
        assert a == b


def test_records_respect_exact_inequalities(small_records):
    for r in small_records:
        assert r.k_by_rule["pr"] <= r.k_by_rule["st"]
        assert r.k_by_rule["com"] <= r.k_by_rule["dp"]
        for rule in ("dp", "bal", "es"):
            assert r.e_strong_by_rule["opt"] <= r.e_strong_by_rule[rule]
        assert r.min_e_strong <= r.e_strong_by_rule["opt"] * (1 + 1e-12)


def test_zero_truth_forces_zero_optimum():
    cfg = ExperimentConfig(
        ProblemSpec("synthetic-exp", 20, truth_power=1.0), deltas=(0.1,), replicates=10,
        base_seed=5,
    )
    # zero truth is not reachable through a ProblemSpec; build records directly
    p = build_synthetic(20, "exp")
    from speccut.sequence_model import observe

    for i in range(10):
        obs = observe(p, 0.1, NoiseModel(), replicate_seed(5, 0, i))
        rec = evaluate_replicate(p, obs, cfg.rules)
        assert rec.k_by_rule["opt"] == 0


def test_replicate_seed_splits():
    s1 = replicate_seed(123, 0, 0)
    assert s1 == replicate_seed(123, 0, 0)
    assert len({replicate_seed(123, di, i) for di in range(3) for i in range(50)}) == 150


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ProblemSpec("direct", 8), deltas=())
    with pytest.raises(ValueError):
        ExperimentConfig(ProblemSpec("direct", 8), deltas=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(ProblemSpec("direct", 8), replicates=0)
    with pytest.raises(ValueError, match="distinct"):
        ExperimentConfig(ProblemSpec("direct", 8), deltas=(1e-2, 1e-1, 0.01))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(ProblemSpec("direct", 8), deltas=(1e-2, bad))


def test_summarize_statistics(small_records):
    s = summarize(small_records)
    assert s.deltas == (1e-1, 1e-2)
    for delta in s.deltas:
        group = [r for r in small_records if r.delta == delta]
        errs = [r.e_strong_by_rule["dp"] for r in group]
        assert s.mean_error[(delta, "dp")] == pytest.approx(np.mean(errs), rel=1e-12)
        assert s.std_error[(delta, "dp")] == pytest.approx(np.std(errs, ddof=1), rel=1e-12)
        assert 0 <= s.mean_k[(delta, "dp")] <= 48
        box = s.boxplot_k_es[delta]
        assert box.q25 <= box.median <= box.q75
        assert box.whisker_lo <= box.q25 and box.whisker_hi >= box.q75


def test_summarize_single_record(small_records):
    s = summarize(small_records[:1])
    assert s.std_error[(1e-1, "dp")] == 0.0
    assert s.std_k[(1e-1, "dp")] == 0.0


def test_summarize_constant_samples():
    rec = small_template(k=7, err=0.5)
    s = summarize([rec, rec, rec])
    assert s.mean_k[(0.01, "dp")] == 7.0
    assert s.std_k[(0.01, "dp")] == 0.0


def small_template(k: int, err: float) -> ReplicateRecord:
    ks = {r: k for r in ("dp", "bal", "es", "com", "opt", "pr", "st")}
    es = {r: err for r in ks}
    return ReplicateRecord(0.01, 0, ks, es, dict(es), err, err, 0.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_boxplot_convention():
    b = boxplot_stats(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert b.q25 == 2.0 and b.median == 3.0 and b.q75 == 4.0
    assert b.whisker_lo == 1.0 and b.whisker_hi == 4.0
    assert b.outliers == (100.0,)
    with pytest.raises(ValueError):
        boxplot_stats(np.array([]))


def test_boxplot_degenerate_constant():
    b = boxplot_stats(np.full(9, 3.0))
    assert b == BoxplotStats(3.0, 3.0, 3.0, 3.0, 3.0, ())


def zero_noise_records(D=30, delta=1e-6, scale=10.0):
    # strong signal, vanishing noise: the residual rule runs to the full
    # resolution and every error is exactly zero, so each guarantee holds
    p = build_synthetic(D, "poly", q=2.0, truth=scale / np.arange(1.0, D + 1.0))
    y = p.sigma * p.x_true
    obs = NoisyObservation(y, y, np.zeros(D), delta, 0)
    return [evaluate_replicate(p, obs, RuleConfig())]


def test_theorem_frequency_zero_noise_fixture():
    records = zero_noise_records()
    consts = constants(1.5, q=2.0, c_q=1.0, C_q=1.0)
    assert records[0].k_by_rule["dp"] == 30
    assert theorem_frequency(records, "thm1", consts) == 1.0
    assert theorem_frequency(records, "thm2", consts) == 1.0
    assert theorem_frequency(records, "cor1", consts) == 1.0


def test_theorem_frequency_errors(small_records):
    consts = constants(1.5)
    with pytest.raises(ValueError):
        theorem_frequency([], "thm1", consts)
    with pytest.raises(ValueError):
        theorem_frequency(small_records, "cor1", consts)  # needs c_tau_cor
    with pytest.raises(ValueError):
        theorem_frequency(small_records, "thm9", consts)


def test_mean_optimal_error_improves_with_noise_level():
    cfg = ExperimentConfig(
        ProblemSpec("phillips", 256),
        deltas=(1e0, 1e-2, 1e-4, 1e-6),
        replicates=30,
        base_seed=2718,
    )
    s = summarize(run_experiment(cfg))
    means = [s.mean_error[(d, "opt")] for d in cfg.deltas]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_theorem_frequency_moderate_run():
    cfg = ExperimentConfig(
        ProblemSpec("synthetic-poly", 256, q=2.0, truth_power=1.0),
        deltas=(1e-4,),
        replicates=50,
        base_seed=17,
    )
    records = run_experiment(cfg)
    freq = theorem_frequency(records, "thm1", constants(1.5))
    assert freq >= 0.95


def test_example1_counterexample_frequency():
    freq = example1_frequency(1.2, 1e-2, 2000, seed=404)
    assert freq >= 0.5 * counterexample_tail_prob(1.2)
    # a large fudge parameter suppresses the failure event entirely
    assert example1_frequency(50.0, 1e-2, 500, seed=404) == 0.0
    with pytest.raises(ValueError):
        example1_frequency(1.2, 0.5, 100, seed=1)  # delta above e^-1
    with pytest.raises(ValueError):
        example1_frequency(1.0, 1e-2, 100, seed=1)
    for kappa, delta in ((math.nan, 1e-2), (math.inf, 1e-2), (1.2, math.nan)):
        with pytest.raises(ValueError):
            example1_frequency(kappa, delta, 100, seed=1)


def test_counterexample_tail_value():
    # erfc(e * 1.05 / sqrt(2)) ~ 4.3e-3
    assert counterexample_tail_prob(1.05) == pytest.approx(4.3e-3, rel=0.05)


def test_prop2_check_gaussian():
    emp, bound = prop2_check(NoiseModel(), 2000, 100, 1.0 / 3.0, 300, seed=2)
    assert emp <= bound
    assert 0.2 <= bound <= 0.5  # 3 E|mean_100| with E ~ sqrt(4/(pi 100))


def test_prop2_check_edge_cases():
    emp, bound = prop2_check(NoiseModel(), 500, 10, 1e6, 50, seed=3)
    assert emp == 0.0
    emp, _ = prop2_check(NoiseModel("rademacher"), 500, 10, 0.5, 50, seed=4)
    assert emp == 0.0  # squared coordinates are identically one
    with pytest.raises(ValueError):
        prop2_check(NoiseModel(), 100, 200, 0.1, 10, seed=5)
    with pytest.raises(ValueError):
        prop2_check(NoiseModel(), 100, 10, -0.1, 10, seed=5)
    for epsilon in (math.nan, math.inf):
        with pytest.raises(ValueError):
            prop2_check(NoiseModel(), 100, 10, epsilon, 10, seed=5)


# --------------------------------------------------------------------------
# literal per-replicate loops: the row-block versions must count the same


def example1_frequency_loop(kappa, delta, replicates, seed):
    D = math.ceil(math.log(delta**-2)) + 10
    p = build_synthetic(D, "exp")
    z_all = np.random.default_rng(seed).standard_normal((replicates, D))
    hits = 0
    for z in z_all:
        obs = NoisyObservation(delta * z, np.zeros(D), z, delta, seed)
        k = balancing(p, obs, kappa)
        hits += float(np.sum((obs.y_obs[:k] / p.sigma[:k]) ** 2)) >= 1.0
    return hits / replicates


def prop2_check_loop(model, D, kappa_idx, epsilon, replicates, seed):
    seeds = np.random.SeedSequence(seed).generate_state(replicates, dtype=np.uint64)
    exceed = 0
    abs_dev = np.empty(replicates)
    for i in range(replicates):
        z = sample_noise(model, D, int(seeds[i]))
        exceed += empirical_sup_deviation(z, kappa_idx) > epsilon
        abs_dev[i] = abs(float(np.mean(z[:kappa_idx] ** 2 - 1.0)))
    return exceed / replicates, float(np.mean(abs_dev)) / epsilon


@pytest.mark.parametrize("rows_per_block", [None, 7])  # None: the package's own block size
def test_row_block_loops_equal_per_replicate_loops(monkeypatch, rows_per_block):
    # 7-row blocks put block boundaries inside every run; 50 and 61 are not multiples of 7
    for seed in (6174, 1, 404):
        for kappa, delta, replicates in ((1.05, 1e-3, 61), (1.2, 1e-2, 50), (3.0, 0.3, 50)):
            D = math.ceil(math.log(delta**-2)) + 10
            if rows_per_block:
                monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows_per_block * (D + 1))
            assert example1_frequency(kappa, delta, replicates, seed) == (
                example1_frequency_loop(kappa, delta, replicates, seed)
            )
        for model, D, kappa_idx, epsilon in (
            (NoiseModel(), 200, 10, 0.3), (NoiseModel("rademacher"), 50, 50, 0.1),
            (NoiseModel(), 120, 1, 1.0),
        ):
            if rows_per_block:
                monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows_per_block * D)
            assert prop2_check(model, D, kappa_idx, epsilon, 61, seed) == (
                prop2_check_loop(model, D, kappa_idx, epsilon, 61, seed)
            )


# --------------------------------------------------------------------------
# sums shared within a replicate: each built once, and equal to a fresh recomputation


def fresh(obs):
    """The same data in a new observation that shares no memoised sum with `obs`."""
    return NoisyObservation(obs.y_obs.copy(), obs.y_clean.copy(), obs.z.copy(), obs.delta, obs.seed)


def accumulate(terms):
    """Literal prefix sums along the last axis, with a leading zero."""
    return np.concatenate([np.zeros(terms.shape[:-1] + (1,)), np.cumsum(terms, axis=-1)], axis=-1)


def literal_levels_and_profiles(p, obs, cfg):
    """Every rule's level and both error profiles, recomputed for one observation row.

    The data-driven rules each run on their own fresh observation; the oracles
    and profiles are written out from their definitions.
    """
    strong = accumulate((obs.y_obs / p.sigma - p.x_true) ** 2) + suffix_sum(p.x_true**2)
    noise = accumulate((obs.y_obs - obs.y_clean) ** 2)
    weak = noise + suffix_sum(obs.y_clean**2)
    amplified = accumulate(((obs.y_obs - obs.y_clean) / p.sigma) ** 2)
    ks = {
        "dp": dp_modified(fresh(obs), cfg.tau),
        "bal": balancing(p, fresh(obs), cfg.kappa),
        "es": early_stop(fresh(obs)),
        "com": combined(fresh(obs), cfg.tau, cfg.tau_min),
        "opt": int(np.argmin(strong)),
        "pr": int(np.argmax(noise >= suffix_sum(obs.y_clean**2))),
        "st": int(np.argmax(amplified >= suffix_sum(p.x_true**2))),
    }
    return ks, strong, weak


SHARED_SUM_CASES = [
    (make_problem(ProblemSpec("synthetic-poly", 200, q=2.0, truth_power=1.0)), RuleConfig()),
    (make_problem(ProblemSpec("phillips", 64)), RuleConfig()),
    (make_problem(ProblemSpec("phillips", 64)), RuleConfig(tau=2.5, kappa=1.5, tau_min=1.3)),
]


@pytest.mark.parametrize("p, cfg", SHARED_SUM_CASES)
def test_shared_sums_equal_a_literal_recomputation(p, cfg):
    for delta in (1e-1, 1e-4, 1e-8):
        rows = observe(p, delta, NoiseModel(), [7, 8, 9])
        # clean data that is not the problem's own: the observation sums its own tail
        y_clean = 0.5 * p.y_clean + 1e-3
        direct = NoisyObservation(y_clean + delta * rows.z[0], y_clean, rows.z[0], delta, 0)
        singles = [observe(p, delta, NoiseModel(), seed) for seed in (7, 8, 9)] + [direct]
        for obs in singles:
            ks, strong, weak = literal_levels_and_profiles(p, obs, cfg)
            record = evaluate_replicate(p, obs, cfg)
            assert record.k_by_rule == ks
            assert record.e_strong_by_rule == {r: math.sqrt(strong[k]) for r, k in ks.items()}
            assert record.e_weak_by_rule == {r: math.sqrt(weak[k]) for r, k in ks.items()}
            assert record.min_e_strong == math.sqrt(strong.min())
            assert record.min_e_weak == math.sqrt(weak.min())
            lo = max(ks["pr"], 1) - 1
            assert record.sat_term == math.sqrt(float(np.sum(p.x_true[lo : ks["st"]] ** 2)))
        block_ks = select_all(p, rows, cfg)
        strong_block = strong_error_sq_profile(p, rows)
        weak_block = weak_error_sq_profile(p, rows)
        for r, obs in enumerate(singles[:3]):
            ks, strong, weak = literal_levels_and_profiles(p, obs, cfg)
            assert {rule: int(k[r]) for rule, k in block_ks.items()} == ks
            assert np.array_equal(strong_block[r], strong)
            assert np.array_equal(weak_block[r], weak)


class CountingNumpy:
    """numpy, except that calls of `maximum.accumulate` are counted."""

    def __init__(self, counts):
        def accumulate(*args, **kwargs):
            counts["maximum.accumulate"] += 1
            return np.maximum.accumulate(*args, **kwargs)

        self.maximum = type("CountingMaximum", (), {"accumulate": staticmethod(accumulate)})

    def __getattr__(self, name):
        return getattr(np, name)


def test_one_replicate_builds_each_shared_sum_once(monkeypatch):
    p = build_synthetic(300, "poly", q=2.0, truth_power=1.0)
    evaluate_replicate(p, observe(p, 1e-2, NoiseModel(), 4), RuleConfig())  # the problem's sums
    obs = observe(p, 1e-2, NoiseModel(), 5)
    counts = {"cumsum": 0, "suffix_sum": 0, "maximum.accumulate": 0}

    def counted(tag, fn):
        def wrapper(*args, **kwargs):
            counts[tag] += 1
            return fn(*args, **kwargs)

        return wrapper

    cumsum0 = counted("cumsum", sequence_model._cumsum0)
    suffix = counted("suffix_sum", problems.suffix_sum)
    for module in (sequence_model, rules):
        monkeypatch.setattr(module, "_cumsum0", cumsum0)
    for module in (problems, sequence_model):
        monkeypatch.setattr(module, "suffix_sum", suffix)
    monkeypatch.setattr(rules, "np", CountingNumpy(counts))
    evaluate_replicate(p, obs, RuleConfig())
    # S, balancing's (y/sigma)^2 sum, the noise sum, the strong profile, oracle_strong's sum
    assert counts == {"cumsum": 5, "suffix_sum": 0, "maximum.accumulate": 1}
    # dp_modified and combined share one threshold vector
    assert [key for key in obs._memo if key != "strong"] == [("dp_thresholds", 1.5)]


def test_memoised_sums_are_keyed_and_read_only():
    p = build_synthetic(120, "poly", q=2.0, truth_power=1.0)
    for seed in (3, [3, 4, 5]):
        obs = observe(p, 1e-2, NoiseModel(), seed)
        dp_modified(obs, 1.5)
        # the thresholds memoised for tau = 1.5 are not read for tau = 2.0
        assert np.array_equal(combined(obs, 2.0, 1.2), combined(fresh(obs), 2.0, 1.2))
        assert np.array_equal(early_stop(obs, tau=1.2), early_stop(fresh(obs), tau=1.2))
        assert np.array_equal(dp_modified(obs, 2.0), dp_modified(fresh(obs), 2.0))
        strong = strong_error_sq_profile(p, obs)
        assert strong_error_sq_profile(p, obs) is strong
        # keyed by the problem's identity: an equal-shaped problem gets its own profile
        scaled = SpectralProblem(p.name, p.sigma, 2.0 * p.x_true)
        assert np.array_equal(
            strong_error_sq_profile(scaled, obs), strong_error_sq_profile(scaled, fresh(obs))
        )
        memoised = (
            obs.prefix_sq, obs.noise_prefix_sq, obs.clean_tail, strong,
            _dp_thresholds(obs, 1.5), _dp_thresholds(obs, 2.0), p.y_clean,
        )
        for arr in memoised:
            with pytest.raises(ValueError):
                arr[..., 0] = 1.0
