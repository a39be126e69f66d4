import math

import numpy as np
import pytest

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
from speccut.problems import ProblemSpec, build_synthetic
from speccut.rules import RuleConfig, constants
from speccut.sequence_model import NoiseModel, NoisyObservation

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
    assert b.n_outside_box == 2  # 1 and 100 fall outside the quartile box
    with pytest.raises(ValueError):
        boxplot_stats(np.array([]))


def test_boxplot_degenerate_constant():
    b = boxplot_stats(np.full(9, 3.0))
    assert b == BoxplotStats(3.0, 3.0, 3.0, 3.0, 3.0, (), 0)


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


def test_summary_carries_frequencies(small_records):
    s = summarize(small_records, constants(1.5, q=2.0, c_q=1.0, C_q=1.0))
    assert set(s.frequencies) == {"thm1", "thm2", "cor1"}
    assert all(0.0 <= v <= 1.0 for v in s.frequencies.values())


def test_example1_counterexample_frequency():
    freq = example1_frequency(1.2, 1e-2, 2000, seed=404)
    assert freq >= 0.5 * counterexample_tail_prob(1.2)
    # a large fudge parameter suppresses the failure event entirely
    assert example1_frequency(50.0, 1e-2, 500, seed=404) == 0.0
    with pytest.raises(ValueError):
        example1_frequency(1.2, 0.5, 100, seed=1)  # delta above e^-1
    with pytest.raises(ValueError):
        example1_frequency(1.0, 1e-2, 100, seed=1)


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
