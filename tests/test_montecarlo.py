import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from speccut import cli, montecarlo, problems, rules, sequence_model
from speccut.cli import check_moment_bounds
from speccut.montecarlo import (
    BoxplotStats,
    ExperimentConfig,
    ReplicateColumns,
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
    RULE_NAMES,
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


def columns_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(column, getattr(b, name)) for name, column in vars(a).items()
    )


def per_rule(column, i=0):
    """Slot i of a (rule, replicate) column, as a dict keyed by rule."""
    return dict(zip(RULE_NAMES, column[:, i].tolist()))


def evaluated(p, pairs):
    """Columns filled slot by slot from a per-replicate `observe` loop over (delta, seed) pairs."""
    cols = ReplicateColumns.empty(len(pairs))
    for i, (d, s) in enumerate(pairs):
        evaluate_replicate(p, observe(p, d, SMALL.noise, s), SMALL.rules, cols, i)
    return cols


def test_run_experiment_shape(small_records):
    assert len(small_records) == 2 * 25
    assert set(small_records.delta.tolist()) == {1e-1, 1e-2}
    assert RULE_NAMES == ("dp", "bal", "es", "com", "opt", "pr", "st")
    ks = small_records.k_by_rule
    assert ks.shape == (len(RULE_NAMES), 50) and np.all((0 <= ks) & (ks <= 48))
    for errs in (small_records.e_strong_by_rule, small_records.e_weak_by_rule):
        assert errs.shape == (len(RULE_NAMES), 50)
        assert np.all(errs >= 0) and np.all(np.isfinite(errs))


def test_run_experiment_deterministic(small_records):
    assert columns_equal(run_experiment(SMALL), small_records)


def test_columns_equal_a_per_replicate_loop(small_records):
    p = make_problem(SMALL.problem)
    seeds = [(d, replicate_seed(99, di, i)) for di, d in enumerate(SMALL.deltas) for i in range(25)]
    loop = evaluated(p, seeds)
    assert isinstance(small_records, ReplicateColumns)
    assert columns_equal(small_records, loop)
    assert small_records.delta.tolist() == [d for d, _ in seeds]
    assert small_records.seed.tolist() == [s for _, s in seeds]
    assert small_records.seed.dtype == np.uint64 and small_records.k_by_rule.dtype == np.int64
    # an int, slice or index array gives the columns of those replicates
    for i in (0, 7, -1, np.int64(3)):
        assert columns_equal(small_records[i], evaluated(p, [seeds[i]]))
    with pytest.raises(IndexError):
        small_records[len(loop)]
    assert columns_equal(small_records[20:30], evaluated(p, seeds[20:30]))
    assert columns_equal(small_records[[3, 0]], evaluated(p, [seeds[3], seeds[0]]))


def test_run_experiment_evaluates_each_slot_once_in_order(monkeypatch, small_records):
    slots = []

    def counted(p, obs, cfg, out, i):
        slots.append(i)
        evaluate_replicate(p, obs, cfg, out, i)

    monkeypatch.setattr(montecarlo, "evaluate_replicate", counted)
    assert columns_equal(run_experiment(SMALL), small_records)
    assert slots == list(range(len(SMALL.deltas) * SMALL.replicates))


def replicate_values(cols):
    """Per-replicate Python values of the columns; a per-rule field becomes a dict by rule."""
    rows = []
    for i in range(len(cols)):
        values = {name: column[..., i].tolist() for name, column in vars(cols).items()}
        rows.append(SimpleNamespace(**{
            name: dict(zip(RULE_NAMES, v)) if isinstance(v, list) else v
            for name, v in values.items()
        }))
    return rows


def test_reductions_agree_on_columns_and_lists(small_records):
    records = replicate_values(small_records)
    consts = constants(1.5, q=2.0, c_q=1.0, C_q=1.0)
    # groups of unequal size (25 and 5 replicates), and interleaved noise levels
    for subset in (slice(None), slice(30), slice(None, None, -3)):
        cols, rows = small_records[subset], records[subset]
        assert summarize(cols) == summarize_literal(rows)
        for which in ("thm1", "thm2", "cor1"):
            assert theorem_frequency(cols, which, consts) == frequency_literal(rows, which, consts)


def summarize_literal(records):
    """`summarize` written over per-replicate values, one list of values per group and rule."""
    deltas = tuple(dict.fromkeys(r.delta for r in records))
    stats = ({}, {}, {}, {})
    boxes = {}
    for delta in deltas:
        group = [r for r in records if r.delta == delta]
        for rule in RULE_NAMES:
            errs = np.array([r.e_strong_by_rule[rule] for r in group])
            ks = np.array([r.k_by_rule[rule] for r in group], dtype=float)
            for stat, value in zip(stats, (*mean_std(errs), *mean_std(ks))):
                stat[(delta, rule)] = value
        boxes[delta] = boxplot_stats(np.array([r.k_by_rule["es"] for r in group], dtype=float))
    return montecarlo.ExperimentSummary(deltas, RULE_NAMES, *stats, boxes)


def mean_std(values):
    return float(np.mean(values)), float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def frequency_literal(records, which, consts):
    """The guarantee events of `theorem_frequency`, one replicate at a time."""
    bound = {
        "thm1": lambda r: consts.c_tau_weak * r.min_e_weak,
        "thm2": lambda r: consts.c_tau_strong * (r.e_strong_by_rule["opt"] + r.sat_term),
        "cor1": lambda r: consts.c_tau_cor * r.e_strong_by_rule["opt"],
    }[which]
    error = "e_weak_by_rule" if which == "thm1" else "e_strong_by_rule"
    return float(np.mean([getattr(r, error)["dp"] <= bound(r) for r in records]))


def test_records_respect_exact_inequalities(small_records):
    k = dict(zip(RULE_NAMES, small_records.k_by_rule))
    e = dict(zip(RULE_NAMES, small_records.e_strong_by_rule))
    assert np.all(k["pr"] <= k["st"])
    assert np.all(k["com"] <= k["dp"])
    for rule in ("dp", "bal", "es"):
        assert np.all(e["opt"] <= e[rule])
    assert np.all(e["opt"] == small_records.e_strong_by_rule.min(axis=0))


def test_zero_truth_forces_zero_optimum():
    cfg = ExperimentConfig(
        ProblemSpec("synthetic-exp", 20, truth_power=1.0), deltas=(0.1,), replicates=10,
        base_seed=5,
    )
    # zero truth is not reachable through a ProblemSpec; evaluate replicates directly
    p = build_synthetic(20, "exp")
    for i in range(10):
        obs = observe(p, 0.1, NoiseModel(), replicate_seed(5, 0, i))
        rec = ReplicateColumns.empty(1)
        evaluate_replicate(p, obs, cfg.rules, rec, 0)
        assert per_rule(rec.k_by_rule)["opt"] == 0


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
        errs = small_records.e_strong_by_rule[RULE_NAMES.index("dp"), small_records.delta == delta]
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
    s = summarize(rec[[0, 0, 0]])
    assert s.mean_k[(0.01, "dp")] == 7.0
    assert s.std_k[(0.01, "dp")] == 0.0


def small_template(k: int, err: float) -> ReplicateColumns:
    rec = ReplicateColumns.empty(1)
    rec.delta[0], rec.seed[0], rec.k_by_rule[:, 0], rec.sat_term[0] = 0.01, 0, k, 0.0
    for column in (rec.e_strong_by_rule, rec.e_weak_by_rule, rec.min_e_weak):
        column[..., 0] = err
    return rec


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(ReplicateColumns.empty(0))


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
    records = ReplicateColumns.empty(1)
    evaluate_replicate(p, obs, RuleConfig(), records, 0)
    return records


def test_theorem_frequency_zero_noise_fixture():
    records = zero_noise_records()
    consts = constants(1.5, q=2.0, c_q=1.0, C_q=1.0)
    assert per_rule(records.k_by_rule)["dp"] == 30
    assert theorem_frequency(records, "thm1", consts) == 1.0
    assert theorem_frequency(records, "thm2", consts) == 1.0
    assert theorem_frequency(records, "cor1", consts) == 1.0


def test_theorem_frequency_errors(small_records):
    consts = constants(1.5)
    with pytest.raises(ValueError):
        theorem_frequency(ReplicateColumns.empty(0), "thm1", consts)
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


def moment_bounds_literal(replicates, seed):
    """The moment check's detail line, from whole (replicates, kappa) samples."""
    rng = np.random.default_rng(seed)
    details = []
    for kappa in (10, 100, 1000):
        z = rng.standard_normal((replicates, kappa))
        est = float(np.mean(np.abs(np.mean(z * z - 1.0, axis=1))))
        details.append(f"kappa={kappa}: {est:.4f} <= {math.sqrt(8.0 / kappa):.4f}")
    emp, bound = sup_deviation_literal(seed)
    details.append(f"sup-deviation: P={emp:.3f} <= bound {bound:.3f}")
    return "; ".join(details)


@functools.cache
def sup_deviation_literal(seed):
    """The moment check's maximal-inequality part; it does not depend on the replicate count."""
    return prop2_check_loop(NoiseModel(), 10000, 100, 1.0 / 3.0, 1000, seed)


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
    # 7-row blocks at kappa = 10; one-row blocks at kappa = 100, 1000 and in the sup-deviation part
    if rows_per_block:
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows_per_block * 10)
    for replicates in (1, 50, 61):
        assert check_moment_bounds(replicates).detail == (
            moment_bounds_literal(replicates, seed=8128)
        )


def test_cli_block_loops_do_not_depend_on_block_size(monkeypatch):
    # both checks draw (R, 256) blocks: one-row blocks, 7-row blocks, then the package's own
    log = {}
    for module, name in ((cli, "balancing"), (cli, "dp_modified"), (cli, "select_all")):
        def logged(*args, _fn=getattr(module, name), _name=name):
            out = _fn(*args)
            log.setdefault(_name, []).append(out)
            return out
        monkeypatch.setattr(module, name, logged)
    runs = []
    for rows in (1, 7, montecarlo._BLOCK_ELEMENTS // 257):
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows * 257)
        log.clear()
        details = (
            cli.check_lepski_dp_identity(instances=45).detail,
            cli.check_oracle_inequalities(replicates=45).detail,
        )
        assert len(log["dp_modified"]) == -(-45 // rows)  # one call per block
        levels = {name: np.concatenate(log[name]) for name in ("balancing", "dp_modified")}
        for rule in RULE_NAMES:
            levels[rule] = np.concatenate([ks[rule] for ks in log["select_all"]])
        runs.append((details, levels))
    for details, levels in runs[1:]:
        assert details == runs[0][0]
        assert all(np.array_equal(levels[key], runs[0][1][key]) for key in levels)
    assert runs[0][0] == (
        "45/45 exact agreements (D=256, delta=0.1, fudge=1.5)",
        "0/45 replicates violated an exact inequality",
    )


def test_verify_loops_hold_a_few_blocks_at_a_time():
    # numpy reports its array allocations to tracemalloc; 8 float64 blocks are 2 MiB
    bound = 8 * 8 * montecarlo._BLOCK_ELEMENTS
    for run, replicates in (
        (check_moment_bounds, 10000),  # 76 MiB per sample at kappa = 1000
        (lambda n: example1_frequency(1.05, 1e-3, n, 6174), 100000),  # 18 MiB of rows
    ):
        # in a fresh process the first call imports numpy.random and numpy.ma (about
        # 1.8 MB of module objects, not row blocks), so it runs once untraced
        run(10)
        tracemalloc.start()
        try:
            run(replicates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


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
            record = ReplicateColumns.empty(1)
            evaluate_replicate(p, obs, cfg, record, 0)
            assert per_rule(record.k_by_rule) == ks
            assert per_rule(record.e_strong_by_rule) == {
                r: math.sqrt(strong[k]) for r, k in ks.items()
            }
            assert per_rule(record.e_weak_by_rule) == {r: math.sqrt(weak[k]) for r, k in ks.items()}
            assert per_rule(record.e_strong_by_rule)["opt"] == math.sqrt(strong.min())
            assert record.min_e_weak[0] == math.sqrt(weak.min())
            lo = max(ks["pr"], 1) - 1
            assert record.sat_term[0] == math.sqrt(float(np.sum(p.x_true[lo : ks["st"]] ** 2)))
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
    out = ReplicateColumns.empty(1)
    # builds the problem's own sums, so that only the replicate's are counted below
    evaluate_replicate(p, observe(p, 1e-2, NoiseModel(), 4), RuleConfig(), out, 0)
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
    evaluate_replicate(p, obs, RuleConfig(), out, 0)
    # S, balancing's (y/sigma)^2 sum, the noise sum, the strong profile, oracle_strong's sum
    assert counts == {"cumsum": 5, "suffix_sum": 0, "maximum.accumulate": 0}
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
