import dataclasses
import functools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
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
    theorem_max_ratio,
)
from speccut.problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem, suffix_sum
from speccut.rules import (
    RULE_NAMES,
    RuleConfig,
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


def evaluated(p, pairs, cfg=SMALL):
    """Columns filled slot by slot from a per-replicate `observe` loop over (delta, seed) pairs."""
    cols = ReplicateColumns.empty(len(pairs))
    for i, (d, s) in enumerate(pairs):
        evaluate_replicate(observe(p, d, cfg.noise, s), cfg.rules, cols, i)
        cols.seed[i] = s
    return cols


def grid_seeds(cfg):
    """(delta, seed) of every replicate of the grid, in (delta, replicate) order."""
    return [
        (d, replicate_seed(cfg.base_seed, di, r))
        for di, d in enumerate(cfg.deltas) for r in range(cfg.replicates)
    ]


# a dense kernel, an exponential spectrum and Rademacher noise, besides SMALL
BLOCKED_CASES = [
    SMALL,
    ExperimentConfig(ProblemSpec("heat", 64), deltas=(1e0, 1e-3, 1e-6), replicates=25, base_seed=3),
    ExperimentConfig(
        ProblemSpec("synthetic-exp", 40, truth_power=1.0), deltas=(1e-1, 1e-4), replicates=25,
        base_seed=4,
    ),
    ExperimentConfig(
        SMALL.problem, deltas=(1e-1, 1e-3), noise=NoiseModel("rademacher"), replicates=25,
        base_seed=5,
    ),
]


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


def test_columns_equal_a_per_replicate_loop(monkeypatch, small_records):
    p = make_problem(SMALL.problem)
    seeds = grid_seeds(SMALL)
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
    # one-row and 7-row blocks, and the package's own: 25 replicates cross block boundaries
    for cfg in BLOCKED_CASES:
        p = make_problem(cfg.problem)
        loop = evaluated(p, grid_seeds(cfg), cfg)
        for rows in (1, 7, None):
            if rows:
                monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows * (p.size + 1))
            else:
                monkeypatch.undo()
            cols = run_experiment(cfg)
            assert columns_equal(cols, loop), (cfg.problem, rows)
            assert cols.seed.tolist() == [s for _, s in grid_seeds(cfg)], (cfg.problem, rows)
    # D = 5000 and D = 4095 at the package's own size: blocks of 3 rows, then a last block of
    # one row; D = 8190: (1, D) blocks only. A block searches as one row does
    for D, blocks in ((5000, [(0, 3), (3, 6), (6, 7)]), (4095, [(0, 3), (3, 6), (6, 7)]),
                      (8190, [(r, r + 1) for r in range(7)])):
        cfg = ExperimentConfig(
            ProblemSpec("synthetic-poly", D), deltas=(1e0, 1e-6), replicates=7, base_seed=6
        )
        assert montecarlo._row_blocks(cfg.replicates, D + 1) == blocks
        p = make_problem(cfg.problem)
        assert columns_equal(run_experiment(cfg), evaluated(p, grid_seeds(cfg), cfg)), D


def test_run_experiment_evaluates_each_slot_once_in_order(monkeypatch, small_records):
    blocks = []

    def counted(obs, cfg, out, i):
        blocks.append(range(i, i + len(np.atleast_2d(obs.y_obs))))
        evaluate_replicate(obs, cfg, out, i)

    monkeypatch.setattr(montecarlo, "evaluate_replicate", counted)
    width = SMALL.problem.size + 1
    for rows, blocks_per_delta in ((1, 25), (7, 4), (montecarlo._BLOCK_ELEMENTS // width, 1)):
        monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", rows * width)
        blocks.clear()
        assert columns_equal(run_experiment(SMALL), small_records)
        # one call per block, and the blocks tile the slots in (delta, replicate) order
        assert len(blocks) == len(SMALL.deltas) * blocks_per_delta
        assert [slot for block in blocks for slot in block] == list(
            range(len(SMALL.deltas) * SMALL.replicates)
        )


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
            assert theorem_max_ratio(cols, which, consts) == max_ratio_literal(rows, which, consts)


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


def sides_literal(records, which, consts):
    """(lhs, c, rhs) of each replicate's guarantee event lhs <= c * rhs, one at a time."""
    error = "e_weak_by_rule" if which == "thm1" else "e_strong_by_rule"
    for r in records:
        c, rhs = {
            "thm1": (consts.c_tau_weak, r.min_e_weak),
            "thm2": (consts.c_tau_strong, r.e_strong_by_rule["opt"] + r.sat_term),
            "cor1": (consts.c_tau_cor, r.e_strong_by_rule["opt"]),
        }[which]
        yield getattr(r, error)["dp"], c, rhs


def frequency_literal(records, which, consts):
    """The guarantee events of `theorem_frequency`, one replicate at a time."""
    return float(np.mean([lhs <= c * rhs for lhs, c, rhs in sides_literal(records, which, consts)]))


def max_ratio_literal(records, which, consts):
    """The largest ratio of `theorem_max_ratio`, one replicate at a time."""
    return max(lhs / rhs for lhs, _, rhs in sides_literal(records, which, consts))


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
        evaluate_replicate(obs, cfg.rules, rec, 0)
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
    # counts that are not integers are rejected before the problem is built
    for field_name, bad in (("replicates", 2.5), ("replicates", 2.0), ("base_seed", 1.5),
                            ("base_seed", -1)):
        with pytest.raises(ValueError, match=f"^need an integer {field_name} >= "):
            ExperimentConfig(ProblemSpec("direct", 8), **{field_name: bad})
    cfg = ExperimentConfig(ProblemSpec("direct", 8), replicates=np.int64(2), base_seed=np.uint64(7))
    assert len(run_experiment(cfg)) == 2 * len(cfg.deltas)


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
    with pytest.raises(ValueError, match="^no samples$"):
        boxplot_stats(np.array([]))
    for bad in ([1.0, math.nan], [1.0, math.inf], [-math.inf, 2.0, 3.0]):
        with pytest.raises(ValueError, match="^samples must be finite$"):
            boxplot_stats(np.array(bad))


def test_quartiles_equal_numpy_percentile_bit_for_bit():
    rng = np.random.default_rng(2024)
    for size in (*range(1, 10), 500):
        for _ in range(40):
            ints = rng.integers(-3, 40, size).astype(float)
            floats = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9)
            for x in (ints, floats):
                expected = np.percentile(x, [25.0, 50.0, 75.0])
                assert np.array(montecarlo._quartiles(x)).tobytes() == expected.tobytes()


def test_bench_does_not_import_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma, about 1 MB of resident memory, on first use
    args = ["bench", "--problem", "synthetic-poly", "--size", "32", "--replicates", "3",
            "--out", str(tmp_path)]
    code = f"import sys; from speccut import cli; cli.main({args!r}); print('numpy.ma' in sys.modules)"
    src = str(Path(montecarlo.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_boxplot_degenerate_constant():
    b = boxplot_stats(np.full(9, 3.0))
    assert b == BoxplotStats(3.0, 3.0, 3.0, 3.0, 3.0, ())


def zero_noise_records(D=30, delta=1e-6, scale=10.0):
    # strong signal, vanishing noise: the residual rule runs to the full
    # resolution and every error is exactly zero, so each guarantee holds
    p = build_synthetic(D, "poly", q=2.0, truth=scale / np.arange(1.0, D + 1.0))
    obs = NoisyObservation(p, p.sigma * p.x_true, delta)
    records = ReplicateColumns.empty(1)
    evaluate_replicate(obs, RuleConfig(), records, 0)
    return records


def test_theorem_frequency_zero_noise_fixture():
    records = zero_noise_records()
    consts = constants(1.5, q=2.0, c_q=1.0, C_q=1.0)
    assert per_rule(records.k_by_rule)["dp"] == 30
    assert theorem_frequency(records, "thm1", consts) == 1.0
    assert theorem_frequency(records, "thm2", consts) == 1.0
    assert theorem_frequency(records, "cor1", consts) == 1.0
    # every error is 0, so the largest ratio is 0 for each, also where the best error is 0
    for which in ("thm1", "thm2", "cor1"):
        assert theorem_max_ratio(records, which, consts) == 0.0


def test_theorem_frequency_errors(small_records):
    consts = constants(1.5)
    with pytest.raises(ValueError):
        theorem_frequency(ReplicateColumns.empty(0), "thm1", consts)
    with pytest.raises(ValueError):
        theorem_frequency(small_records, "cor1", consts)  # needs c_tau_cor
    with pytest.raises(ValueError):
        theorem_frequency(small_records, "thm9", consts)
    with pytest.raises(ValueError):
        theorem_max_ratio(small_records, "cor1", consts)


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
    # resolutions past EXP_MAX_SIZE, down to where delta^-2 overflows and beyond
    for delta in (1e-153, 1e-160, 5e-324):
        with pytest.raises(ValueError, match=f"^delta must lie .* got {delta}$"):
            example1_frequency(1.2, delta, 100, seed=1)
    for name, replicates, seed in (("replicates", 2.5, 1), ("replicates", 0, 1),
                                   ("seed", 2, 1.5), ("seed", 2, -1)):
        with pytest.raises(ValueError, match=f"^need an integer {name} >= "):
            example1_frequency(1.2, 1e-2, replicates, seed)


def test_counterexample_tail_value():
    # erfc(e * 1.05 / sqrt(2)) ~ 4.3e-3
    assert counterexample_tail_prob(1.05) == pytest.approx(4.3e-3, rel=0.05)
    # a kappa the rule rejects has no tail bound: not 1.993 at -1, 1.0 at 0, or nan
    for kappa in (-1.0, 0.0, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^kappa must (be finite|exceed 1.0), got "):
            counterexample_tail_prob(kappa)


def test_bounded_reals_are_checked_by_one_rule():
    # tau and kappa must exceed 1, delta and epsilon 0, and each be finite: one check, one
    # message for every function that takes them
    p = build_synthetic(8, "poly", q=2.0, truth_power=1.0)
    obs = observe(p, 0.1, NoiseModel(), 1)
    takers = {
        "tau": (
            lambda x: RuleConfig(tau=x), constants, lambda x: rules.dp_at_m(obs, x, 4),
            lambda x: dp_modified(obs, x),
        ),
        "kappa": (
            lambda x: RuleConfig(kappa=x), lambda x: balancing(obs, x), counterexample_tail_prob,
            lambda x: example1_frequency(x, 1e-2, 10, 1),
        ),
        "delta": (
            lambda x: NoisyObservation(p, obs.y_obs, x), lambda x: observe(p, x, NoiseModel(), 1),
            lambda x: rules.det_weak(p, x), lambda x: rules.det_strong(p, x),
            lambda x: ExperimentConfig(ProblemSpec("direct", 4), deltas=(1e-2, x)),
        ),
        "epsilon": (lambda x: prop2_check(NoiseModel(), 8, 2, x, 10, 1),),
    }
    for name, calls in takers.items():
        bound = problems._LOWER_BOUNDS[name]
        for call in calls:
            for bad in (bound, bound - 0.5):
                with pytest.raises(ValueError, match=f"^{name} must exceed {bound}, got {bad}$"):
                    call(bad)
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad}$"):
                    call(bad)


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
    for replicates in (0, -3):  # not a division by zero or a negative dimension
        with pytest.raises(ValueError, match="^need an integer replicates >= 1, got "):
            prop2_check(NoiseModel(), 100, 10, 0.1, replicates, seed=1)
    # counts and seeds that are not integers are rejected before numpy sees them
    for name, D, kappa_idx, replicates, seed in (
        ("replicates", 50, 10, 5.5, 1), ("D", 50.5, 10, 5, 1), ("kappa_idx", 50, 10.5, 5, 1),
        ("seed", 50, 10, 5, 1.5), ("replicates", 50, 10, True, 1),
    ):
        with pytest.raises(ValueError, match=f"^need an integer {name} >= "):
            prop2_check(NoiseModel(), D, kappa_idx, 0.3, replicates, seed)


# --------------------------------------------------------------------------
# literal per-replicate loops: the row-block versions must count the same


def example1_frequency_loop(kappa, delta, replicates, seed):
    D = math.ceil(math.log(delta**-2)) + 10
    p = build_synthetic(D, "exp")
    z_all = np.random.default_rng(seed).standard_normal((replicates, D))
    hits = 0
    for z in z_all:
        obs = NoisyObservation(p, delta * z, delta)
        k = balancing(obs, kappa)
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
    # numpy reports its array allocations to tracemalloc; 8 float64 blocks are 1 MiB
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


def test_run_experiment_holds_a_few_blocks_at_a_time():
    columns = sum(column.nbytes for column in vars(ReplicateColumns.empty(600)).values())
    run_experiment(SMALL)  # imports and first-use caches, untraced
    # D = 5000 goes in blocks of 3 rows, D = 1000 in blocks of 16; all 600 replicates at
    # once would be 24 MB and 4.8 MB of rows
    for D in (5000, 1000):
        cfg = ExperimentConfig(
            ProblemSpec("synthetic-poly", D), deltas=(1e-2,), replicates=600, base_seed=1
        )
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the columns, plus the problem's D-sized arrays and one block's arrays
        assert peak <= columns + 12 * 8 * montecarlo._BLOCK_ELEMENTS, D


def test_row_block_arrays_stay_below_the_mmap_threshold():
    # glibc's malloc serves requests of up to 131,048 bytes from the heap (M_MMAP_THRESHOLD)
    for width in (25, 257, 700, 1024, 1601, 4096, 5001, 8191):
        blocks = montecarlo._row_blocks(1000, width)
        rows = blocks[0][1] - blocks[0][0]
        assert rows >= 1 and rows * width * 8 <= 131048, width
        assert [lo for lo, _ in blocks] == list(range(0, 1000, rows)) and blocks[-1][1] == 1000


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's malloc on Linux",
)
def test_bench_row_blocks_do_not_churn_the_heap(tmp_path):
    # a block array that glibc mmaps, or whose size varies with the data, can be given back
    # to the system after one block and refaulted by the next: 2^15-entry blocks cost 18-26
    # minor page faults per replicate more than one-row blocks, `combined`'s thresholds cut
    # at max(m_max) 9 at D = 4095. Shipped blocks may cost at most 2 more per replicate.
    run = (
        "import sys; from speccut import cli, montecarlo\n"
        "if sys.argv[1] == 'rows': montecarlo._BLOCK_ELEMENTS = 1\n"
        "sys.exit(cli.main(sys.argv[2:]))"
    )
    # glibc's default thresholds, which the block size is fitted to
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    replicates, deltas = 250, "1e0,1e-2,1e-4,1e-6"

    def minor_faults(blocks, size):
        cmd = [
            sys.executable, "-c", run, blocks, "bench", "--problem", "synthetic-poly",
            "--size", str(size), "--replicates", str(replicates), "--deltas", deltas,
            "--seed", "20240725", "--out", str(tmp_path / f"{blocks}-{size}"),
        ]
        devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=devnull)
        _, status, usage = os.wait4(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0, (blocks, size)
        return usage.ru_minflt

    for size in (5000, 4095):
        extra = minor_faults("shipped", size) - minor_faults("rows", size)
        assert extra <= 2 * 4 * replicates, (size, extra)


# --------------------------------------------------------------------------
# sums shared within a replicate: each built once, and equal to a fresh recomputation


def fresh(obs):
    """The same data in a new observation of a new problem: it shares no memoised sum with `obs`."""
    p = obs.problem
    twin = SpectralProblem(p.name, p.sigma, p.x_true)
    return NoisyObservation(twin, obs.y_obs.copy(), obs.delta)


def accumulate(terms):
    """Literal prefix sums along the last axis, with a leading zero."""
    return np.concatenate([np.zeros(terms.shape[:-1] + (1,)), np.cumsum(terms, axis=-1)], axis=-1)


def literal_levels_and_profiles(obs, cfg):
    """Every rule's level and both error profiles, recomputed for one observation row.

    The data-driven rules each run on their own fresh observation; the oracles
    and profiles are written out from their definitions.
    """
    p = obs.problem
    y_clean = p.sigma * p.x_true
    strong = accumulate((obs.y_obs / p.sigma - p.x_true) ** 2) + suffix_sum(p.x_true**2)
    noise = accumulate((obs.y_obs - y_clean) ** 2)
    weak = noise + suffix_sum(y_clean**2)
    amplified = accumulate(((obs.y_obs - y_clean) / p.sigma) ** 2)
    ks = {
        "dp": dp_modified(fresh(obs), cfg.tau),
        "bal": balancing(fresh(obs), cfg.kappa),
        "es": early_stop(fresh(obs)),
        "com": combined(fresh(obs), cfg.tau, cfg.tau_min),
        "opt": int(np.argmin(strong)),
        "pr": int(np.argmax(noise >= suffix_sum(y_clean**2))),
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
        singles = [observe(p, delta, NoiseModel(), seed) for seed in (7, 8, 9)]
        for obs in singles:
            ks, strong, weak = literal_levels_and_profiles(obs, cfg)
            record = ReplicateColumns.empty(1)
            evaluate_replicate(obs, cfg, record, 0)
            assert per_rule(record.k_by_rule) == ks
            assert per_rule(record.e_strong_by_rule) == {
                r: math.sqrt(strong[k]) for r, k in ks.items()
            }
            assert per_rule(record.e_weak_by_rule) == {r: math.sqrt(weak[k]) for r, k in ks.items()}
            assert per_rule(record.e_strong_by_rule)["opt"] == math.sqrt(strong.min())
            assert record.min_e_weak[0] == math.sqrt(weak.min())
            lo = max(ks["pr"], 1) - 1
            assert record.sat_term[0] == math.sqrt(float(np.sum(p.x_true[lo : ks["st"]] ** 2)))
        block_ks = select_all(rows, cfg)
        strong_block = strong_error_sq_profile(rows)
        weak_block = weak_error_sq_profile(rows)
        for r, obs in enumerate(singles):
            ks, strong, weak = literal_levels_and_profiles(obs, cfg)
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
    # S, balancing's (y/sigma)^2 sum, the noise sum and the amplified-noise sum, which the
    # strong oracle and the strong profile share, on every problem: balancing builds its
    # own sum also where every sigma is 1
    cases = [(build_synthetic(300, "poly", q=2.0, truth_power=1.0), 4),
             (make_problem(ProblemSpec("direct", 300)), 4)]
    out = ReplicateColumns.empty(1)
    # builds the problems' own sums, so that only the replicates' are counted below
    for p, _ in cases:
        evaluate_replicate(observe(p, 1e-2, NoiseModel(), 4), RuleConfig(), out, 0)
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
    monkeypatch.setattr(problems, "suffix_sum", suffix)
    monkeypatch.setattr(rules, "np", CountingNumpy(counts))
    for p, cumsums in cases:
        counts.update(dict.fromkeys(counts, 0))
        obs = observe(p, 1e-2, NoiseModel(), 5)
        evaluate_replicate(obs, RuleConfig(), out, 0)
        assert counts == {"cumsum": cumsums, "suffix_sum": 0, "maximum.accumulate": 0}, p.name
        # beside its fields, the observation holds only the sums sequence_model memoises on it
        memoised = set(vars(obs)) - {field.name for field in dataclasses.fields(obs)}
        assert memoised == {"prefix_sq", "noise_prefix_sq", "amplified_noise_sq", "strong_sq"}
    # c01 compares balancing with dp_modified on unit sigma: each builds one sum per block,
    # and y/1 is y, so both search the same bits; example1_frequency reads its levels and
    # norms from one sum per block
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 7 * 257)
    counts["cumsum"] = 0
    assert cli.check_lepski_dp_identity(instances=45).passed
    assert counts["cumsum"] == 2 * len(montecarlo._row_blocks(45, 257)) == 14
    monkeypatch.setattr(montecarlo, "_BLOCK_ELEMENTS", 7 * 21)
    counts["cumsum"] = 0
    example1_frequency(1.2, 1e-2, 50, seed=404)  # D = 20
    assert counts["cumsum"] == len(montecarlo._row_blocks(50, 21)) == 8


def test_memoised_sums_are_read_only():
    p = build_synthetic(120, "poly", q=2.0, truth_power=1.0)
    holders = [problems.build_phillips(16), p]
    for seed in (3, [3, 4, 5]):  # a row and a block
        obs = observe(p, 1e-2, NoiseModel(), seed)
        dp_modified(obs, 1.5)
        # the sums built for tau = 1.5 give the same levels for tau = 2.0 as fresh ones
        assert np.array_equal(combined(obs, 2.0, 1.2), combined(fresh(obs), 2.0, 1.2))
        assert np.array_equal(early_stop(obs, tau=1.2), early_stop(fresh(obs), tau=1.2))
        assert np.array_equal(dp_modified(obs, 2.0), dp_modified(fresh(obs), 2.0))
        assert np.array_equal(strong_error_sq_profile(obs), strong_error_sq_profile(fresh(obs)))
        holders.append(obs)
    # every memo of every holder, found by its type, so a memo added later is checked too
    for holder in holders:
        names = [name for name, attr in vars(type(holder)).items()
                 if isinstance(attr, functools.cached_property)]
        assert names, type(holder)
        for name in names:
            arr = getattr(holder, name)
            assert getattr(holder, name) is arr and not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[..., 0] = 1.0
    # and every memo is made by `problems.memoised`, which states the one memo rule
    for path in Path(problems.__file__).parent.glob("*.py"):
        assert "@cached_property" not in path.read_text(), path
