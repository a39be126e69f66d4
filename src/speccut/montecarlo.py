"""Seeded replication harness: benchmark statistics and empirical guarantee checks.

`run_experiment` draws independent noise realizations for every (noise level,
replicate) pair, runs all selection rules on each, and records levels and
errors. Replicate seeds are derived from the base seed with a splittable seed
sequence keyed by (noise-level index, replicate index), so any subset of the
grid can be reproduced independently and reruns are bit-identical.

`summarize` reduces the records to the tabular statistics (sample mean, sample
standard deviation with the n-1 denominator, reported as 0 for a single
sample) plus boxplot statistics of the sequential rule's level per noise
level. `theorem_frequency`, `example1_frequency` and `prop2_check` measure how
often the probabilistic guarantees and the exponential-spectrum failure mode
actually occur. The last two evaluate their replicates on row blocks (see
`_row_blocks`); `run_experiment` evaluates one replicate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem
from .rules import (
    RULE_NAMES,
    RuleConfig,
    TheoremConstants,
    balancing,
    empirical_sup_deviation,
    select_all,
)
from .sequence_model import (
    NoiseModel,
    NoisyObservation,
    observe,
    sample_noise,
    strong_error_sq_profile,
    weak_error_sq_profile,
)


# Entries per (R, D) array of a row block: 2^18 float64 values, 2 MB.
_BLOCK_ELEMENTS = 1 << 18


def _row_blocks(total: int, width: int) -> list[tuple[int, int]]:
    """Consecutive row ranges [lo, hi) covering `total` rows of `width` entries.

    Each block holds at most `_BLOCK_ELEMENTS` entries, and at least one row.
    """
    rows = max(1, _BLOCK_ELEMENTS // width)
    return [(lo, min(lo + rows, total)) for lo in range(0, total, rows)]


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec
    deltas: tuple[float, ...] = (1e0, 1e-2, 1e-4, 1e-6)
    rules: RuleConfig = field(default_factory=RuleConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    replicates: int = 1000
    base_seed: int = 20240717

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        if not deltas or not all(math.isfinite(d) and d > 0 for d in deltas):
            raise ValueError("deltas must be nonempty, positive and finite")
        if len(set(deltas)) != len(deltas):
            # summarize groups records by delta, so a repeat would merge two rows
            raise ValueError(f"deltas must be distinct, got {deltas}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class ReplicateRecord:
    """All rule outcomes and error norms for one noise realization.

    Also carries the quantities the guarantee checks need: the best achievable
    errors over all levels and the truth mass between the weak and strong
    oracle levels (the saturation term).
    """

    delta: float
    seed: int
    k_by_rule: dict[str, int]
    e_strong_by_rule: dict[str, float]
    e_weak_by_rule: dict[str, float]
    min_e_strong: float
    min_e_weak: float
    sat_term: float


@dataclass(frozen=True)
class BoxplotStats:
    """Quartile summary with 1.5 IQR whiskers (linear-interpolation quantiles).

    `outliers` are the points beyond the whiskers.
    """

    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentSummary:
    deltas: tuple[float, ...]
    rules: tuple[str, ...]
    mean_error: dict[tuple[float, str], float]
    std_error: dict[tuple[float, str], float]
    mean_k: dict[tuple[float, str], float]
    std_k: dict[tuple[float, str], float]
    boxplot_k_es: dict[float, BoxplotStats]


def replicate_seed(base_seed: int, delta_index: int, replicate: int) -> int:
    """Derive the per-replicate noise seed from the base seed and grid position."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(delta_index, replicate))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def evaluate_replicate(
    p: SpectralProblem, obs: NoisyObservation, cfg: RuleConfig
) -> ReplicateRecord:
    """Run every rule on one observation and collect levels, errors, and oracles."""
    ks = select_all(p, obs, cfg)
    strong_sq = strong_error_sq_profile(p, obs)
    weak_sq = weak_error_sq_profile(p, obs)
    e_strong = {r: math.sqrt(strong_sq[k]) for r, k in ks.items()}
    e_weak = {r: math.sqrt(weak_sq[k]) for r, k in ks.items()}
    lo = max(ks["pr"], 1) - 1  # truth mass over levels pr..st, one-based
    sat = math.sqrt(float(np.sum(p.x_true[lo : ks["st"]] ** 2)))
    return ReplicateRecord(
        delta=obs.delta,
        seed=obs.seed,
        k_by_rule=ks,
        e_strong_by_rule=e_strong,
        e_weak_by_rule=e_weak,
        min_e_strong=math.sqrt(float(strong_sq.min())),
        min_e_weak=math.sqrt(float(weak_sq.min())),
        sat_term=sat,
    )


def run_experiment(cfg: ExperimentConfig) -> list[ReplicateRecord]:
    """All replicates of the full noise-level grid, in (delta, replicate) order."""
    p = make_problem(cfg.problem)
    records = []
    for di, delta in enumerate(cfg.deltas):
        for i in range(cfg.replicates):
            seed = replicate_seed(cfg.base_seed, di, i)
            obs = observe(p, delta, cfg.noise, seed)
            records.append(evaluate_replicate(p, obs, cfg.rules))
    return records


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, std


def boxplot_stats(samples: np.ndarray) -> BoxplotStats:
    """Quartiles, 1.5 IQR whiskers clipped to data points, and outliers."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    q25, median, q75 = (float(v) for v in np.percentile(x, [25.0, 50.0, 75.0]))
    iqr = q75 - q25
    lo_fence, hi_fence = q25 - 1.5 * iqr, q75 + 1.5 * iqr
    inside = x[(x >= lo_fence) & (x <= hi_fence)]
    outliers = np.sort(x[(x < lo_fence) | (x > hi_fence)])
    return BoxplotStats(
        median=median,
        q25=q25,
        q75=q75,
        whisker_lo=float(inside.min()),
        whisker_hi=float(inside.max()),
        outliers=tuple(float(v) for v in outliers),
    )


def summarize(records: list[ReplicateRecord]) -> ExperimentSummary:
    """Per-rule, per-noise-level statistics of solution-space errors and levels."""
    if not records:
        raise ValueError("no records to summarize")
    deltas = tuple(dict.fromkeys(r.delta for r in records))
    mean_error, std_error, mean_k, std_k = {}, {}, {}, {}
    boxes = {}
    for delta in deltas:
        group = [r for r in records if r.delta == delta]
        for rule in RULE_NAMES:
            errs = np.array([r.e_strong_by_rule[rule] for r in group])
            ks = np.array([r.k_by_rule[rule] for r in group], dtype=float)
            mean_error[(delta, rule)], std_error[(delta, rule)] = _mean_std(errs)
            mean_k[(delta, rule)], std_k[(delta, rule)] = _mean_std(ks)
        boxes[delta] = boxplot_stats(np.array([r.k_by_rule["es"] for r in group], dtype=float))
    return ExperimentSummary(deltas, RULE_NAMES, mean_error, std_error, mean_k, std_k, boxes)


def theorem_frequency(
    records: list[ReplicateRecord], which: str, consts: TheoremConstants
) -> float:
    """Fraction of records satisfying the requested oracle-inequality event.

    thm1: weak error of the selected level within c_tau_weak of the best weak
    error; thm2: strong error within c_tau_strong of best strong error plus
    the saturation term; cor1: strong error within c_tau_cor of best strong
    error.
    """
    if not records:
        raise ValueError("no records")
    if which == "thm1":
        hits = [
            r.e_weak_by_rule["dp"] <= consts.c_tau_weak * r.min_e_weak for r in records
        ]
    elif which == "thm2":
        hits = [
            r.e_strong_by_rule["dp"] <= consts.c_tau_strong * (r.min_e_strong + r.sat_term)
            for r in records
        ]
    elif which == "cor1":
        if consts.c_tau_cor is None:
            raise ValueError("cor1 frequency needs the polynomial-spectrum constant")
        hits = [
            r.e_strong_by_rule["dp"] <= consts.c_tau_cor * r.min_e_strong for r in records
        ]
    else:
        raise ValueError(f"unknown inequality tag {which!r}")
    return float(np.mean(hits))


def counterexample_tail_prob(kappa: float) -> float:
    """Two-sided standard Gaussian tail beyond e * kappa.

    Lower-bounds the failure probability of the solution-space comparison rule
    on the exponential spectrum with zero truth, for any fixed kappa.
    """
    return math.erfc(math.e * kappa / math.sqrt(2.0))


def example1_frequency(kappa: float, delta: float, replicates: int, seed: int) -> float:
    """Empirical probability that the balancing estimate has norm at least one.

    Exponential spectrum sigma_j^2 = e^(-j) with zero truth; the resolution is
    ceil(log delta^(-2)) plus a margin of 10 so the critical index is safely
    inside the horizon.
    """
    if not (math.isfinite(kappa) and kappa > 1):
        raise ValueError(f"kappa must be finite and exceed 1, got {kappa}")
    if not 0 < delta <= math.exp(-1.0):
        raise ValueError(f"delta must lie in (0, e^-1], got {delta}")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    D = math.ceil(math.log(delta**-2)) + 10
    p = build_synthetic(D, "exp")
    rng = np.random.default_rng(seed)
    z_all = rng.standard_normal((replicates, D))
    zero = np.zeros(D)
    for a in (z_all, zero):  # read-only rows go into the observations uncopied
        a.flags.writeable = False
    hits = 0
    for lo, hi in _row_blocks(replicates, D + 1):
        y = delta * z_all[lo:hi]
        y.flags.writeable = False
        obs = NoisyObservation(y, zero, z_all[lo:hi], delta, (seed,) * (hi - lo))
        k = balancing(p, obs, kappa)
        coeff_sq = (y / p.sigma) ** 2
        # rows that stop at one level sum the same prefix length, as each row alone would
        for level in np.unique(k):
            norm_sq = np.sum(coeff_sq[k == level, :level], axis=-1)
            hits += int(np.count_nonzero(norm_sq >= 1.0))
    return hits / replicates


def prop2_check(
    model: NoiseModel, D: int, kappa_idx: int, epsilon: float, replicates: int, seed: int
) -> tuple[float, float]:
    """Empirical maximal-deviation exceedance probability and its Markov-type bound.

    Returns (empirical probability that the running-mean deviation past
    kappa_idx exceeds epsilon, mean absolute deviation at kappa_idx divided by
    epsilon). The first should not exceed the second beyond sampling noise.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 1 <= kappa_idx <= D:
        raise ValueError(f"kappa_idx={kappa_idx} outside [1, {D}]")
    ss = np.random.SeedSequence(seed)
    seeds = ss.generate_state(replicates, dtype=np.uint64)
    exceed = 0
    abs_dev = np.empty(replicates)
    for lo, hi in _row_blocks(replicates, D):
        z = sample_noise(model, D, seeds[lo:hi])
        exceed += int(np.count_nonzero(empirical_sup_deviation(z, kappa_idx) > epsilon))
        abs_dev[lo:hi] = np.abs(np.mean(z[:, :kappa_idx] ** 2 - 1.0, axis=-1))
    return exceed / replicates, float(np.mean(abs_dev)) / epsilon
