"""Seeded replication harness: benchmark statistics and empirical guarantee checks.

`run_experiment` draws independent noise realizations for every (noise level,
replicate) pair, runs all selection rules on each, and writes each
replicate's outcomes into its own slot of columns allocated once
(`ReplicateColumns`, the only form a replicate takes). Replicate
seeds are derived from the base seed with a splittable seed sequence keyed by
(noise-level index, replicate index), so any subset of the grid can be
reproduced independently and reruns are bit-identical. `summarize` reduces
the columns to the tabular statistics (sample mean, sample standard deviation
with the n-1 denominator, reported as 0 for a single sample) plus boxplot
statistics of the sequential rule's level per noise level.
`theorem_frequency`, `example1_frequency` and `prop2_check` measure how often
the probabilistic guarantees and the exponential-spectrum failure mode
actually occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .problems import (
    EXP_MAX_SIZE,
    ProblemSpec,
    _check_count,
    _check_parameter,
    build_synthetic,
    make_problem,
)
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


# Entries per (R, width) array of a row block: 16,381 doubles, 131,048 bytes. In a program
# that imports speccut, that is the largest request glibc's malloc serves from its heap under
# the default 128 KiB M_MMAP_THRESHOLD (mallopt(3)). `cli.main` frees a 4 MiB array first,
# which raises that threshold to 4 MiB, so under the command line the size rests on timing:
# perfbench's `mc-synthetic` ran faster with blocks of 24,576 to 49,152 entries in only 5 to
# 8 of 10 paired runs. Every array a block allocates has a size fixed by (R, D), never by the
# data. Under `cli.main`, which every command and benchmark run goes through, the trim
# threshold is raised too, so freed blocks stay resident and the next block reuses them:
# `check_oracle_inequalities` takes 0 minor faults per call. A program that only imports
# speccut keeps the 128 KiB trim threshold, and whether glibc gives a freed block back, to be
# refaulted by the next, depends on how many block arrays are alive at once (an observation
# memoises four sums): that check took about 22,400 minor faults per call there, and
# `run_experiment` on synthetic-poly with 250 replicates 9,150 at D=1024 but 252 at D=5000.
_BLOCK_ELEMENTS = 16381


def _row_blocks(total: int, width: int) -> list[tuple[int, int]]:
    """Consecutive row ranges [lo, hi) covering `total` rows of `width` entries.

    Each block holds at most `_BLOCK_ELEMENTS` entries, and at least one row.
    `run_experiment` (and so `bench`), `example1_frequency`, `prop2_check` and
    the verify loops take their replicates in these blocks: each row gets the
    bits it would get on its own, memory stays bounded for any replicate
    count, a block's arrays stay in cache, and Python's per-call cost is paid
    once per block.
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
        for delta in self.deltas:  # before `float`, which would turn a bool into 0.0 or 1.0
            _check_parameter("delta", delta)
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        # summarize groups replicates by delta, so a repeat would merge two rows
        if not deltas or len(set(deltas)) != len(deltas):
            raise ValueError(f"deltas must be nonempty and distinct, got {deltas}")
        _check_count("replicates", self.replicates, 1)
        # SeedSequence would reject a bad seed only after the problem is built
        _check_count("base_seed", self.base_seed, 0)


@dataclass(frozen=True, eq=False)
class ReplicateColumns:
    """Rule outcomes and error norms of replicates, one column slot per replicate.

    Each slot holds one noise realization's level and seed, every rule's level
    and its strong and weak errors, and what the guarantee checks need: the
    best achievable weak error over all levels and the truth mass between the
    weak and strong oracle levels (the saturation term). Per-rule fields are
    (rule, replicate) arrays in `RULE_NAMES` order, the others (replicate,)
    arrays. An int, slice, mask or index array gives the columns of the
    replicates it selects.
    """

    delta: np.ndarray
    seed: np.ndarray  # uint64
    k_by_rule: np.ndarray  # int64
    e_strong_by_rule: np.ndarray
    e_weak_by_rule: np.ndarray
    min_e_weak: np.ndarray
    sat_term: np.ndarray

    @classmethod
    def empty(cls, n: int) -> ReplicateColumns:
        """Unfilled columns for n replicates; `evaluate_replicate` fills all but the seeds."""
        rules = len(RULE_NAMES)
        return cls(
            np.empty(n), np.empty(n, np.uint64), np.empty((rules, n), np.int64),
            np.empty((rules, n)), np.empty((rules, n)), np.empty(n), np.empty(n),
        )

    def __len__(self) -> int:
        return self.delta.size

    def __getitem__(self, i) -> ReplicateColumns:
        i = [i] if isinstance(i, (int, np.integer)) else i  # one replicate keeps its axis
        return ReplicateColumns(*(getattr(self, f.name)[..., i] for f in fields(self)))


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
    obs: NoisyObservation, cfg: RuleConfig, out: ReplicateColumns, i: int
) -> None:
    """Run every rule on an observation row or block and write slots i, i+1, ...

    A block of R rows fills slots i .. i+R-1, row r into slot i+r, with the
    bits that row gets on its own: one `select_all` and one strong and one
    weak profile serve the whole block, and each row reads its own entries.
    It writes every column but `seed`, which the caller that drew the noise knows.
    """
    ks = select_all(obs, cfg)
    levels = np.array([ks[r] for r in RULE_NAMES]).reshape(len(RULE_NAMES), -1)  # (rule, R)
    strong_sq = strong_error_sq_profile(obs).reshape(-1, obs.size + 1)  # (R, D + 1)
    weak_sq = weak_error_sq_profile(obs).reshape(-1, obs.size + 1)
    rows = np.arange(levels.shape[1])
    slots = slice(i, i + rows.size)
    out.delta[slots] = obs.delta
    out.k_by_rule[:, slots] = levels
    out.e_strong_by_rule[:, slots] = np.sqrt(strong_sq[rows, levels])
    out.e_weak_by_rule[:, slots] = np.sqrt(weak_sq[rows, levels])
    out.min_e_weak[slots] = np.sqrt(weak_sq.min(axis=-1))
    # truth mass over levels pr..st, one-based; each row sums its own slice, as on its own
    pr, st = levels[RULE_NAMES.index("pr")].tolist(), levels[RULE_NAMES.index("st")].tolist()
    x_true = obs.problem.x_true
    out.sat_term[slots] = [
        math.sqrt(float(np.sum(x_true[max(a, 1) - 1 : b] ** 2))) for a, b in zip(pr, st)
    ]


def run_experiment(cfg: ExperimentConfig) -> ReplicateColumns:
    """All replicates of the full noise-level grid, in (delta, replicate) order.

    Each noise level's replicates are drawn and evaluated one row block at a
    time (`_row_blocks`); row r of a block is replicate r's own draw.
    """
    p = make_problem(cfg.problem)
    n = cfg.replicates
    out = ReplicateColumns.empty(len(cfg.deltas) * n)
    for di, delta in enumerate(cfg.deltas):
        for lo, hi in _row_blocks(n, p.size + 1):
            seeds = [replicate_seed(cfg.base_seed, di, r) for r in range(lo, hi)]
            obs = observe(p, delta, cfg.noise, seeds)
            evaluate_replicate(obs, cfg.rules, out, di * n + lo)
            out.seed[di * n + lo : di * n + hi] = seeds
    return out


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return mean, std


def _quantiles(x: np.ndarray, qs: tuple[float, ...]) -> tuple[float, ...]:
    """`np.percentile(x, 100 * q)` for each q in `qs`, of a nonempty float array without NaN.

    Bit for bit numpy's linear method on a sorted copy s: quantile q sits at
    v = (n - 1) q; with k = floor(v), a = s[k], b = s[k + 1] and t = v - k it is
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 1/2. For v >= n - 1 numpy
    takes k = -1, so that a = b = s[-1]; so does this. Its median (q = 0.5) can
    differ from `np.median`, which averages the middle pair, in the last bit.
    Bench's boxplot and verify's `check_cor1_efficiency` take their quantiles
    here: unlike `np.percentile`, this does not import `numpy.ma` (about 1 MB
    of resident memory).
    """
    s = np.sort(x).tolist()
    n = len(s)
    out = []
    for q in qs:
        v = (n - 1) * q
        k = -1 if v >= n - 1 else math.floor(v)
        t = v - k
        a, b = s[k], s[-1 if k == -1 else k + 1]
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return tuple(out)


def boxplot_stats(samples: np.ndarray) -> BoxplotStats:
    """Quartiles, 1.5 IQR whiskers clipped to data points, and outliers."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("no samples")
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    q25, median, q75 = _quantiles(x, (0.25, 0.5, 0.75))
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


def summarize(cols: ReplicateColumns) -> ExperimentSummary:
    """Per-rule, per-noise-level statistics of solution-space errors and levels."""
    if not len(cols):
        raise ValueError("no replicates to summarize")
    deltas = tuple(dict.fromkeys(cols.delta.tolist()))
    mean_error, std_error, mean_k, std_k, boxes = {}, {}, {}, {}, {}
    for delta in deltas:
        group = cols.delta == delta
        errs = cols.e_strong_by_rule[:, group]
        ks = cols.k_by_rule[:, group].astype(float)
        for rule, err_row, k_row in zip(RULE_NAMES, errs, ks):
            mean_error[(delta, rule)], std_error[(delta, rule)] = _mean_std(err_row)
            mean_k[(delta, rule)], std_k[(delta, rule)] = _mean_std(k_row)
        boxes[delta] = boxplot_stats(ks[RULE_NAMES.index("es")])
    return ExperimentSummary(deltas, mean_error, std_error, mean_k, std_k, boxes)


def _theorem_sides(
    cols: ReplicateColumns, which: str, consts: TheoremConstants
) -> tuple[np.ndarray, float, np.ndarray]:
    """(lhs, c, rhs) of the requested oracle inequality lhs <= c * rhs, per replicate.

    thm1: weak error of the selected level within c_tau_weak of the best weak
    error; thm2: strong error within c_tau_strong of best strong error plus
    the saturation term; cor1: strong error within c_tau_cor of best strong
    error.
    """
    if not len(cols):
        raise ValueError("no replicates")
    dp, opt = RULE_NAMES.index("dp"), RULE_NAMES.index("opt")
    strong, weak = cols.e_strong_by_rule[dp], cols.e_weak_by_rule[dp]
    min_strong = cols.e_strong_by_rule[opt]  # the opt level attains the least strong error
    if which == "thm1":
        return weak, consts.c_tau_weak, cols.min_e_weak
    if which == "thm2":
        return strong, consts.c_tau_strong, min_strong + cols.sat_term
    if which == "cor1":
        if consts.c_tau_cor is None:
            raise ValueError("cor1 frequency needs the polynomial-spectrum constant")
        return strong, consts.c_tau_cor, min_strong
    raise ValueError(f"unknown inequality tag {which!r}")


def theorem_frequency(cols: ReplicateColumns, which: str, consts: TheoremConstants) -> float:
    """Fraction of replicates satisfying the requested oracle inequality (`_theorem_sides`)."""
    lhs, c, rhs = _theorem_sides(cols, which, consts)
    return float(np.mean(lhs <= c * rhs))


def theorem_max_ratio(cols: ReplicateColumns, which: str, consts: TheoremConstants) -> float:
    """Largest lhs / rhs of the requested oracle inequality: at most c where it always holds.

    A replicate with lhs = 0 holds for every constant and counts 0; one with
    lhs > 0 = rhs holds for none and counts inf.
    """
    lhs, _, rhs = _theorem_sides(cols, which, consts)
    with np.errstate(divide="ignore"):
        return float(np.divide(lhs, rhs, out=np.zeros_like(lhs), where=lhs > 0).max())


def counterexample_tail_prob(kappa: float) -> float:
    """Two-sided standard Gaussian tail beyond e * kappa.

    Lower-bounds the failure probability of the solution-space comparison rule
    on the exponential spectrum with zero truth, for any fixed kappa > 1.
    """
    _check_parameter("kappa", kappa)
    return math.erfc(math.e * kappa / math.sqrt(2.0))


def example1_frequency(kappa: float, delta: float, replicates: int, seed: int) -> float:
    """Empirical probability that the balancing estimate has norm at least one.

    Exponential spectrum sigma_j^2 = e^(-j) with zero truth; the resolution is
    ceil(log delta^(-2)) plus a margin of 10 so the critical index is safely
    inside the horizon. The spectrum needs D <= EXP_MAX_SIZE, which bounds
    delta below by about e^(-349.5), or 1.6e-152.
    """
    _check_parameter("kappa", kappa)
    # log(delta^-2) as -2 log(delta): delta^-2 itself overflows below about 1.5e-154
    D = math.ceil(-2.0 * math.log(delta)) + 10 if 0 < delta <= math.exp(-1.0) else 0
    if not 0 < D <= EXP_MAX_SIZE:
        raise ValueError(
            f"delta must lie in (0, e^-1] with ceil(log delta^-2) + 10 <= {EXP_MAX_SIZE}, "
            f"got {delta}"
        )
    _check_count("replicates", replicates, 1)
    _check_count("seed", seed, 0)
    p = build_synthetic(D, "exp")
    rng = np.random.default_rng(seed)
    hits = 0
    # consecutive draws continue one stream: the blocks tile one (replicates, D) sample
    for lo, hi in _row_blocks(replicates, D + 1):
        y = rng.standard_normal((hi - lo, D))
        y *= delta  # the truth is zero: y is the observation
        y.flags.writeable = False  # nobody else holds it: freeze, do not copy
        obs = NoisyObservation(p, y, delta)
        # the level and each row's squared estimate norm at it read one memoised sum
        k = balancing(obs, kappa)
        hits += int(np.count_nonzero(np.take_along_axis(obs.estimate_sq, k[:, None], -1) >= 1.0))
        del y, obs  # release this block before drawing the next
    return hits / replicates


def prop2_check(
    model: NoiseModel, D: int, kappa_idx: int, epsilon: float, replicates: int, seed: int
) -> tuple[float, float]:
    """Empirical maximal-deviation exceedance probability and its Markov-type bound.

    Returns (empirical probability that the running-mean deviation past
    kappa_idx exceeds epsilon, mean absolute deviation at kappa_idx divided by
    epsilon). The first should not exceed the second beyond sampling noise.
    """
    _check_parameter("epsilon", epsilon)
    _check_count("D", D, 1)
    _check_count("kappa_idx", kappa_idx, 1, D)
    _check_count("replicates", replicates, 1)
    _check_count("seed", seed, 0)
    ss = np.random.SeedSequence(seed)
    seeds = ss.generate_state(replicates, dtype=np.uint64)
    exceed = 0
    abs_dev = np.empty(replicates)
    for lo, hi in _row_blocks(replicates, D):
        z = sample_noise(model, D, seeds[lo:hi])
        exceed += int(np.count_nonzero(empirical_sup_deviation(z, kappa_idx) > epsilon))
        abs_dev[lo:hi] = np.abs(np.mean(z[:, :kappa_idx] ** 2 - 1.0, axis=-1))
    return exceed / replicates, float(np.mean(abs_dev)) / epsilon
