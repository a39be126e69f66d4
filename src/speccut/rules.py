"""Truncation-level selection rules, oracle levels, and guarantee constants.

Every rule is a function from one noisy observation to its level: an integer k
in [0, D]. The residual-threshold (discrepancy) family compares tail sums of
squared data coefficients against tau^2 * m * delta^2; treating the
discretization level m as a second free parameter and maximizing the per-m
choice gives the modified rule `dp_modified`. The comparison rule `balancing`
accepts the smallest k whose estimate stays within a noise-sized band of every
later estimate; with unit singular values it is Lepski's rule. Oracle levels
balance realized variance against remaining bias and serve as benchmarks;
they need the unknown truth.

Every defining inequality is inclusive, minimal elements are taken from the
defining sets, and k = 0 is always admitted. All selectors are invariant under
rescaling the truth, y_obs and delta by a common positive factor. Overflow
follows one rule: an infinite value stands for a finite one only where it
exceeds everything it is compared with. The memoised sums the rules read are
formed with overflow warnings off (`problems.memoised`), and each reader
decides what an inf in them means. So a threshold factor whose square
overflows admits every level (the exact level 0), and a variance term that
overflows outweighs every finite bias (`det_strong`, the oracles' noise sums
and the error profiles); sums of data or of the bias that overflow raise
ValueError instead (`NoisyObservation.prefix_sq`, `balancing`,
`SpectralProblem.truth_tail` and `clean_tail`), and so does `balancing` where
its weights leave a threshold undetermined.

Implementation note: every rule and error profile is one kernel that works
along the last axis. It takes one observation row (D,) and returns an int, or
a block of R rows (R, D) (`NoisyObservation` holds either) and returns an
(R,) array whose entry i equals the rule on row i alone, bit for bit: the
cumulative sums run sequentially through each row, and maxima, minima and
comparisons are exact. Every rule and oracle takes the first k whose test
passes, with one search, `_first_level`: per row, the first k with
a[..., k] >= b[..., k], for a row and a block alike. Its `argmax` is exact
because some entry always passes (see there). With S_k the prefix sum of
squared data coefficients, the per-m discrepancy choice is the smallest k
with S_k >= T_m = S_m - tau^2 m delta^2. That choice is nondecreasing in the
threshold, since S is nondecreasing, so the largest per-m choice over m
equals the choice for max_m T_m exactly: `dp_modified` and `combined` take
the maximum threshold and search once, O(D). So does `balancing`, on the
prefix sums P of (y_obs/sigma)^2: the last m whose threshold g_m is the
largest has P_m >= g_m, so every level below the search fails at that m.
Problems and observations memoise the sums the rules share
(`SpectralProblem`, `NoisyObservation`), so one replicate builds four
cumulative sums for every problem (S, the prefix sum of (y_obs/sigma)^2 in
`balancing`, the noise sum, and the amplified-noise sum of `oracle_strong`
and the strong profile) and no suffix maximum; `dp_modified` and `combined` each
compute the thresholds they compare, both for every m in [1, D], so no array
a rule allocates has a size that depends on the data. Callers that evaluate
many replicates, `bench`'s replicate loop and the verify loops, pass row
blocks of at most 16,381 entries per (R, D) array (`montecarlo._row_blocks`).
The O(D^2) literal scans survive as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import SpectralProblem, _check_count, _check_parameter, _square
from .sequence_model import NoisyObservation, _cumsum0, _prefix_sq, strong_error_sq_profile


@dataclass(frozen=True)
class RuleConfig:
    """Fudge parameters shared by the selection rules."""

    tau: float = 1.5
    kappa: float = 4.0
    tau_min: float = 1.0

    def __post_init__(self):
        _check_parameter("tau", self.tau)
        _check_parameter("kappa", self.kappa)
        if not 1 <= self.tau_min < self.tau:
            raise ValueError(f"need 1 <= tau_min < tau, got tau_min={self.tau_min}")


@dataclass(frozen=True)
class TheoremConstants:
    """Constants appearing in the oracle-inequality guarantees.

    a_tau = ((tau+1)/(tau-1))^2 and b_tau = (3 tau + 1)^2 / 4 bound how far the
    selected level can overshoot respectively undershoot the weak oracle;
    c_tau_weak, c_tau_strong and c_tau_cor are the multiplicative constants of
    the image-space guarantee, the solution-space guarantee with saturation
    term, and the polynomial-spectrum solution-space guarantee.
    """

    tau: float
    a_tau: float
    b_tau: float
    c_tau_weak: float
    c_tau_strong: float
    c_tau_cor: float | None = None


def constants(
    tau: float,
    q: float | None = None,
    c_q: float | None = None,
    C_q: float | None = None,
) -> TheoremConstants:
    """Evaluate the guarantee constants for fudge parameter tau.

    The polynomial-spectrum constant c_tau_cor needs the decay exponent q and
    the spectrum envelope constants 0 < c_q <= C_q; it is left None otherwise.
    """
    _check_parameter("tau", tau)
    a_tau = ((tau + 1.0) / (tau - 1.0)) ** 2
    b_tau = (3.0 * tau + 1.0) ** 2 / 4.0
    c_weak = math.sqrt(6.0) * math.sqrt(1.5 * (a_tau + 1.0) + b_tau)
    c_strong = math.sqrt(2.0) * max(
        (tau + 1.0) / (tau - 1.0) + 1.0, 1.0 + math.sqrt(3.0 / 8.0) * (3.0 * tau + 1.0)
    )
    c_cor = None
    if q is not None:
        _check_parameter("q", q)  # the bound `build_synthetic` applies
        if c_q is None or C_q is None or not (0 < c_q <= C_q and math.isfinite(C_q)):
            raise ValueError("polynomial-spectrum constant needs finite 0 < c_q <= C_q")
        try:
            growth = 9.0 ** (1.0 + q)
        except OverflowError:
            raise ValueError(f"9^(1+q) overflows for decay exponent q={q}") from None
        c_cor = max(
            math.sqrt(2.0) * ((tau + 1.0) / (tau - 1.0) + 1.0),
            math.sqrt(2.0) + (2.0 * tau + 1.0) * math.sqrt(growth * (1.0 + q) * C_q / c_q * 4.0),
        )
    return TheoremConstants(tau, a_tau, b_tau, c_weak, c_strong, c_cor)


def _level(k):
    """A per-row result as an int for one row, as the (R,) array for a block."""
    return k if isinstance(k, np.ndarray) and k.ndim else int(k)


def _first_level(a: np.ndarray, b):
    """Per row, the first k with a[..., k] >= b[..., k]; b broadcasts against a.

    One `argmax` over the comparisons, for one row (an int) and a block (an
    (R,) array) alike. It is exact only if some entry of every row passes,
    since a row without one would give 0, and every caller ensures that:
    each threshold a residual rule or `balancing` searches for in its
    nondecreasing sums S (or P) is an S_m (P_m) minus a nonnegative amount,
    or -inf, so k = m passes; each oracle compares a sum of nonnegative terms
    with a tail sum, which is 0 at k = D.
    """
    return _level((a >= b).argmax(axis=-1))


def _thresholds(obs: NoisyObservation, tau: float) -> np.ndarray:
    """T with T[..., m-1] = S_m - tau^2 m delta^2 for every m in [1, D], per row."""
    m = np.arange(1.0, obs.size + 1)  # float counts: no int-to-float cast in the product
    return obs.prefix_sq[..., 1:] - _square(tau * obs.delta) * m


def _residual_level(obs: NoisyObservation, c: float, m: int):
    """Per row, the smallest k with sqrt(sum_{j=k+1..m} y_obs_j^2) <= c sqrt(m) delta.

    That is the smallest k with S_k >= S_m - (c delta)^2 m, for m in [1, D].
    """
    S = obs.prefix_sq
    return _first_level(S, S[..., m, None] - _square(c * obs.delta) * m)


def _max_level(S: np.ndarray, thresholds: np.ndarray, where=True):
    """Largest per-threshold level, max over T of the smallest k with S[k] >= T, per row.

    That level is nondecreasing in T for nondecreasing S, so the maximum is
    attained at the largest threshold: one search gives it exactly. Only the
    thresholds selected by `where` count; a row with none gets level 0.
    """
    return _first_level(S, thresholds.max(axis=-1, initial=-np.inf, where=where, keepdims=True))


def dp_at_m(obs: NoisyObservation, tau: float, m: int) -> int:
    """Discrepancy choice at discretization level m.

    Smallest k in [0, m] whose residual over the first m coefficients,
    sqrt(sum_{j=k+1..m} y_obs_j^2), is at most tau sqrt(m) delta.
    """
    _check_parameter("tau", tau)
    _check_count("m", m, 1, obs.size)
    return _residual_level(obs, tau, m)


def dp_modified(obs: NoisyObservation, tau: float) -> int:
    """Residual rule with the discretization level as a second free parameter.

    Returns the largest per-m discrepancy choice over m in [1, D], found with
    one search.
    """
    _check_parameter("tau", tau)
    return _max_level(obs.prefix_sq, _thresholds(obs, tau))


def balancing(obs: NoisyObservation, kappa: float) -> int:
    """Comparison rule in solution space with the root-mean variance threshold.

    Smallest k in [0, D] with ||x_m - x_k|| <= kappa delta sqrt(w_m),
    w_m = sum_{j<=m} sigma_j^(-2), for every m in (k, D]; with unit singular
    values this is Lepski's rule. With P the prefix sums of (y_obs/sigma)^2
    that is the smallest k with P_k >= g_m = P_m - (kappa delta)^2 w_m for all
    m > k: one search at M = max_m g_m, since the last m with g_m = M has
    P_m >= M, so every k below the search fails at that m. Raises ValueError
    when P overflows, or when w overflows while (kappa delta)^2 is finite or
    underflows while it overflows: no level can then be told apart. An
    overflowing (kappa delta)^2 with nonzero weights gives infinite
    thresholds, which is exact.
    """
    _check_parameter("kappa", kappa)
    return _balancing_level(obs.problem, obs.y_obs, obs.delta, kappa)[0]


def _balancing_level(p: SpectralProblem, y: np.ndarray, delta: float, kappa: float):
    """`balancing`'s level for data y of p, and the prefix sums P of (y/sigma)^2 it searched.

    It raises what `balancing` raises.
    """
    factor = _square(kappa * delta)
    w = p.inv_sigma_sq_cumsum  # nondecreasing: its ends bound every weight
    if (factor < math.inf and w[-1] == math.inf) or (factor == math.inf and w[0] == 0.0):
        raise ValueError(f"balancing weights overflow or underflow (delta={delta})")
    with np.errstate(over="ignore"):
        P = _prefix_sq(y / p.sigma)
        thresh = factor * w
    # P is nondecreasing, so its last entry bounds every compared sum
    if not np.isfinite(P[..., -1]).all():
        raise ValueError(f"balancing sums overflow (D={p.size}, delta={delta})")
    return _max_level(P, P[..., 1:] - thresh), P


def early_stop(obs: NoisyObservation, *, tau: float = 1.0) -> int:
    """Sequential residual rule at full resolution with threshold factor tau >= 1."""
    if not (math.isfinite(tau) and tau >= 1):
        raise ValueError(f"early-stop factor must be finite and at least 1, got {tau}")
    return _residual_level(obs, tau, obs.size)


def combined(obs: NoisyObservation, tau: float, tau_min: float = RuleConfig.tau_min) -> int:
    """Maximize the per-m discrepancy choice only up to a sequential stopping level.

    The stopping level m_max is `early_stop` with threshold factor tau_min;
    the level is the largest per-m choice over m in [1, m_max], or 0 when
    m_max = 0.
    """
    if not (math.isfinite(tau) and tau > tau_min):
        raise ValueError(f"need finite tau > tau_min, got tau={tau}, tau_min={tau_min}")
    m_max = np.asarray(early_stop(obs, tau=tau_min))
    # thresholds for every m, so their size never depends on the data; each row reads m <= m_max
    T = _thresholds(obs, tau)
    m = np.arange(1, obs.size + 1)
    return _max_level(obs.prefix_sq, T, where=m <= m_max[..., None])


def oracle_opt(obs: NoisyObservation) -> int:
    """Smallest minimizer of the realized solution-space error over all levels."""
    return _level(strong_error_sq_profile(obs).argmin(axis=-1))


def oracle_weak(obs: NoisyObservation) -> int:
    """Level where accumulated squared noise overtakes the remaining squared clean data."""
    return _first_level(obs.noise_prefix_sq, obs.problem.clean_tail)


def oracle_strong(obs: NoisyObservation) -> int:
    """Level where accumulated amplified noise overtakes the remaining squared truth."""
    return _first_level(obs.amplified_noise_sq, obs.problem.truth_tail)


def det_weak(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the weak oracle: expected variance delta^2 k."""
    _check_parameter("delta", delta)
    return _first_level(_cumsum0(np.full(p.size, _square(delta))), p.clean_tail)


def det_strong(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the strong oracle: expected variance delta^2 sum sigma^(-2)."""
    _check_parameter("delta", delta)
    with np.errstate(over="ignore"):  # an infinite variance term exceeds every finite bias
        return _first_level(_cumsum0((delta / p.sigma) ** 2), p.truth_tail)


def empirical_sup_deviation(z: np.ndarray, kappa_idx: int) -> float:
    """Largest absolute running mean of z_j^2 - 1 over windows m >= kappa_idx.

    This is the quantity whose reverse-martingale maximal bound controls how
    far squared residual sums can drift from their expectation. A block of
    rows (R, D) gives one deviation per row. Raises ValueError where a
    deviation is not finite.
    """
    z = np.asarray(z)
    if z.ndim not in (1, 2):
        raise ValueError(f"z must be one row (D,) or a block (R, D), got shape {z.shape}")
    D = z.shape[-1]
    _check_count("kappa_idx", kappa_idx, 1, D)
    means = np.multiply(z, z, dtype=float)  # float also for integer z
    means -= 1.0  # in place: one row (D = 10^4 in verify) can be wider than a row block
    np.cumsum(means, axis=-1, out=means)
    means /= np.arange(1, D + 1)
    tail = means[..., kappa_idx - 1 :]
    dev = np.max(np.abs(tail, out=tail), axis=-1)
    if not np.isfinite(dev).all():  # a NaN or inf entry reaches its row's deviation
        raise ValueError("running-mean deviation is not finite: z has NaN or huge entries")
    return dev if dev.ndim else float(dev)


RULE_NAMES = ("dp", "bal", "es", "com", "opt", "pr", "st")


def select_all(obs: NoisyObservation, cfg: RuleConfig) -> dict[str, int | np.ndarray]:
    """Run every benchmark rule on one observation; keys follow RULE_NAMES.

    For a block of rows each value is the (R,) array of per-row levels.
    """
    return {
        "dp": dp_modified(obs, cfg.tau),
        "bal": balancing(obs, cfg.kappa),
        "es": early_stop(obs),
        "com": combined(obs, cfg.tau, cfg.tau_min),
        "opt": oracle_opt(obs),
        "pr": oracle_weak(obs),
        "st": oracle_strong(obs),
    }
