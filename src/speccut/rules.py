"""Truncation-level selection rules, oracle levels, and guarantee constants.

All rules pick an integer level k in [0, D] from one noisy observation. The
residual-threshold (discrepancy) family compares tail sums of squared data
coefficients against tau^2 * m * delta^2; treating the discretization level m
as a second free parameter and maximizing the per-m choice gives the modified
rule `dp_modified`. The comparison-based family (`lepski_direct`, `balancing`)
accepts the smallest k whose estimate stays within a noise-sized band of every
later estimate. Oracle levels balance realized variance against remaining bias
and serve as benchmarks; they need the unknown truth.

Every defining inequality is inclusive, minimal elements are taken from the
defining sets, and k = 0 is always admitted. All selectors are invariant under
rescaling (y_obs, y_clean, delta) by a common positive factor.

Implementation note: with S_k the prefix sum of squared data coefficients, the
per-m discrepancy choice is the smallest k with S_k >= T_m = S_m - tau^2 m
delta^2, found by binary search in the nondecreasing S. That search is
nondecreasing in the threshold, so the largest per-m choice over m equals the
choice for max_m T_m exactly: `dp_modified` and `combined` build the D
thresholds, take their maximum and search once, O(D) plus one O(log D)
search, with no floating-point operation changed. The full per-m trace (D
searches) is built only on request. The comparison rules use suffix maxima of
S_m minus its threshold, O(D). Each observation memoises S
(`NoisyObservation.prefix_sq`) and the tail sums of its clean data
(`clean_tail`); each problem memoises the cumulative sum of sigma^(-2)
(`SpectralProblem.inv_sigma_sq_cumsum`) and the tail sums of its squared truth
(`truth_tail`). All rules of one replicate share these, so the only other
cumulative sum a replicate builds is the prefix sum of (y_obs/sigma)^2 in
`balancing`. The O(D^2) literal scans survive as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import SpectralProblem, suffix_sum
from .sequence_model import NoisyObservation, _prefix_sq, strong_error_sq_profile


@dataclass(frozen=True)
class RuleConfig:
    """Fudge parameters shared by the selection rules."""

    tau: float = 1.5
    kappa: float = 4.0
    tau_min: float = 1.0
    m_cap: int | None = None  # None: use the full resolution D

    def __post_init__(self):
        if self.tau <= 1:
            raise ValueError(f"tau must exceed 1, got {self.tau}")
        if self.kappa <= 1:
            raise ValueError(f"kappa must exceed 1, got {self.kappa}")
        if not 1 <= self.tau_min < self.tau:
            raise ValueError(f"need 1 <= tau_min < tau, got tau_min={self.tau_min}")
        if self.m_cap is not None and self.m_cap < 1:
            raise ValueError(f"m_cap must be positive, got {self.m_cap}")


@dataclass(frozen=True)
class SelectionResult:
    """Chosen level for a named rule plus optional per-m diagnostics."""

    rule: str
    k: int
    trace: np.ndarray | None = None  # trace[m-1] = per-m choice, when recorded
    m_max: int | None = None


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
    if tau <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    a_tau = ((tau + 1.0) / (tau - 1.0)) ** 2
    b_tau = (3.0 * tau + 1.0) ** 2 / 4.0
    c_weak = math.sqrt(6.0) * math.sqrt(1.5 * (a_tau + 1.0) + b_tau)
    c_strong = math.sqrt(2.0) * max(
        (tau + 1.0) / (tau - 1.0) + 1.0, 1.0 + math.sqrt(3.0 / 8.0) * (3.0 * tau + 1.0)
    )
    c_cor = None
    if q is not None:
        if c_q is None or C_q is None or not 0 < c_q <= C_q:
            raise ValueError("polynomial-spectrum constant needs 0 < c_q <= C_q")
        c_cor = max(
            math.sqrt(2.0) * ((tau + 1.0) / (tau - 1.0) + 1.0),
            math.sqrt(2.0)
            + (2.0 * tau + 1.0) * math.sqrt(9.0 ** (1.0 + q) * (1.0 + q) * C_q / c_q * 4.0),
        )
    return TheoremConstants(tau, a_tau, b_tau, c_weak, c_strong, c_cor)


def _min_levels(S: np.ndarray, thresholds: np.ndarray | float):
    """For each threshold T, the smallest k with S[k] >= T (S nondecreasing)."""
    return np.searchsorted(S, thresholds, side="left")


def _dp_thresholds(obs: NoisyObservation, tau: float, m_cap: int) -> np.ndarray:
    """T with T[m-1] = S_m - tau^2 m delta^2 for m in [1, m_cap]."""
    S = obs.prefix_sq
    return S[1 : m_cap + 1] - (tau * obs.delta) ** 2 * np.arange(1, m_cap + 1)


def _max_level(S: np.ndarray, thresholds: np.ndarray) -> int:
    """Largest per-threshold level, max over T of the smallest k with S[k] >= T.

    `_min_levels` is nondecreasing in T for nondecreasing S, so the maximum is
    attained at the largest threshold: one search gives it exactly.
    """
    return int(_min_levels(S, thresholds.max()))


def dp_at_m(obs: NoisyObservation, tau: float, m: int) -> int:
    """Discrepancy choice at discretization level m.

    Smallest k in [0, m] whose residual over the first m coefficients,
    sqrt(sum_{j=k+1..m} y_obs_j^2), is at most tau sqrt(m) delta.
    """
    if tau <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    if not 1 <= m <= obs.size:
        raise ValueError(f"m={m} outside [1, {obs.size}]")
    S = obs.prefix_sq
    return int(_min_levels(S, S[m] - (tau * obs.delta) ** 2 * m))


def dp_modified(
    obs: NoisyObservation, tau: float, m_cap: int | None = None, keep_trace: bool = False
) -> SelectionResult:
    """Residual rule with the discretization level as a second free parameter.

    Returns the largest per-m discrepancy choice over m in [1, m_cap], found
    with one search; the per-m trace is built and attached only when
    keep_trace is set.
    """
    if tau <= 1:
        raise ValueError(f"tau must exceed 1, got {tau}")
    m_cap = obs.size if m_cap is None else m_cap
    if not 1 <= m_cap <= obs.size:
        raise ValueError(f"m_cap={m_cap} outside [1, {obs.size}]")
    thresholds = _dp_thresholds(obs, tau, m_cap)
    if keep_trace:
        trace = _min_levels(obs.prefix_sq, thresholds)
        return SelectionResult("dp", int(trace.max()), trace)
    return SelectionResult("dp", _max_level(obs.prefix_sq, thresholds))


def lepski_direct(obs: NoisyObservation, kappa: float, sigma: np.ndarray | None = None) -> int:
    """Comparison rule for the direct (unit singular value) regime.

    Smallest k such that every later partial-sum estimate stays within
    kappa sqrt(m) delta of the level-k one. Pass the problem's singular values
    to assert the regime; non-unit values are rejected.
    """
    if kappa <= 1:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    if sigma is not None and not np.all(sigma == 1.0):
        raise ValueError("direct-regime rule called with non-unit singular values")
    S = obs.prefix_sq
    D = obs.size
    gaps = S[1:] - (kappa * obs.delta) ** 2 * np.arange(1, D + 1)
    # suffix[k] = max over m > k of gaps; k admissible iff suffix[k] <= S[k]
    suffix = np.empty(D + 1)
    suffix[D] = -np.inf
    np.maximum.accumulate(gaps[::-1], out=suffix[:D][::-1])
    return int(np.argmax(suffix <= S))


def balancing(
    p: SpectralProblem,
    obs: NoisyObservation,
    kappa: float,
    m_cap: int | None = None,
    printed_rhs: bool = False,
) -> int:
    """Comparison rule in solution space with the root-mean variance threshold.

    Smallest k in [0, m_cap] with ||x_m - x_k|| <= kappa delta
    sqrt(sum_{j<=m} sigma_j^(-2)) for every m in (k, m_cap]. `printed_rhs`
    switches to the dimensionally odd threshold kappa delta^2 sum sigma_j^(-2)
    for comparison runs.
    """
    if kappa <= 1:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    D = obs.size
    m_cap = D if m_cap is None else m_cap
    if not 1 <= m_cap <= D:
        raise ValueError(f"m_cap={m_cap} outside [1, {D}]")
    P = _prefix_sq(obs.y_obs / p.sigma)
    w = p.inv_sigma_sq_cumsum[:m_cap]
    if printed_rhs:
        thresh = (kappa * obs.delta**2 * w) ** 2
    else:
        thresh = (kappa * obs.delta) ** 2 * w
    gaps = P[1 : m_cap + 1] - thresh
    suffix = np.empty(m_cap + 1)
    suffix[m_cap] = -np.inf
    np.maximum.accumulate(gaps[::-1], out=suffix[:m_cap][::-1])
    return int(np.argmax(suffix <= P[: m_cap + 1]))


def early_stop(obs: NoisyObservation, D_used: int | None = None) -> int:
    """Sequential residual rule at fixed resolution with the threshold factor at one."""
    D_used = obs.size if D_used is None else D_used
    if not 1 <= D_used <= obs.size:
        raise ValueError(f"D_used={D_used} outside [1, {obs.size}]")
    S = obs.prefix_sq
    return int(_min_levels(S, S[D_used] - obs.delta**2 * D_used))


def combined(
    obs: NoisyObservation, tau: float, tau_min: float = 1.0, D_used: int | None = None
) -> SelectionResult:
    """Maximize the per-m discrepancy choice only up to a sequential stopping level.

    m_max is the early-stop level with threshold factor tau_min >= 1; the
    returned k is the largest per-m choice over m in [1, m_max], or 0 when
    m_max = 0.
    """
    if tau <= tau_min:
        raise ValueError(f"need tau > tau_min, got tau={tau}, tau_min={tau_min}")
    if tau_min < 1:
        raise ValueError(f"tau_min must be at least 1, got {tau_min}")
    D_used = obs.size if D_used is None else D_used
    if not 1 <= D_used <= obs.size:
        raise ValueError(f"D_used={D_used} outside [1, {obs.size}]")
    S = obs.prefix_sq
    m_max = int(_min_levels(S, S[D_used] - (tau_min * obs.delta) ** 2 * D_used))
    if m_max == 0:
        return SelectionResult("com", 0, None, 0)
    return SelectionResult("com", _max_level(S, _dp_thresholds(obs, tau, m_max)), None, m_max)


def oracle_opt(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Smallest minimizer of the realized solution-space error over all levels."""
    return int(np.argmin(strong_error_sq_profile(p, obs)))


def _balanced_level(acc: np.ndarray, rest: np.ndarray) -> int:
    """Smallest k with the sum of acc[:k] >= rest[k], the remaining term (`suffix_sum`)."""
    prefix = np.concatenate([[0.0], np.cumsum(acc)])
    return int(np.argmax(prefix >= rest))


def oracle_weak(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Level where accumulated squared noise overtakes the remaining squared clean data."""
    noise = (obs.y_obs - obs.y_clean) ** 2
    return _balanced_level(noise, obs.clean_tail)


def oracle_strong(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Level where accumulated amplified noise overtakes the remaining squared truth."""
    noise = ((obs.y_obs - obs.y_clean) / p.sigma) ** 2
    return _balanced_level(noise, p.truth_tail)


def det_weak(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the weak oracle: expected variance delta^2 k."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    var = np.full(p.size, delta**2)
    return _balanced_level(var, suffix_sum((p.sigma * p.x_true) ** 2))


def det_strong(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the strong oracle: expected variance delta^2 sum sigma^(-2)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    var = delta**2 * p.sigma ** (-2.0)
    return _balanced_level(var, p.truth_tail)


def empirical_sup_deviation(z: np.ndarray, kappa_idx: int) -> float:
    """Largest absolute running mean of z_j^2 - 1 over windows m >= kappa_idx.

    This is the quantity whose reverse-martingale maximal bound controls how
    far squared residual sums can drift from their expectation.
    """
    D = z.size
    if not 1 <= kappa_idx <= D:
        raise ValueError(f"kappa_idx={kappa_idx} outside [1, {D}]")
    means = np.cumsum(z * z - 1.0) / np.arange(1, D + 1)
    return float(np.max(np.abs(means[kappa_idx - 1 :])))


RULE_NAMES = ("dp", "bal", "es", "com", "opt", "pr", "st")


def select_all(
    p: SpectralProblem, obs: NoisyObservation, cfg: RuleConfig
) -> dict[str, int]:
    """Run every benchmark rule on one observation; keys follow RULE_NAMES."""
    m_cap = p.size if cfg.m_cap is None else min(cfg.m_cap, p.size)
    return {
        "dp": dp_modified(obs, cfg.tau, m_cap).k,
        "bal": balancing(p, obs, cfg.kappa, m_cap),
        "es": early_stop(obs, m_cap),
        "com": combined(obs, cfg.tau, cfg.tau_min, m_cap).k,
        "opt": oracle_opt(p, obs),
        "pr": oracle_weak(p, obs),
        "st": oracle_strong(p, obs),
    }
