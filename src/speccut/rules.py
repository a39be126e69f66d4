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

Implementation note: every rule and error profile is one kernel that works
along the last axis. It takes one observation row (D,) and returns an int, or
a block of R rows (R, D) (`NoisyObservation` holds either) and returns an
(R,) array whose entry i equals the rule on row i alone, bit for bit: the
cumulative sums run sequentially through each row, and maxima, minima and
comparisons are exact. With S_k the prefix sum of squared data coefficients,
the per-m discrepancy choice is the smallest k with S_k >= T_m = S_m - tau^2 m
delta^2. `_min_levels` finds it in two ways. One row keeps a binary search
(`np.searchsorted`, side "left"). A block counts, per row, the entries of S
below the row's threshold; since S is nondecreasing those are exactly the
entries before the first S_k >= T, so the count is the same k. The search is
nondecreasing in the threshold, so the largest per-m choice over m equals the
choice for max_m T_m exactly: `dp_modified` and `combined` take the maximum
threshold and search once, O(D). Entry m of every row is read as `S.T[m]`:
a float for one row (where `S[..., m]` would make a slower 0-d array), the
(R,) column of a block. The full per-m trace (D searches, one row only) is
built only on request. The comparison rules (`lepski_direct`,
`balancing`) share one suffix-maximum comparison, O(D). Each problem memoises
the cumulative sum of sigma^(-2) (`SpectralProblem.inv_sigma_sq_cumsum`), the
tail sums of its squared truth (`truth_tail`), its clean data and their tail
sums (`y_clean`, `clean_tail`, which `observe` hands to every observation).
Each observation memoises S (`NoisyObservation.prefix_sq`), the prefix sums of
its squared noise (`noise_prefix_sq`, read by `oracle_weak` and the image-space
profile), the strong error profile (read by `oracle_opt` and the error
records) and, per tau, the threshold vector S_m - tau^2 m delta^2 for every m
(`_dp_thresholds`; `dp_modified` and `combined` slice their own prefix). One
replicate therefore builds five cumulative sums (S, the prefix sum of
(y_obs/sigma)^2 in `balancing`, the noise sum, the strong profile, and the
amplified-noise sum in `oracle_strong`) and one suffix maximum (`balancing`).
Callers that evaluate many replicates pass blocks of at most 2^18 entries
(2 MB of float64) per (R, D) array, so memory stays bounded for any replicate
count (`montecarlo._row_blocks`). The O(D^2) literal scans survive as test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import SpectralProblem
from .sequence_model import (
    NoisyObservation,
    _check_delta,
    _cumsum0,
    _prefix_sq,
    strong_error_sq_profile,
)


def _check_fudge(name: str, value: float):
    if not (math.isfinite(value) and value > 1):
        raise ValueError(f"{name} must be finite and exceed 1, got {value}")


@dataclass(frozen=True)
class RuleConfig:
    """Fudge parameters shared by the selection rules."""

    tau: float = 1.5
    kappa: float = 4.0
    tau_min: float = 1.0
    m_cap: int | None = None  # None: use the full resolution D

    def __post_init__(self):
        _check_fudge("tau", self.tau)
        _check_fudge("kappa", self.kappa)
        if not 1 <= self.tau_min < self.tau:
            raise ValueError(f"need 1 <= tau_min < tau, got tau_min={self.tau_min}")
        if self.m_cap is not None and not self.m_cap >= 1:
            raise ValueError(f"m_cap must be positive, got {self.m_cap}")


@dataclass(frozen=True)
class SelectionResult:
    """Chosen level for a named rule plus optional per-m diagnostics.

    For a block of observation rows, `k` and `m_max` are (R,) arrays.
    """

    rule: str
    k: int | np.ndarray
    trace: np.ndarray | None = None  # trace[m-1] = per-m choice, when recorded
    m_max: int | np.ndarray | None = None


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
    _check_fudge("tau", tau)
    a_tau = ((tau + 1.0) / (tau - 1.0)) ** 2
    b_tau = (3.0 * tau + 1.0) ** 2 / 4.0
    c_weak = math.sqrt(6.0) * math.sqrt(1.5 * (a_tau + 1.0) + b_tau)
    c_strong = math.sqrt(2.0) * max(
        (tau + 1.0) / (tau - 1.0) + 1.0, 1.0 + math.sqrt(3.0 / 8.0) * (3.0 * tau + 1.0)
    )
    c_cor = None
    if q is not None:
        if not math.isfinite(q):
            raise ValueError(f"decay exponent q must be finite, got {q}")
        if c_q is None or C_q is None or not (0 < c_q <= C_q and math.isfinite(C_q)):
            raise ValueError("polynomial-spectrum constant needs finite 0 < c_q <= C_q")
        c_cor = max(
            math.sqrt(2.0) * ((tau + 1.0) / (tau - 1.0) + 1.0),
            math.sqrt(2.0)
            + (2.0 * tau + 1.0) * math.sqrt(9.0 ** (1.0 + q) * (1.0 + q) * C_q / c_q * 4.0),
        )
    return TheoremConstants(tau, a_tau, b_tau, c_weak, c_strong, c_cor)


def _level(k):
    """A per-row result as an int for one row, as the (R,) array for a block."""
    return k if isinstance(k, np.ndarray) and k.ndim else int(k)


def _min_levels(S: np.ndarray, thresholds):
    """Per row of S, the smallest k with S[..., k] >= T (each row nondecreasing).

    One row bisects, for any number of thresholds. A block takes one threshold
    per row and counts the entries below it, which in a nondecreasing row are
    exactly the entries before the first one >= T: the same k as the search.
    """
    if S.ndim == 1:
        return S.searchsorted(thresholds)  # side="left"
    return (S < thresholds[..., None]).sum(axis=-1)


def _dp_thresholds(obs: NoisyObservation, tau: float, m_cap: int) -> np.ndarray:
    """T with T[..., m-1] = S_m - tau^2 m delta^2 for m in [1, m_cap], read-only.

    A prefix of the vector for every m in [1, D], built once per observation
    and tau and memoised on the observation; each entry is computed on its
    own, so a prefix equals the vector built for m_cap alone.
    """
    key = ("dp_thresholds", tau)
    T = obs._memo.get(key)
    if T is None:
        m = np.arange(1.0, obs.size + 1)  # float counts: no int-to-float cast in the product
        T = obs.prefix_sq[..., 1:] - (tau * obs.delta) ** 2 * m
        T.flags.writeable = False
        obs._memo[key] = T
    return T[..., :m_cap]


def _max_level(S: np.ndarray, thresholds: np.ndarray):
    """Largest per-threshold level, max over T of the smallest k with S[k] >= T, per row.

    `_min_levels` is nondecreasing in T for nondecreasing S, so the maximum is
    attained at the largest threshold: one search gives it exactly. A row with
    no thresholds gets level 0.
    """
    return _min_levels(S, thresholds.max(axis=-1, initial=-np.inf))


def _first_admissible(gaps: np.ndarray, S: np.ndarray):
    """Smallest k with gaps[..., m-1] <= S[..., k] for every m in (k, n], per row.

    n is the length of the gaps; k = n is always admitted. Compares S with
    the suffix maxima of the gaps.
    """
    n = gaps.shape[-1]
    suffix = np.empty(gaps.shape[:-1] + (n + 1,))
    suffix[..., n] = -np.inf
    np.maximum.accumulate(gaps[..., ::-1], axis=-1, out=suffix[..., :n][..., ::-1])
    return (suffix <= S[..., : n + 1]).argmax(axis=-1)


def dp_at_m(obs: NoisyObservation, tau: float, m: int) -> int:
    """Discrepancy choice at discretization level m.

    Smallest k in [0, m] whose residual over the first m coefficients,
    sqrt(sum_{j=k+1..m} y_obs_j^2), is at most tau sqrt(m) delta.
    """
    _check_fudge("tau", tau)
    if not 1 <= m <= obs.size:
        raise ValueError(f"m={m} outside [1, {obs.size}]")
    S = obs.prefix_sq
    return _level(_min_levels(S, S.T[m] - (tau * obs.delta) ** 2 * m))


def dp_modified(
    obs: NoisyObservation, tau: float, m_cap: int | None = None, keep_trace: bool = False
) -> SelectionResult:
    """Residual rule with the discretization level as a second free parameter.

    Returns the largest per-m discrepancy choice over m in [1, m_cap], found
    with one search; the per-m trace is built and attached only when
    keep_trace is set, which needs a single observation row.
    """
    _check_fudge("tau", tau)
    m_cap = obs.size if m_cap is None else m_cap
    if not 1 <= m_cap <= obs.size:
        raise ValueError(f"m_cap={m_cap} outside [1, {obs.size}]")
    thresholds = _dp_thresholds(obs, tau, m_cap)
    if keep_trace:
        if thresholds.ndim != 1:
            raise ValueError("keep_trace needs a single observation row")
        trace = _min_levels(obs.prefix_sq, thresholds)
        return SelectionResult("dp", int(trace.max()), trace)
    return SelectionResult("dp", _level(_max_level(obs.prefix_sq, thresholds)))


def lepski_direct(obs: NoisyObservation, kappa: float, sigma: np.ndarray | None = None) -> int:
    """Comparison rule for the direct (unit singular value) regime.

    Smallest k such that every later partial-sum estimate stays within
    kappa sqrt(m) delta of the level-k one. Pass the problem's singular values
    to assert the regime; non-unit values are rejected.
    """
    _check_fudge("kappa", kappa)
    if sigma is not None and not np.all(sigma == 1.0):
        raise ValueError("direct-regime rule called with non-unit singular values")
    S = obs.prefix_sq
    gaps = S[..., 1:] - (kappa * obs.delta) ** 2 * np.arange(1, obs.size + 1)
    return _level(_first_admissible(gaps, S))


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
    _check_fudge("kappa", kappa)
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
    return _level(_first_admissible(P[..., 1 : m_cap + 1] - thresh, P))


def early_stop(obs: NoisyObservation, D_used: int | None = None) -> int:
    """Sequential residual rule at fixed resolution with the threshold factor at one."""
    D_used = obs.size if D_used is None else D_used
    if not 1 <= D_used <= obs.size:
        raise ValueError(f"D_used={D_used} outside [1, {obs.size}]")
    S = obs.prefix_sq
    return _level(_min_levels(S, S.T[D_used] - obs.delta**2 * D_used))


def combined(
    obs: NoisyObservation, tau: float, tau_min: float = 1.0, D_used: int | None = None
) -> SelectionResult:
    """Maximize the per-m discrepancy choice only up to a sequential stopping level.

    m_max is the early-stop level with threshold factor tau_min >= 1; the
    returned k is the largest per-m choice over m in [1, m_max], or 0 when
    m_max = 0.
    """
    if not (math.isfinite(tau) and tau > tau_min):
        raise ValueError(f"need finite tau > tau_min, got tau={tau}, tau_min={tau_min}")
    if not tau_min >= 1:
        raise ValueError(f"tau_min must be at least 1, got {tau_min}")
    D_used = obs.size if D_used is None else D_used
    if not 1 <= D_used <= obs.size:
        raise ValueError(f"D_used={D_used} outside [1, {obs.size}]")
    S = obs.prefix_sq
    m_max = _min_levels(S, S.T[D_used] - (tau_min * obs.delta) ** 2 * D_used)
    if S.ndim == 1:
        thresholds = _dp_thresholds(obs, tau, int(m_max))
    else:  # rows stop at different levels: drop the thresholds past each row's m_max
        thresholds = _dp_thresholds(obs, tau, int(m_max.max()))
        m = np.arange(1, thresholds.shape[-1] + 1)
        thresholds = np.where(m <= m_max[:, None], thresholds, -np.inf)
    return SelectionResult("com", _level(_max_level(S, thresholds)), None, _level(m_max))


def oracle_opt(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Smallest minimizer of the realized solution-space error over all levels."""
    return _level(strong_error_sq_profile(p, obs).argmin(axis=-1))


def _balanced_level(acc: np.ndarray, rest: np.ndarray) -> int:
    """Smallest k with acc[..., k] >= rest[k], per row.

    `acc` is the accumulated term (a `_cumsum0`), `rest` the remaining one (a `suffix_sum`).
    """
    return _level((acc >= rest).argmax(axis=-1))


def oracle_weak(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Level where accumulated squared noise overtakes the remaining squared clean data."""
    return _balanced_level(obs.noise_prefix_sq, obs.clean_tail)


def oracle_strong(p: SpectralProblem, obs: NoisyObservation) -> int:
    """Level where accumulated amplified noise overtakes the remaining squared truth."""
    noise = ((obs.y_obs - obs.y_clean) / p.sigma) ** 2
    return _balanced_level(_cumsum0(noise), p.truth_tail)


def det_weak(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the weak oracle: expected variance delta^2 k."""
    _check_delta(delta)
    return _balanced_level(_cumsum0(np.full(p.size, delta**2)), p.clean_tail)


def det_strong(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the strong oracle: expected variance delta^2 sum sigma^(-2)."""
    _check_delta(delta)
    return _balanced_level(_cumsum0(delta**2 * p.sigma ** (-2.0)), p.truth_tail)


def empirical_sup_deviation(z: np.ndarray, kappa_idx: int) -> float:
    """Largest absolute running mean of z_j^2 - 1 over windows m >= kappa_idx.

    This is the quantity whose reverse-martingale maximal bound controls how
    far squared residual sums can drift from their expectation. A block of
    rows (R, D) gives one deviation per row.
    """
    D = z.shape[-1]
    if not 1 <= kappa_idx <= D:
        raise ValueError(f"kappa_idx={kappa_idx} outside [1, {D}]")
    means = np.cumsum(z * z - 1.0, axis=-1) / np.arange(1, D + 1)
    dev = np.max(np.abs(means[..., kappa_idx - 1 :]), axis=-1)
    return dev if dev.ndim else float(dev)


RULE_NAMES = ("dp", "bal", "es", "com", "opt", "pr", "st")


def select_all(
    p: SpectralProblem, obs: NoisyObservation, cfg: RuleConfig
) -> dict[str, int | np.ndarray]:
    """Run every benchmark rule on one observation; keys follow RULE_NAMES.

    For a block of rows each value is the (R,) array of per-row levels.
    """
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
