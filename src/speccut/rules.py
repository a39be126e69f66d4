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
rescaling (y_obs, y_clean, delta) by a common positive factor. A threshold
factor whose square overflows a double gives an infinite threshold, which
admits every level, so the level is the exact 0; data whose sums overflow
raise ValueError (`NoisyObservation.prefix_sq`, `balancing`).

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
threshold and search once, O(D). So does `balancing`, on the prefix sums P
of (y_obs/sigma)^2: the last m whose threshold g_m is the largest has
P_m >= g_m, so every level below the search fails at that m. Entry m of
every row is read as `S.T[m]`: a float for one row (where `S[..., m]` would
make a slower 0-d array), the (R,) column of a block. Problems and
observations memoise the sums the rules share (`SpectralProblem`,
`NoisyObservation`, and per tau the thresholds S_m - tau^2 m delta^2 in
`_dp_thresholds`), so one replicate builds five cumulative sums (S, the
prefix sum of (y_obs/sigma)^2 in `balancing`, the noise sum, the strong
profile, and the amplified-noise sum in `oracle_strong`) and no suffix
maximum. Callers that evaluate many replicates pass row blocks of at most
2^15 entries per (R, D) array (`montecarlo._row_blocks`).
The O(D^2) literal scans survive as test oracles.
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

    def __post_init__(self):
        _check_fudge("tau", self.tau)
        _check_fudge("kappa", self.kappa)
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


def _square(x: float) -> float:
    """x ** 2, or inf where the square of the float overflows a double.

    Python's float power raises OverflowError there. As a threshold factor, inf
    admits every level, which is the exact answer. The power is kept because
    `x * x` rounds differently from `x ** 2` for some doubles.
    """
    try:
        return x**2
    except OverflowError:
        return math.inf


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


def _dp_thresholds(obs: NoisyObservation, tau: float) -> np.ndarray:
    """T with T[..., m-1] = S_m - tau^2 m delta^2 for every m in [1, D], read-only.

    Built once per observation and tau and memoised on the observation; each
    entry is computed on its own, so a prefix equals the vector of a shorter
    resolution.
    """
    key = ("dp_thresholds", tau)
    T = obs._memo.get(key)
    if T is None:
        m = np.arange(1.0, obs.size + 1)  # float counts: no int-to-float cast in the product
        T = obs.prefix_sq[..., 1:] - _square(tau * obs.delta) * m
        T.flags.writeable = False
        obs._memo[key] = T
    return T


def _residual_level(obs: NoisyObservation, c: float, m: int):
    """Per row, the smallest k with sqrt(sum_{j=k+1..m} y_obs_j^2) <= c sqrt(m) delta.

    That is the smallest k with S_k >= S_m - (c delta)^2 m, for m in [1, D].
    """
    S = obs.prefix_sq
    return _min_levels(S, S.T[m] - _square(c * obs.delta) * m)


def _max_level(S: np.ndarray, thresholds: np.ndarray):
    """Largest per-threshold level, max over T of the smallest k with S[k] >= T, per row.

    `_min_levels` is nondecreasing in T for nondecreasing S, so the maximum is
    attained at the largest threshold: one search gives it exactly. A row with
    no thresholds gets level 0.
    """
    return _min_levels(S, thresholds.max(axis=-1, initial=-np.inf))


def dp_at_m(obs: NoisyObservation, tau: float, m: int) -> int:
    """Discrepancy choice at discretization level m.

    Smallest k in [0, m] whose residual over the first m coefficients,
    sqrt(sum_{j=k+1..m} y_obs_j^2), is at most tau sqrt(m) delta.
    """
    _check_fudge("tau", tau)
    if not 1 <= m <= obs.size:
        raise ValueError(f"m={m} outside [1, {obs.size}]")
    return _level(_residual_level(obs, tau, m))


def dp_modified(obs: NoisyObservation, tau: float) -> int:
    """Residual rule with the discretization level as a second free parameter.

    Returns the largest per-m discrepancy choice over m in [1, D], found with
    one search.
    """
    _check_fudge("tau", tau)
    return _level(_max_level(obs.prefix_sq, _dp_thresholds(obs, tau)))


def balancing(p: SpectralProblem, obs: NoisyObservation, kappa: float) -> int:
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
    _check_fudge("kappa", kappa)
    factor = _square(kappa * obs.delta)
    w = p.inv_sigma_sq_cumsum  # nondecreasing: its ends bound every weight
    if (factor < math.inf and w[-1] == math.inf) or (factor == math.inf and w[0] == 0.0):
        raise ValueError(f"balancing weights overflow or underflow (delta={obs.delta})")
    with np.errstate(over="ignore"):
        P = _prefix_sq(obs.y_obs / p.sigma)
        thresh = factor * w
    # P is nondecreasing, so its last entry bounds every compared sum
    if not np.isfinite(P[..., -1]).all():
        raise ValueError(f"balancing sums overflow (D={obs.size}, delta={obs.delta})")
    return _level(_max_level(P, P[..., 1:] - thresh))


def early_stop(obs: NoisyObservation, *, tau: float = 1.0) -> int:
    """Sequential residual rule at full resolution with threshold factor tau >= 1."""
    if not (math.isfinite(tau) and tau >= 1):
        raise ValueError(f"early-stop factor must be finite and at least 1, got {tau}")
    return _level(_residual_level(obs, tau, obs.size))


def combined(obs: NoisyObservation, tau: float, tau_min: float = 1.0) -> int:
    """Maximize the per-m discrepancy choice only up to a sequential stopping level.

    The stopping level m_max is `early_stop` with threshold factor tau_min;
    the level is the largest per-m choice over m in [1, m_max], or 0 when
    m_max = 0.
    """
    if not (math.isfinite(tau) and tau > tau_min):
        raise ValueError(f"need finite tau > tau_min, got tau={tau}, tau_min={tau_min}")
    m_max = early_stop(obs, tau=tau_min)
    S = obs.prefix_sq
    if S.ndim == 1:
        thresholds = _dp_thresholds(obs, tau)[:m_max]
    else:  # rows stop at different levels: drop the thresholds past each row's m_max
        thresholds = _dp_thresholds(obs, tau)[:, : m_max.max()]
        m = np.arange(1, thresholds.shape[-1] + 1)
        thresholds = np.where(m <= m_max[:, None], thresholds, -np.inf)
    return _level(_max_level(S, thresholds))


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
    return _balanced_level(_cumsum0(np.full(p.size, _square(delta))), p.clean_tail)


def det_strong(p: SpectralProblem, delta: float) -> int:
    """Deterministic counterpart of the strong oracle: expected variance delta^2 sum sigma^(-2)."""
    _check_delta(delta)
    return _balanced_level(_cumsum0(_square(delta) * p.sigma ** (-2.0)), p.truth_tail)


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
    return {
        "dp": dp_modified(obs, cfg.tau),
        "bal": balancing(p, obs, cfg.kappa),
        "es": early_stop(obs),
        "com": combined(obs, cfg.tau, cfg.tau_min),
        "opt": oracle_opt(p, obs),
        "pr": oracle_weak(p, obs),
        "st": oracle_strong(p, obs),
    }
