"""White-noise observations in singular coordinates and the cut-off estimator.

The observation model is y_obs_j = sigma_j * x_true_j + delta * z_j with unit
variance, mean-zero noise coordinates z_j. Truncating the coefficient-wise
inverse at level k gives the cut-off estimator; its solution-space (strong) and
image-space (weak, predictive) errors split exactly into a variance part that
grows with k and a bias part that shrinks with k. Sums beyond the problem
resolution D are identically zero: the truth is represented exactly at
resolution D.

An observation stores its vectors read-only and memoises the cumulative sums
that several rules and error profiles read, so each is built once per
observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problems import SpectralProblem, readonly, suffix_sum


@dataclass(frozen=True)
class NoiseModel:
    """Distribution of the noise coordinates, normalized to unit variance.

    gamma(p) returns the absolute moment constant E[z^p] for p in {2, 4};
    the fourth moment of student_t requires df > 4.
    """

    kind: str = "gaussian"
    df: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "rademacher", "student_t"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "student_t":
            if self.df is None or self.df <= 2:
                raise ValueError("student_t needs df > 2 for a finite variance")

    def gamma(self, p: int) -> float:
        if p == 2:
            return 1.0
        if p != 4:
            raise ValueError(f"moment order must be 2 or 4, got {p}")
        if self.kind == "gaussian":
            return 3.0
        if self.kind == "rademacher":
            return 1.0
        if self.df <= 4:
            raise ValueError("student_t fourth moment needs df > 4")
        return 3.0 * (self.df - 2.0) / (self.df - 4.0)


def _prefix_sq(y: np.ndarray) -> np.ndarray:
    """S with S[k] = sum of the first k squared entries, S[0] = 0.

    Callers reach it by its module-level name (here and as `rules._prefix_sq`),
    which is how `perfbench` counts prefix-sum builds per replicate.
    """
    S = np.empty(y.size + 1)
    S[0] = 0.0
    np.cumsum(y * y, out=S[1:])
    return S


@dataclass(frozen=True)
class NoisyObservation:
    """One realization y_obs = y_clean + delta * z with its ingredients kept.

    The three vectors are stored read-only; a caller's array that is still
    writeable is copied, so writing to it later cannot change the observation
    or the sums memoised on it.
    """

    y_obs: np.ndarray
    y_clean: np.ndarray
    z: np.ndarray
    delta: float
    seed: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        for name in ("y_obs", "y_clean", "z"):
            object.__setattr__(self, name, readonly(getattr(self, name)))

    @property
    def size(self) -> int:
        return int(self.y_obs.size)

    @cached_property
    def prefix_sq(self) -> np.ndarray:
        """S with S[k] = sum of y_obs_j^2 over j <= k, S[0] = 0; nondecreasing, read-only.

        Shared by every residual and comparison rule. Built on first use and
        memoised, which is valid because `y_obs` is read-only.
        """
        S = _prefix_sq(self.y_obs)
        S.flags.writeable = False
        return S

    @cached_property
    def clean_tail(self) -> np.ndarray:
        """`suffix_sum(y_clean**2)`: the image-space bias of every level, read-only.

        Shared by the weak oracle and the image-space error profile. Built on
        first use and memoised, which is valid because `y_clean` is read-only.
        """
        return suffix_sum(self.y_clean**2)


def sample_noise(model: NoiseModel, D: int, seed: int) -> np.ndarray:
    """Draw D independent unit-variance noise coordinates, reproducibly."""
    if D < 1:
        raise ValueError(f"need D >= 1, got {D}")
    rng = np.random.default_rng(seed)
    if model.kind == "gaussian":
        return rng.standard_normal(D)
    if model.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=D).astype(float) - 1.0
    # student_t, variance df/(df-2) before normalization
    return rng.standard_t(model.df, size=D) / math.sqrt(model.df / (model.df - 2.0))


def observe(p: SpectralProblem, delta: float, model: NoiseModel, seed: int) -> NoisyObservation:
    """Generate one noisy observation of the problem's clean data."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    z = sample_noise(model, p.size, seed)
    y_clean = p.sigma * p.x_true
    y_obs = y_clean + delta * z
    for fresh in (y_obs, y_clean, z):  # nobody else holds them: freeze, do not copy
        fresh.flags.writeable = False
    return NoisyObservation(y_obs, y_clean, z, float(delta), int(seed))


def _check_level(k: int, D: int):
    if not 0 <= k <= D:
        raise ValueError(f"truncation level {k} outside [0, {D}]")


def cutoff_coeffs(p: SpectralProblem, obs: NoisyObservation, k: int) -> np.ndarray:
    """Coefficients of the level-k cut-off estimate: y_obs_j / sigma_j up to k, then 0."""
    _check_level(k, p.size)
    out = np.zeros(p.size)
    out[:k] = obs.y_obs[:k] / p.sigma[:k]
    return out


def strong_error_sq_profile(p: SpectralProblem, obs: NoisyObservation) -> np.ndarray:
    """Squared solution-space error for every level: entry k is ||x_k - x_true||^2."""
    var = (obs.y_obs / p.sigma - p.x_true) ** 2
    return _profile(var, p.truth_tail)


def weak_error_sq_profile(p: SpectralProblem, obs: NoisyObservation) -> np.ndarray:
    """Squared image-space error for every level: entry k is ||K(x_k - x_true)||^2."""
    var = (obs.y_obs - obs.y_clean) ** 2
    return _profile(var, obs.clean_tail)


def _profile(var: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Accumulated variance plus the remaining bias `tail` at every level."""
    D = var.size
    out = np.empty(D + 1)
    out[0] = 0.0
    np.cumsum(var, out=out[1:])
    out += tail
    return out


def strong_error(p: SpectralProblem, obs: NoisyObservation, k: int) -> float:
    """Solution-space error ||x_k - x_true|| of the level-k estimate."""
    _check_level(k, p.size)
    var = float(np.sum((obs.y_obs[:k] / p.sigma[:k] - p.x_true[:k]) ** 2))
    bias = float(np.sum(p.x_true[k:] ** 2))
    return math.sqrt(var + bias)


def weak_error(p: SpectralProblem, obs: NoisyObservation, k: int) -> float:
    """Image-space (predictive) error ||K(x_k - x_true)|| of the level-k estimate."""
    _check_level(k, p.size)
    var = float(np.sum((obs.y_obs[:k] - obs.y_clean[:k]) ** 2))
    bias = float(np.sum(obs.y_clean[k:] ** 2))
    return math.sqrt(var + bias)
