"""White-noise observations in singular coordinates and the cut-off estimator.

The observation model is y_obs_j = sigma_j * x_true_j + delta * z_j with unit
variance, mean-zero noise coordinates z_j. Truncating the coefficient-wise
inverse at level k gives the cut-off estimator; its solution-space (strong) and
image-space (weak, predictive) errors split exactly into a variance part that
grows with k and a bias part that shrinks with k. Sums beyond the problem
resolution D are identically zero: the truth is represented exactly at
resolution D.

An observation stores its vectors read-only and memoises the sums that several
rules and error profiles read, so each is built once per observation: the
prefix sums of y_obs^2 and of the squared noise (y_obs - y_clean)^2, and the
strong error profile of the problem it was last evaluated against. The clean
data and its tail sums depend only on the problem: `observe` hands every
observation the problem's own memoised arrays (`SpectralProblem.y_clean`,
`clean_tail`), and an observation built directly computes the tail of its own
`y_clean`. An observation may hold one row (D,) or a block of R rows (R, D)
that share the noise level and the clean data; every sum and profile works
along the last axis, row by row, with the same floating-point operations as
for one row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
            if self.df is None or not (math.isfinite(self.df) and self.df > 2):
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


def _check_delta(delta: float):
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive and finite, got {delta}")


def _cumsum0(x: np.ndarray) -> np.ndarray:
    """C with C[..., k] = sum of x[..., :k] along the last axis, C[..., 0] = 0.

    The sum (`np.cumsum`'s ufunc, called directly) runs sequentially through
    each row, so a row of a block gets the same bits as the row on its own.
    """
    C = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    C[..., 0] = 0.0
    np.add.accumulate(x, axis=-1, out=C[..., 1:])
    return C


def _prefix_sq(y: np.ndarray) -> np.ndarray:
    """S with S[..., k] = sum of the first k squared entries of each row, S[..., 0] = 0.

    Callers reach it by its module-level name (here and as `rules._prefix_sq`),
    which is how `perfbench` counts prefix-sum builds per replicate.
    """
    return _cumsum0(y * y)


@dataclass(frozen=True)
class NoisyObservation:
    """One realization y_obs = y_clean + delta * z with its ingredients kept.

    `y_obs` and `z` are one row (D,) or a block of R rows (R, D); a block's
    rows share `delta` and the clean data `y_clean` (D,), and `seed` is then
    the tuple of row seeds. The three vectors must be finite and are stored
    read-only; a caller's array that is still writeable is copied, so writing
    to it later cannot change the observation or the sums memoised on it.
    """

    y_obs: np.ndarray
    y_clean: np.ndarray
    z: np.ndarray
    delta: float
    seed: int | tuple[int, ...]

    def __post_init__(self):
        _check_delta(self.delta)
        for name in ("y_obs", "y_clean", "z"):
            a = readonly(getattr(self, name))
            if not np.isfinite(a).all():
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, a)
        shape = self.y_obs.shape
        if len(shape) not in (1, 2) or 0 in shape:
            raise ValueError(f"y_obs must be one row (D,) or a block (R, D), got shape {shape}")
        if self.z.shape != shape or self.y_clean.shape != shape[-1:]:
            raise ValueError(
                f"z must have shape {shape} and y_clean shape {shape[-1:]}, "
                f"got {self.z.shape} and {self.y_clean.shape}"
            )

    @property
    def size(self) -> int:
        """The resolution D, the length of each row."""
        return int(self.y_obs.shape[-1])

    @cached_property
    def prefix_sq(self) -> np.ndarray:
        """S with S[..., k] = sum of y_obs_j^2 over j <= k, S[..., 0] = 0; read-only.

        Each row is nondecreasing. Shared by every residual and comparison
        rule. Built on first use and memoised, which is valid because `y_obs`
        is read-only.
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

    @cached_property
    def noise_prefix_sq(self) -> np.ndarray:
        """N with N[..., k] = sum of (y_obs_j - y_clean_j)^2 over j <= k; read-only.

        The accumulated image-space variance, shared by the weak oracle and the
        image-space error profile. Memoised like `prefix_sq`.
        """
        N = _cumsum0((self.y_obs - self.y_clean) ** 2)
        N.flags.writeable = False
        return N

    @cached_property
    def _memo(self) -> dict:
        """Sums that also depend on the problem or a rule parameter, by key.

        Held on the observation so that they live exactly as long as it does.
        """
        return {}


def sample_noise(model: NoiseModel, D: int, seed: int | Sequence[int]) -> np.ndarray:
    """Draw D independent unit-variance noise coordinates, reproducibly.

    A sequence of seeds gives an (R, D) block with one row per seed, in order;
    each row is drawn from its own seed alone.
    """
    if D < 1:
        raise ValueError(f"need D >= 1, got {D}")
    if isinstance(seed, (int, np.integer)):
        return _draw(model, D, seed)
    rows = np.empty((len(seed), D))
    for i, s in enumerate(seed):
        rows[i] = _draw(model, D, int(s))
    return rows


def _draw(model: NoiseModel, D: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if model.kind == "gaussian":
        return rng.standard_normal(D)
    if model.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=D).astype(float) - 1.0
    # student_t, variance df/(df-2) before normalization
    return rng.standard_t(model.df, size=D) / math.sqrt(model.df / (model.df - 2.0))


def observe(
    p: SpectralProblem, delta: float, model: NoiseModel, seed: int | Sequence[int]
) -> NoisyObservation:
    """Generate one noisy observation of the problem's clean data.

    A sequence of seeds gives a block with one row per seed, in order; row i is
    bit-identical to `observe(p, delta, model, seed[i]).y_obs`.
    """
    _check_delta(delta)
    z = sample_noise(model, p.size, seed)
    seed = int(seed) if z.ndim == 1 else tuple(int(s) for s in seed)
    y_obs = p.y_clean + delta * z
    for fresh in (y_obs, z):  # nobody else holds them: freeze, do not copy
        fresh.flags.writeable = False
    obs = NoisyObservation(y_obs, p.y_clean, z, float(delta), seed)
    # obs.y_clean is p.y_clean itself (read-only, so not copied): share its tail too
    obs.__dict__["clean_tail"] = p.clean_tail
    return obs


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
    """Squared solution-space error for every level: entry k is ||x_k - x_true||^2, per row.

    Read-only, and memoised on the observation for the last problem it was
    asked for (compared by identity), so the oracle and the error records of
    one replicate share one profile.
    """
    memo = obs._memo.get("strong")
    if memo is not None and memo[0] is p:
        return memo[1]
    out = _cumsum0((obs.y_obs / p.sigma - p.x_true) ** 2)
    out += p.truth_tail
    out.flags.writeable = False
    obs._memo["strong"] = (p, out)
    return out


def weak_error_sq_profile(p: SpectralProblem, obs: NoisyObservation) -> np.ndarray:
    """Squared image-space error for every level: entry k is ||K(x_k - x_true)||^2, per row."""
    return obs.noise_prefix_sq + obs.clean_tail


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
