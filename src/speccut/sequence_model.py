"""White-noise observations in singular coordinates and the cut-off estimator.

The observation model is y_obs_j = sigma_j * x_true_j + delta * z_j with unit
variance, mean-zero noise coordinates z_j. Truncating the coefficient-wise
inverse at level k gives the cut-off estimator; its solution-space (strong) and
image-space (weak, predictive) errors split exactly into a variance part that
grows with k and a bias part that shrinks with k. Sums beyond the problem
resolution D are identically zero: the truth is represented exactly at
resolution D.

An observation is its problem's data: the problem, y_obs and delta. The
problem owns the truth and the clean data y_clean = sigma * x_true with their
tail sums; the observation stores y_obs read-only and memoises the sums that
rules, error profiles and `montecarlo` read (`NoisyObservation` lists them).
Like the problem's sums they are `problems.memoised`: formed with overflow
warnings off, and each reader decides what an inf in them means. An
observation holds one row (D,) or a block of R rows (R, D) of one problem and
noise level; every sum and profile works along the last axis, row by row,
with the same floating-point operations as for one row. The two prefix sums
of the data raise ValueError when they overflow a double, so no rule returns
a level past D.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .problems import SpectralProblem, _check_count, _check_parameter, memoised, readonly

NOISE_KINDS = ("gaussian", "rademacher")


@dataclass(frozen=True)
class NoiseModel:
    """Distribution of the noise coordinates, normalized to unit variance."""

    kind: str = "gaussian"

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")


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

    Callers reach it by its module-level name (here, and as `rules._prefix_sq` in
    `det_strong`), which is how `perfbench` counts prefix-sum builds per replicate.
    """
    return _cumsum0(y * y)


@dataclass(frozen=True)
class NoisyObservation:
    """One realization y_obs = problem.y_clean + delta * z of a problem's clean data.

    `y_obs` is one row (D,) or a block of R rows (R, D), with D = problem.size;
    a block's rows share the problem and `delta`. It must be finite and is
    stored read-only: a caller's array is copied once unless it is read-only
    and owns its memory (`problems.readonly`), so writing to it later cannot
    change the observation or the sums memoised on it.

    The rules and error profiles of a replicate read four cumulative sums,
    each memoised here and built once: the prefix sums of y_obs^2
    (`prefix_sq`), of (y_obs / sigma)^2, the squared norms of the cut-off
    estimates (`estimate_sq`), of the noise (y_obs - y_clean)^2
    (`noise_prefix_sq`) and of the amplified noise (y_obs / sigma - x_true)^2
    (`amplified_noise_sq`); `strong_sq` adds the truth's tail sums to the last.
    """

    problem: SpectralProblem
    y_obs: np.ndarray
    delta: float

    def __post_init__(self):
        _check_parameter("delta", self.delta)
        y = readonly(self.y_obs)
        if not np.isfinite(y).all():
            raise ValueError("y_obs has non-finite entries")
        object.__setattr__(self, "y_obs", y)
        D = self.problem.size
        if y.ndim not in (1, 2) or 0 in y.shape or y.shape[-1] != D:
            raise ValueError(f"y_obs must be one row ({D},) or a block (R, {D}), got {y.shape}")

    @property
    def size(self) -> int:
        """The resolution D, the length of each row."""
        return int(self.y_obs.shape[-1])

    @memoised
    def prefix_sq(self) -> np.ndarray:
        """S with S[..., k] = sum of y_obs_j^2 over j <= k, S[..., 0] = 0.

        Each row is nondecreasing, so its last entry bounds all others: the
        sums raise ValueError when that entry overflows, instead of giving
        levels past D. Shared by every residual rule.
        """
        S = _prefix_sq(self.y_obs)
        if not (S[..., -1] < math.inf).all():  # a sum of squares is finite when below inf
            raise ValueError(f"sums of y_obs^2 overflow (D={self.size}, delta={self.delta})")
        return S

    @memoised
    def estimate_sq(self) -> np.ndarray:
        """E with E[..., k] = ||x_k||^2 = sum of (y_obs_j / sigma_j)^2 over j <= k.

        The squared norms of the cut-off estimates, searched by `balancing`.
        Nondecreasing like `prefix_sq`, and it raises ValueError alike.
        """
        E = _prefix_sq(self.y_obs / self.problem.sigma)
        if not (E[..., -1] < math.inf).all():
            raise ValueError(f"balancing sums overflow (D={self.size}, delta={self.delta})")
        return E

    @memoised
    def noise_prefix_sq(self) -> np.ndarray:
        """N with N[..., k] = sum of (y_obs_j - problem.y_clean_j)^2 over j <= k.

        The accumulated image-space variance, shared by the weak oracle and the
        image-space error profile; an infinite variance outweighs every finite bias.
        """
        return _cumsum0((self.y_obs - self.problem.y_clean) ** 2)

    @memoised
    def amplified_noise_sq(self) -> np.ndarray:
        """A with A[..., k] = sum of (y_obs_j / sigma_j - x_true_j)^2 over j <= k.

        The realized solution-space variance of the strong oracle and the strong
        error profile; inf as in `noise_prefix_sq`.
        """
        p = self.problem
        return _cumsum0((self.y_obs / p.sigma - p.x_true) ** 2)

    @memoised
    def strong_sq(self) -> np.ndarray:
        """`strong_error_sq_profile`: `amplified_noise_sq` plus the bias."""
        return self.amplified_noise_sq + self.problem.truth_tail


def sample_noise(model: NoiseModel, D: int, seed: int | Sequence[int]) -> np.ndarray:
    """Draw D independent unit-variance noise coordinates, reproducibly.

    A sequence of seeds gives an (R, D) block with one row per seed, in order;
    each row is drawn from its own seed alone, straight into its place. An
    empty sequence is rejected.
    """
    _check_count("D", D, 1)
    one = np.ndim(seed) == 0
    seeds = [seed] if one else seed
    if not len(seeds):
        raise ValueError("need at least one seed, got an empty sequence of seeds")
    for s in seeds:
        _check_count("seed", s, 0)
    rows = np.empty(D if one else (len(seeds), D))
    for row, s in zip(rows.reshape(-1, D), seeds):
        rng = np.random.default_rng(int(s))
        if model.kind == "gaussian":
            rng.standard_normal(out=row)
        else:
            np.multiply(rng.integers(0, 2, size=D), 2.0, out=row)
            row -= 1.0
    return rows


def observe(
    p: SpectralProblem, delta: float, model: NoiseModel, seed: int | Sequence[int]
) -> NoisyObservation:
    """Generate one noisy observation of the problem's clean data.

    A sequence of seeds gives a block with one row per seed, in order; row i is
    bit-identical to `observe(p, delta, model, seed[i]).y_obs`. The noise is
    `sample_noise(model, p.size, seed)`, scaled and shifted in place.
    """
    _check_parameter("delta", delta)
    y_obs = sample_noise(model, p.size, seed)
    y_obs *= delta  # in place: y_clean + delta * z's bits, with no array for z kept
    y_obs += p.y_clean
    y_obs.flags.writeable = False  # nobody else holds it: freeze, do not copy
    return NoisyObservation(p, y_obs, float(delta))


def strong_error_sq_profile(obs: NoisyObservation) -> np.ndarray:
    """Squared solution-space error for every level: entry k is ||x_k - x_true||^2, per row.

    Read-only and memoised on the observation (`NoisyObservation.strong_sq`), so
    the oracle and the error records of one replicate share one profile.
    """
    return obs.strong_sq


def weak_error_sq_profile(obs: NoisyObservation) -> np.ndarray:
    """Squared image-space error for every level: entry k is ||K(x_k - x_true)||^2, per row."""
    return obs.noise_prefix_sq + obs.problem.clean_tail
