"""Discretized integral-equation test problems and their singular-coordinate form.

Four classical ill-posed model problems (phillips, deriv2, gravity, heat) are
discretized on a uniform grid, plus synthetic problems defined directly by a
singular-value sequence. A dense problem is converted to singular coordinates
with a full SVD; estimators downstream only ever see the singular data.

Coordinate convention: for a kernel problem on [a, b] with n cells of width
h = (b - a)/n and midpoints t_i, the forward matrix is A[i, j] = h * k(s_i, t_j)
and the solution vector stores cell-normalized coefficients sqrt(h) * f(t_i).
With this scaling the Euclidean norm of the coefficient vector approximates the
L2 norm of the underlying function, so noise levels and error norms are
comparable across grid sizes. Exact data in the same coordinates is
sqrt(h) * g(s_i), which is what `matrix @ f_true` converges to. The four
kernel builders pass their kernel and solution to `_discretize`, which holds
this convention.

Problems store their arrays read-only (`readonly`); every array derived from
them, here and on observations, is `memoised`: formed once with overflow
warnings off, so each reader decides what an inf means, and stored read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps

import numpy as np


class DecompositionError(ValueError):
    """Dense SVD failed to converge or the operator is numerically zero.

    A ValueError, as numpy's `LinAlgError` is: the operator built from these
    parameters has no usable factorization.
    """


def readonly(a) -> np.ndarray:
    """`a` as a read-only float array that no other reference can write through.

    A read-only array that owns its memory is returned as is; anything else (a
    writeable array, or a view of memory that another array owns) is copied
    once, so later writes to the caller's array cannot reach the result.
    """
    a = np.asarray(a, dtype=float)
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


def memoised(method) -> cached_property:
    """A `cached_property` whose array, `method(self)`, is formed once and stored read-only.

    `method` runs on first access with overflow warnings off: an overflowing
    term is inf, and each reader decides what inf means. The memo is valid
    because every array it is formed from is read-only.
    """

    @wraps(method)
    def form(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            a = method(self)
        a.flags.writeable = False
        return a

    return cached_property(form)


def suffix_sum(x: np.ndarray) -> np.ndarray:
    """T with T[k] = sum of x[k:], T[x.size] = 0, summed from the back."""
    return np.concatenate([np.cumsum(x[::-1])[::-1], [0.0]])


def _square_tail(x: np.ndarray, name: str) -> np.ndarray:
    """`suffix_sum(x**2)`; ValueError where it overflows: no level compared with it is exact."""
    tail = suffix_sum(x**2)
    if not tail[0] < math.inf:  # the sum of every term bounds all the others
        raise ValueError(f"sums of {name}^2 overflow (D={x.size})")
    return tail


@dataclass(frozen=True)
class DenseProblem:
    """A discretized forward operator with known solution.

    Both are stored read-only (`readonly`), like `SpectralProblem`'s vectors.
    Analytic data formulas, where known, serve only as validation oracles for
    the quadrature.
    """

    name: str
    matrix: np.ndarray
    f_true: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", readonly(self.matrix))
        object.__setattr__(self, "f_true", readonly(self.f_true))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"{self.name}: matrix must be square")
        n = self.matrix.shape[0]
        if n < 2:
            raise ValueError(f"{self.name}: need dimension >= 2")
        if self.f_true.shape != (n,):
            raise ValueError(f"{self.name}: f_true must be a vector of length {n}")
        for arr in (self.matrix, self.f_true):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{self.name}: non-finite entries")


@dataclass(frozen=True)
class SVDFactors:
    """Full SVD A = U diag(s) V^T with s nonincreasing.

    Signs are fixed so the largest-magnitude entry of each left singular
    vector is positive, which makes repeated decompositions reproducible.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class SpectralProblem:
    """An operator and truth expressed in singular coordinates.

    `sigma[j]` is the j-th singular value and `x_true[j]` the coefficient of
    the true solution against the j-th right singular vector. Everything the
    selection rules need is contained in these two vectors. Both are stored
    read-only (`readonly`: copied unless the caller's array is read-only and
    owns its memory), which is what keeps the memoised sums below valid.
    """

    name: str
    sigma: np.ndarray
    x_true: np.ndarray

    def __post_init__(self):
        sigma = readonly(self.sigma)
        x_true = readonly(self.x_true)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "x_true", x_true)
        if sigma.ndim != 1 or x_true.shape != sigma.shape:
            raise ValueError("sigma and x_true must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(x_true))):
            raise ValueError("non-finite entries")
        if sigma.size == 0 or sigma[-1] <= 0.0 or np.any(np.diff(sigma) > 0.0):
            raise ValueError("sigma must be strictly positive and nonincreasing")

    @property
    def size(self) -> int:
        return int(self.sigma.size)

    @memoised
    def inv_sigma_sq_cumsum(self) -> np.ndarray:
        """w with w[j] = sum of sigma_i^(-2) over i <= j (zero-based).

        A sequential cumulative sum of a prefix equals the prefix of this one,
        so a problem cut to its first m coefficients gets the same bits.
        Entries past the largest double are inf.
        """
        return np.cumsum(self.sigma ** (-2.0))

    @memoised
    def truth_tail(self) -> np.ndarray:
        """`suffix_sum(x_true**2)`: the bias of every level; ValueError when it overflows."""
        return _square_tail(self.x_true, "x_true")

    @memoised
    def y_clean(self) -> np.ndarray:
        """The clean data sigma * x_true.

        The problem is the only owner of its clean data: every observation of it
        reads this array, so the product is formed once per problem, not once
        per replicate.
        """
        return self.sigma * self.x_true

    @memoised
    def clean_tail(self) -> np.ndarray:
        """`suffix_sum(y_clean**2)`: the image-space bias of every level.

        Shared by the weak oracle and the image-space error profile of every
        observation. Raises ValueError when the sum overflows.
        """
        return _square_tail(self.y_clean, "y_clean")


def _midpoints(a: float, b: float, n: int) -> tuple[np.ndarray, float]:
    h = (b - a) / n
    return a + h * (np.arange(n) + 0.5), h


# The value each real parameter must exceed, checked with its finiteness by `_check_parameter`:
# the problems' parameters, the rules' tau and kappa, the noise level and `prop2_check`'s epsilon.
_LOWER_BOUNDS = {
    "depth": 0.0, "kappa_heat": 0.0, "q": 0.0, "truth_power": 0.5,
    "tau": 1.0, "kappa": 1.0, "delta": 0.0, "epsilon": 0.0,
}


def _check_count(name: str, value, least: int, most: int | None = None):
    """ValueError unless value is an integer (Python's or numpy's, not a bool) in [least, most]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need an integer {name} >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name}={value} outside [{least}, {most}]")


def _check_parameter(name: str, value: float):
    if isinstance(value, (bool, np.bool_)):  # a real number, as `_check_count` wants an integer
        raise ValueError(f"{name} must be a real number, not a bool, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= _LOWER_BOUNDS[name]:
        raise ValueError(f"{name} must exceed {_LOWER_BOUNDS[name]}, got {value}")


@dataclass(frozen=True)
class ProblemSpec:
    """Named recipe for a problem; its defaults are the builders', the harness's and the CLI's."""

    name: str
    size: int
    depth: float = 0.25
    kappa_heat: float = 1.0
    q: float = 2.0
    truth_power: float = 1.0

    def __post_init__(self):  # what the builders reject is rejected here, before any work
        if self.name not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.name!r}; known: {', '.join(PROBLEM_NAMES)}")
        _check_count("size", self.size, 2 if self.name in DENSE_BUILDERS else 1)
        if self.name == "synthetic-exp":
            _check_exp_size(self.size)
        for param in _BOUNDED_PARAMETERS.get(self.name, ()):
            _check_parameter(param, getattr(self, param))
        if self.name == "direct":  # its largest truth entry is 1 or size ** -truth_power
            if not math.isfinite(self.truth_power):
                raise ValueError(f"truth_power must be finite, got {self.truth_power}")
            try:
                float(self.size) ** -self.truth_power
            except OverflowError:
                raise ValueError(f"truth_power {self.truth_power} overflows at size {self.size}")


def _discretize(name: str, a: float, b: float, n: int, kernel, solution) -> DenseProblem:
    """Midpoint quadrature of kernel(s, t) and solution(t) on n cells of [a, b].

    The kernel is evaluated with floating-point warnings off: an entry no double
    holds is inf or NaN, which `DenseProblem` rejects, and a kernel that
    vanishes everywhere is a zero operator, which `spectralize` rejects.
    """
    _check_count("n", n, 2)
    t, h = _midpoints(a, b, n)
    with np.errstate(all="ignore"):
        matrix = h * kernel(t[:, None], t[None, :])
    f_true = math.sqrt(h) * solution(t)
    for a in (matrix, f_true):  # nobody else holds them: freeze, so `readonly` keeps them
        a.flags.writeable = False
    return DenseProblem(name, matrix, f_true)


def _phillips_bump(x: np.ndarray) -> np.ndarray:
    return np.where(np.abs(x) < 3.0, 1.0 + np.cos(np.pi * x / 3.0), 0.0)


def build_phillips(n: int) -> DenseProblem:
    """Fredholm problem on [-6, 6] with kernel 1 + cos(pi (s - t)/3) on |s - t| < 3.

    Solution f(t) = 1 + cos(pi t / 3) on |t| < 3, zero outside.
    """
    return _discretize(
        "phillips", -6.0, 6.0, n, lambda s, t: _phillips_bump(s - t), _phillips_bump
    )


def build_deriv2(n: int) -> DenseProblem:
    """Second-derivative problem on [0, 1]: Green's function kernel, f(t) = t.

    k(s, t) = s (t - 1) for s < t and t (s - 1) for s >= t; the analytic data
    g(s) = (s^3 - s)/6 is exposed via `deriv2_exact_data` as a quadrature
    oracle.
    """
    return _discretize(
        "deriv2", 0.0, 1.0, n, lambda s, t: np.where(s < t, s * (t - 1.0), t * (s - 1.0)),
        lambda t: t,
    )


def deriv2_exact_data(n: int) -> np.ndarray:
    """Analytic data for `build_deriv2`, in the same cell-normalized coordinates."""
    s, h = _midpoints(0.0, 1.0, n)
    return math.sqrt(h) * (s**3 - s) / 6.0


def build_gravity(n: int, depth: float = ProblemSpec.depth) -> DenseProblem:
    """Gravity surveying problem on [0, 1]: k(s, t) = depth (depth^2 + (s-t)^2)^(-3/2).

    f(t) = sin(pi t) + 0.5 sin(2 pi t). Larger depth smooths the kernel and
    makes the problem harder.
    """
    _check_parameter("depth", depth)
    return _discretize(
        "gravity", 0.0, 1.0, n, lambda s, t: depth * (depth * depth + (s - t) ** 2) ** (-1.5),
        lambda t: np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t),
    )


def _heat_kernel(u: np.ndarray, kappa_heat: float) -> np.ndarray:
    """Causal heat kernel u^(-3/2)/(2 kappa sqrt(pi)) exp(-1/(4 kappa^2 u)), 0 at u <= 0."""
    out = np.zeros_like(u)
    pos = u > 0.0
    up = u[pos]
    out[pos] = up ** (-1.5) / (2.0 * kappa_heat * math.sqrt(math.pi)) * np.exp(
        -1.0 / (4.0 * (kappa_heat * kappa_heat) * up)
    )
    return out


def build_heat(n: int, kappa_heat: float = ProblemSpec.kappa_heat) -> DenseProblem:
    """Inverse heat (Volterra convolution) problem on [0, 1].

    Lower-triangular matrix from the causal kernel; the solution is a smooth
    pulse f(t) = exp(-20 (t - 0.25)^2).
    """
    _check_parameter("kappa_heat", kappa_heat)
    return _discretize(
        "heat", 0.0, 1.0, n, lambda s, t: _heat_kernel(s - t, kappa_heat),
        lambda t: np.exp(-20.0 * (t - 0.25) ** 2),
    )


# Largest D for which the exponential spectrum's sigma_D^(-2) = e^D is finite.
EXP_MAX_SIZE = math.floor(math.log(np.finfo(float).max))


def _check_exp_size(D: int):
    if D > EXP_MAX_SIZE:
        raise ValueError(
            f"exp spectrum needs D <= {EXP_MAX_SIZE}, where sigma_D^-2 = e^D is finite; got {D}"
        )


def build_synthetic(
    D: int, spectrum: str = "poly", q: float = ProblemSpec.q, truth_power: float | None = None
) -> SpectralProblem:
    """Synthetic problem given directly in singular coordinates.

    spectrum "poly" sets sigma_j^2 = j^(-q); "exp" sets sigma_j^2 = e^(-j),
    which needs D <= EXP_MAX_SIZE so that every sigma_j^(-2) is finite.
    The truth is the power sequence j^(-truth_power) (requires truth_power >
    1/2), or all zeros; any other truth is a `SpectralProblem` of its own.
    """
    _check_count("D", D, 1)
    j = np.arange(1, D + 1, dtype=float)
    if spectrum == "poly":
        _check_parameter("q", q)
        sigma = j ** (-q / 2.0)
    elif spectrum == "exp":
        _check_exp_size(D)
        sigma = np.exp(-j / 2.0)
    else:
        raise ValueError(f"unknown spectrum {spectrum!r}")
    if truth_power is not None:
        _check_parameter("truth_power", truth_power)
        x_true = j ** (-truth_power)
    else:
        x_true = np.zeros(D)
    return SpectralProblem(f"synthetic-{spectrum}", sigma, x_true)


def decompose(p: DenseProblem) -> SVDFactors:
    """Full SVD of the problem matrix with the reproducible sign convention."""
    try:
        u, s, vt = np.linalg.svd(p.matrix)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier.
        try:
            from scipy.linalg import svd as scipy_svd

            u, s, vt = scipy_svd(p.matrix, lapack_driver="gesvd")
        except Exception as exc:
            raise DecompositionError(f"SVD of {p.name!r} did not converge") from exc
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0.0] = 1.0
    u *= signs  # in place: products with +-1 are exact, and no n x n copy is made
    v = vt.T
    v *= signs
    return SVDFactors(u, s, v)


RANK_TOL = 1e-14


def spectralize(p: DenseProblem) -> SpectralProblem:
    """Convert a dense problem to singular coordinates.

    Trailing singular values below RANK_TOL * s_max are dropped (they are
    numerically zero and would poison the estimators), and the truth vector is
    truncated to the retained components.
    """
    factors = decompose(p)
    s = factors.s
    if s.size == 0 or not 0.0 < s[0] < math.inf:  # NaN fails too
        raise DecompositionError(f"{p.name!r} is numerically a zero operator or overflows")
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))  # s is nonincreasing: a leading run
    x_true = factors.v[:, :r].T @ p.f_true
    return SpectralProblem(p.name, s[:r], x_true)


DENSE_BUILDERS = {
    "phillips": lambda spec: build_phillips(spec.size),
    "deriv2": lambda spec: build_deriv2(spec.size),
    "gravity": lambda spec: build_gravity(spec.size, spec.depth),
    "heat": lambda spec: build_heat(spec.size, spec.kappa_heat),
}

# The bounded parameters each problem's builder reads.
_BOUNDED_PARAMETERS = {
    "gravity": ("depth",), "heat": ("kappa_heat",),
    "synthetic-poly": ("q", "truth_power"), "synthetic-exp": ("truth_power",),
}

PROBLEM_NAMES = tuple(DENSE_BUILDERS) + ("synthetic-poly", "synthetic-exp", "direct")


def make_problem(spec: ProblemSpec) -> SpectralProblem:
    """Build the spectral problem described by `spec`."""
    if spec.name in DENSE_BUILDERS:
        return spectralize(DENSE_BUILDERS[spec.name](spec))
    if spec.name == "synthetic-poly":
        return build_synthetic(spec.size, "poly", q=spec.q, truth_power=spec.truth_power)
    if spec.name == "synthetic-exp":
        return build_synthetic(spec.size, "exp", truth_power=spec.truth_power)
    j = np.arange(1, spec.size + 1, dtype=float)  # "direct": `ProblemSpec` admits no other name
    return SpectralProblem("direct", np.ones(spec.size), j ** (-spec.truth_power))
