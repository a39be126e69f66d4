import math

import numpy as np
import pytest

from speccut import problems
from speccut.problems import (
    DecompositionError,
    DenseProblem,
    ProblemSpec,
    SpectralProblem,
    SVDFactors,
    build_deriv2,
    build_gravity,
    build_heat,
    build_phillips,
    build_synthetic,
    decompose,
    deriv2_exact_data,
    make_problem,
    spectralize,
    suffix_sum,
)

ALL_BUILDERS = [build_phillips, build_deriv2, build_gravity, build_heat]


def test_phillips_kernel_is_translation_invariant():
    p = build_phillips(2)
    assert p.matrix[0, 0] == p.matrix[1, 1]


def test_phillips_solution_support():
    p = build_phillips(64)
    t = -6.0 + (12.0 / 64) * (np.arange(64) + 0.5)
    outside = np.abs(t) >= 3.0
    assert np.all(p.f_true[outside] == 0.0)
    assert np.any(p.f_true[~outside] != 0.0)


def test_phillips_ill_conditioned():
    # reference runs: cond 2.9e5 at n=64 under midpoint quadrature, 4.7e6 at n=128
    s64 = np.linalg.svd(build_phillips(64).matrix, compute_uv=False)
    assert s64[0] / s64[-1] > 1e5
    s128 = np.linalg.svd(build_phillips(128).matrix, compute_uv=False)
    assert s128[0] / s128[-1] > 1e6


def test_deriv2_matrix_symmetric_and_nonpositive():
    p = build_deriv2(40)
    assert np.array_equal(p.matrix, p.matrix.T)
    assert np.all(p.matrix <= 0.0)


def test_deriv2_quadrature_against_analytic_data():
    p = build_deriv2(256)
    err = np.max(np.abs(p.matrix @ p.f_true - deriv2_exact_data(256)))
    assert err <= 1e-3


def test_deriv2_quadrature_converges():
    errs = []
    for n in (64, 128, 256, 512):
        p = build_deriv2(n)
        errs.append(np.max(np.abs(p.matrix @ p.f_true - deriv2_exact_data(n))))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_gravity_diagonal_value():
    n, depth = 32, 0.25
    p = build_gravity(n, depth)
    assert np.allclose(np.diag(p.matrix), (1.0 / n) * depth**-2, rtol=1e-14)


def test_kernel_parameters_square_by_multiplication():
    # x ** 2 at this x is one ulp below the correctly rounded x * x, and the entries differ
    x, h = 1.5164326388215692, 0.5
    assert build_gravity(2, x).matrix[0, 0] == h * (x * np.array([x * x]) ** -1.5)[0]
    u = np.array([0.5])  # s - t below the diagonal of the 2-cell grid
    heat = u**-1.5 / (2.0 * x * math.sqrt(math.pi)) * np.exp(-1.0 / (4.0 * (x * x) * u))
    assert build_heat(2, x).matrix[1, 0] == h * heat[0]


def test_gravity_severely_ill_posed():
    # reference run: s40/s1 = 3.2e-12 at n=64, depth 0.25
    s = np.linalg.svd(build_gravity(64).matrix, compute_uv=False)
    assert s[39] / s[0] < 1e-11


def test_gravity_depth_controls_smoothing():
    # deeper source smooths the data: relative singular values drop faster
    s_shallow = np.linalg.svd(build_gravity(64, 0.25).matrix, compute_uv=False)
    s_deep = np.linalg.svd(build_gravity(64, 1.0).matrix, compute_uv=False)
    assert s_deep[9] / s_deep[0] < s_shallow[9] / s_shallow[0]


def test_heat_matrix_is_lower_triangular():
    p = build_heat(24)
    assert np.array_equal(np.triu(p.matrix, 1), np.zeros((24, 24)))


def test_heat_strong_decay():
    # reference run: s40/s1 converges to ~9.5e-4 as n grows; the plunge to
    # machine level happens in the last indices
    s = np.linalg.svd(build_heat(64).matrix, compute_uv=False)
    assert s[39] / s[0] < 2e-3
    assert s[62] / s[0] < 1e-3


def test_heat_kernel_vanishes_at_origin():
    from speccut.problems import _heat_kernel

    vals = _heat_kernel(np.array([1e-6, 1e-4, 0.0, -0.5]), 1.0)
    assert vals[0] == 0.0 or vals[0] < 1e-300
    assert vals[2] == 0.0 and vals[3] == 0.0


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_builder_rejects_tiny_dimension(builder):
    # a count that is not an integer would silently build another grid, or fail in numpy
    for bad in (1, 10.5, 2.0, "8", True):
        with pytest.raises(ValueError, match="^need an integer n >= 2, got "):
            builder(bad)
    assert builder(np.int64(4)).matrix.shape == (4, 4)


def test_builders_default_to_the_problem_spec():
    # each builder's parameter defaults to `ProblemSpec`'s, so both build the same problem
    for name, build in (
        ("gravity", build_gravity), ("heat", build_heat),
        ("synthetic-poly", lambda n: build_synthetic(n, truth_power=ProblemSpec.truth_power)),
    ):
        direct, via_spec = build(16), make_problem(ProblemSpec(name, 16))
        if name != "synthetic-poly":
            direct = spectralize(direct)
        assert np.array_equal(direct.sigma, via_spec.sigma)
        assert np.array_equal(direct.x_true, via_spec.x_true)


def test_gravity_heat_reject_bad_parameters():
    with pytest.raises(ValueError):
        build_gravity(8, depth=0.0)
    with pytest.raises(ValueError):
        build_heat(8, kappa_heat=-1.0)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_builders_store_their_arrays_uncopied(builder, monkeypatch):
    readonly, kept = problems.readonly, []

    def spy(a):
        out = readonly(a)
        kept.append(out is a)
        return out

    monkeypatch.setattr(problems, "readonly", spy)
    p = builder(16)
    assert kept == [True, True]  # matrix and f_true: no n x n copy raises the build's peak
    again = DenseProblem(p.name, p.matrix, p.f_true)
    assert again.matrix is p.matrix and again.f_true is p.f_true


def test_synthetic_poly_spectrum():
    p = build_synthetic(3, "poly", q=2.0)
    assert np.allclose(p.sigma, [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)
    assert np.all(p.x_true == 0.0)


def test_synthetic_exp_spectrum():
    p = build_synthetic(2, "exp")
    assert np.allclose(p.sigma, [math.exp(-0.5), math.exp(-1.0)], rtol=1e-15)


def test_synthetic_truth_variants():
    # any other truth is a problem of its own, on the same spectrum
    sigma = build_synthetic(4, "poly", q=1.0).sigma
    explicit = SpectralProblem("synthetic-poly", sigma, np.array([1.0, -2.0, 0.0, 4.0]))
    assert np.array_equal(explicit.x_true, [1.0, -2.0, 0.0, 4.0])
    power = build_synthetic(4, "poly", q=1.0, truth_power=1.0)
    assert np.allclose(power.x_true, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-15)
    zero = build_synthetic(4, "exp")
    assert np.all(zero.x_true == 0.0)


def test_problem_is_immune_to_later_writes():
    truth = np.array([1.0, -2.0, 0.0, 4.0])
    p = SpectralProblem("synthetic-poly", build_synthetic(4, "poly", q=1.0).sigma, truth)
    assert p.truth_tail[0] == 21.0
    truth[:] = 7.0
    assert np.array_equal(p.x_true, [1.0, -2.0, 0.0, 4.0]) and p.truth_tail[0] == 21.0
    sigma = np.array([2.0, 1.0])
    q = SpectralProblem("toy", sigma, np.zeros(2))
    assert np.array_equal(q.inv_sigma_sq_cumsum, [0.25, 1.25])
    sigma[0] = 4.0
    assert np.array_equal(q.sigma, [2.0, 1.0])
    assert np.array_equal(q.inv_sigma_sq_cumsum, [0.25, 1.25])
    for arr in (p.sigma, p.x_true, p.truth_tail, q.inv_sigma_sq_cumsum):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a dense problem guards its arrays alike, so its exact data cannot go stale
    d = build_phillips(8)
    g = d.matrix @ d.f_true
    for arr in (d.matrix, d.f_true):
        with pytest.raises(ValueError):
            arr[4, ...] += 1.0
    assert np.array_equal(d.matrix @ d.f_true, g)
    writeable = np.diag([2.0, 1.0])
    e = DenseProblem("x", writeable, np.ones(2))
    writeable[0, 0] = 5.0
    assert np.array_equal(e.matrix, np.diag([2.0, 1.0]))
    assert np.array_equal(e.matrix @ e.f_true, [2.0, 1.0])
    lists = DenseProblem("x", [[2.0, 0.0], [0.0, 1.0]], [1.0, 1.0])  # taken, as by `SpectralProblem`
    assert np.array_equal(spectralize(lists).sigma, [2.0, 1.0])
    for f_true in (np.ones(3), np.ones((2, 1))):  # checked up front, as `SpectralProblem`'s vectors
        with pytest.raises(ValueError, match="^x: f_true must be a vector of length 2$"):
            DenseProblem("x", np.eye(2), f_true)


def test_dense_problem_rejects_bad_shapes_and_entries():
    for matrix in (np.ones((2, 3)), np.ones(2), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="^x: matrix must be square$"):
            DenseProblem("x", matrix, np.ones(2))
    with pytest.raises(ValueError, match="^x: need dimension >= 2$"):
        DenseProblem("x", np.ones((1, 1)), np.ones(1))
    for matrix, f_true in ((np.diag([1.0, np.inf]), np.ones(2)), (np.eye(2), [1.0, np.nan])):
        with pytest.raises(ValueError, match="^x: non-finite entries$"):
            DenseProblem("x", matrix, f_true)


def test_spectral_problem_rejects_bad_shapes_and_spectra():
    for sigma, x_true in (
        (np.ones(3), np.ones(2)), (np.ones((2, 2)), np.ones((2, 2))), (np.ones(2), np.ones((2, 1))),
    ):
        with pytest.raises(ValueError, match="^sigma and x_true must be 1-d vectors of equal"):
            SpectralProblem("x", sigma, x_true)
    for sigma in ([], [1.0, 0.0], [1.0, -1.0], [1.0, 2.0], [2.0, 1.0, 1.5]):
        with pytest.raises(ValueError, match="^sigma must be strictly positive and nonincreasing$"):
            SpectralProblem("x", np.array(sigma), np.zeros(len(sigma)))


def test_exp_spectrum_stops_where_sigma_inverse_square_overflows():
    p = build_synthetic(709, "exp")
    assert np.all(np.isfinite(p.sigma ** -2.0)) and np.isfinite(p.inv_sigma_sq_cumsum[-1])
    for D in (710, 800):
        with pytest.raises(ValueError, match="D <= 709"):
            build_synthetic(D, "exp")
        with pytest.raises(ValueError, match="D <= 709"):
            ProblemSpec("synthetic-exp", D)
    assert build_synthetic(800, "poly", q=1.0).size == 800


def test_problem_memoises_its_clean_data():
    p = build_synthetic(24, "poly", q=2.0, truth_power=1.0)
    assert p.y_clean is p.y_clean and p.clean_tail is p.clean_tail
    assert np.array_equal(p.y_clean, p.sigma * p.x_true)
    assert np.array_equal(p.clean_tail, suffix_sum((p.sigma * p.x_true) ** 2))
    for arr in (p.y_clean, p.clean_tail):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_synthetic(4, "poly", q=0.0)
    with pytest.raises(ValueError):
        build_synthetic(4, "poly", q=1.0, truth_power=0.5)
    with pytest.raises(ValueError, match="^non-finite entries$"):
        SpectralProblem("synthetic-poly", np.ones(4), np.array([1.0, np.inf, 0.0, 0.0]))
    for bad in (0, 3.5, 3.0):
        with pytest.raises(ValueError, match="^need an integer D >= 1, got "):
            build_synthetic(bad, "poly", q=1.0)
    assert build_synthetic(np.int32(3), "poly", q=1.0).size == 3
    with pytest.raises(ValueError):
        build_synthetic(4, "wavelet")


def test_problem_parameters_must_be_finite():
    # rejected by name up front, not by what building or factoring then trips over
    for name, param, bad in (
        ("gravity", "depth", math.nan), ("heat", "kappa_heat", math.inf),
        ("synthetic-poly", "q", math.inf), ("synthetic-poly", "truth_power", math.nan),
        ("synthetic-exp", "truth_power", math.inf), ("direct", "truth_power", -math.inf),
    ):
        with pytest.raises(ValueError, match=f"^{param} must be finite, got "):
            ProblemSpec(name, 8, **{param: bad})
    for build, param in (
        (lambda: build_gravity(8, depth=math.nan), "depth"),
        (lambda: build_heat(8, kappa_heat=math.inf), "kappa_heat"),
        (lambda: build_synthetic(8, "poly", q=math.inf), "q"),
        (lambda: build_synthetic(8, "poly", q=1.0, truth_power=math.nan), "truth_power"),
    ):
        with pytest.raises(ValueError, match=f"^{param} must be finite, got "):
            build()


def test_decompose_identity():
    eye = np.eye(5)
    p = DenseProblem("eye", eye, np.ones(5))
    f = decompose(p)
    assert np.array_equal(f.s, np.ones(5))
    assert np.allclose(f.u @ np.diag(f.s) @ f.v.T, eye, atol=1e-14)


def test_decompose_sorted_diagonal():
    d = np.diag([3.0, 2.0, 1.0])
    p = DenseProblem("diag", d, np.ones(3))
    assert np.array_equal(decompose(p).s, [3.0, 2.0, 1.0])


def test_decompose_falls_back_to_gesvd(monkeypatch):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    p = build_heat(32)  # not symmetric: the left and right factors differ
    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    f = decompose(p)
    scale = np.linalg.norm(p.matrix)
    assert np.linalg.norm(p.matrix - f.u @ np.diag(f.s) @ f.v.T) <= 1e-10 * scale
    assert np.all(np.diff(f.s) <= 0.0)
    lead = np.argmax(np.abs(f.u), axis=0)
    assert np.all(f.u[lead, np.arange(f.u.shape[1])] > 0.0)
    # when gesvd fails too, the problem has no usable factorization
    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
    with pytest.raises(DecompositionError, match="^SVD of 'heat' did not converge$"):
        decompose(p)


@pytest.mark.parametrize("builder", ALL_BUILDERS)
@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_svd_invariants(builder, n):
    p = builder(n)
    f = decompose(p)
    scale = np.linalg.norm(p.matrix)
    assert np.linalg.norm(p.matrix - f.u @ np.diag(f.s) @ f.v.T) <= 1e-10 * scale
    assert np.linalg.norm(f.u.T @ f.u - np.eye(n)) <= 1e-10
    assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 1e-10
    assert np.all(np.diff(f.s) <= 0.0) and np.all(f.s >= 0.0)


def test_spectralize_identity_problem():
    eye = np.eye(4)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    sp = spectralize(DenseProblem("eye", eye, e1))
    assert np.array_equal(sp.sigma, np.ones(4))
    assert np.allclose(np.abs(sp.x_true), e1, atol=1e-15)


def test_spectralize_parseval():
    p = build_phillips(64)
    sp = spectralize(p)
    lhs = np.sum((sp.sigma * sp.x_true) ** 2)
    rhs = np.sum((p.matrix @ p.f_true) ** 2)
    assert abs(lhs - rhs) <= 1e-8 * rhs


def test_spectralize_preserves_solution_norm():
    p = build_deriv2(256)
    sp = spectralize(p)
    assert sp.size == 256  # mild decay, nothing truncated
    assert abs(np.linalg.norm(sp.x_true) - np.linalg.norm(p.f_true)) <= 1e-8


def test_spectralize_data_consistency():
    p = build_gravity(64)
    f = decompose(p)
    sp = spectralize(p)
    g = p.matrix @ p.f_true
    proj = f.u[:, : sp.size].T @ g
    assert np.allclose(sp.sigma * sp.x_true, proj, atol=1e-8 * np.linalg.norm(g))


def test_spectralize_truncates_numerical_nullspace():
    p = build_gravity(96)
    sp = spectralize(p)
    assert sp.size < 96
    assert sp.sigma[-1] > 1e-14 * sp.sigma[0]


def test_spectralize_deterministic():
    a = spectralize(build_heat(48))
    b = spectralize(build_heat(48))
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.x_true, b.x_true)


def test_spectralize_rejects_zero_operator(monkeypatch):
    z = np.zeros((3, 3))
    with pytest.raises(DecompositionError):
        spectralize(DenseProblem("zero", z, np.ones(3)))
    # finite entries whose largest singular value overflows to inf, and a NaN one, fail it too
    with pytest.raises(DecompositionError, match="zero operator or overflows"):
        spectralize(DenseProblem("big", np.full((2, 2), 1e308), np.ones(2)))
    eye = np.eye(3)
    factors = SVDFactors(eye, np.array([np.nan, 1.0, 1.0]), eye)
    monkeypatch.setattr(problems, "decompose", lambda p: factors)
    with pytest.raises(DecompositionError, match="zero operator or overflows"):
        spectralize(DenseProblem("eye", eye, np.ones(3)))


def test_spectralize_keeps_the_singular_values_above_rank_tol():
    # 3e-15 lies below RANK_TOL * s_max = 3e-14, and so does the exact zero
    d = np.diag([3.0, 2.0, 3e-15, 0.0])
    sp = spectralize(DenseProblem("diag", d, np.array([1.0, 2.0, 3.0, 4.0])))
    assert np.array_equal(sp.sigma, [3.0, 2.0]) and np.array_equal(sp.x_true, [1.0, 2.0])


def test_make_problem_dispatch():
    assert make_problem(ProblemSpec("phillips", 32)).name == "phillips"
    assert make_problem(ProblemSpec("heat", 32)).name == "heat"
    direct = make_problem(ProblemSpec("direct", 16))
    assert np.all(direct.sigma == 1.0)
    poly = make_problem(ProblemSpec("synthetic-poly", 16, q=2.0, truth_power=1.0))
    assert np.allclose(poly.sigma, 1.0 / np.arange(1, 17))
    # an unknown name is rejected where the spec is made, before any work
    for name in ("laplace", "foo", ""):
        with pytest.raises(ValueError, match=f"^unknown problem {name!r}; known: phillips, "):
            ProblemSpec(name, 16)
    # a size that is not an integer is rejected before it builds another problem
    for name, size in (("synthetic-poly", 3.5), ("phillips", 10.5), ("direct", 4.5),
                       ("heat", 1), ("direct", 0), ("synthetic-poly", True), ("direct", True)):
        with pytest.raises(ValueError, match="^need an integer size >= "):
            ProblemSpec(name, size)
    assert make_problem(ProblemSpec("direct", np.int64(5))).size == 5
