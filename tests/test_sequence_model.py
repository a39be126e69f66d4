import math
import tracemalloc

import numpy as np
import pytest

from speccut.problems import ProblemSpec, SpectralProblem, build_synthetic, make_problem
from speccut.sequence_model import (
    NoiseModel,
    NoisyObservation,
    observe,
    sample_noise,
    strong_error_sq_profile,
    weak_error_sq_profile,
)

from error_oracles import strong_error_literal, weak_error_literal

GAUSS = NoiseModel("gaussian")


def two_by_two():
    # sigma=[1,1], x=[1,0], delta=1, z=[1,1] -> y_clean=[1,0], y_obs=[2,1]
    p = SpectralProblem("toy", np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    return p, NoisyObservation(p, np.array([2.0, 1.0]), 1.0)


def test_unknown_noise_kind_rejected():
    for kind in ("student_t", "cauchy"):
        with pytest.raises(ValueError):
            NoiseModel(kind)


def test_sample_noise_deterministic():
    a = sample_noise(GAUSS, 100, 12345)
    b = sample_noise(GAUSS, 100, 12345)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_noise(GAUSS, 100, 12346))


@pytest.mark.parametrize("model", [GAUSS, NoiseModel("rademacher")])
def test_block_rows_equal_single_draws(model):
    seeds = [7, 0, 2**63 + 5, 7]
    rows = sample_noise(model, 33, seeds)
    assert rows.shape == (4, 33)
    for row, seed in zip(rows, seeds):
        assert np.array_equal(row, sample_noise(model, 33, seed))
    p = build_synthetic(33, "poly", q=2.0, truth_power=1.0)
    block = observe(p, 0.01, model, np.array(seeds, dtype=np.uint64))
    assert block.y_obs.shape == (4, 33) and block.size == 33
    for r, seed in enumerate(seeds):
        single = observe(p, 0.01, model, seed)
        assert np.array_equal(block.y_obs[r], single.y_obs)
        assert np.array_equal(block.prefix_sq[r], single.prefix_sq)
    assert block.problem is single.problem is p


def test_non_finite_noise_parameters_rejected():
    p = SpectralProblem("unit", np.ones(3), np.ones(3))
    for delta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            NoisyObservation(p, np.ones(3), delta)
    # counts and seeds that are not integers fail here, not in numpy
    for name, D, seed in (("D", 2.5, 1), ("D", 0, 1), ("D", True, 1), ("seed", 3, 1.5),
                          ("seed", 3, -1), ("seed", 3, [1, 2.5]), ("seed", 3, False),
                          ("seed", 3, np.array(5))):
        with pytest.raises(ValueError, match=f"^need an integer {name} >= "):
            sample_noise(GAUSS, D, seed)


def test_empty_seed_sequence_rejected():
    # blamed on the seeds where they enter, not on the (0, D) block they would give
    p = build_synthetic(8, "poly", q=2.0, truth_power=1.0)
    for seeds in ([], (), range(0), np.array([], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^need at least one seed, got an empty sequence"):
            sample_noise(GAUSS, 4, seeds)
        with pytest.raises(ValueError, match="^need at least one seed, got an empty sequence"):
            observe(p, 0.1, GAUSS, seeds)


def test_rademacher_support():
    z = sample_noise(NoiseModel("rademacher"), 1000, 7)
    assert set(np.unique(z)) == {-1.0, 1.0}


@pytest.mark.parametrize("model", [GAUSS, NoiseModel("rademacher")])
def test_unit_variance(model):
    z = sample_noise(model, 100000, 99)
    assert 0.98 <= np.mean(z**2) <= 1.02
    assert abs(np.mean(z)) < 5.0 / math.sqrt(z.size) * 3


def test_squared_mean_concentrates():
    # empirical second moment within 1 +- 5 sqrt(2/D) for nearly all seeds
    D = 1000
    tol = 5.0 * math.sqrt(2.0 / D)
    hits = sum(
        abs(np.mean(sample_noise(GAUSS, D, seed) ** 2) - 1.0) <= tol for seed in range(200)
    )
    assert hits >= 198


def test_observe_composition():
    p = build_synthetic(32, "poly", q=2.0, truth_power=1.0)
    for model in (GAUSS, NoiseModel("rademacher")):
        for seed in (42, [42, 7, 2**63 + 5]):
            obs = observe(p, 0.1, model, seed)
            assert obs.problem is p
            z = sample_noise(model, 32, seed)
            assert np.array_equal(obs.y_obs, p.sigma * p.x_true + 0.1 * z)
            assert obs.delta == 0.1
    with pytest.raises(ValueError):
        observe(p, 0.0, GAUSS, 42)


def test_observation_is_immune_to_later_writes():
    y = np.array([3.0, 1.0, 0.5, 0.0])
    view = y[:]
    view.flags.writeable = False  # read-only, but y can still write through it
    p = SpectralProblem("unit", np.ones(4), y)
    obs = NoisyObservation(p, view, 1.0)
    assert obs.prefix_sq[-1] == 10.25 and p.clean_tail[0] == 10.25
    y[0] = 0.0
    for got in (obs.y_obs, p.y_clean):
        assert np.array_equal(got, [3.0, 1.0, 0.5, 0.0])
    assert obs.prefix_sq[-1] == 10.25 and p.clean_tail[0] == 10.25
    for arr in (obs.y_obs, obs.prefix_sq, obs.noise_prefix_sq, strong_error_sq_profile(obs)):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_observe_stores_its_own_arrays_uncopied():
    p = build_synthetic(16, "poly", q=2.0, truth_power=1.0)
    for seed in (3, [3, 4]):
        obs = observe(p, 0.1, GAUSS, seed)
        # an observation holds its problem, the one owner of the clean data and its tail sums
        assert obs.problem is p
        again = NoisyObservation(p, obs.y_obs, obs.delta)
        assert again.y_obs is obs.y_obs and again.problem is p


def test_block_observation_holds_one_block_array():
    p = build_synthetic(600, "poly", q=2.0, truth_power=1.0)
    observe(p, 1e-2, GAUSS, range(13))  # builds the problem's sums, untraced
    tracemalloc.start()
    try:
        obs = observe(p, 1e-2, GAUSS, range(13))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # y_obs and small objects; the noise it was drawn from is not kept beside it
    assert obs.y_obs.nbytes == 13 * 600 * 8
    assert held <= obs.y_obs.nbytes + 4096


def test_observation_rejects_non_finite_data():
    # a NaN used to give level 2 as a row but 0 in each row of a block
    p = SpectralProblem("unit", np.ones(4), np.zeros(4))
    for bad in (np.inf, -np.inf, np.nan):
        y = np.array([1.0, 0.3, 0.5, 0.2])
        y[1] = bad
        for y_obs in (y, np.stack([y, y])):
            with pytest.raises(ValueError, match="y_obs has non-finite"):
                NoisyObservation(p, y_obs, 0.1)


def test_observe_noise_scales_linearly():
    p = build_synthetic(64, "poly", q=2.0, truth_power=1.0)
    lo = observe(p, 0.05, GAUSS, 11)
    hi = observe(p, 0.1, GAUSS, 11)
    z = sample_noise(GAUSS, 64, 11)  # one draw, scaled by each noise level
    assert np.array_equal(lo.y_obs, p.y_clean + 0.05 * z)
    assert np.array_equal(hi.y_obs, p.y_clean + (2.0 * 0.05) * z)


def test_observe_zero_truth():
    p = build_synthetic(16, "exp")
    obs = observe(p, 0.3, GAUSS, 5)
    assert np.all(p.y_clean == 0.0)
    assert np.array_equal(obs.y_obs, 0.3 * sample_noise(GAUSS, 16, 5))


def test_observe_reproducible_on_dense_problem():
    p = make_problem(ProblemSpec("phillips", 64))
    a = observe(p, 1e-2, GAUSS, 2024)
    b = observe(p, 1e-2, GAUSS, 2024)
    assert np.array_equal(a.y_obs, b.y_obs)


def test_observation_mean_smoke():
    p = build_synthetic(2048, "poly", q=1.0, truth_power=1.0)
    obs = observe(p, 1.0, GAUSS, 31)
    assert abs(np.mean(obs.y_obs - p.y_clean)) <= 5.0 / math.sqrt(2048)


def test_cutoff_recovers_truth_without_noise():
    # powers of two keep the multiply/divide round trip exact
    sigma = 2.0 ** -np.arange(1, 9)
    x = np.linspace(-1.0, 2.5, 8)
    p = SpectralProblem("dyadic", sigma, x)
    obs = NoisyObservation(p, sigma * x, 1e-3)
    assert strong_error_sq_profile(obs)[8] == 0.0


def test_error_examples():
    p, obs = two_by_two()
    strong_sq, weak_sq = strong_error_sq_profile(obs), weak_error_sq_profile(obs)
    assert math.sqrt(strong_sq[0]) == np.linalg.norm(p.x_true)
    assert math.sqrt(strong_sq[2]) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert math.sqrt(weak_sq[0]) == np.linalg.norm(p.y_clean)
    assert math.sqrt(weak_sq[1]) == pytest.approx(1.0, rel=1e-15)


def test_pure_bias_without_noise():
    p = build_synthetic(12, "poly", q=2.0, truth_power=1.0)
    obs = NoisyObservation(p, p.sigma * p.x_true, 1e-9)
    errs = np.sqrt(strong_error_sq_profile(obs)).tolist()
    assert errs[0] == np.linalg.norm(p.x_true)
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[12] <= 1e-12 * errs[0]  # only multiply/divide round-off left


def test_profiles_match_pointwise_errors():
    p = build_synthetic(40, "poly", q=1.5, truth_power=1.0)
    obs = observe(p, 0.05, GAUSS, 77)
    strong_sq = strong_error_sq_profile(obs)
    weak_sq = weak_error_sq_profile(obs)
    for k in range(0, 41, 5):
        assert math.sqrt(strong_sq[k]) == pytest.approx(strong_error_literal(obs, k), rel=1e-12)
        assert math.sqrt(weak_sq[k]) == pytest.approx(weak_error_literal(obs, k), rel=1e-12)


def test_variance_bias_decomposition():
    p = build_synthetic(64, "poly", q=2.0, truth_power=1.0)
    obs = observe(p, 0.01, GAUSS, 13)
    z = sample_noise(GAUSS, 64, 13)
    strong_sq = strong_error_sq_profile(obs)
    for k in (0, 7, 31, 64):
        var = np.sum((obs.delta * z[:k] / p.sigma[:k]) ** 2)
        bias = np.sum(p.x_true[k:] ** 2)
        assert strong_error_literal(obs, k) ** 2 == pytest.approx(var + bias, rel=1e-10)
        assert strong_sq[k] == pytest.approx(var + bias, rel=1e-10)


def test_variance_monotone_bias_monotone():
    p = build_synthetic(50, "poly", q=1.0, truth_power=0.8)
    obs = observe(p, 0.2, GAUSS, 3)
    var = np.concatenate([[0.0], np.cumsum((obs.y_obs / p.sigma - p.x_true) ** 2)])
    bias = np.concatenate([np.cumsum((p.x_true**2)[::-1])[::-1], [0.0]])
    assert np.all(np.diff(var) >= 0.0)
    assert np.all(np.diff(bias) <= 0.0)


def test_error_scaling_in_delta():
    p = build_synthetic(30, "poly", q=2.0, truth_power=1.0)
    lo = observe(p, 0.01, GAUSS, 8)
    y2 = p.y_clean + (3 * 0.01) * sample_noise(GAUSS, 30, 8)
    hi = NoisyObservation(p, y2, 3 * 0.01)
    sq_lo, sq_hi = strong_error_sq_profile(lo), strong_error_sq_profile(hi)
    assert sq_lo[0] == sq_hi[0]  # pure bias, unchanged
    for k in (5, 30):
        var_lo = sq_lo[k] - p.truth_tail[k]
        var_hi = sq_hi[k] - p.truth_tail[k]
        assert var_hi == pytest.approx(9.0 * var_lo, rel=1e-6)


def test_weak_summands_are_sigma_scaled_strong_summands():
    p = build_synthetic(20, "poly", q=2.0, truth_power=1.0)
    obs = observe(p, 0.1, GAUSS, 21)
    weak_terms = (obs.y_obs - p.y_clean) ** 2
    strong_terms = (obs.y_obs / p.sigma - p.x_true) ** 2
    assert np.allclose(weak_terms, p.sigma**2 * strong_terms, rtol=1e-9, atol=1e-30)
