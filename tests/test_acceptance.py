"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The paper-scale criterion
(c09) factors a 5000 x 5000 operator and takes a few minutes; everything else
finishes in seconds.
"""

import time

import numpy as np
import pytest

from speccut.cli import (
    check_cor1_efficiency,
    check_dp_bruteforce,
    check_example1,
    check_lepski_dp_identity,
    check_moment_bounds,
    check_oracle_inequalities,
    check_scaling_invariance,
    check_thm1_frequency,
)
from speccut.montecarlo import ExperimentConfig, run_experiment, summarize
from speccut.problems import ProblemSpec, build_deriv2, decompose, deriv2_exact_data
from speccut.rules import RULE_NAMES


def report(criterion: str, passed: bool, detail: str):
    print(f"\n[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# The detail line of each full-size check, as `speccut verify` prints it.
FULL_VERIFY_DETAILS = {
    "lepski_dp_identity": "1000/1000 exact agreements (D=256, delta=0.1, fudge=1.5)",
    "dp_bruteforce_equivalence": "500/500 exact agreements",
    "scaling_invariance": "0/200 instances changed under rescaling by 1e-3 or 1e3",
    "oracle_orderings": "0/10000 replicates violated an exact inequality",
    "thm1_frequency": "frequency 1.000 (required >= 0.95)",
    "cor1_efficiency": "median ratio 1.207 (<= 3), 95th pct 1.272 (<= 375.5)",
    "example1_counterexample": "empirical 0.94470 vs tail bound 0.00431 "
    "(required >= half the bound)",
    "moment_bounds": "kappa=10: 0.3523 <= 0.8944; kappa=100: 0.1125 <= 0.2828; "
    "kappa=1000: 0.0354 <= 0.0894; sup-deviation: P=0.039 <= bound 0.344",
}


def pinned(res) -> bool:
    """Whether a full-size check printed its reference detail line."""
    return res.detail == FULL_VERIFY_DETAILS[res.name]


@pytest.fixture(scope="module")
def desk_records():
    cfg = ExperimentConfig(
        ProblemSpec("phillips", 1024),
        deltas=(1e0, 1e-2, 1e-4, 1e-6),
        replicates=200,
        base_seed=31415,
    )
    return run_experiment(cfg)


def test_c01_lepski_equals_dp_on_direct_problems():
    t0 = time.perf_counter()
    res = check_lepski_dp_identity(instances=1000)
    elapsed = time.perf_counter() - t0
    report("c01 lepski=dp identity", res.passed and pinned(res) and elapsed < 5.0,
           f"{res.detail}, {elapsed:.2f}s")


def test_c02_dp_modified_matches_bruteforce():
    t0 = time.perf_counter()
    res = check_dp_bruteforce(instances=500)
    elapsed = time.perf_counter() - t0
    report("c02 dp bruteforce equivalence", res.passed and pinned(res) and elapsed < 5.0,
           f"{res.detail}, {elapsed:.2f}s")


def test_c03_weak_oracle_never_exceeds_strong(desk_records):
    k = desk_records.k_by_rule
    violations = int(np.count_nonzero(k[RULE_NAMES.index("pr")] > k[RULE_NAMES.index("st")]))
    report("c03 oracle ordering", violations == 0,
           f"{violations} violations in {len(desk_records)} benchmark replicates")


def test_c04_balanced_levels_are_near_optimal():
    res = check_oracle_inequalities(replicates=10000)
    report("c04 near-optimality", res.passed and pinned(res), res.detail)


def test_c05_weak_guarantee_frequency():
    t0 = time.perf_counter()
    res = check_thm1_frequency(size=1024, replicates=200)
    elapsed = time.perf_counter() - t0
    report("c05 weak-norm guarantee", res.passed and pinned(res) and elapsed < 120.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_c06_polynomial_spectrum_efficiency():
    res = check_cor1_efficiency(D=2048, replicates=200)
    report("c06 strong-norm efficiency", res.passed and pinned(res), res.detail)


def test_c07_exponential_counterexample():
    t0 = time.perf_counter()
    res = check_example1(replicates=100000)
    elapsed = time.perf_counter() - t0
    report("c07 counterexample frequency", res.passed and pinned(res) and elapsed < 30.0,
           f"{res.detail}, {elapsed:.1f}s")


def test_c08_moment_and_maximal_bounds():
    res = check_moment_bounds(replicates=10000)
    report("c08 moment bounds", res.passed and pinned(res), res.detail)


def test_c09_desk_scale_error_ordering(desk_records):
    s = summarize(desk_records)
    ok = True
    lines = []
    for i, delta in enumerate(s.deltas):
        e_opt = s.mean_error[(delta, "opt")]
        e_dp = s.mean_error[(delta, "dp")]
        e_bal = s.mean_error[(delta, "bal")]
        e_es = s.mean_error[(delta, "es")]
        close = abs(e_dp - e_bal) <= 0.5 * max(e_dp, e_bal)
        gap = e_es > (10.0 if i < 2 else 2.5) * e_dp
        ok = ok and e_opt <= e_dp and close and gap
        lines.append(f"d={delta:g}: opt={e_opt:.3g} dp={e_dp:.3g} bal={e_bal:.3g} es={e_es:.3g}")
    report("c09a desk ordering", ok, "; ".join(lines))


def test_c09_paper_scale_reproduction():
    cfg = ExperimentConfig(
        ProblemSpec("phillips", 5000), deltas=(1e-2,), replicates=1000, base_seed=20240717
    )
    s = summarize(run_experiment(cfg))
    mean_k = s.mean_k[(1e-2, "dp")]
    mean_e = s.mean_error[(1e-2, "dp")]
    ok = 5.0 <= mean_k <= 9.0 and 7.6e-2 / 2.0 <= mean_e <= 7.6e-2 * 2.0
    report("c09b paper scale", ok, f"mean k_dp={mean_k:.2f} (in [5,9]), "
           f"mean e_dp={mean_e:.4g} (within 2x of 7.6e-2)")


def test_c10_scale_invariance_of_selectors():
    res = check_scaling_invariance(instances=200)
    report("c10 scaling invariance", res.passed and pinned(res), res.detail)


def test_c11_builder_validation():
    errs = []
    recon_ok = True
    for n in (64, 128, 256, 512):
        p = build_deriv2(n)
        errs.append(float(np.max(np.abs(p.matrix @ p.f_true - deriv2_exact_data(n)))))
        f = decompose(p)
        resid = np.linalg.norm(p.matrix - f.u @ np.diag(f.s) @ f.v.T)
        recon_ok = recon_ok and resid <= 1e-10 * np.linalg.norm(p.matrix)
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    report("c11 builder validation", decreasing and recon_ok,
           f"quadrature errors {['%.3g' % e for e in errs]} strictly decreasing, "
           f"reconstructions within 1e-10")
