"""Command line front end: benchmark runs, guarantee verification, single traces.

Subcommands:
  bench   run the Monte Carlo comparison and write error/level tables plus
          boxplot statistics of the sequential rule (CSV)
  verify  run the identity, ordering, frequency, and bound checks and write a
          pass/fail report; exit status is nonzero when any check fails
  single  run one replicate at one noise level and dump its full diagnostics,
          including the per-m trace of the residual rule; its levels and errors
          are those of the `bench` replicate drawn from the same seed

Output files carry a comment header with the full configuration, numbers are
written with shortest round-trip precision, and reruns with identical flags
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .montecarlo import (
    ExperimentConfig,
    ExperimentSummary,
    ReplicateColumns,
    _quantiles,
    _row_blocks,
    _theorem_sides,
    counterexample_tail_prob,
    evaluate_replicate,
    example1_frequency,
    prop2_check,
    run_experiment,
    summarize,
    theorem_frequency,
    theorem_max_ratio,
)
from .problems import (
    PROBLEM_NAMES,
    ProblemSpec,
    SpectralProblem,
    _check_count,
    build_synthetic,
    make_problem,
)
from .rules import (
    RULE_NAMES,
    RuleConfig,
    balancing,
    constants,
    det_strong,
    det_weak,
    dp_at_m,
    dp_modified,
    early_stop,
    select_all,
)
from .sequence_model import (
    NOISE_KINDS,
    NoiseModel,
    NoisyObservation,
    observe,
    strong_error_sq_profile,
    weak_error_sq_profile,
)

PRESETS = {"paper": (5000, 1000), "desk": (1024, 200)}

ERRORS_HEADER = "delta,rule,mean_error,std_error"
KS_HEADER = "delta,rule,mean_k,std_k"
BOXPLOT_HEADER = "delta,median,q25,q75,whisker_lo,whisker_hi,n_outliers"


def _fmt(x) -> str:
    """Shortest decimal that round-trips the value."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# verification checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_lepski_dp_identity(instances: int = 1000) -> CheckResult:
    """The comparison rule and the maximized residual rule must coincide when
    all singular values are one and the fudge parameters agree."""
    _check_count("instances", instances, 1)
    D, delta, fudge, seed = 256, 0.1, 1.5, 424242
    p = make_problem(ProblemSpec("direct", D))
    model = NoiseModel("gaussian")
    agree = 0
    for lo, hi in _row_blocks(instances, D + 1):
        obs = observe(p, delta, model, range(seed + lo, seed + hi))
        same = balancing(obs, fudge) == dp_modified(obs, fudge)
        agree += int(np.count_nonzero(same))
    return CheckResult(
        "lepski_dp_identity",
        agree == instances,
        f"{agree}/{instances} exact agreements (D={D}, delta={delta}, fudge={fudge})",
    )


def dp_modified_bruteforce(y_obs: np.ndarray, delta: float, tau: float) -> int:
    """Literal per-m evaluation of the maximized residual rule.

    Row m of a D x (D+1) array holds the first m squared coefficients, then
    zeros (which add exactly), so summing each row from the back gives that m's
    suffix sums; the largest over m of each row's smallest admissible k is
    returned. Quadratic work, kept as the oracle for the fast version.
    """
    D = len(y_obs)
    rows = np.tril(np.broadcast_to(np.append(y_obs * y_obs, 0.0), (D, D + 1)))
    tails = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    bound = tau * np.sqrt(np.arange(1, D + 1)) * delta
    return int(np.argmax(np.sqrt(tails) <= bound[:, None], axis=1).max(initial=0))


def check_dp_bruteforce(instances: int = 500) -> CheckResult:
    """Fast implementation against the quadratic scan, random sizes and scales."""
    _check_count("instances", instances, 1)
    rng = np.random.default_rng(90210)
    agree = 0
    for _ in range(instances):
        D = int(rng.integers(2, 129))  # 2 <= D <= 128
        delta = float(10.0 ** rng.uniform(-2, 0))
        tau = float(rng.uniform(1.05, 3.0))
        scale = float(10.0 ** rng.uniform(-1, 1))
        y = scale * rng.standard_normal(D)
        obs = NoisyObservation(SpectralProblem("direct", np.ones(D), np.zeros(D)), y, delta)
        agree += dp_modified(obs, tau) == dp_modified_bruteforce(y, delta, tau)
    return CheckResult(
        "dp_bruteforce_equivalence", agree == instances, f"{agree}/{instances} exact agreements"
    )


def check_scaling_invariance(instances: int = 200) -> CheckResult:
    """All selectors must be unchanged when the truth, the data and the noise
    level are rescaled by a common positive factor."""
    _check_count("instances", instances, 1)
    D, seed = 64, 5150
    rng = np.random.default_rng(seed)
    model = NoiseModel("gaussian")
    violations = 0
    for i in range(instances):
        q = float(rng.uniform(0.5, 3.0))
        s = float(rng.uniform(0.6, 2.0))
        delta = float(10.0 ** rng.uniform(-3, -0.5))
        p = build_synthetic(D, "poly", q=q, truth_power=s)
        base = _all_levels(observe(p, delta, model, seed + i))
        for c in (1e-3, 1e3):
            p2 = SpectralProblem(p.name, p.sigma, c * p.x_true)
            # the same noise draw as the base observation, scaled by c * delta
            if _all_levels(observe(p2, c * delta, model, seed + i)) != base:
                violations += 1
                break
    return CheckResult(
        "scaling_invariance",
        violations == 0,
        f"{violations}/{instances} instances changed under rescaling by 1e-3 or 1e3",
    )


def _all_levels(obs: NoisyObservation) -> tuple:
    """Every rule's level, plus the fixed-m residual rule."""
    return (
        dp_at_m(obs, 1.5, max(1, obs.size // 2)),
        select_all(obs, RuleConfig(tau=1.5, kappa=4.0)),
    )


def check_oracle_inequalities(replicates: int = 10000) -> CheckResult:
    """Per-realization facts: weak oracle at most strong oracle, the balanced
    levels are near-minimizers (squared-error factor 2), the capped rule never
    exceeds the uncapped one, and no rule beats the realized optimum."""
    _check_count("replicates", replicates, 1)
    D, delta, seed = 256, 1e-2, 1729
    p = build_synthetic(D, "poly", q=2.0, truth_power=1.0)
    model = NoiseModel("gaussian")
    cfg = RuleConfig(tau=1.5, kappa=4.0)
    bad = 0
    for lo, hi in _row_blocks(replicates, D + 1):
        obs = observe(p, delta, model, range(seed + lo, seed + hi))
        bad += int(np.count_nonzero(~_oracle_orderings_hold(obs, cfg)))
    return CheckResult(
        "oracle_orderings", bad == 0, f"{bad}/{replicates} replicates violated an exact inequality"
    )


def _oracle_orderings_hold(obs: NoisyObservation, cfg: RuleConfig) -> np.ndarray:
    """Per row of a block of observations: whether all of its exact inequalities hold."""
    ks = select_all(obs, cfg)
    strong_sq = strong_error_sq_profile(obs)
    weak_sq = weak_error_sq_profile(obs)
    rows = np.arange(strong_sq.shape[0])
    pr, st = ks["pr"], ks["st"]
    ok = (pr <= st) & (ks["com"] <= ks["dp"])
    ok &= strong_sq[rows, ks["opt"]] == strong_sq.min(axis=-1)
    # a balanced level k >= 1 has k or k-1 within squared-error factor 2 of the optimum
    for k, sq in ((pr, weak_sq), (st, strong_sq)):
        near = np.minimum(sq[rows, k], sq[rows, np.maximum(k - 1, 0)])
        ok &= (k < 1) | (2.0 * sq.min(axis=-1) >= near)
    return ok


def check_thm1_frequency(size: int = 1024, replicates: int = 200) -> CheckResult:
    """Image-space guarantee should hold in essentially every replicate. The
    solution-space guarantee (thm2) is read from the same replicates and
    reported beside it, each with its largest observed ratio to its constant."""
    cfg = ExperimentConfig(
        ProblemSpec("phillips", size), deltas=(1e-4,), rules=RuleConfig(tau=1.5),
        replicates=replicates, base_seed=31337,
    )
    cols, consts = run_experiment(cfg), constants(1.5)
    freq = {which: theorem_frequency(cols, which, consts) for which in ("thm1", "thm2")}
    ratio = {which: theorem_max_ratio(cols, which, consts) for which in ("thm1", "thm2")}
    return CheckResult(
        "thm1_frequency",
        freq["thm1"] >= 0.95,
        f"thm1 frequency {freq['thm1']:.3f} (required >= 0.95), largest ratio {ratio['thm1']:.3f} "
        f"(constant {consts.c_tau_weak:.2f}); thm2 frequency {freq['thm2']:.3f}, "
        f"largest ratio {ratio['thm2']:.3f} (constant {consts.c_tau_strong:.2f})",
    )


def check_cor1_efficiency(D: int = 2048, replicates: int = 200) -> CheckResult:
    """Solution-space efficiency on the polynomial spectrum: the selected level's
    error within a small factor of the optimum at the median, and within the
    guarantee constant at the 95th percentile. Both are numpy's linear
    percentiles, taken by `montecarlo._quantiles`."""
    cfg = ExperimentConfig(
        ProblemSpec("synthetic-poly", D, q=2.0, truth_power=1.0), deltas=(1e-4,),
        rules=RuleConfig(tau=1.5), replicates=replicates, base_seed=271828,
    )
    consts = constants(1.5, q=2.0)
    strong, c_cor, min_strong = _theorem_sides(run_experiment(cfg), "cor1", consts)
    med, p95 = _quantiles(strong / min_strong, (0.5, 0.95))
    return CheckResult(
        "cor1_efficiency",
        med <= 3.0 and p95 <= c_cor,
        f"median ratio {med:.3f} (<= 3), 95th pct {p95:.3f} (<= {c_cor:.1f})",
    )


def check_example1(replicates: int = 100000) -> CheckResult:
    """Exponential-spectrum failure mode of the solution-space comparison rule:
    the empirical failure probability must reach half the Gaussian tail bound."""
    freq = example1_frequency(1.05, 1e-3, replicates, 6174)
    p_kappa = counterexample_tail_prob(1.05)
    return CheckResult(
        "example1_counterexample",
        freq >= 0.5 * p_kappa,
        f"empirical {freq:.5f} vs tail bound {p_kappa:.5f} (required >= half the bound)",
    )


def check_moment_bounds(replicates: int = 10000) -> CheckResult:
    """Fourth-moment bound sqrt(8/kappa) on the mean absolute running-mean
    deviation, plus the maximal-inequality check at epsilon = 1/3."""
    _check_count("replicates", replicates, 1)
    model, seed = NoiseModel("gaussian"), 8128
    rng = np.random.default_rng(seed)
    details = []
    ok = True
    dev = np.empty(replicates)
    for kappa in (10, 100, 1000):
        # consecutive draws continue one stream: the blocks tile one (replicates, kappa) sample
        for lo, hi in _row_blocks(replicates, kappa):
            z = rng.standard_normal((hi - lo, kappa))
            dev[lo:hi] = np.mean(z * z - 1.0, axis=1)
        est = float(np.mean(np.abs(dev)))
        bound = math.sqrt(8.0 / kappa)
        ok = ok and est <= 1.05 * bound
        details.append(f"kappa={kappa}: {est:.4f} <= {bound:.4f}")
    del dev  # released before prop2_check draws its D = 10^4 rows
    emp, bound = prop2_check(model, 10000, 100, 1.0 / 3.0, 1000, seed)
    ok = ok and emp <= bound
    details.append(f"sup-deviation: P={emp:.3f} <= bound {bound:.3f}")
    return CheckResult("moment_bounds", ok, "; ".join(details))


def verification_battery(quick: bool = False) -> list[CheckResult]:
    """The full check suite; `quick` shrinks replicate counts for smoke runs.

    The image-space frequency check runs first and is reported fifth. It is the
    only check that factors a dense operator (phillips at D = 1024), which sets
    the battery's peak resident set, about 80 MB: run first, the factorization
    gets a heap that holds only the interpreter, not the up to about 6 MB of
    row blocks the other loops freed, which glibc keeps below the trim
    threshold `main` raises.
    """
    f = 50 if quick else 1
    thm1 = check_thm1_frequency(size=256 if quick else 1024, replicates=max(50, 200 // f))
    return [
        check_lepski_dp_identity(instances=max(20, 1000 // f)),
        check_dp_bruteforce(instances=max(20, 500 // f)),
        check_scaling_invariance(instances=max(10, 200 // f)),
        check_oracle_inequalities(replicates=max(100, 10000 // f)),
        thm1,
        check_cor1_efficiency(D=256 if quick else 2048, replicates=max(50, 200 // f)),
        check_example1(replicates=max(2000, 100000 // f)),
        check_moment_bounds(replicates=max(500, 10000 // f)),
    ]


# ---------------------------------------------------------------------------
# output writers


def _metadata(args) -> dict:
    """The configuration header of bench's tables, with the noise levels comma-joined."""
    keys = (
        "problem", "size", "depth", "kappa_heat", "q", "truth_power", "deltas",
        "tau", "kappa", "tau_min", "replicates", "seed", "noise",
    )
    meta = {key: getattr(args, key) for key in keys}
    meta["deltas"] = ",".join(map(_fmt, args.deltas))
    return meta


def _write_table(path: Path, header: str, rows: list[list], meta: dict):
    lines = [f"# speccut {key}={meta[key]}" for key in meta] + [header]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int)) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _summary_tables(summary: ExperimentSummary):
    err_rows, k_rows, box_rows = [], [], []
    for delta in summary.deltas:
        for rule in RULE_NAMES:
            err_rows.append(
                [delta, rule, summary.mean_error[(delta, rule)], summary.std_error[(delta, rule)]]
            )
            k_rows.append(
                [delta, rule, summary.mean_k[(delta, rule)], summary.std_k[(delta, rule)]]
            )
        b = summary.boxplot_k_es[delta]
        box_rows.append(
            [delta, b.median, b.q25, b.q75, b.whisker_lo, b.whisker_hi, len(b.outliers)]
        )
    return err_rows, k_rows, box_rows


# ---------------------------------------------------------------------------
# subcommands


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        problem=ProblemSpec(
            name=args.problem, size=args.size, depth=args.depth,
            kappa_heat=args.kappa_heat, q=args.q, truth_power=args.truth_power,
        ),
        deltas=tuple(args.deltas),
        rules=RuleConfig(tau=args.tau, kappa=args.kappa, tau_min=args.tau_min),
        noise=NoiseModel(args.noise),
        replicates=args.replicates,
        base_seed=args.seed,
    )


def run_bench(args) -> int:
    cfg = _experiment_config(args)
    records = run_experiment(cfg)
    summary = summarize(records)
    meta = _metadata(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    err_rows, k_rows, box_rows = _summary_tables(summary)
    _write_table(out / "errors.csv", ERRORS_HEADER, err_rows, meta)
    _write_table(out / "ks.csv", KS_HEADER, k_rows, meta)
    _write_table(out / "boxplot.csv", BOXPLOT_HEADER, box_rows, meta)
    print(f"wrote errors.csv, ks.csv, boxplot.csv to {out}")
    return 0


def run_verify(args) -> int:
    results = verification_battery(quick=args.quick)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = [asdict(r) for r in results]
        (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 1


def run_single(args) -> int:
    cfg = _experiment_config(args)
    p = make_problem(cfg.problem)
    delta = args.deltas[0]
    obs = observe(p, delta, cfg.noise, args.seed)
    cols = ReplicateColumns.empty(1)  # bench's evaluation: its replicate of this seed, bit for bit
    evaluate_replicate(obs, cfg.rules, cols, 0)
    # single.json's keys in this order; stdout prints the same values
    record = {
        "problem": p.name,
        "delta": delta,
        "seed": args.seed,
        "trace": [dp_at_m(obs, args.tau, m) for m in range(1, p.size + 1)],
        "m_max": early_stop(obs, tau=args.tau_min),
    }
    per_rule = ("k_by_rule", "e_strong_by_rule", "e_weak_by_rule")
    for key in per_rule:
        record[key] = dict(zip(RULE_NAMES, getattr(cols, key)[:, 0].tolist()))
    record["det_weak"], record["det_strong"] = det_weak(p, delta), det_strong(p, delta)
    trace = record["trace"]
    print(f"problem={p.name} D={p.size} delta={_fmt(delta)} seed={args.seed}")
    print("per-m trace of the residual rule (m: k):")
    for start in range(0, p.size, 16):
        print("  m=%-5d %s" % (start + 1, " ".join(map(str, trace[start : start + 16]))))
    print(f"m_max (inner threshold {args.tau_min}): {record['m_max']}")
    print("selected levels and errors:")
    for rule in RULE_NAMES:
        k, strong, weak = (record[key][rule] for key in per_rule)
        print(f"  {rule:4s} k={k:<6d} strong={_fmt(strong)} weak={_fmt(weak)}")
    print(f"deterministic oracle levels: weak={record['det_weak']} strong={record['det_strong']}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "single.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parse_deltas(text: str) -> list[float]:
    """A comma-separated list of numbers; `ExperimentConfig` validates the values."""
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad delta list {text!r}") from exc


def _finite(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return x


def _add_common(sub):
    sub.add_argument("--problem", choices=PROBLEM_NAMES, default="phillips")
    sub.add_argument("--size", type=int, default=None, help="discretization dimension D")
    sub.add_argument(
        "--depth", type=_finite, default=ProblemSpec.depth, help="gravity source depth"
    )
    sub.add_argument("--kappa-heat", type=_finite, default=ProblemSpec.kappa_heat)
    sub.add_argument(
        "--q", type=_finite, default=ProblemSpec.q, help="polynomial spectrum decay exponent"
    )
    sub.add_argument("--truth-power", type=_finite, default=ProblemSpec.truth_power)
    sub.add_argument("--deltas", type=_parse_deltas, default=ExperimentConfig.deltas)
    sub.add_argument("--tau", type=_finite, default=RuleConfig.tau)
    sub.add_argument("--kappa", type=_finite, default=RuleConfig.kappa)
    sub.add_argument("--tau-min", type=_finite, default=RuleConfig.tau_min)
    sub.add_argument("--seed", type=int, default=ExperimentConfig.base_seed)
    sub.add_argument("--noise", choices=NOISE_KINDS, default=NoiseModel.kind)
    sub.add_argument("--out", default="results")
    sub.add_argument("--preset", choices=tuple(PRESETS), default="paper")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speccut",
        description="Spectral cut-off regularization benchmarks and rule verification.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    bench = subs.add_parser("bench", help="Monte Carlo comparison tables")
    _add_common(bench)
    bench.add_argument("--replicates", type=int, default=None)
    verify = subs.add_parser("verify", help="identity/frequency/bound checks")
    verify.add_argument("--quick", action="store_true", help="reduced replicate counts")
    verify.add_argument("--out", default=None)
    single = subs.add_parser("single", help="one replicate at one noise level, in full detail")
    _add_common(single)
    single.set_defaults(replicates=1, deltas=[1e0])
    return parser


def _apply_preset(args):
    size, replicates = PRESETS[args.preset]
    if args.size is None:
        args.size = size
    if args.replicates is None:
        args.replicates = replicates


def main(argv: list[str] | None = None) -> int:
    # glibc gives the top of its heap back once more of it is free than its trim threshold,
    # 128 KiB at first, so a row block freed there would be refaulted by the next. Freeing
    # an mmapped chunk raises that threshold to twice the chunk's size (mallopt(3), NOTES),
    # as every dense factorization does; this 4 MiB array, freed at once, does it for every
    # command. Only `main` does it: importing speccut leaves a host program's allocator alone.
    np.empty(1 << 19)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand != "verify":
        _apply_preset(args)
        try:  # numbers that parse but that the configuration rejects are usage errors
            _experiment_config(args)
            if args.subcommand == "single" and len(args.deltas) > 1:
                raise ValueError(f"takes one noise level, got --deltas {args.deltas}")
        except ValueError as exc:
            parser.error(f"{args.subcommand}: {exc}")
    # looked up per call, so a wrapper installed later on a run_* name is what runs
    run = {"bench": run_bench, "verify": run_verify, "single": run_single}[args.subcommand]
    try:
        return run(args)
    # data the rules cannot evaluate, an unwritable --out, a problem too large for memory
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {args.subcommand}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
