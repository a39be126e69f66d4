import hashlib
import json
import math

import numpy as np
import pytest

from speccut import cli, problems
from speccut.montecarlo import ExperimentConfig, run_experiment
from speccut.problems import ProblemSpec, build_synthetic
from speccut.rules import RULE_NAMES, RuleConfig, select_all
from speccut.sequence_model import (
    NoiseModel,
    observe,
    strong_error_sq_profile,
    weak_error_sq_profile,
)

GAUSS = NoiseModel("gaussian")

BENCH_ARGS = [
    "bench",
    "--problem", "synthetic-poly",
    "--size", "48",
    "--q", "2.0",
    "--truth-power", "1.0",
    "--deltas", "1e-1,1e-2",
    "--replicates", "15",
    "--seed", "11",
]


def test_bench_writes_schema_stable_csv(tmp_path):
    out = tmp_path / "run"
    assert cli.main(BENCH_ARGS + ["--out", str(out)]) == 0
    for name, header in (
        ("errors.csv", cli.ERRORS_HEADER),
        ("ks.csv", cli.KS_HEADER),
        ("boxplot.csv", cli.BOXPLOT_HEADER),
    ):
        lines = (out / name).read_text().splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == header
        assert any("seed=11" in ln for ln in meta)
    body = [ln for ln in (out / "errors.csv").read_text().splitlines() if not ln.startswith("#")]
    assert len(body) == 1 + 2 * 7  # header + deltas x rules
    first = body[1].split(",")
    assert first[0] == "0.1" and first[1] == "dp"
    assert float(first[2]) > 0.0


def test_bench_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(BENCH_ARGS + ["--out", str(a)]) == 0
    assert cli.main(BENCH_ARGS + ["--out", str(b)]) == 0
    for name in ("errors.csv", "ks.csv", "boxplot.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_bench_json_mirrors_schema(tmp_path):
    out = tmp_path / "j"
    assert cli.main(BENCH_ARGS + ["--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "errors.json").read_text())
    assert payload["metadata"]["seed"] == 11
    row = payload["rows"][0]
    assert set(row) == {"delta", "rule", "mean_error", "std_error"}
    boxes = json.loads((out / "boxplot.json").read_text())
    assert set(boxes["rows"][0]) == set(cli.BOXPLOT_HEADER.split(","))


def test_bench_unwritable_path_fails(capsys):
    # every subcommand reports an unwritable --out as one error line and exit status 1
    single = ["single", "--problem", "synthetic-poly", "--size", "16", "--deltas", "1e-2"]
    for argv in (BENCH_ARGS, ["verify", "--quick"], single):
        capsys.readouterr()
        assert cli.main(argv + ["--out", "/dev/null/nope"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv[0]}: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_bench_rejects_unknown_problem(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--problem", "laplace"])
    assert exc.value.code == 2


def test_bench_rejects_bad_deltas(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["bench", "--deltas", "0.1,-1"])
    with pytest.raises(SystemExit):
        cli.main(["bench", "--deltas", "abc"])
    with pytest.raises(SystemExit):  # one noise level three times would merge into one row
        cli.main(["bench", "--deltas", "1e-2,1e-2,0.01", "--replicates", "3"])
    small = ["--problem", "synthetic-poly", "--size", "16"]
    for bad in (
        ["--deltas", "inf"], ["--deltas", "1e-2,nan"], ["--kappa", "nan"], ["--tau", "inf"],
        ["--tau-min", "nan"], ["--q", "inf"],
    ):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--replicates", "2"] + small + ["--deltas", "1e-2"] + bad)
    # numbers that parse but that the rule configuration or problem rejects
    rejected = (
        (["--tau", "0.5"], "tau"), (["--kappa", "1"], "kappa"),
        (["--tau-min", "2", "--tau", "1.5"], "tau_min"),
        (["--problem", "synthetic-exp", "--size", "800"], "D <= 709"),
        (["--seed", "-1"], "seed"), (["--problem", "phillips", "--size", "1"], "size >= 2"),
        (["--problem", "synthetic-poly", "--size", "0"], "size >= 1"),
        (["--problem", "gravity", "--depth", "0"], "depth must exceed"),
        (["--problem", "heat", "--kappa-heat", "-1"], "kappa_heat must exceed"),
        (["--problem", "synthetic-poly", "--q", "0"], "q must exceed"),
        (["--problem", "synthetic-poly", "--truth-power", "0.5"], "truth_power must exceed"),
        (["--problem", "synthetic-exp", "--truth-power", "0.5"], "truth_power must exceed"),
        (["--problem", "direct", "--size", "64", "--truth-power", "-200"], "overflows"),
    )
    # bench's table options, which single does not take
    bench_only = (
        (["--replicates", "9"], "unrecognized arguments: --replicates 9"),
        (["--format", "json"], "unrecognized arguments: --format json"),
    )
    out = tmp_path / "never"
    for command, extra, cases in (
        ("bench", ["--replicates", "2"], rejected), ("single", [], rejected + bench_only),
    ):
        for bad, message in cases:
            capsys.readouterr()
            with pytest.raises(SystemExit) as exit_info:
                cli.main([command] + small + extra + ["--deltas", "1e-2", "--out", str(out)] + bad)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert message in captured.err and "Traceback" not in captured.err
            assert captured.out == "" and not out.exists()


# SHA-256 of the tables of the run below; a faster rule or harness must keep them.
# (problem, size, replicates) -> SHA-256 of each table at --deltas 1e0,1e-2,1e-4,1e-6 and
# --seed 20240717. The phillips and heat digests hold at 1 and 2 BLAS threads. The phillips and
# heat 5-replicate ones are perfbench's *-smoke/20240717 entries; heat at 600 replicates spans
# five row blocks per noise level.
GUARDED_DIGESTS = {
    ("synthetic-poly", 256, 5): {
        "errors.csv": "a6c901ec12caf88e29edc596604c2698a0e9efd6a94a2b1b6bb44659bd31864d",
        "ks.csv": "bbecc2e45fcb51dc7e8f89f0dac24d8c31d6cb1ea4f59c4d0e16b6f1f4359b6e",
        "boxplot.csv": "57fe165e2b4a9ddd0e36fc2372701e71b70a9148911163f8ddd09f01a555f307",
    },
    ("phillips", 64, 5): {
        "errors.csv": "415bbc9aecdc5dd14193224f89e954fa4c67946f17517c54a996f980ebe85836",
        "ks.csv": "b20164f2752449f251424eff0824954f420ef2f684ef8927b755f7721e39a35e",
        "boxplot.csv": "cf27aafff1b481febf6a4536d9323e4d44bf7f5497c3b0d614910d94f51cd8de",
    },
    ("heat", 64, 5): {
        "errors.csv": "57754796d69a37378eee2c1a0a00f9baa88065005a4e2cf4e17baa505020f774",
        "ks.csv": "b3b2ed9d087a4f01175099fb542bb9dcba7dd0b65db33b9c102f01abedbac8ce",
        "boxplot.csv": "edc6d07edd7afc9994dccc6f7bed66be6f71413ded634d0fafbc8d8a839bb3fc",
    },
    ("heat", 64, 600): {
        "errors.csv": "aee0d8596e0b4db6b7ebcaab7ee84cc36fafcc68238a696dc872c58da156ab0e",
        "ks.csv": "9dcd7325a21e712e687f295306dd395c57a58f287378a977379cb3ae56eaee85",
        "boxplot.csv": "b80f0eb6ca982b028a583a1284253c30751cf3c3066f63df6e292565372c2eda",
    },
}


def test_bench_tables_are_byte_identical_to_reference(tmp_path):
    for (problem, size, replicates), digests in GUARDED_DIGESTS.items():
        out = tmp_path / f"{problem}-{replicates}"
        assert cli.main([
            "bench", "--problem", problem, "--size", str(size), "--replicates", str(replicates),
            "--deltas", "1e0,1e-2,1e-4,1e-6", "--seed", "20240717", "--out", str(out),
        ]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, (problem, name)


def test_overflowing_balancing_sums_fail_without_tables(tmp_path, capsys):
    out = tmp_path / "never"
    exp = ["--problem", "synthetic-exp", "--out", str(out)]
    for command, size, delta in (
        ("bench", "709", "1"), ("bench", "300", "1e100"), ("single", "300", "1e100"),
    ):
        capsys.readouterr()
        replicates = ["--replicates", "2"] if command == "bench" else []
        assert cli.main([command, "--size", size, "--deltas", delta] + replicates + exp) == 1
        captured = capsys.readouterr()
        # one error line: no traceback, and no numpy overflow warning before it
        assert captured.err.startswith(f"error: {command}: balancing sums overflow")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()
    # single's one replicate (the default seed) has finite sums of (y_obs/sigma)^2;
    # only the threshold overflows, which admits every level
    assert cli.main(["single", "--size", "709", "--deltas", "1"] + exp) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "  bal  k=0 " in captured.out
    assert json.loads((out / "single.json").read_text())["k_by_rule"]["bal"] == 0


def test_unbuildable_problems_end_on_one_error_line(tmp_path, capsys):
    # parameters the parser accepts whose kernel or factorization no double can carry
    out = tmp_path / "never"
    small = ["bench", "--size", "8", "--replicates", "2", "--out", str(out)]
    for problem in (
        ["--problem", "gravity", "--depth", "1e200"],
        ["--problem", "heat", "--kappa-heat", "1e300"],
        ["--problem", "heat", "--kappa-heat", "1e-200"],
    ):
        capsys.readouterr()
        assert cli.main(small + problem) == 1, problem
        captured = capsys.readouterr()
        # one error line: no traceback, and no numpy warning before it
        assert captured.err.startswith("error: bench: ") and captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()


def test_problem_too_large_for_memory_ends_on_one_error_line(tmp_path, capsys, monkeypatch):
    # numpy's message where the dense grid's matrix does not fit; nothing is allocated here
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
    out = tmp_path / "never"
    argv = ["bench", "--problem", "phillips", "--size", "100000", "--replicates", "1",
            "--out", str(out)]
    for error, shown in ((MemoryError(message), message), (MemoryError(), "MemoryError")):
        def build_phillips(n):
            raise error

        monkeypatch.setattr(problems, "build_phillips", build_phillips)
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bench: {shown}\n"
        assert captured.out == "" and not out.exists()


def test_overflowing_factors_and_data(tmp_path, capsys):
    small = ["bench", "--problem", "synthetic-poly", "--size", "16", "--replicates", "2"]
    # a threshold factor whose square overflows gives the exact level 0
    for factor, zero_rules in ((["--kappa", "1e200"], {"bal"}), (["--tau", "1e200"], {"dp", "com"})):
        out = tmp_path / factor[0].strip("-")
        assert cli.main(small + ["--deltas", "1e-2", "--out", str(out)] + factor) == 0
        assert capsys.readouterr().err == ""
        lines = [ln for ln in (out / "ks.csv").read_text().splitlines() if ln[0] != "#"]
        assert lines[0] == cli.KS_HEADER
        rows = [ln.split(",") for ln in lines[1:]]
        assert {rule for _, rule, mean_k, std_k in rows if mean_k == std_k == "0.0"} == zero_rules
    # data whose squared sums overflow are rejected, not given levels past D
    out = tmp_path / "never"
    assert cli.main(small + ["--deltas", "1e160", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: bench: sums of y_obs^2 overflow (D=16, delta=1e+160)\n"
    assert captured.out == "" and not out.exists()


def test_single_trace(tmp_path, capsys):
    out = tmp_path / "s"
    args = [
        "single",
        "--problem", "synthetic-poly",
        "--size", "32",
        "--deltas", "1e-2",
        "--seed", "3",
        "--out", str(out),
    ]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    assert "dp" in printed and "m_max" in printed
    payload = json.loads((out / "single.json").read_text())
    assert len(payload["trace"]) == 32  # per-m trace spans the full resolution
    assert set(payload["k_by_rule"]) == {"dp", "bal", "es", "com", "opt", "pr", "st"}
    assert payload["det_weak"] <= payload["det_strong"]


# SHA-256 of the stdout and single.json of the run below; tau_min > 1 puts the
# stopping level (m_max = 4) below the sequential rule's level (es = 5).
SINGLE_ARGS = [
    "single", "--problem", "synthetic-poly", "--size", "64", "--deltas", "1e-2",
    "--seed", "7", "--tau-min", "1.2",
]
SINGLE_DIGESTS = {
    "stdout": "5a2505ff0aa75320362bb40618bbf7f1e9ca4638ed0720727e05a62269adfc63",
    "single.json": "c6eb0230fd4080c81572616141508de12dcadde73f352e13950ae3a33ca41638",
}


def test_single_output_is_byte_identical_to_reference(tmp_path, capsys):
    out = tmp_path / "pin"
    assert cli.main(SINGLE_ARGS + ["--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "m_max (inner threshold 1.2): 4\n" in printed and "  es   k=5 " in printed
    assert hashlib.sha256(printed.encode()).hexdigest() == SINGLE_DIGESTS["stdout"]
    digest = hashlib.sha256((out / "single.json").read_bytes()).hexdigest()
    assert digest == SINGLE_DIGESTS["single.json"]


def test_single_is_stable(tmp_path):
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        cli.main(
            ["single", "--problem", "direct", "--size", "16", "--deltas", "0.1",
             "--seed", "5", "--out", str(out)]
        )
        outs.append((out / "single.json").read_bytes())
    assert outs[0] == outs[1]


def test_single_takes_one_noise_level(tmp_path, capsys, monkeypatch):
    small = ["single", "--problem", "synthetic-poly", "--size", "16"]
    out = tmp_path / "never"
    with monkeypatch.context() as m:
        m.setattr(cli, "run_single", lambda args: pytest.fail("a rejected single ran"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(small + ["--deltas", "1e-2,1e-4", "--out", str(out)])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "single: takes one noise level" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()
    # without --deltas, single runs at 1e0
    printed = []
    for deltas in ([], ["--deltas", "1e0"]):
        assert cli.main(small + deltas + ["--out", str(tmp_path / "one")]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and " delta=1.0 " in printed[0]


def test_single_replays_a_bench_replicate(tmp_path):
    # single --seed s --deltas d gives the levels and errors of the bench replicate drawn
    # from seed s, bit for bit
    problem = ["--problem", "synthetic-poly", "--size", "64"]
    args = cli.build_parser().parse_args(
        ["bench"] + problem + ["--deltas", "1e-2,1e-6", "--replicates", "40"]
    )
    cli._apply_preset(args)
    cols = run_experiment(cli._experiment_config(args))
    for i, (seed, delta) in enumerate(zip(cols.seed.tolist(), cols.delta.tolist())):
        out = tmp_path / str(i)
        argv = problem + ["--seed", str(seed), "--deltas", repr(delta), "--out", str(out)]
        assert cli.main(["single"] + argv) == 0
        payload = json.loads((out / "single.json").read_text())
        for name in ("k_by_rule", "e_strong_by_rule", "e_weak_by_rule"):
            assert list(payload[name]) == list(RULE_NAMES)
            assert list(payload[name].values()) == getattr(cols, name)[:, i].tolist(), (i, name)


def test_verify_quick_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 8 and "FAIL" not in printed
    report = json.loads((out / "verify_report.json").read_text())
    assert all(item["passed"] for item in report)


# The quick battery's report, byte for byte; a faster battery must print the same.
QUICK_VERIFY_LINES = [
    "PASS  lepski_dp_identity: 20/20 exact agreements (D=256, delta=0.1, fudge=1.5)",
    "PASS  dp_bruteforce_equivalence: 20/20 exact agreements",
    "PASS  scaling_invariance: 0/10 instances changed under rescaling by 1e-3 or 1e3",
    "PASS  oracle_orderings: 0/200 replicates violated an exact inequality",
    "PASS  thm1_frequency: thm1 frequency 1.000 (required >= 0.95), largest ratio 1.184 "
    "(constant 16.71); thm2 frequency 1.000, largest ratio 0.661 (constant 8.49)",
    "PASS  cor1_efficiency: median ratio 1.268 (<= 3), 95th pct 1.371 (<= 375.5)",
    "PASS  example1_counterexample: empirical 0.94250 vs tail bound 0.00431 "
    "(required >= half the bound)",
    "PASS  moment_bounds: kappa=10: 0.3425 <= 0.8944; kappa=100: 0.1150 <= 0.2828; "
    "kappa=1000: 0.0380 <= 0.0894; sup-deviation: P=0.039 <= bound 0.344",
]
QUICK_VERIFY_SHA256 = "4763fea0155c48a722b63c26a7d083c95832bd84e0d0ce9eb504cb2d3e36a3fd"


def test_verify_quick_report_is_byte_identical(capsys):
    assert cli.main(["verify", "--quick"]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines() == QUICK_VERIFY_LINES
    assert hashlib.sha256(printed.encode()).hexdigest() == QUICK_VERIFY_SHA256


def dp_modified_per_m_loop(y_obs, delta, tau):
    """The literal rule one m at a time: each m's suffix sums built from scratch."""
    sq = y_obs * y_obs
    best = 0
    for m in range(1, len(y_obs) + 1):
        tails = np.concatenate([np.cumsum(sq[m - 1 :: -1])[::-1], [0.0]])
        k = int(np.argmax(np.sqrt(tails) <= tau * math.sqrt(m) * delta))
        best = max(best, k)
    return best


def test_bruteforce_oracle_equals_the_per_m_loop():
    rng = np.random.default_rng(2718)
    levels = []
    for _ in range(1000):
        D = int(rng.integers(1, 129))  # 1 <= D <= 128
        delta = float(10.0 ** rng.uniform(-8, 0))
        tau = float(rng.uniform(1.01, 3.0))
        scale = float(10.0 ** rng.uniform(-3, 3))
        # decaying coefficients with some exact zeros spread the levels over 0..D
        y = scale * np.arange(1, D + 1) ** -rng.uniform(0, 4) * rng.standard_normal(D)
        y[rng.random(D) < 0.1] = 0.0
        k = cli.dp_modified_bruteforce(y, delta, tau)
        assert type(k) is int and k == dp_modified_per_m_loop(y, delta, tau), (D, delta, tau)
        levels.append((k, D))
    assert sum(k == 0 for k, _ in levels) >= 50
    assert sum(k == D for k, D in levels) >= 50
    assert sum(0 < k < D for k, D in levels) >= 300


def oracle_orderings_hold_literal(ks, strong_sq, weak_sq):
    """The per-replicate inequalities of the oracle check, one replicate at a time."""
    ok = ks["pr"] <= ks["st"] and ks["com"] <= ks["dp"]
    ok = ok and strong_sq[ks["opt"]] == strong_sq.min()
    if ks["pr"] >= 1:
        ok = ok and 2.0 * weak_sq.min() >= min(weak_sq[ks["pr"]], weak_sq[ks["pr"] - 1])
    if ks["st"] >= 1:
        ok = ok and 2.0 * strong_sq.min() >= min(strong_sq[ks["st"]], strong_sq[ks["st"] - 1])
    return ok


def test_oracle_check_rows_equal_scalar_rules(monkeypatch):
    p = build_synthetic(256, "poly", q=2.0, truth_power=1.0)
    cfg = RuleConfig(tau=1.5, kappa=4.0)
    seeds = range(1729, 1729 + 300)
    block = observe(p, 1e-2, GAUSS, seeds)
    ks = select_all(block, cfg)
    strong_sq = strong_error_sq_profile(block)
    weak_sq = weak_error_sq_profile(block)
    hold = cli._oracle_orderings_hold(block, cfg)
    for r, seed in enumerate(seeds):
        row = observe(p, 1e-2, GAUSS, seed)
        assert np.array_equal(row.y_obs, block.y_obs[r])
        single = select_all(row, cfg)
        assert {rule: int(k[r]) for rule, k in ks.items()} == single
        assert np.array_equal(strong_sq[r], strong_error_sq_profile(row))
        assert np.array_equal(weak_sq[r], weak_error_sq_profile(row))
        assert hold[r] == oracle_orderings_hold_literal(
            single, strong_error_sq_profile(row), weak_error_sq_profile(row)
        )
    assert hold.all()
    # levels moved off their rules' choices break the orderings in some rows
    rng = np.random.default_rng(3)
    moved = {
        rule: np.where(rng.random(300) < 0.1, rng.integers(0, 257, 300), k)
        for rule, k in ks.items()
    }
    with monkeypatch.context() as m:
        m.setattr(cli, "select_all", lambda obs, cfg: moved)
        hold = cli._oracle_orderings_hold(block, cfg)
    for r in range(300):
        levels = {rule: int(k[r]) for rule, k in moved.items()}
        assert hold[r] == oracle_orderings_hold_literal(levels, strong_sq[r], weak_sq[r])
    assert 0 < np.count_nonzero(~hold) < 300  # only moved rows fail, and not all of them
    result = cli.check_oracle_inequalities(replicates=300)
    assert result.passed and result.detail == "0/300 replicates violated an exact inequality"


# Each check of the battery and the name it reports, in report order.
VERIFY_CHECKS = {
    "check_lepski_dp_identity": "lepski_dp_identity",
    "check_dp_bruteforce": "dp_bruteforce_equivalence",
    "check_scaling_invariance": "scaling_invariance",
    "check_oracle_inequalities": "oracle_orderings",
    "check_thm1_frequency": "thm1_frequency",
    "check_cor1_efficiency": "cor1_efficiency",
    "check_example1": "example1_counterexample",
    "check_moment_bounds": "moment_bounds",
}


def test_verify_report_names():
    results = cli.verification_battery(quick=True)
    assert [r.name for r in results] == list(VERIFY_CHECKS.values())


def test_verify_factors_first_and_reports_in_order(monkeypatch):
    # the one dense factorization runs before the replicate loops have used the heap
    calls = []
    for func, name in VERIFY_CHECKS.items():
        def stub(*args, name=name, **kwargs):
            calls.append(name)
            return cli.CheckResult(name, True, "")

        monkeypatch.setattr(cli, func, stub)
    results = cli.verification_battery(quick=True)
    assert calls[0] == "thm1_frequency" and sorted(calls) == sorted(VERIFY_CHECKS.values())
    assert [r.name for r in results] == list(VERIFY_CHECKS.values())


@pytest.mark.parametrize(
    "check, count",
    [
        ("check_lepski_dp_identity", "instances"),
        ("check_dp_bruteforce", "instances"),
        ("check_scaling_invariance", "instances"),
        ("check_oracle_inequalities", "replicates"),
        ("check_thm1_frequency", "replicates"),
        ("check_cor1_efficiency", "replicates"),
        ("check_example1", "replicates"),
        ("check_moment_bounds", "replicates"),
    ],
)
def test_verify_checks_reject_an_empty_run(check, count):
    # "0/0 agreements" would read as a pass
    with pytest.raises(ValueError, match=f"^need an integer {count} >= 1, got 0$"):
        getattr(cli, check)(**{count: 0})


def test_preset_fills_size_and_replicates():
    parser = cli.build_parser()
    args = parser.parse_args(["bench", "--preset", "desk"])
    cli._apply_preset(args)
    assert args.size == 1024 and args.replicates == 200
    args = parser.parse_args(["bench", "--preset", "desk", "--size", "64"])
    cli._apply_preset(args)
    assert args.size == 64 and args.replicates == 200


def test_flag_defaults_are_the_configuration_defaults():
    # each default is read from the configuration class that checks it
    parser = cli.build_parser()
    args = parser.parse_args(["bench"])
    cli._apply_preset(args)
    size, replicates = cli.PRESETS["paper"]
    expected = ExperimentConfig(ProblemSpec("phillips", size), replicates=replicates)
    assert cli._experiment_config(args) == expected
    assert isinstance(args.deltas, list)  # as a parsed --deltas is: `_metadata` joins lists
