import hashlib
import json

import pytest

from speccut import cli

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


def test_bench_unwritable_path_fails():
    assert cli.main(BENCH_ARGS + ["--out", "/dev/null/nope"]) == 1


def test_bench_rejects_unknown_problem(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--problem", "laplace"])
    assert exc.value.code == 2


def test_bench_rejects_bad_deltas():
    with pytest.raises(SystemExit):
        cli.main(["bench", "--deltas", "0.1,-1"])
    with pytest.raises(SystemExit):
        cli.main(["bench", "--deltas", "abc"])
    with pytest.raises(SystemExit):  # one noise level three times would merge into one row
        cli.main(["bench", "--deltas", "1e-2,1e-2,0.01", "--replicates", "3"])


# SHA-256 of the tables of the run below; a faster rule or harness must keep them.
GUARDED_DIGESTS = {
    "errors.csv": "a6c901ec12caf88e29edc596604c2698a0e9efd6a94a2b1b6bb44659bd31864d",
    "ks.csv": "bbecc2e45fcb51dc7e8f89f0dac24d8c31d6cb1ea4f59c4d0e16b6f1f4359b6e",
    "boxplot.csv": "57fe165e2b4a9ddd0e36fc2372701e71b70a9148911163f8ddd09f01a555f307",
}


def test_bench_tables_are_byte_identical_to_reference(tmp_path):
    # synthetic-poly needs no factorization, so the digests hold for any BLAS thread count
    out = tmp_path / "guard"
    assert cli.main([
        "bench", "--problem", "synthetic-poly", "--size", "256", "--replicates", "5",
        "--deltas", "1e0,1e-2,1e-4,1e-6", "--seed", "20240717", "--out", str(out),
    ]) == 0
    for name, digest in GUARDED_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
    assert len(payload["trace"]) == 32  # per-m trace spans the full cap
    assert set(payload["k_by_rule"]) == {"dp", "bal", "es", "com", "opt", "pr", "st"}
    assert payload["det_weak"] <= payload["det_strong"]


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


def test_verify_quick_passes(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 8 and "FAIL" not in printed
    report = json.loads((out / "verify_report.json").read_text())
    assert all(item["passed"] for item in report)


def test_verify_report_names():
    results = cli.verification_battery(quick=True)
    names = [r.name for r in results]
    assert names == [
        "lepski_dp_identity",
        "dp_bruteforce_equivalence",
        "scaling_invariance",
        "oracle_orderings",
        "thm1_frequency",
        "cor1_efficiency",
        "example1_counterexample",
        "moment_bounds",
    ]


def test_preset_fills_size_and_replicates():
    parser = cli.build_parser()
    args = parser.parse_args(["bench", "--preset", "desk"])
    cli._apply_preset(args)
    assert args.size == 1024 and args.replicates == 200
    args = parser.parse_args(["bench", "--preset", "desk", "--size", "64"])
    cli._apply_preset(args)
    assert args.size == 64 and args.replicates == 200
