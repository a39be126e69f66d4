"""speccut benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S        # every workload
    python3 perfbench/run.py --smoke --workload NAME --seconds 1 --trace 1
    python3 perfbench/run.py --make-reference                  # rewrite reference.json

Run from the root of a checkout. Each workload is one `speccut` command, run
closed-loop: one invocation at a time, each in a fresh interpreter
(`child.py`), repeated for `--seconds` and at least MIN_PLAIN times. Every
invocation's outputs are checked against `reference.json`, the outputs of the
commit that defined this benchmark; a mismatch, a crash or an unexpected exit
code counts as failed outputs.

`--trace 0` reports the end-to-end metrics as medians over the invocations.
`--trace 1` alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones, plus the tracing overhead. The last
line of standard output is the JSON result; the lines above it are for people.
See README.md in this directory for the workloads, metrics and the gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import ENTRY_POINTS, SPAN_NAMES, load_spans  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = Path(".perfbench_work")
DELTAS = "1e0,1e-2,1e-4,1e-6"  # the paper's noise grid
BASE_SEED = 20240717  # the CLI's default --seed
N_INPUT_SEEDS = 16  # --seed n selects input seed BASE_SEED + n mod 16
MIN_PLAIN = 3  # untraced invocations per run, at least
MIN_TRACED = 2  # traced invocations per --trace 1 run, at least
STOP_STARTING_AFTER_S = 110.0  # keeps a run under the 180 s limit
INVOCATION_TIMEOUT_S = 150.0
# Golub-Van Loan operation count of a square Golub-Reinsch SVD computing U
# and V (4n^3 + 8n^3 + 9n^3); labelled computed, not measured.
SVD_FLOP_PER_N3 = 21


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    smoke_argv: tuple[str, ...]
    replicates: int  # Monte Carlo replicates (or check instances) per invocation
    smoke_replicates: int
    not_applicable: frozenset  # per-layer metrics this workload does not exercise

    @property
    def is_bench(self) -> bool:
        return self.argv[0] == "bench"


def _bench(problem: str, size: int, replicates: int) -> tuple[str, ...]:
    return ("bench", "--problem", problem, "--size", str(size),
            "--replicates", str(replicates), "--deltas", DELTAS)


_CHECKS = tuple(fn for fn in ENTRY_POINTS["cli"] if fn.startswith("check_"))
_VERIFY_ONLY = frozenset(
    {"montecarlo.example1_frequency_s", "montecarlo.prop2_check_s"}
    | {f"cli.check.{fn[len('check_'):]}_s" for fn in _CHECKS}
)
_DENSE_ONLY = frozenset({
    "problems.decompose_s", "problems.spectralize_self_s", "problems.retained_rank",
    "problems.factor_bytes_computed", "problems.decompose_flop_computed",
})

# Replicate counts of `verification_battery`: lepski 1000, bruteforce 500,
# scaling 200, oracle orderings 10000, thm1 200, cor1 200, example1 100000,
# moment bounds 3 x 10000 plus prop2 1000; quick: 20+20+10+200+50+50+2000+1500+1000.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-phillips", _bench("phillips", 1600, 250), _bench("phillips", 64, 5),
                 4 * 250, 4 * 5, _VERIFY_ONLY),
        Workload("heat-dense", _bench("heat", 1500, 500), _bench("heat", 64, 5),
                 4 * 500, 4 * 5, _VERIFY_ONLY),
        Workload("mc-synthetic", _bench("synthetic-poly", 5000, 500),
                 _bench("synthetic-poly", 256, 5), 4 * 500, 4 * 5, _VERIFY_ONLY | _DENSE_ONLY),
        Workload("verify-battery", ("verify",), ("verify", "--quick"), 143100, 4850,
                 frozenset({"montecarlo.summarize_s", "cli.write_s"})),
    )
}

# Printed for every untraced run. replicates_per_s is left out of the result:
# on the dense workloads it is computed from the ~0.4 s after the SVD, and its
# spread over ten seeds (0.27) exceeded the largest bound a metric may have.
PRINTED = {"wall_s": "s", "setup_s": "s", "replicates_per_s": "1/s", "peak_rss_mb": "MB"}
END_TO_END = {m: PRINTED[m] for m in ("wall_s", "setup_s", "peak_rss_mb")}

_BUILDERS = tuple(f"problems.{fn}" for fn in ENTRY_POINTS["problems"] if fn.startswith("build_"))
_RULE_TAGS = {
    "dp": "dp_modified", "bal": "balancing", "es": "early_stop", "com": "combined",
    "opt": "oracle_opt", "pr": "oracle_weak", "st": "oracle_strong",
}

# name -> (unit, span names whose calls it is measured from; empty: always present)
PER_LAYER = {
    "problems.make_problem_s": ("s", ("problems.make_problem",)),
    "problems.build_s": ("s", _BUILDERS),
    "problems.decompose_s": ("s", ("problems.decompose",)),
    "problems.spectralize_self_s": ("s", ("problems.spectralize",)),
    "problems.retained_rank": ("count", ("problems.spectralize",)),
    "problems.factor_bytes_computed": ("bytes", ("problems.decompose",)),
    "problems.decompose_flop_computed": ("flop", ("problems.decompose",)),
    "sequence_model.observe_s": ("s", ("sequence_model.observe",)),
    "sequence_model.observe_calls": ("count", ("sequence_model.observe",)),
    "sequence_model.profile_s": (
        "s", ("sequence_model.strong_error_sq_profile", "sequence_model.weak_error_sq_profile")),
    **{f"rules.{tag}_s": ("s", (f"rules.{fn}",)) for tag, fn in _RULE_TAGS.items()},
    "rules.select_all_s": ("s", ("rules.select_all",)),
    "rules.select_all_calls": ("count", ("rules.select_all",)),
    "rules.prefix_sums_per_select": ("ratio", ("rules._prefix_sq",)),
    "montecarlo.evaluate_replicate_us_p50": ("us", ("montecarlo.evaluate_replicate",)),
    "montecarlo.evaluate_replicate_us_p99": ("us", ("montecarlo.evaluate_replicate",)),
    "montecarlo.evaluate_replicate_samples": ("count", ("montecarlo.evaluate_replicate",)),
    "montecarlo.loop_self_s": ("s", ("montecarlo.run_experiment",)),
    "montecarlo.summarize_s": ("s", ("montecarlo.summarize",)),
    "montecarlo.example1_frequency_s": ("s", ("montecarlo.example1_frequency",)),
    "montecarlo.prop2_check_s": ("s", ("montecarlo.prop2_check",)),
    "cli.write_s": ("s", ("cli._write_table",)),
    **{f"cli.check.{fn[len('check_'):]}_s": ("s", (f"cli.{fn}",)) for fn in _CHECKS},
    **{f"{layer}.self_s": ("s", tuple(f"{layer}.{fn}" for fn in fns))
       for layer, fns in ENTRY_POINTS.items()},
    **{f"{layer}.self_share": ("ratio", tuple(f"{layer}.{fn}" for fn in fns))
       for layer, fns in ENTRY_POINTS.items()},
    "trace.wall_s": ("s", ()),
    "trace.untraced_wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "trace.spans": ("count", ()),
}


@dataclass
class Invocation:
    traced: bool
    ok: bool  # the child ran to the end and reported
    wall_s: float
    setup_s: float
    rss_mb: float
    attempted: int
    failed: int
    outputs: dict
    problems: list
    layer: dict | None = None  # per-layer values and span call counts, traced only


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(threads: int) -> dict:
    import importlib.metadata

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one invocation


def _kill(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], env: dict, log: Path) -> tuple[float, int, float, int]:
    """Run cmd to completion; (wall seconds, exit code, peak RSS in MB, start ns)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    t0 = time.monotonic_ns()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    wall = (time.monotonic_ns() - t0) / 1e9
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, t0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def collect_outputs(workload: Workload, out: Path) -> dict:
    """What the gate compares: table digests for bench, PASS/FAIL per check for verify."""
    if workload.is_bench:
        return {t.name: _sha256(t) for t in sorted(out.glob("*.csv"))}
    report = out / "verify_report.json"
    if not report.is_file():
        return {}
    return {r["name"]: "PASS" if r["passed"] else "FAIL" for r in json.loads(report.read_text())}


def gate(expected: dict | None, rc: int | None, outputs: dict) -> tuple[int, int]:
    """(attempted, failed) outputs against the reference entry {"rc", "outputs"}.

    Without a reference entry nothing can be confirmed, so every output fails.
    A wrong exit code, or a child that never reported one, fails them all.
    """
    if expected is None:
        return max(1, len(outputs)), max(1, len(outputs))
    want = expected["outputs"]
    if rc != expected["rc"]:
        return len(want), len(want)
    return len(want), sum(outputs.get(key) != value for key, value in want.items())


def invoke(workload: Workload, smoke: bool, input_seed: int, traced: bool, inv_dir: Path,
           env: dict, expected: dict | None) -> Invocation:
    out = inv_dir / "out"
    inv_dir.mkdir(parents=True)
    cli = list(workload.smoke_argv if smoke else workload.argv)
    if workload.is_bench:
        cli += ["--seed", str(input_seed)]
    cli += ["--out", str(out)]
    mode = "trace" if traced else "plain"
    cmd = [sys.executable, str(HERE / "child.py"), str(inv_dir), mode, "--", *cli]
    wall, code, rss, t0 = spawn(cmd, env, inv_dir / "log.txt")
    report = inv_dir / "child.json"
    record = json.loads(report.read_text()) if code == 0 and report.is_file() else None
    rc = None if record is None else record["rc"]
    outputs = collect_outputs(workload, out) if out.is_dir() else {}
    attempted, failed = gate(expected, rc, outputs)
    problems = [] if record is None else record["problems"]
    if record is None:
        setup = wall
    elif workload.is_bench and problems:
        setup = (problems[0]["end_ns"] - t0) / 1e9
    else:
        setup = (record["import_end_ns"] - t0) / 1e9
    inv = Invocation(traced, record is not None and rc == 0, wall, setup, rss, attempted,
                     failed, outputs, problems)
    if traced and record is not None:
        inv.layer = layer_values(load_spans(inv_dir / "spans.bin"), problems)
    return inv


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def layer_values(spans, problems: list) -> dict:
    """Per-invocation per-layer values plus raw span facts used across invocations."""
    import numpy as np

    name, parent, start, end = spans
    n_names = len(SPAN_NAMES)
    dur = (end - start) / 1e9
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=name.size)
    own = dur - child_time
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    self_time = np.bincount(name, weights=own, minlength=n_names)
    index = {s: i for i, s in enumerate(SPAN_NAMES)}

    def tot(*spans_):
        return float(sum(total[index[s]] for s in spans_))

    def slf(*spans_):
        return float(sum(self_time[index[s]] for s in spans_))

    # prefix-sum builds made inside a select_all call
    sel, pre = index["rules.select_all"], index["rules._prefix_sq"]
    under = np.zeros(name.size, dtype=bool)
    anc = parent.copy()
    for _ in range(64):
        live = anc >= 0
        if not live.any():
            break
        under[live] |= name[anc[live]] == sel
        anc[live] = parent[anc[live]]
    n_select = int(calls[sel])
    n_prefix_in_select = int(np.sum(under & (name == pre)))

    work = work_record(problems)
    main_s = tot("cli.main")
    v = {
        "problems.make_problem_s": tot("problems.make_problem"),
        "problems.build_s": tot(*_BUILDERS),
        "problems.decompose_s": tot("problems.decompose"),
        "problems.spectralize_self_s": tot("problems.spectralize") - tot("problems.decompose"),
        "problems.retained_rank": max((w["retained_rank"] for w in work), default=0),
        "problems.factor_bytes_computed": sum(w["bytes_A_U_V_computed"] for w in work),
        "problems.decompose_flop_computed": sum(w["svd_flop_computed"] for w in work),
        "sequence_model.observe_s": tot("sequence_model.observe"),
        "sequence_model.observe_calls": int(calls[index["sequence_model.observe"]]),
        "sequence_model.profile_s": tot(
            "sequence_model.strong_error_sq_profile", "sequence_model.weak_error_sq_profile"),
        **{f"rules.{tag}_s": tot(f"rules.{fn}") for tag, fn in _RULE_TAGS.items()},
        "rules.select_all_s": tot("rules.select_all"),
        "rules.select_all_calls": n_select,
        "rules.prefix_sums_per_select": n_prefix_in_select / n_select if n_select else 0.0,
        "montecarlo.loop_self_s": slf("montecarlo.run_experiment", "montecarlo.evaluate_replicate"),
        "montecarlo.summarize_s": tot("montecarlo.summarize"),
        "montecarlo.example1_frequency_s": tot("montecarlo.example1_frequency"),
        "montecarlo.prop2_check_s": tot("montecarlo.prop2_check"),
        "cli.write_s": tot("cli._write_table"),
        **{f"cli.check.{fn[len('check_'):]}_s": tot(f"cli.{fn}") for fn in _CHECKS},
        "trace.spans": int(name.size),
    }
    for layer, fns in ENTRY_POINTS.items():
        layer_self = slf(*(f"{layer}.{fn}" for fn in fns))
        v[f"{layer}.self_s"] = layer_self
        v[f"{layer}.self_share"] = layer_self / main_s if main_s > 0 else 0.0
    evaluate = name == index["montecarlo.evaluate_replicate"]
    return {
        "values": v,
        "calls": {s: int(calls[i]) for i, s in enumerate(SPAN_NAMES)},
        "evaluate_us": (dur[evaluate] * 1e6).tolist(),
    }


def per_layer_metrics(workload: Workload, invs: list[Invocation]) -> tuple[dict, list[str]]:
    """Medians over traced invocations, and the expected metrics whose spans never ran."""
    import numpy as np

    traced = [i.layer for i in invs if i.layer is not None]
    plain = [i.wall_s for i in invs if not i.traced]
    calls = {s: max(t["calls"][s] for t in traced) for s in SPAN_NAMES} if traced else {}
    evaluate = [x for t in traced for x in t["evaluate_us"]]
    values = {}
    for metric in PER_LAYER:
        if metric in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s") or (
                metric.startswith("montecarlo.evaluate_replicate_")):
            continue
        values[metric] = statistics.median(t["values"][metric] for t in traced) if traced else 0.0
    values["montecarlo.evaluate_replicate_samples"] = len(evaluate)
    pct = np.percentile(evaluate, [50.0, 99.0]) if evaluate else (0.0, 0.0)
    values["montecarlo.evaluate_replicate_us_p50"] = float(pct[0])
    values["montecarlo.evaluate_replicate_us_p99"] = float(pct[1])
    traced_wall = statistics.median(i.wall_s for i in invs if i.traced) if traced else 0.0
    untraced_wall = statistics.median(plain) if plain else 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    missing = [
        m for m, (_, sources) in PER_LAYER.items()
        if sources and m not in workload.not_applicable
        and not any(calls.get(s, 0) for s in sources)
    ]
    for m in missing:
        del values[m]
    return values, missing


# ---------------------------------------------------------------------------
# one run of one workload


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def end_to_end_series(workload: Workload, smoke: bool, invs: list[Invocation]) -> dict:
    """Each end-to-end metric's value in every untraced invocation."""
    plain = [i for i in invs if not i.traced]
    replicates = workload.smoke_replicates if smoke else workload.replicates
    return {
        "wall_s": [i.wall_s for i in plain],
        "setup_s": [i.setup_s for i in plain],
        "replicates_per_s": [replicates / max(i.wall_s - i.setup_s, 1e-9) for i in plain],
        "peak_rss_mb": [i.rss_mb for i in plain],
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_key(workload: Workload, smoke: bool, input_seed: int) -> str:
    config = workload.name + ("-smoke" if smoke else "")
    return f"{config}/{input_seed if workload.is_bench else 'fixed'}"


def input_seed_for(seed: int) -> int:
    return BASE_SEED + seed % N_INPUT_SEEDS


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 reference: dict, threads: int) -> dict:
    input_seed = input_seed_for(seed)
    env = child_env(threads)
    key = reference_key(workload, smoke, input_seed)
    expected = reference.get("threads", {}).get(str(threads), {}).get(key)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compiles bytecode and warms the file cache; users pay neither on every run.
    spawn([sys.executable, str(HERE / "child.py"), str(work), "warm", "--"], env,
          work / "warm.txt")
    invs: list[Invocation] = []
    began = time.monotonic()
    while True:
        traced = trace and len(invs) % 2 == 1
        inv = invoke(workload, smoke, input_seed, traced, work / str(len(invs)), env, expected)
        invs.append(inv)
        if not inv.ok:
            break
        elapsed = time.monotonic() - began
        n_plain = sum(not i.traced for i in invs)
        n_traced = len(invs) - n_plain
        enough = n_plain >= (MIN_TRACED if trace else MIN_PLAIN) and (
            not trace or n_traced >= MIN_TRACED)
        # Start another invocation only if it would end less than half of
        # its expected length past the deadline, so a run lasts ~`seconds`.
        next_traced = trace and len(invs) % 2 == 1
        like_next = [i.wall_s for i in invs if i.traced == next_traced] or [inv.wall_s]
        next_s = statistics.median(like_next)
        if (elapsed + next_s / 2 >= seconds and enough) or elapsed >= STOP_STARTING_AFTER_S:
            break
    attempted = sum(i.attempted for i in invs)
    failed = sum(i.failed for i in invs)
    result = {
        "workload": workload.name,
        "seed": seed,
        "input_seed": input_seed if workload.is_bench else None,
        "reference_key": key,
        "reference_found": expected is not None,
        "invocations": len(invs),
        "measured_s": time.monotonic() - began,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "outputs": invs[-1].outputs,
        "work": work_record(invs[-1].problems),
        "series": end_to_end_series(workload, smoke, invs),
        "traced": sum(i.traced for i in invs),
    }
    if trace:
        result["per_layer"], result["missing"] = per_layer_metrics(workload, invs)
    return result


def work_record(problems: list) -> list[dict]:
    """Computed work of each dense problem: sizes, spectrum, bytes and SVD flops."""
    return [
        {
            "problem": p["name"], "n": p["n"], "retained_rank": p["rank"],
            "sigma_max": p["sigma_max"], "sigma_min": p["sigma_min"],
            "sigma_ratio": p["sigma_max"] / p["sigma_min"],
            "bytes_A_U_V_computed": 3 * 8 * p["n"] ** 2,
            "svd_flop_computed": SVD_FLOP_PER_N3 * p["n"] ** 3,
        }
        for p in problems if p["dense"]
    ]


# ---------------------------------------------------------------------------
# reporting


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable block for one run; return its metrics."""
    w = result["workload"]
    print(f"== {w}: {result['invocations']} invocations in {result['measured_s']:.1f} s, "
          f"seed {result['seed']} (input seed {result['input_seed']})")
    print(f"outputs: {result['attempted']} attempted, {result['failed']} failed, "
          f"error_rate {result['error_rate']:.6g} (reference {result['reference_key']}"
          f"{'' if result['reference_found'] else ' NOT FOUND'})")
    print("digests " + json.dumps(result["outputs"], sort_keys=True))
    if result["work"]:
        print("work (computed) " + json.dumps(result["work"]))
    if not trace:
        metrics = {}
        for m, xs in result["series"].items():
            q1, q3 = _quartiles(xs)
            med = statistics.median(xs)
            if m in END_TO_END:
                metrics[m] = {"value": med, "unit": END_TO_END[m]}
            print(f"  {m:<18} {med:>14.6g} {PRINTED[m]:<5} median of {len(xs)}, "
                  f"quartiles {q1:.6g} .. {q3:.6g}")
        return metrics
    metrics = {m: {"value": v, "unit": PER_LAYER[m][0]} for m, v in result["per_layer"].items()}
    print(f"per-layer values: medians of {result['traced']} traced invocations")
    for m, entry in metrics.items():
        print(f"  {m:<40} {entry['value']:>14.6g} {entry['unit']}")
    for m in result["missing"]:
        print(f"  {m:<40} MISSING (expected on {w}, its spans never ran)")
    return metrics


def make_reference(threads_list: list[int]) -> dict:
    """Outputs of every workload and input seed, per BLAS thread count."""
    reference = {"environment": environment(max(threads_list)), "threads": {}}
    for threads in threads_list:
        env = child_env(threads)
        entries = {}
        for workload in WORKLOADS.values():
            for smoke in (True, False):
                seeds = range(N_INPUT_SEEDS) if workload.is_bench else (0,)
                for seed in seeds:
                    input_seed = input_seed_for(seed)
                    inv_dir = WORK / "reference" / str(threads) / workload.name / str(seed)
                    shutil.rmtree(inv_dir, ignore_errors=True)
                    inv = invoke(workload, smoke, input_seed, False, inv_dir, env, None)
                    rc = json.loads((inv_dir / "child.json").read_text())["rc"]
                    key = reference_key(workload, smoke, input_seed)
                    entries[key] = {"rc": rc, "outputs": inv.outputs}
                    print(f"threads={threads} {key} rc={rc} {len(inv.outputs)} outputs",
                          file=sys.stderr)
        reference["threads"][str(threads)] = entries
    return reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the self-test")
    parser.add_argument("--make-reference", action="store_true",
                        help="rewrite reference.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if not (Path("src") / "speccut" / "cli.py").is_file():
        print("error: run from the root of a speccut checkout (no src/speccut/cli.py here)",
              file=sys.stderr)
        return 2
    threads = blas_threads()
    os.environ.update(child_env(threads))
    if args.make_reference:
        reference = make_reference(list(range(1, threads + 1)))
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        return 0
    reference = load_reference()
    env_record = environment(threads)
    print("environment " + json.dumps(env_record))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                              args.smoke, reference, threads)
        run_metrics = report(result, bool(args.trace))
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["failed"] == 0
        if len(names) == 1:
            metrics = run_metrics
        else:
            metrics.update({f"{name}.{m}": v for m, v in run_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
