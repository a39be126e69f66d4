"""One benchmark invocation: a fresh interpreter that runs the speccut CLI once.

    python3 perfbench/child.py RESULT_DIR (plain|trace|warm) -- CLI_ARGS...

Imports speccut from `src/` of the checkout this file sits in, runs
`speccut.cli.main(CLI_ARGS)` and writes `RESULT_DIR/child.json` with the exit
code, the CLOCK_MONOTONIC time at which the package import ended and one
record per `make_problem` call, with the time it returned. `trace` also wraps
every layer entry point and writes the spans to `RESULT_DIR/spans.bin`; `warm`
only imports the package.
"""

import json
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _observe_make_problem(records: list):
    import speccut.problems
    from tracer import replace_everywhere

    current = speccut.problems.make_problem

    def make_problem(spec):
        p = current(spec)
        records.append({
            "name": spec.name,
            "n": int(spec.size),
            "dense": spec.name in speccut.problems.DENSE_BUILDERS,
            "rank": int(p.size),
            "sigma_max": float(p.sigma[0]),
            "sigma_min": float(p.sigma[-1]),
            "end_ns": time.monotonic_ns(),
        })
        return p

    replace_everywhere("speccut", current, make_problem)


def main(argv) -> int:
    out = Path(argv[1])
    mode = argv[2]
    cli_args = argv[4:]
    if not (SRC / "speccut" / "cli.py").is_file():
        print(f"error: no speccut sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import speccut.cli

    import_end = time.monotonic_ns()
    if mode == "warm":
        return 0
    recorder = None
    if mode == "trace":
        from tracer import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    problems: list = []
    _observe_make_problem(problems)
    error = None
    try:
        rc = speccut.cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc, error = 1, traceback.format_exc()
    if recorder is not None:
        recorder.dump(out / "spans.bin")
    record = {
        "rc": rc,
        "error": error,
        "import_end_ns": import_end,
        "problems": problems,
    }
    (out / "child.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
