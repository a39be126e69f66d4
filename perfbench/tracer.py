"""Span recorder that wraps speccut's layer entry points from outside the package.

Modules import functions by name (`from .rules import balancing`), so a
function is called through whichever namespace holds the name. `install`
therefore replaces every reference to a wrapped function in every loaded
`speccut.*` module, not only the attribute of the defining module.

Each wrapped call appends one span: the entry-point index, the index of the
enclosing span (-1 at the root), and start and end in nanoseconds of
CLOCK_MONOTONIC. Spans stay in four `array('q')` columns until `dump` writes
them; `load_spans` reads them back as one (4, n) int64 array.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# Public entry points of each layer (the modules of src/speccut/), plus the
# private `rules._prefix_sq`, wrapped only so prefix-sum builds can be counted.
ENTRY_POINTS = {
    "problems": (
        "make_problem", "spectralize", "decompose", "build_phillips", "build_deriv2",
        "build_gravity", "build_heat", "build_synthetic",
    ),
    "sequence_model": (
        "observe", "sample_noise", "strong_error_sq_profile", "weak_error_sq_profile",
    ),
    "rules": (
        "select_all", "dp_modified", "balancing", "early_stop", "combined", "oracle_opt",
        "oracle_weak", "oracle_strong", "dp_at_m", "lepski_direct",
        "empirical_sup_deviation", "_prefix_sq",
    ),
    "montecarlo": (
        "run_experiment", "evaluate_replicate", "summarize", "theorem_frequency",
        "example1_frequency", "prop2_check",
    ),
    "cli": (
        "main", "run_bench", "run_verify", "verification_battery", "_write_table",
        "check_lepski_dp_identity", "check_dp_bruteforce", "check_scaling_invariance",
        "check_oracle_inequalities", "check_thm1_frequency", "check_cor1_efficiency",
        "check_example1", "check_moment_bounds",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in ENTRY_POINTS.items() for fn in fns)


def replace_everywhere(package: str, old, new) -> int:
    """Point every module-level reference to `old` in `package.*` at `new`."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    return hits


class SpanRecorder:
    """Records one span per call of every wrapped entry point."""

    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def _wrap(self, index: int, fn):
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(index)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self, package: str = "speccut"):
        """Wrap every entry point of ENTRY_POINTS; the package must be imported."""
        for index, span in enumerate(SPAN_NAMES):
            layer, fn_name = span.split(".")
            module = sys.modules[f"{package}.{layer}"]
            fn = getattr(module, fn_name, None)
            if callable(fn):
                replace_everywhere(package, fn, self._wrap(index, fn))

    def dump(self, path):
        with open(path, "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def load_spans(path):
    """The dumped spans as a (4, n) int64 array: name, parent, start, end."""
    import numpy as np

    flat = np.fromfile(path, dtype=np.int64)
    return flat.reshape(4, flat.size // 4)
