"""Run one ``confanom`` command with spans around each module's public calls.

Usage: ``python3 bench/traced.py SPANS.json SRC_DIR -- <confanom arguments>``

The launcher imports the package from ``SRC_DIR``, replaces every public
function of the traced modules with a wrapper that records a span (name,
start, end, parent, counts), rebinds every reference the package holds to
the original, and then calls ``confanom.cli.main``.  Spans stay in memory
and are written to SPANS.json when the command returns.  The command itself
is unchanged, so its output files are byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("cli", "pipeline", "resampling", "detectors", "estimation",
                  "weighting", "decisions", "martingales", "snapshot",
                  "experiments")


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        # (calibration, batch) pairs seen by test_score_matrix; the objects
        # are kept alive so their ids cannot be reused within the command
        self._scored = {}

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                self.spans[index][4] = count(self, arguments, result)
            return result
        return traced

    def scored_pair(self, cm, X):
        key = (id(cm), id(X))
        first = key not in self._scored
        self._scored.setdefault(key, (cm, X))
        return first


def _rows_scored(tracer, arguments, result):
    return {"rows": int(arguments["X"].n_rows)}


def _rows_read(tracer, arguments, result):
    return {"rows": int(result.n_rows)}


def _stream_counts(tracer, arguments, result):
    final, trajectory = result
    return {"steps": len(trajectory), "alarms": len(final.alarm_history)}


def _scoring_counts(tracer, arguments, result):
    return {"new_pair": int(tracer.scored_pair(arguments["cm"], arguments["X"]))}


COUNTS = {
    "cli.read_csv_matrix": _rows_read,
    "detectors.score": _rows_scored,
    "martingales.run_stream": _stream_counts,
    "resampling.test_score_matrix": _scoring_counts,
}


def install(tracer, package):
    """Wrap the public functions of TRACED_MODULES and rebind every alias."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == package.__name__ or name.startswith(package.__name__ + ".")}
    replaced = {}
    for short in TRACED_MODULES:
        mod = modules[f"{package.__name__}.{short}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            replaced[id(fn)] = tracer.wrap(name, fn, COUNTS.get(name))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and inspect.isfunction(value):
                setattr(mod, attr, replaced[id(value)])


def main(argv):
    spans_path, src_dir, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.json SRC_DIR -- <confanom args>")
    tracer = Tracer()
    sys.path.insert(0, src_dir)
    index = tracer.open("cli.import")
    import confanom
    import confanom.cli
    tracer.close(index)
    install(tracer, confanom)
    code = 1
    try:
        code = confanom.cli.main(command)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"exit": code, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
