"""Benchmark of the ``confanom`` command line.

One run of one workload (the last line of stdout is the result)::

    python3 bench/run.py --workload stream_monitor --seed 1 --seconds 45 --trace 0

Workloads over several seeds (every workload without ``--workload``),
written to a results file::

    python3 bench/run.py --suite --runs 10 --workload strategy_sweep --workload stream_monitor

Two results files side by side::

    python3 bench/run.py --compare bench/out/results/base.json bench/out/results/mine.json

A run generates its inputs from ``--seed``, then repeats whole rounds of the
workload's commands (see ``workloads.py``) until the next round would end
more than half a round after ``--seconds`` (at least two rounds), each
command in a fresh process of the package under ``src/``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones.  It then checks the outputs (``checks.py``) and exits
non-zero if any command failed, any rerun changed an output byte, or any
check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "snapshot_bytes": "bytes",
    "peak_rss_mb": "MB",
}
COMMAND_TIMEOUT_S = 150


@dataclass
class Outcome:
    role: str
    wall_s: float
    peak_rss_mb: float
    exit: int


def _require_source():
    if not os.path.isfile(os.path.join(SRC, "confanom", "cli.py")):
        sys.exit(f"run.py: no confanom package under {SRC}; "
                 "run from the root of a full checkout")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_command(command, work, spans_path=None):
    """Run one ``confanom`` command in a fresh process; time it and take its
    peak resident set from the kernel's accounting of that child."""
    if spans_path is None:
        argv = [sys.executable, "-m", "confanom", *command.argv]
    else:
        argv = [sys.executable, os.path.join(HERE, "traced.py"), spans_path, SRC,
                "--", *command.argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    logs = os.path.join(work, "logs")
    os.makedirs(logs, exist_ok=True)
    with open(os.path.join(logs, f"{command.role}.out"), "wb") as out, \
            open(os.path.join(logs, f"{command.role}.err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(command.role, wall, usage.ru_maxrss / 1024.0, proc.returncode)


def run_workload(name, seed, seconds, trace):
    """One run: returns (result dict, list of failure messages)."""
    _require_source()
    workload = WORKLOADS[name]
    work = os.path.join(OUT, "work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = workload.generate(seed, work)
    commands = workload.round(seed)

    problems = []
    digests = {}
    rounds = []          # (traced, [Outcome], [spans paths])
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        outcomes, spans_paths = [], []
        for i, command in enumerate(commands):
            spans = os.path.join(work, f"spans-{len(rounds)}-{i}.json") if traced else None
            outcome = run_command(command, work, spans)
            attempted += 1
            if outcome.exit != 0:
                failed += 1
                problems.append(f"confanom {' '.join(command.argv)} exited {outcome.exit}")
                continue
            outcomes.append(outcome)
            spans_paths.append(spans)
            for path in command.outputs:
                digest = _sha256(os.path.join(work, path))
                if digests.setdefault(path, digest) != digest:
                    problems.append(f"{path} changed on a {'traced ' if traced else ''}rerun")
        rounds.append((traced, outcomes, spans_paths))
        elapsed = time.perf_counter() - start
        # at least two rounds, so set-up is timed more than once, and in
        # traced runs as many traced rounds as untraced ones; then stop
        # unless another round of the mean length ends within half a round
        # of the deadline
        if len(rounds) < 2 or (trace and len(rounds) % 2):
            continue
        if elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break

    if not failed:
        sys.path.insert(0, SRC)
        import confanom
        problems.extend(workload.check(work, inputs, seed, confanom))
    if trace:
        metrics = _per_layer(rounds, name, seed)
    else:
        metrics = _end_to_end(rounds, workload, work)
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, problems


def _end_to_end(rounds, workload, work):
    setup = [o.wall_s for _, outs, _ in rounds for o in outs if o.role == "setup"]
    main = [o.wall_s for _, outs, _ in rounds for o in outs if o.role == "main"]
    rss = [max(o.peak_rss_mb for o in outs) for _, outs, _ in rounds if outs]
    snapshot = os.path.join(work, "model.snp")
    # None (JSON null) where a failed command left nothing to measure
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "throughput": workload.items / statistics.median(main) if main else None,
        "snapshot_bytes": os.path.getsize(snapshot) if os.path.exists(snapshot) else None,
        "peak_rss_mb": statistics.median(rss) if rss else None,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _per_layer(rounds, name, seed):
    per_round = []
    for (_, plain, _), (_, traced, spans_paths) in zip(rounds[::2], rounds[1::2]):
        overhead = sum(o.wall_s for o in traced) - sum(o.wall_s for o in plain)
        command_spans = []
        for path in spans_paths:
            with open(path, encoding="utf-8") as handle:
                command_spans.append(json.load(handle)["spans"])
        per_round.append((layers.metrics_of_round(command_spans, overhead), command_spans))
    values = {m: statistics.median(r[m] for r, _ in per_round) if per_round else None
              for m in layers.PER_LAYER}
    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    with open(os.path.join(traces, f"{name}-{seed}.json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": values, "rounds": [
            {"metrics": r, "commands": spans} for r, spans in per_round]}, handle)
    return {k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in values.items()}


# ---------------------------------------------------------------- suite

def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(folder, f), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def _spawn(name, seed, seconds, trace):
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def _summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3}


def run_suite(runs, seconds, out_path, names):
    _require_source()
    results = {"machine": machine(), "git_sha": git_sha(), "src_lines": src_lines(),
               "seconds": seconds, "runs": runs, "workloads": {}}
    ok = True
    for name in names:
        plain = [_spawn(name, seed, seconds, 0) for seed in range(1, runs + 1)]
        traced = _spawn(name, 1, seconds, 1)
        entry = {"correct": all(r is not None and r["correct"] for r in plain + [traced]),
                 "attempted": sum(r["attempted"] for r in plain if r),
                 "failed": sum(r["failed"] for r in plain if r),
                 "end_to_end": {}, "per_layer": {}}
        ok = ok and entry["correct"]
        for metric, unit in END_TO_END.items():
            values = [r["metrics"][metric]["value"] for r in plain if r]
            if values:
                entry["end_to_end"][metric] = {"unit": unit, "values": values,
                                               **_summary(values)}
        if traced:
            for metric, cell in traced["metrics"].items():
                entry["per_layer"][metric] = {"unit": cell["unit"], "value": cell["value"]}
        results["workloads"][name] = entry
        _print_workload(name, entry)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    print(f"results: {out_path}")
    return 0 if ok else 1


def _print_workload(name, entry):
    print(f"== {name}: correct={entry['correct']} attempted={entry['attempted']} "
          f"failed={entry['failed']}")
    for metric, cell in entry["end_to_end"].items():
        print(f"  {metric:<40} {cell['median']:>14.6g} {cell['unit']:<8} "
              f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n={len(cell['values'])}]")
    for metric, cell in entry["per_layer"].items():
        print(f"  {metric:<40} {cell['value']:>14.6g} {cell['unit']}")


# -------------------------------------------------------------- compare

def compare(base_path, new_path):
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    for label, res, path in (("A", base, base_path), ("B", new, new_path)):
        print(f"{label}: {path}  sha={res['git_sha']}  src_lines={res['src_lines']}  "
              f"runs={res['runs']}x{res['seconds']}s  machine={json.dumps(res['machine'])}")
    for name in sorted(set(base["workloads"]) | set(new["workloads"])):
        a, b = base["workloads"].get(name, {}), new["workloads"].get(name, {})
        print(f"== {name}")
        for kind in ("end_to_end", "per_layer"):
            for metric in sorted(set(a.get(kind, {})) | set(b.get(kind, {}))):
                ca, cb = a.get(kind, {}).get(metric), b.get(kind, {}).get(metric)
                unit = (ca or cb)["unit"]
                ma = None if ca is None else ca.get("median", ca.get("value"))
                mb = None if cb is None else cb.get("median", cb.get("value"))
                ratio = f"{mb / ma:.3f}" if ma and mb is not None else "n/a"
                base_a = "n/a" if ma is None else f"{ma:.6g}"
                print(f"  {metric:<40} A {_cell(ca)}  B {_cell(cb)}  "
                      f"B/A {ratio} (base A = {base_a} {unit})")
    return 0


def _cell(cell):
    if cell is None:
        return f"{'-':>30}"
    if "median" in cell:
        return f"{cell['median']:>12.6g} [{cell['q1']:.4g}, {cell['q3']:.4g}]"
    return f"{cell['value']:>12.6g} {'':>16}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run; repeat it to give --suite several")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="run every workload --runs times and write a results file")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=os.path.join(OUT, "results", "results.json"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.suite:
        return run_suite(args.runs, args.seconds, args.out, args.workload or list(WORKLOADS))
    if not args.workload or len(args.workload) > 1:
        parser.error("a run takes exactly one --workload (or use --suite or --compare)")
    result, problems = run_workload(args.workload[0], args.seed, args.seconds, args.trace)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
