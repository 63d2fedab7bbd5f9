"""The four workloads: the ``confanom`` commands of one round and their work.

A round runs the workload's set-up command (``confanom snapshot --train``)
and then its main command, each in a fresh process.  Every command writes
the same files on every repetition: the CLI promises byte-identical reruns,
and the benchmark holds it to that.  Paths are relative to the run's work directory, so traced and
untraced runs record identical manifests.  Why each workload exists is
recorded with it in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import checks
import generate


@dataclass(frozen=True)
class Command:
    role: str                # "setup" or "main"
    argv: tuple[str, ...]    # arguments after ``confanom``
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    setup: tuple[str, ...]
    main: tuple[str, ...]
    main_outputs: tuple[str, ...]
    items: int               # test rows, pipelines or stream steps of the main command
    check: object

    def round(self, seed):
        setup = Command("setup", self.setup + ("--seed", str(seed), "--out", "model.snp"),
                        ("model.snp", "model.manifest.json"))
        main = Command("main", tuple(a.format(seed=seed) for a in self.main),
                       self.main_outputs)
        return [setup, main]


SNAPSHOT = ("snapshot", "--train", "train.csv")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="detect_batch",
        generate=generate.detect_batch,
        setup=SNAPSHOT,
        main=("detect", "--train", "train.csv", "--test", "test.csv",
              "--alpha", "0.1", "--label-column", "label", "--seed", "{seed}",
              "--out", "flags.csv"),
        main_outputs=("flags.csv", "flags.summary.json", "flags.manifest.json"),
        items=generate.DETECT_TEST_ROWS,
        check=checks.check_detect_batch,
    ),
    Workload(
        name="strategy_sweep",
        generate=generate.strategy_sweep,
        setup=SNAPSHOT + ("--config", "jab.conf"),
        main=("experiment", "--name", "strategy_sweep", "--trials",
              str(generate.SWEEP_TRIALS), "--seed", "{seed}", "--out", "sweep"),
        main_outputs=("sweep/strategy_sweep.csv", "sweep/strategy_sweep.manifest.json"),
        items=9 * generate.SWEEP_TRIALS,
        check=checks.check_strategy_sweep,
    ),
    Workload(
        name="stream_monitor",
        generate=generate.stream_monitor,
        setup=SNAPSHOT + ("--config", "forest.conf"),
        main=("stream", "--snapshot", "model.snp", "--stream", "stream.csv",
              "--out", "traj.csv"),
        main_outputs=("traj.csv", "traj.alarms.csv", "traj.manifest.json"),
        items=generate.MONITOR_STEPS,
        check=checks.check_stream_monitor,
    ),
    Workload(
        name="jackknife_stream",
        generate=generate.jackknife_stream,
        setup=SNAPSHOT + ("--config", "jackknife.conf"),
        main=("stream", "--snapshot", "model.snp", "--stream", "stream.csv",
              "--out", "traj.csv"),
        main_outputs=("traj.csv", "traj.alarms.csv", "traj.manifest.json"),
        items=generate.JACKKNIFE_STEPS,
        check=checks.check_jackknife_stream,
    ),
)}
