"""Per-layer metrics from the spans of a traced round.

A span is ``[name, start, end, parent, counts]`` as ``traced.py`` writes it.
A metric ending in ``.s`` is the summed duration of the outermost spans of
that name.  One ending in ``.self_s`` is the time of a group of spans minus
the time of the spans they call outside the group.  Values are totals over
every command of the round.
"""

from __future__ import annotations

CALIBRATE = ("resampling.calibrate_split", "resampling.calibrate_cv",
             "resampling.calibrate_jackknife", "resampling.calibrate_bootstrap")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.import.s": "s",
    "cli.read_csv_matrix.s": "s",
    "cli.read_csv_matrix.rows": "rows",
    "cli.main.self_s": "s",
    "pipeline.fit.s": "s",
    "pipeline.stream_p_values.self_s": "s",
    "pipeline.scorings_per_batch": "ratio",
    "resampling.calibrate.self_s": "s",
    "resampling.test_score_matrix.calls": "calls",
    "resampling.test_score_matrix.s": "s",
    "resampling.paired_rank_counts.calls": "calls",
    "resampling.paired_rank_counts.s": "s",
    "detectors.fit.calls": "calls",
    "detectors.fit.s": "s",
    "detectors.score.calls": "calls",
    "detectors.score.rows": "rows",
    "detectors.score.s": "s",
    "estimation.empirical_p_value.self_s": "s",
    "decisions.benjamini_hochberg.calls": "calls",
    "decisions.benjamini_hochberg.s": "s",
    "martingales.run_stream.s": "s",
    "martingales.run_stream.steps": "steps",
    "martingales.alarms": "alarms",
    "martingales.write_trajectory_csv.s": "s",
    "snapshot.snapshot_save.s": "s",
    "snapshot.snapshot_load.s": "s",
    "experiments.strategy_sweep.self_s": "s",
    "trace.overhead_s": "s",
}


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.children[span[3]].append(i)

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def _has_ancestor_in(self, i, group):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in group:
                return True
            parent = self.spans[parent][3]
        return False

    def outermost(self, group):
        return [i for i, s in enumerate(self.spans)
                if s[0] in group and not self._has_ancestor_in(i, group)]

    def total(self, name):
        return sum(self.duration(i) for i in self.outermost({name}))

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def count(self, name, key):
        return sum(s[4].get(key, 0) for s in self.spans if s[0] == name)

    def self_time(self, group):
        total = 0.0
        for root in self.outermost(group):
            total += self.duration(root)
            stack = list(self.children[root])
            while stack:
                i = stack.pop()
                if self.spans[i][0] in group:
                    stack.extend(self.children[i])
                else:
                    total -= self.duration(i)
        return total


def metrics_of_command(spans):
    """Per-layer values of one traced command (without trace.overhead_s)."""
    t = SpanTree(spans)
    cli_own = {s[0] for s in spans if s[0].startswith("cli.")} - {
        "cli.import", "cli.read_csv_matrix"}
    return {
        "cli.import.s": t.total("cli.import"),
        "cli.read_csv_matrix.s": t.total("cli.read_csv_matrix"),
        "cli.read_csv_matrix.rows": t.count("cli.read_csv_matrix", "rows"),
        "cli.main.self_s": t.self_time(cli_own),
        "pipeline.fit.s": t.total("pipeline.fit"),
        "pipeline.stream_p_values.self_s": t.self_time({"pipeline.stream_p_values"}),
        "resampling.calibrate.self_s": t.self_time(set(CALIBRATE)),
        "resampling.test_score_matrix.calls": t.calls("resampling.test_score_matrix"),
        "resampling.test_score_matrix.s": t.total("resampling.test_score_matrix"),
        "resampling.test_score_matrix.pairs": t.count("resampling.test_score_matrix", "new_pair"),
        "resampling.paired_rank_counts.calls": t.calls("resampling.paired_rank_counts"),
        "resampling.paired_rank_counts.s": t.total("resampling.paired_rank_counts"),
        "detectors.fit.calls": t.calls("detectors.fit"),
        "detectors.fit.s": t.total("detectors.fit"),
        "detectors.score.calls": t.calls("detectors.score"),
        "detectors.score.rows": t.count("detectors.score", "rows"),
        "detectors.score.s": t.total("detectors.score"),
        "estimation.empirical_p_value.self_s": t.self_time({"estimation.empirical_p_value"}),
        "decisions.benjamini_hochberg.calls": t.calls("decisions.benjamini_hochberg"),
        "decisions.benjamini_hochberg.s": t.total("decisions.benjamini_hochberg"),
        "martingales.run_stream.s": t.total("martingales.run_stream"),
        "martingales.run_stream.steps": t.count("martingales.run_stream", "steps"),
        "martingales.alarms": t.count("martingales.run_stream", "alarms"),
        "martingales.write_trajectory_csv.s": t.total("martingales.write_trajectory_csv"),
        "snapshot.snapshot_save.s": t.total("snapshot.snapshot_save"),
        "snapshot.snapshot_load.s": t.total("snapshot.snapshot_load"),
        "experiments.strategy_sweep.self_s": t.self_time({"experiments.strategy_sweep"}),
    }


def metrics_of_round(command_spans, overhead_s):
    """Sum the commands of one traced round and derive the ratio metrics."""
    totals = {}
    for spans in command_spans:
        for name, value in metrics_of_command(spans).items():
            totals[name] = totals.get(name, 0) + value
    pairs = totals.pop("resampling.test_score_matrix.pairs")
    calls = totals["resampling.test_score_matrix.calls"]
    totals["pipeline.scorings_per_batch"] = calls / pairs if pairs else 0.0
    totals["trace.overhead_s"] = overhead_s
    return {name: totals[name] for name in PER_LAYER}
