"""Command line front end.

Four subcommands cover the batch and streaming workflows end to end::

    confanom detect     --train train.csv --test batch.csv --out flags.csv
    confanom stream     --train train.csv --stream feed.csv --out trajectory.csv
    confanom experiment --name shift --out results/
    confanom snapshot   --train train.csv --out model.snap

Settings come from an optional ``--config`` file of flat ``key = value``
lines whose keys mirror the :class:`~confanom.pipeline.PipelineConfig`
fields (``scorer.kind``, ``strategy.k``, ``estimation.regime``, ...) plus
``martingale.*`` and ``alarms.*`` for the stream command.  Unknown keys, and
stream keys given to another command, are rejected rather than ignored.

Every run writes a ``*.manifest.json`` next to its outputs recording the
command line, the effective configuration, the seed, SHA-256 input digests,
output paths and the package version.  The manifest carries no timestamps,
so rerunning the same command on the same inputs reproduces every output
file byte for byte.

Exit status: 0 on success, 2 for configuration and input problems (with a
diagnostic on stderr), 1 for anything that indicates a bug.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import sys
import traceback

import numpy as np

from . import decisions, experiments, martingales, pipeline, snapshot
from ._version import __version__
from .core import (ConfanomError, ConfigError, DataMatrix, EmptyInput,
                   InvalidData, write_csv)
from .detectors import ScorerSpec
from .estimation import EstimationSpec
from .martingales import AlarmConfig, MartingaleSpec
from .resampling import StrategySpec

# ---------------------------------------------------------------------------
# config file

_TRUE = ("true", "yes", "on", "1")
_FALSE = ("false", "no", "off", "0")


def _parse_int(text):
    return int(text, 10)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_bool(text):
    lowered = text.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError("expected true or false")


def _parse_count_or_fraction(text):
    # split calibration size: a bare integer is a row count, anything
    # else must be a fraction in (0, 1)
    try:
        return int(text, 10)
    except ValueError:
        return _parse_float(text)


def _parse_bandwidth(text):
    if text == "silverman":
        return text
    return _parse_float(text)


def _parse_float_tuple(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


_CONFIG_KEYS = {
    "scorer.kind": str,
    "scorer.n_trees": _parse_int,
    "scorer.subsample_size": _parse_int,
    "scorer.max_depth": _parse_int,
    "scorer.k": _parse_int,
    "scorer.aggregation": str,
    "strategy.kind": str,
    "strategy.n_calib": _parse_count_or_fraction,
    "strategy.k": _parse_int,
    "strategy.n_bootstraps": _parse_int,
    "strategy.mode": str,
    "strategy.aggregation": str,
    "estimation.regime": str,
    "estimation.method": str,
    "estimation.delta": _parse_float,
    "estimation.smoothed": _parse_bool,
    "estimation.bandwidth": _parse_bandwidth,
    "weighting": str,
    "seed": _parse_int,
    "martingale.kind": str,
    "martingale.epsilon": _parse_float,
    "martingale.jumper_states": _parse_float_tuple,
    "martingale.jump_rate": _parse_float,
    "alarms.ville_threshold": _parse_float,
    "alarms.restarted_ville_threshold": _parse_float,
    "alarms.cusum_threshold": _parse_float,
    "alarms.sr_threshold": _parse_float,
}

_PIPELINE_PREFIXES = ("scorer.", "strategy.", "estimation.", "weighting", "seed")
_STREAM_PREFIXES = ("martingale.", "alarms.")


def parse_config(path):
    """Read a flat key = value config file into a typed dict.

    Blank lines and ``#`` comments are skipped.  Unknown keys, repeated
    keys, and unparsable values are configuration errors.
    """
    entries = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path} line {line_no}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path} line {line_no}: unknown config key {key!r}")
            if key in entries:
                raise ConfigError(f"{path} line {line_no}: duplicate config key {key!r}")
            if not value:
                raise ConfigError(f"{path} line {line_no}: empty value for {key!r}")
            try:
                entries[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path} line {line_no}: bad value {value!r} for {key!r}: {exc}"
                ) from None
    return entries


def _refuse_keys(entries, prefixes, conflict):
    """Raise ConfigError with ``conflict`` and every key under ``prefixes``."""
    keys = sorted(k for k in entries if k.startswith(prefixes))
    if keys:
        raise ConfigError(f"{conflict}: " + ", ".join(keys))


def _collect(entries, prefix):
    """Keyword arguments for one spec, from the keys under ``prefix``."""
    plen = len(prefix)
    return {k[plen:]: v for k, v in entries.items() if k.startswith(prefix)}


def build_pipeline_config(entries, seed=None):
    """Assemble a PipelineConfig from parsed config entries.

    Defaults match the library defaults: a kth-nearest-neighbour scorer on
    a 50/50 split with plain empirical p-values.  ``seed`` (the command
    line flag) overrides a ``seed`` config entry; with neither, seed 0.
    """
    strategy_kwargs = {"kind": "split", **_collect(entries, "strategy.")}
    if strategy_kwargs["kind"] == "split":
        strategy_kwargs.setdefault("n_calib", 0.5)
    else:
        strategy_kwargs.setdefault("mode", "plus")
    if seed is None:
        seed = entries.get("seed", 0)
    return pipeline.PipelineConfig(
        scorer=ScorerSpec(**{"kind": "knn_distance", **_collect(entries, "scorer.")}),
        strategy=StrategySpec(**strategy_kwargs),
        estimation=EstimationSpec(**_collect(entries, "estimation.")),
        weighting=entries.get("weighting"),
        seed=seed,
    )


def build_martingale(entries):
    """Martingale spec and alarm thresholds from parsed config entries.

    Without any ``martingale.*`` key the parameter-free mixture martingale
    is used; without any ``alarms.*`` key both Ville alarms are armed at
    threshold 100 (anytime false alarm rate at most 1 percent).
    """
    spec = MartingaleSpec(**{"kind": "simple_mixture", **_collect(entries, "martingale.")})
    alarm_kwargs = _collect(entries, "alarms.")
    if not alarm_kwargs:
        alarm_kwargs = {"ville_threshold": 100.0,
                        "restarted_ville_threshold": 100.0}
    return spec, AlarmConfig(**alarm_kwargs)


# ---------------------------------------------------------------------------
# CSV input

def read_csv_matrix(path, label_column=None):
    """Load a numeric CSV (header row required) into a DataMatrix.

    Every column is a float feature except an optional label column named
    by ``label_column``, which must hold 0/1 values and is returned through
    ``DataMatrix.labels``.  If the named column is absent the file is
    treated as unlabeled.  Parse diagnostics cite the 1-based line number
    (the header is line 1) and the column name.

    Plain files are parsed in one vectorised call; any file that call
    refuses or might read differently is scanned cell by cell, which also
    locates the error of a bad file.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    header_line, _, body = text.partition("\n")
    if text and '"' not in text:
        names, label_idx, feature_names = _csv_header(path, header_line.split(","),
                                                      label_column)
        table = _parse_body(body, len(names), label_idx)
        if table is not None:
            features = [i for i in range(len(names)) if i != label_idx]
            labels = None if label_idx is None else table[:, label_idx].astype(np.int64)
            return DataMatrix(table[:, features], labels=labels, column_names=feature_names)
    return _scan_csv(path, label_column)


def _label_value(cell):
    text = cell.strip()
    if text not in ("0", "1"):
        raise ValueError(f"bad label {cell!r}")
    return float(text)


def _parse_body(body, n_cols, label_idx):
    """The data rows as one float table, or None where the per-cell scan
    must run.  numpy parses a number with the routine behind Python's
    ``float``, so the values agree bit for bit; text that ``float`` reads
    but numpy refuses (underscores, non-ASCII digits) goes to the scan, and
    blank lines, which loadtxt skips and the scan refuses, fail the line
    count."""
    if not body or body.isspace():
        return None
    converters = None if label_idx is None else {label_idx: _label_value}
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                           dtype=np.float64, converters=converters)
    except ValueError:
        return None
    lines = body.count("\n") + (not body.endswith("\n"))
    if table.shape != (lines, n_cols) or not np.isfinite(table).all():
        return None
    return table


def _csv_header(path, header, label_column):
    """Column names, the label column's index and the feature names."""
    names = [name.strip() for name in header]
    if any(not name for name in names):
        raise ConfigError(f"{path}: header has an empty column name")
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"{path}: duplicate column name {dup!r} in header")
    label_idx = None
    if label_column is not None and label_column in names:
        label_idx = names.index(label_column)
    feature_names = tuple(n for i, n in enumerate(names) if i != label_idx)
    if not feature_names:
        raise ConfigError(f"{path}: no feature columns besides the label column")
    return names, label_idx, feature_names


def _scan_csv(path, label_column):
    """read_csv_matrix cell by cell, naming the line and column of an error."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path}: empty file (a header row is required)") from None
        names, label_idx, feature_names = _csv_header(path, header, label_column)
        rows = []
        labels = [] if label_idx is not None else None
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(names):
                raise InvalidData(line_no, message=(
                    f"{path} line {line_no}: expected {len(names)} fields, "
                    f"got {len(record)}"))
            features = []
            for col, cell in enumerate(record):
                name = names[col]
                text = cell.strip()
                if col == label_idx:
                    if text not in ("0", "1"):
                        raise InvalidData(line_no, col, message=(
                            f"{path} line {line_no}, column {name!r}: label "
                            f"must be 0 or 1, got {cell!r}"))
                    labels.append(int(text))
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise InvalidData(line_no, col, message=(
                        f"{path} line {line_no}, column {name!r}: could not "
                        f"parse {cell!r} as a number")) from None
                if not math.isfinite(value):
                    raise InvalidData(line_no, col, message=(
                        f"{path} line {line_no}, column {name!r}: value "
                        f"{cell!r} is not finite"))
                features.append(value)
            rows.append(features)
    if not rows:
        raise EmptyInput(f"{path}: no data rows after the header")
    values = np.asarray(rows, dtype=np.float64)
    label_arr = None if labels is None else np.asarray(labels, dtype=np.int64)
    return DataMatrix(values, labels=label_arr, column_names=feature_names)


# ---------------------------------------------------------------------------
# manifests and output helpers

def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sibling(out_path, tag):
    base, _ = os.path.splitext(out_path)
    return f"{base}.{tag}"


def _write_manifest(out_path, command, config, seed, input_paths, outputs):
    """Write the run's reproduction record, as the module docstring describes."""
    _write_json(_sibling(out_path, "manifest.json"), {
        "command": list(command), "config": config, "seed": seed,
        "inputs": {p: _sha256(p) for p in input_paths},
        "outputs": list(outputs), "version": __version__})


def _write_json(path, payload):
    """Sorted keys, a two-space indent and a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _print_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _effective_config(entries, **extra):
    merged = dict(entries)
    for key, value in extra.items():
        if value is not None:
            merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# subcommands

def cmd_detect(args):
    entries = parse_config(args.config) if args.config else {}
    _refuse_keys(entries, _STREAM_PREFIXES, "stream settings do not apply to detect")
    config = build_pipeline_config(entries, seed=args.seed)
    train = read_csv_matrix(args.train, label_column=args.label_column)
    test = read_csv_matrix(args.test, label_column=args.label_column)

    fitted = pipeline.fit(config, train)
    scores, p_values = pipeline.score_and_p_values(fitted, test)
    decision = decisions.benjamini_hochberg(p_values, args.alpha)

    write_csv(args.out, ("row_index", "score", "p_value", "flag"), "%d,%r,%r,%d",
              zip(range(test.n_rows), scores.scores.tolist(), p_values.values.tolist(),
                  decision.flags.tolist()))

    summary = {
        "alpha": decision.alpha,
        "n_test": test.n_rows,
        "n_flagged": decision.n_flagged,
        "procedure": decision.procedure,
        "rejection_threshold": decision.rejection_threshold,
        "notes": list(decision.notes) + list(p_values.notes),
    }
    if test.labels is not None:
        summary["fdr"] = decisions.false_discovery_rate(test.labels, decision.flags)
        if int(test.labels.sum()) > 0:
            summary["power"] = decisions.statistical_power(test.labels, decision.flags)
    summary_path = _sibling(args.out, "summary.json")
    _write_json(summary_path, summary)
    _print_json(summary)

    inputs = [args.train, args.test] + ([args.config] if args.config else [])
    _write_manifest(args.out, args.argv, _effective_config(
        entries, seed=config.seed, alpha=args.alpha, label_column=args.label_column),
        config.seed, inputs, [args.out, summary_path])
    return 0


def cmd_stream(args):
    entries = parse_config(args.config) if args.config else {}
    if args.snapshot:
        _refuse_keys(entries, _PIPELINE_PREFIXES, "pipeline settings conflict with --snapshot")
        if args.seed is not None:
            raise ConfigError(
                "--seed conflicts with --snapshot (the snapshot fixes the seed)")
        fitted = snapshot.snapshot_load(args.snapshot)
    else:
        config = build_pipeline_config(entries, seed=args.seed)
        train = read_csv_matrix(args.train, label_column=args.label_column)
        fitted = pipeline.fit(config, train)
    seed = fitted.config.seed
    spec, alarms = build_martingale(entries)
    stream = read_csv_matrix(args.stream, label_column=args.label_column)

    # smoothing always derives from the pipeline seed through its reserved
    # stream, so restarting from a snapshot replays the same p-values
    p_values = pipeline.stream_p_values(fitted, stream)
    final, trajectory = martingales.run_stream(spec, alarms, p_values.values)
    martingales.write_trajectory_csv(args.out, trajectory, alarms)
    alarms_path = _sibling(args.out, "alarms.csv")
    write_csv(alarms_path, ("step", "alarm"), "%d,%s", final.alarm_history)

    _print_json({
        "steps": len(trajectory),
        "n_alarms": len(final.alarm_history),
        "first_alarm_step": final.alarm_history[0][0] if final.alarm_history else None,
        "martingale_kind": spec.kind,
    })

    inputs = [args.stream, args.snapshot or args.train] + ([args.config] if args.config else [])
    _write_manifest(args.out, args.argv, _effective_config(
        entries, seed=seed, label_column=args.label_column,
        snapshot=args.snapshot),
        seed, inputs, [args.out, alarms_path])
    return 0


def cmd_experiment(args):
    params = {}
    if args.trials is not None:
        # the null calibration harness counts streams, the others trials
        key = "n_streams" if args.name == "martingale_null" else "n_trials"
        params[key] = args.trials
    seed = 0 if args.seed is None else args.seed
    result = experiments.run_experiment(args.name, seed=seed, **params)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{result.name}.csv")
    # rows hold Python ints, floats and strings, one type to a column
    row = ",".join("%r" if isinstance(cell, float) else "%d" if isinstance(cell, int)
                   else "%s" for cell in result.rows[0]) if result.rows else ""
    write_csv(csv_path, result.columns, row, result.rows)

    _print_json({"name": result.name, "n_rows": len(result.rows), "csv": csv_path})
    _write_manifest(csv_path, args.argv,
                    {"name": args.name, "seed": seed, **params},
                    seed, [], [csv_path])
    return 0


def cmd_snapshot(args):
    if args.inspect:
        fitted, package_version, array_bytes, deflated = snapshot.snapshot_inspect(args.inspect)
        config = fitted.config
        _print_json({
            "bytes": os.path.getsize(args.inspect),
            "array_bytes": array_bytes,
            "deflated_bytes": deflated,
            "package_version": package_version,
            "scorer": config.scorer.kind,
            "strategy": config.strategy.kind,
            "estimation": config.estimation.regime,
            "weighting": config.weighting,
            "seed": config.seed,
            "n_entries": fitted.n_entries,
            "n_models": fitted.calibration.n_models,
            "table": None if fitted.table is None else {
                "n": fitted.table.n,
                "delta": fitted.table.delta,
                "method": fitted.table.method,
            },
        })
        return 0
    entries = parse_config(args.config) if args.config else {}
    _refuse_keys(entries, _STREAM_PREFIXES, "stream settings do not apply to snapshot")
    config = build_pipeline_config(entries, seed=args.seed)
    train = read_csv_matrix(args.train, label_column=args.label_column)
    fitted = pipeline.fit(config, train)
    snapshot.snapshot_save(fitted, args.out)
    _print_json({"out": args.out, "bytes": os.path.getsize(args.out)})

    inputs = [args.train] + ([args.config] if args.config else [])
    _write_manifest(args.out, args.argv, _effective_config(
        entries, seed=config.seed, label_column=args.label_column),
        config.seed, inputs, [args.out])
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="confanom",
        description="Conformal anomaly detection with calibrated error control.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="COMMAND")

    detect = sub.add_parser(
        "detect", help="score a test batch and flag anomalies with FDR control")
    detect.add_argument("--train", required=True, help="training CSV (inliers)")
    detect.add_argument("--test", required=True, help="test batch CSV")
    detect.add_argument("--config", help="key = value settings file")
    detect.add_argument("--alpha", type=float, default=0.1,
                        help="FDR budget (default 0.1)")
    detect.add_argument("--seed", type=int, help="overrides the config seed")
    detect.add_argument("--label-column",
                        help="0/1 column to score the run against")
    detect.add_argument("--out", required=True, help="output CSV path")
    detect.set_defaults(func=cmd_detect)

    stream = sub.add_parser(
        "stream", help="monitor a sequential feed with an exchangeability martingale")
    source = stream.add_mutually_exclusive_group(required=True)
    source.add_argument("--train", help="training CSV to fit the pipeline on")
    source.add_argument("--snapshot", help="fitted pipeline snapshot to reuse")
    stream.add_argument("--stream", required=True, help="streamed observations CSV")
    stream.add_argument("--config", help="key = value settings file")
    stream.add_argument("--seed", type=int, help="overrides the config seed")
    stream.add_argument("--label-column",
                        help="column to drop from the feature matrix")
    stream.add_argument("--out", required=True, help="trajectory CSV path")
    stream.set_defaults(func=cmd_stream)

    experiment = sub.add_parser(
        "experiment", help="run a benchmark harness and write plot-ready CSV")
    experiment.add_argument("--name", required=True,
                            help=f"one of {', '.join(experiments.EXPERIMENT_NAMES)}")
    experiment.add_argument("--trials", type=int,
                            help="trial (or stream) count override")
    experiment.add_argument("--seed", type=int, help="experiment seed (default 0)")
    experiment.add_argument("--out", required=True, help="output directory")
    experiment.set_defaults(func=cmd_experiment)

    snap = sub.add_parser(
        "snapshot", help="save a fitted pipeline to a file, or inspect one")
    mode = snap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--train", help="training CSV to fit and save")
    mode.add_argument("--inspect", help="existing snapshot to describe")
    snap.add_argument("--config", help="key = value settings file")
    snap.add_argument("--seed", type=int, help="overrides the config seed")
    snap.add_argument("--label-column",
                      help="column to drop from the feature matrix")
    snap.add_argument("--out", help="snapshot output path")
    snap.set_defaults(func=cmd_snapshot)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["confanom"] + list(argv)
    if args.subcommand == "snapshot" and not args.inspect and not args.out:
        parser.error("snapshot --train requires --out")
    try:
        return args.func(args)
    except (ConfanomError, OSError) as exc:
        print(f"confanom: error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def run():
    """``main`` for a process of its own: the ``confanom`` console script and
    ``python -m confanom``.  Once ``main`` returns, every output file is
    closed and the process is about to exit, so its objects move to the
    collector's permanent generation and interpreter shutdown skips a last
    walk over all of them.  ``main`` itself leaves the collector alone, as
    tests call it in-process."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
