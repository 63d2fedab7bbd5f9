import csv
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from confanom import __version__, cli, core, pipeline, resampling
from confanom.cli import main, read_csv_matrix
from confanom.core import ConfanomError, InvalidData, make_rng


def write_csv(path, X, labels=None, label_name="label"):
    names = [f"x{j}" for j in range(X.shape[1])]
    if labels is not None:
        names.append(label_name)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(X.shape[0]):
            row = [repr(float(v)) for v in X[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


@pytest.fixture
def data(tmp_path):
    rng = make_rng(0)
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_csv(train, rng.normal(size=(200, 4)))
    X = rng.normal(size=(60, 4))
    labels = np.zeros(60, dtype=int)
    X[55:] += 4.0
    labels[55:] = 1
    write_csv(test, X, labels)
    write_csv(tmp_path / "test_nolabel.csv", X)
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDetect:
    def test_basic_run(self, data, capsys):
        out = data / "flags.csv"
        code, stdout, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test.csv"), "--label-column", "label",
            "--alpha", "0.2", "--seed", "1", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["alpha"] == 0.2
        assert summary["n_test"] == 60
        assert summary["power"] >= 0.6
        assert summary["fdr"] <= 0.5
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["row_index", "score", "p_value", "flag"]
        assert len(rows) == 61
        assert (data / "flags.summary.json").exists()
        assert (data / "flags.manifest.json").exists()

    def test_reruns_byte_identical(self, data, capsys):
        args = ["detect", "--train", str(data / "train.csv"),
                "--test", str(data / "test_nolabel.csv"), "--seed", "2",
                "--out", str(data / "a.csv")]
        assert main(args) == 0
        capsys.readouterr()
        first = (data / "a.csv").read_bytes()
        first_manifest = (data / "a.manifest.json").read_bytes()
        assert main(args) == 0
        capsys.readouterr()
        assert (data / "a.csv").read_bytes() == first
        assert (data / "a.manifest.json").read_bytes() == first_manifest

    def test_unlabeled_summary_omits_metrics(self, data, capsys):
        code, stdout, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test_nolabel.csv"), "--out", str(data / "u.csv"))
        assert code == 0
        summary = json.loads(stdout)
        assert "fdr" not in summary and "power" not in summary

    def test_batch_scored_once(self, data, capsys, monkeypatch):
        # the scores and p-values come from one scoring of the batch
        calls = []
        score_matrix = resampling.test_score_matrix

        def counted(cm, X):
            calls.append(X.n_rows)
            return score_matrix(cm, X)

        monkeypatch.setattr(resampling, "test_score_matrix", counted)
        code, _, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test_nolabel.csv"), "--seed", "3",
            "--out", str(data / "once.csv"))
        assert code == 0 and calls == [60]
        fitted = pipeline.fit(pipeline.PipelineConfig(
            scorer=pipeline.ScorerSpec(kind="knn_distance"),
            strategy=resampling.split(0.5), seed=3),
            np.loadtxt(data / "train.csv", delimiter=",", skiprows=1))
        test = np.loadtxt(data / "test_nolabel.csv", delimiter=",", skiprows=1)
        table = np.loadtxt(data / "once.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[:, 1], pipeline.score_samples(fitted, test).scores)
        np.testing.assert_array_equal(table[:, 2],
                                      pipeline.compute_p_values(fitted, test).values)

    def test_config_changes_pipeline(self, data, capsys):
        config = data / "run.cfg"
        config.write_text("scorer.kind = isolation_forest\n"
                          "scorer.n_trees = 20\n"
                          "strategy.kind = cross_validation\n"
                          "strategy.k = 4\n"
                          "seed = 5\n")
        code, stdout, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test_nolabel.csv"), "--config", str(config),
            "--out", str(data / "c.csv"))
        assert code == 0
        manifest = json.loads((data / "c.manifest.json").read_text())
        assert manifest["config"]["scorer.kind"] == "isolation_forest"
        assert manifest["seed"] == 5

    def test_cli_seed_overrides_config(self, data, capsys):
        config = data / "run.cfg"
        config.write_text("seed = 5\n")
        code, stdout, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test_nolabel.csv"), "--config", str(config),
            "--seed", "9", "--out", str(data / "s.csv"))
        assert code == 0
        manifest = json.loads((data / "s.manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_manifest_has_no_timestamps(self, data, capsys):
        code, _, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test_nolabel.csv"), "--out", str(data / "m.csv"))
        assert code == 0
        manifest = json.loads((data / "m.manifest.json").read_text())
        assert set(manifest) == {"command", "config", "inputs", "outputs",
                                 "seed", "version"}
        # without the flag or a config entry the seed is 0
        assert manifest["seed"] == manifest["config"]["seed"] == 0
        for name, digest in manifest["inputs"].items():
            assert len(digest) == 64


class TestStream:
    def test_trajectory_and_alarms(self, data, capsys):
        rng = make_rng(3)
        stream = data / "stream.csv"
        X = rng.normal(size=(300, 4))
        X[200:] += 4.0
        write_csv(stream, X)
        out = data / "traj.csv"
        code, stdout, _ = run_cli(
            capsys, "stream", "--train", str(data / "train.csv"),
            "--stream", str(stream), "--seed", "4", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["steps"] == 300
        assert summary["n_alarms"] >= 1
        assert summary["first_alarm_step"] > 200
        with open(out, newline="") as handle:
            header = next(csv.reader(handle))
        assert header[:2] == ["step", "martingale"]
        alarms = data / "traj.alarms.csv"
        with open(alarms, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["step", "alarm"]
        assert len(rows) == summary["n_alarms"] + 1

    def test_snapshot_round_trip_matches_train_path(self, data, capsys):
        snap = data / "model.snap"
        code, _, _ = run_cli(
            capsys, "snapshot", "--train", str(data / "train.csv"),
            "--seed", "6", "--out", str(snap))
        assert code == 0
        rng = make_rng(5)
        stream = data / "s2.csv"
        write_csv(stream, rng.normal(size=(100, 4)))
        code, _, _ = run_cli(
            capsys, "stream", "--train", str(data / "train.csv"),
            "--stream", str(stream), "--seed", "6",
            "--out", str(data / "t1.csv"))
        assert code == 0
        code, _, _ = run_cli(
            capsys, "stream", "--snapshot", str(snap),
            "--stream", str(stream), "--out", str(data / "t2.csv"))
        assert code == 0
        assert (data / "t1.csv").read_bytes() == (data / "t2.csv").read_bytes()

    def test_seed_conflicts_with_snapshot(self, data, capsys):
        snap = data / "model.snap"
        assert main(["snapshot", "--train", str(data / "train.csv"),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        stream = data / "s3.csv"
        write_csv(stream, make_rng(6).normal(size=(10, 4)))
        code, _, err = run_cli(
            capsys, "stream", "--snapshot", str(snap), "--stream", str(stream),
            "--seed", "7", "--out", str(data / "t3.csv"))
        assert code == 2
        assert "--seed conflicts with --snapshot" in err

    def test_pipeline_keys_conflict_with_snapshot(self, data, capsys):
        snap = data / "model.snap"
        assert main(["snapshot", "--train", str(data / "train.csv"),
                     "--out", str(snap)]) == 0
        capsys.readouterr()
        config = data / "bad.cfg"
        config.write_text("scorer.kind = knn_distance\n")
        stream = data / "s4.csv"
        write_csv(stream, make_rng(7).normal(size=(10, 4)))
        code, _, err = run_cli(
            capsys, "stream", "--snapshot", str(snap), "--stream", str(stream),
            "--config", str(config), "--out", str(data / "t4.csv"))
        assert code == 2
        assert "scorer.kind" in err


class TestSnapshot:
    def test_save_and_inspect(self, data, capsys):
        snap = data / "model.snap"
        code, stdout, _ = run_cli(
            capsys, "snapshot", "--train", str(data / "train.csv"),
            "--seed", "8", "--out", str(snap))
        assert code == 0
        assert snap.exists()
        code, stdout, _ = run_cli(capsys, "snapshot", "--inspect", str(snap))
        assert code == 0
        info = json.loads(stdout)
        assert info["package_version"] == __version__
        assert info["seed"] == 8
        assert info["scorer"] == "knn_distance"
        assert info["table"] is None
        assert info["n_entries"] >= 1

    @pytest.mark.parametrize("config, trees", [
        ("scorer.kind = isolation_forest\nscorer.n_trees = 20\n", True),
        ("strategy.kind = jackknife_bootstrap\nstrategy.n_bootstraps = 12\n"
         "strategy.mode = plus\n", False)], ids=["forest", "jab_plus"])
    def test_inspect_reports_bytes(self, data, capsys, config, trees):
        (data / "model.conf").write_text(config)
        snap = data / "model.snap"
        code, _, _ = run_cli(capsys, "snapshot", "--train", str(data / "train.csv"),
                             "--config", str(data / "model.conf"), "--seed", "4",
                             "--out", str(snap))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "snapshot", "--inspect", str(snap))
        assert code == 0
        info = json.loads(stdout)
        assert info["bytes"] == snap.stat().st_size
        names = list(info["array_bytes"])
        assert names == sorted(names)
        assert ("trees/digest" in names) == trees
        assert not {"trees/feature", "trees/left", "trees/leaf_size",
                    "trees/split_rows"} & set(names)
        # each array's raw bytes are its itemsize times its element count
        blob = snap.read_bytes()
        header_length = int.from_bytes(blob[12:20], "little")
        index = json.loads(blob[20:20 + header_length])["arrays"]
        assert info["array_bytes"] == {
            entry["name"]: np.dtype(entry["dtype"]).itemsize * math.prod(entry["shape"])
            for entry in index}
        # the fixed fields, the header, the deflated payload and the digest
        assert info["bytes"] == 20 + header_length + info["deflated_bytes"] + 32
        # the plan is rebuilt at load: only its digest is stored.  A split
        # forest's load scores the entries again; a k-NN file stores them
        stored = [] if trees else ["calibration/entry_scores"]
        assert [n for n in names if n.startswith("calibration/")] == [
            *stored, "calibration/plan_digest", "calibration/rows"]
        assert info["array_bytes"]["calibration/plan_digest"] == 32
        assert run_cli(capsys, "snapshot", "--inspect", str(snap))[1] == stdout

    def test_save_requires_out(self, data, capsys):
        with pytest.raises(SystemExit):
            main(["snapshot", "--train", str(data / "train.csv")])
        capsys.readouterr()


class TestExperiment:
    def test_martingale_null_small(self, tmp_path, capsys):
        out = tmp_path / "exp"
        code, stdout, _ = run_cli(
            capsys, "experiment", "--name", "martingale_null",
            "--trials", "10", "--seed", "1", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["name"] == "martingale_null"
        assert (out / "martingale_null.csv").exists()
        assert (out / "martingale_null.manifest.json").exists()

    def test_unknown_name(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "--name", "mystery", "--seed", "0",
            "--out", str(tmp_path / "e"))
        assert code == 2
        assert "unknown experiment" in err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trial_count_must_be_positive(self, tmp_path, capsys, trials):
        # --trials 0 once ended in an IndexError traceback and exit 1
        code, _, err = run_cli(
            capsys, "experiment", "--name", "conditional", "--trials", trials,
            "--seed", "0", "--out", str(tmp_path / "e"))
        assert code == 2
        assert err == f"confanom: error: n_trials must be at least 1, got {trials}\n"
        assert not (tmp_path / "e").exists()


class TestErrorPaths:
    def test_unknown_config_key(self, data, capsys):
        config = data / "bad.cfg"
        config.write_text("scorer.neighbors = 5\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test.csv"), "--config", str(config),
            "--out", str(data / "x.csv"))
        assert code == 2
        assert "unknown config key 'scorer.neighbors'" in err

    @pytest.mark.parametrize("kind", ["knn_distance", "isolation_forest"])
    def test_ignored_polarity_refused(self, data, capsys, kind):
        # built-in scores are higher_is_anomalous; the setting would be ignored
        config = data / "polarity.cfg"
        config.write_text(f"scorer.kind = {kind}\nscorer.polarity = lower_is_anomalous\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test.csv"), "--config", str(config),
            "--out", str(data / "x.csv"))
        assert code == 2
        assert "lower_is_anomalous" in err
        assert not (data / "x.csv").exists()

    def test_bad_config_value_reports_line(self, data, capsys):
        config = data / "bad.cfg"
        config.write_text("seed = 1\nstrategy.k = many\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "test.csv"), "--config", str(config),
            "--out", str(data / "x.csv"))
        assert code == 2
        assert "line 2" in err

    def test_unparseable_cell_reports_position(self, data, capsys):
        bad = data / "badcell.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(bad), "--out", str(data / "x.csv"))
        assert code == 2
        assert "line 3" in err and "'b'" in err and "oops" in err

    def test_ragged_rows_rejected(self, data, capsys):
        bad = data / "ragged.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(bad), "--out", str(data / "x.csv"))
        assert code == 2
        assert "line 3" in err

    def test_empty_file(self, data, capsys):
        bad = data / "empty.csv"
        bad.write_text("")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(bad),
            "--test", str(data / "test.csv"), "--out", str(data / "x.csv"))
        assert code == 2

    def test_missing_file(self, data, capsys):
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "absent.csv"),
            "--test", str(data / "test.csv"), "--out", str(data / "x.csv"))
        assert code == 2

    def test_bad_label_cell(self, data, capsys):
        bad = data / "badlabel.csv"
        bad.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,maybe\n")
        code, _, err = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(bad), "--label-column", "label",
            "--out", str(data / "x.csv"))
        assert code == 2
        assert "label" in err

    def test_absent_label_column_tolerated(self, data, capsys):
        # unlabeled test files pass through with --label-column set
        code, stdout, _ = run_cli(
            capsys, "detect", "--train", str(data / "train.csv"),
            "--test", str(data / "train.csv"), "--label-column", "label",
            "--out", str(data / "x.csv"))
        assert code == 0
        assert "fdr" not in json.loads(stdout)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "confanom" in out


class TestExitPath:
    """A process of its own runs ``main`` through ``cli.run``, which freezes
    the collector once ``main`` has returned; exit codes and messages are
    those of ``main``."""

    @staticmethod
    def command(*argv, via="-m"):
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        prefix = (["-m", "confanom"] if via == "-m" else
                  ["-c", "import sys; from confanom import cli; "
                         "cli.cmd_snapshot = lambda args: 1 / 0; sys.exit(cli.run())"])
        return subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})

    def test_exit_codes_and_stderr(self, data, capsys):
        snap = data / "model.snap"
        ok = self.command("snapshot", "--train", str(data / "train.csv"), "--seed", "8",
                          "--out", str(snap))
        assert (ok.returncode, ok.stderr) == (0, "")
        inspect = self.command("snapshot", "--inspect", str(snap))
        assert inspect.returncode == 0
        assert inspect.stdout == run_cli(capsys, "snapshot", "--inspect", str(snap))[1]
        # a data error and a usage error exit 2 with main's message
        argv = ["detect", "--train", str(data / "absent.csv"), "--test", str(data / "test.csv"),
                "--out", str(data / "x.csv")]
        missing = self.command(*argv)
        assert (missing.returncode, missing.stdout) == (2, "")
        assert missing.stderr == run_cli(capsys, *argv)[2]
        assert missing.stderr.startswith("confanom: error: ")
        usage = self.command("snapshot", "--train", str(data / "train.csv"))
        assert usage.returncode == 2
        assert "snapshot --train requires --out" in usage.stderr
        # an internal error exits 1 with its traceback
        failed = self.command("snapshot", "--inspect", str(snap), via="run")
        assert failed.returncode == 1
        assert failed.stderr.startswith("Traceback")
        assert failed.stderr.rstrip().endswith("ZeroDivisionError: division by zero")

    def test_main_leaves_collector_alone(self, data, capsys):
        frozen = gc.get_freeze_count()
        assert run_cli(capsys, "snapshot", "--train", str(data / "train.csv"), "--seed", "8",
                       "--out", str(data / "model.snap"))[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_run_freezes_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        assert cli.run() == 3
        assert calls == ["main", "freeze"]


def test_import_leaves_out_scipy_spatial():
    # k-NN distances are computed with numpy alone, and importing the CLI
    # loads no scipy.spatial
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, confanom.cli; print('scipy.spatial' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_out_scipy_special(data):
    # the conditional and probabilistic regimes import scipy.special on
    # first use; other commands never pay for it
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, confanom.cli; print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # the mixture martingale is computed without scipy, so a forest stream
    # imports no scipy module at all; and no command below loads numpy.ma,
    # which np.median and np.unique import on first use
    run_and_list = ("import json, sys; from confanom.cli import main; main(sys.argv[1:]); "
                    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                    " or m.split('.')[:2] == ['numpy', 'ma'])))")
    config = data / "forest.conf"
    config.write_text("scorer.kind = isolation_forest\nscorer.n_trees = 20\n")
    X = make_rng(9).normal(size=(300, 4))
    X[200:] += 4.0
    write_csv(data / "stream.csv", X)
    out = subprocess.run(
        [sys.executable, "-c", run_and_list,
         "stream", "--train", str(data / "train.csv"), "--config", str(config),
         "--stream", str(data / "stream.csv"), "--seed", "3", "--out", str(data / "traj.csv")],
        env=env, capture_output=True, text=True, check=True)
    *summary, modules = out.stdout.strip().splitlines()
    assert json.loads("\n".join(summary))["martingale_kind"] == "simple_mixture"
    assert json.loads(modules) == []
    # nor do k-NN scoring with marginal p-values and the strategy sweep, which
    # calibrates a k-NN detector by split, CV+ and JaB+
    for argv in (["detect", "--train", str(data / "train.csv"), "--test", str(data / "test.csv"),
                  "--label-column", "label", "--out", str(data / "flags.csv")],
                 ["experiment", "--name", "strategy_sweep", "--trials", "1", "--seed", "2",
                  "--out", str(data / "sweep")]):
        out = subprocess.run(
            [sys.executable, "-c", run_and_list, *argv],
            env=env, capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [], argv[0]


CSV_FLOATS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300,
                                                      0.1, 1 / 3, 20.5]))
# a cell of each ``%`` conversion the package's row formats use, as Python
# values (``tolist()`` columns): integers and bools, floats, and names free
# of commas, quotes and line breaks
CSV_CELLS = {"%d": st.integers(-10**20, 10**20) | st.booleans(),
             "%r": CSV_FLOATS,
             "%s": st.text(st.sampled_from("abz_;. -019"), max_size=12)}
CSV_TABLES = st.lists(st.sampled_from(sorted(CSV_CELLS)), min_size=2, max_size=6).flatmap(
    lambda kinds: st.tuples(st.just(kinds),
                            st.lists(st.tuples(*(CSV_CELLS[k] for k in kinds)), max_size=30)))


@given(CSV_TABLES)
@example((("%d", "%r", "%r", "%d"), [(0, float("nan"), 1.0, True), (1, -0.0, float("inf"), 0)]))
@example((("%d", "%s"), [(622, "ville"), (623, "ville;restarted_ville"), (624, "")]))
@example((("%s", "%d", "%r", "%d", "%r", "%r"), [("cv_plus", 250, 0.075, 0, 0.0, 1 / 3)]))
def test_flags_writer_matches_csv_writer(table):
    # every row format the package writes, the detect flags, the stream
    # alarms and the experiment tables among them, gives the bytes of
    # csv.writer over the cells as text: integers and bools as integers,
    # floats by repr
    kinds, rows = table
    header = [f"c{j}" for j in range(len(kinds))]
    with tempfile.TemporaryDirectory() as tmp:
        fast, reference = os.path.join(tmp, "fast.csv"), os.path.join(tmp, "ref.csv")
        core.write_csv(fast, header, ",".join(kinds), rows)
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows([repr(c) if isinstance(c, float) else
                              str(int(c)) if isinstance(c, int) else c for c in row]
                             for row in rows)
        with open(fast, "rb") as a, open(reference, "rb") as b:
            assert a.read() == b.read()


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e5", "-2.5E-3", "+.5", "1.", " 3.25", "7 ", "\t-0", "0", "1"]))
ODD_CELLS = st.sampled_from([
    "1_0", "nan", "inf", "-Infinity", "0x10", "1d5", "", "e5", "1e", "--1", "1 2", "1,5",
    '"2.5"', "١٢", "\xa01.5", "1.5\x00", "\x1c4", "1e999"])
LABEL_CELLS = st.sampled_from(["0", "1", " 1", "0 ", "\t1"]) | st.sampled_from(
    ["2", "1.0", "01", "+1", "x", "", "1e0"])


@st.composite
def csv_files(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    odd = draw(st.booleans())
    cells = PLAIN_CELLS | ODD_CELLS if odd else PLAIN_CELLS
    lines = []
    for _ in range(n_rows):
        lines.append(",".join([draw(cells) for _ in range(n_cols)] + [draw(LABEL_CELLS)]))
    if draw(st.integers(0, 3)) == 0:
        # blank lines, which loadtxt would skip
        lines.insert(draw(st.integers(0, n_rows)), "")
    header = ",".join([f"x{j}" for j in range(n_cols)] + ["label"])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return header + end + end.join(lines) + draw(st.sampled_from(["", end]))


def read_outcome(read, path):
    try:
        m = read(path, "label")
    except ConfanomError as err:
        return type(err), str(err), err.row if isinstance(err, InvalidData) else None
    return m.values.tobytes(), m.values.shape, m.labels.tolist(), m.column_names


@given(csv_files())
def test_csv_fast_path_matches_cell_scan(text):
    # the vectorised parse and the per-cell scan give the same values, bit
    # for bit as Python's float, or the same diagnostic
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cells.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        assert read_outcome(read_csv_matrix, path) == read_outcome(cli._scan_csv, path)


def test_plain_csv_skips_cell_scan(tmp_path):
    X = make_rng(5).normal(size=(50, 3))
    write_csv(tmp_path / "plain.csv", X, labels=np.arange(50) % 2)
    with mock.patch.object(cli, "_scan_csv", side_effect=AssertionError("scanned")):
        m = read_csv_matrix(tmp_path / "plain.csv", "label")
    np.testing.assert_array_equal(m.values, X)
    np.testing.assert_array_equal(m.labels, np.arange(50) % 2)
