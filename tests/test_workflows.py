"""The CI workflows must parse: a file YAML cannot read runs no checks."""

import glob
import os

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows")


def test_every_step_runs_a_command_or_uses_an_action():
    paths = sorted(glob.glob(os.path.join(WORKFLOWS, "*.yml")))
    assert paths, "no workflow files"
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            workflow = yaml.safe_load(handle)
        assert workflow.get("jobs"), f"{path}: no jobs"
        for name, job in workflow["jobs"].items():
            assert job.get("steps"), f"{path}: job {name} has no steps"
            for i, step in enumerate(job["steps"]):
                assert "run" in step or "uses" in step, (
                    f"{path}: step {i} of job {name} neither runs nor uses anything")
