"""The workflow runs each job's steps through ``tests/ci.py``, so the script and CI share one list."""

import re
from pathlib import Path

import ci

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def workflow_jobs() -> dict[str, list[str]]:
    """The ``run`` commands of each job of the workflow, in order, by job id."""
    text = WORKFLOW.read_text().split("\njobs:\n", 1)[1]
    parts = re.split(r"^  ([\w-]+):\n", text, flags=re.M)
    return {job: re.findall(r"^ +run: (.*)$", block, flags=re.M) for job, block in zip(parts[1::2], parts[2::2])}


def test_each_workflow_job_installs_and_then_runs_ci_py_with_its_own_job_id():
    jobs = workflow_jobs()
    assert sorted(jobs) == sorted(ci.JOBS)
    for job, runs in jobs.items():
        assert len(runs) == 2 and runs[0].startswith("pip install -e ")
        assert runs[1] == f"python tests/ci.py {job}"


def test_a_job_stops_at_its_first_failing_step_and_exits_with_its_code(monkeypatch, capsys):
    steps = (
        ci.Step("first", ((ci.PYTHON, "-c", "pass"),)),
        ci.Step("second", ((ci.PYTHON, "-c", "pass"), (ci.PYTHON, "-c", "raise SystemExit(3)"))),
        ci.Step("third", ((ci.PYTHON, "-c", "raise SystemExit(4)"),)),
    )
    monkeypatch.setitem(ci.JOBS, "tests", steps)
    assert ci.main(["tests"]) == 3
    out = capsys.readouterr().out
    assert "== tests: first passed" in out and "third" not in out
    assert out.endswith("== tests: FAILED at step 'second' (exit 3)\n")


def test_under_ci_the_selftest_runs_the_console_script_and_fails_without_one(monkeypatch, capsys):
    monkeypatch.setenv("CI", "true")
    monkeypatch.setattr(ci.shutil, "which", lambda name: None)
    command = ci.selftest_command()
    assert command == ("zenobell", "selftest", "--quiet")
    monkeypatch.setenv("PATH", "")
    monkeypatch.setitem(ci.JOBS, "tests", (ci.Step("Selftest", (command,)),))
    assert ci.main(["tests"]) == 127
    out = capsys.readouterr().out
    assert out.endswith("command not found: zenobell\n== tests: FAILED at step 'Selftest' (exit 127)\n")
