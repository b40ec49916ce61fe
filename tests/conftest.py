"""Shared fixtures plus the acceptance-criteria summary printed after a run."""

import glob
import os

# One OpenBLAS thread per process, set before anything imports numpy: the
# evaluations then fan out to forked workers, one per core, as `danet eval`
# does at one thread (pipeline._worker_count), and training runs each
# batch's second shard in a forked worker.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

_ACCEPTANCE: dict[int, list] = {}


def _state(pid: int) -> str | None:
    """A process's state letter (Z for a zombie), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0]
    except OSError:
        return None


def _still_running(pids) -> set[int]:
    """Those of pids that have not exited."""
    return {pid for pid in pids if _state(pid) not in (None, "Z")}


def _running_children(pid="self") -> set[int]:
    """The children of a process (this one by default) that have not exited."""
    children = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                children.update(map(int, fh.read().split()))
        except OSError:   # the task ended
            pass
    return _still_running(children)


@pytest.fixture
def still_running():
    return _still_running


@pytest.fixture
def running_children():
    return _running_children


@pytest.fixture(autouse=True)
def no_child_process_outlives_its_test():
    """Fail a test that leaves a child of this process running, such as a
    worker that its training or evaluation did not stop."""
    before = _running_children()
    yield
    left = _running_children() - before
    assert not left, f"child processes left running: {sorted(left)}"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, description): acceptance criterion coverage")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, description = marker.args
    _ACCEPTANCE.setdefault(num, [True, description])
    _ACCEPTANCE[num][0] = _ACCEPTANCE[num][0] and report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        passed, description = _ACCEPTANCE[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {description}")
