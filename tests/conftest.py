"""Shared fixtures plus the acceptance-criteria summary printed after a run."""

import os

# One OpenBLAS thread per process, set before anything imports numpy: the
# evaluations then fan out to forked workers, one per core, as `danet eval`
# does at one thread (bsseval._worker_count).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

_ACCEPTANCE: dict[int, list] = {}


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
