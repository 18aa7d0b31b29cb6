import sys

import pytest

import _verdicts


@pytest.fixture(autouse=True)
def no_process_outlives_a_test():
    """Fail a test that leaves a child process running (``train`` and
    ``ablate`` fork one per command and must join it)."""
    yield
    mp = sys.modules.get("multiprocessing")     # not imported: no child started
    children = mp.active_children() if mp is not None else []
    left = f"processes left running: {children}"
    for child in children:      # so that they do not outlive the test run either
        child.kill()
        child.join()
    assert not children, left


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts.lines:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts.lines:
            terminalreporter.write_line(line)
