import re

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


@pytest.fixture
def column_steps(monkeypatch):
    """The matrices M of the simplex column steps while a test runs, one
    entry per step: the calls intmat.mat_mul(M, cols) whose left factor is a
    registered I + E_ij and whose right factor is not."""
    from ietlab import intmat
    calls = []
    mat_mul = intmat.mat_mul

    def counted(a, b):
        if id(a) in intmat._ELEMENTARY and id(b) not in intmat._ELEMENTARY:
            calls.append(a)
        return mat_mul(a, b)
    monkeypatch.setattr(intmat, "mat_mul", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            m = _CRITERION.search(rep.nodeid)
            if m:
                results[int(m.group(1))] = (m.group(2), outcome == "passed")
    if not results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(results):
        name, ok = results[num]
        terminalreporter.write_line(
            f"  [criterion {num:2d}] {name.replace('_', ' ')}: "
            f"{'PASS' if ok else 'FAIL'}")
