"""Shared fixtures plus the acceptance summary hook.

Tests named test_criterion_<N>_* (in test_acceptance.py) are tracked and
echoed as one PASS/FAIL line per criterion at the end of the run, so the
gate can be read at a glance without scrolling the full report.
"""

import re

import numpy as np
import pytest

from cubewalk import spectral

CRITERIA = {
    1: "hypercube transfer to the all-ones offset at pi/2, exact, n up to 10",
    2: "three-generator example: pairs, folded-cube bipartition, profile",
    3: "full revival at t = pi on random sets, n up to 12",
    4: "eigenvalue congruence classes for all 32767 sets at n = 4",
    5: "dense-evolution oracle agreement and commutation",
    6: "fidelities quantized to {0,1} at pi/2 for every set, n up to 4",
    7: "no transfer on xor-sum-zero sets, n up to 4, with dense sweeps",
    8: "antipodality audit clean and deterministic, n up to 4",
    9: "routing plans verified stage by stage, n = 3..6",
}

@pytest.fixture
def integer_transforms(monkeypatch):
    """The shapes of the integer WHTs run during the test, one per call.

    Every spectrum (``spectral.wht`` on a 0/1 indicator) passes through
    ``spectral._wht_rows``; the float transforms of the walk are left out.
    """
    calls = []
    inner = spectral._wht_rows

    def counting(arr):
        if not np.issubdtype(arr.dtype, np.inexact):
            calls.append(arr.shape)
        return inner(arr)

    monkeypatch.setattr(spectral, "_wht_rows", counting)
    return calls


_PATTERN = re.compile(r"test_criterion_(\d+)")
_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.when == "call":
        verdict = "PASS" if report.passed else "FAIL"
    elif report.failed:  # setup/teardown error counts as a failure
        verdict = "FAIL"
    elif report.skipped:
        verdict = "SKIP"
    else:
        return
    # a FAIL sticks even if another phase of the same test passed
    if _outcomes.get(number) != "FAIL":
        _outcomes[number] = verdict


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(CRITERIA):
        verdict = _outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {number}: {verdict} - {CRITERIA[number]}")
