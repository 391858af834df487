"""Fixtures shared by the test modules."""

import contextlib

import pytest

import znmap.analysis


@contextlib.contextmanager
def undecided_retirements_only():
    """classify_batch retiring only where the kind stays 0: at repeats and
    in the kind-0 entries of maps._retirements (the region outside the
    basin boundary of h/hn), not in the regions that decide kind 1 or 2.
    Every retirement then leaves kind 0 and steps -1, so the steps are the
    plain loop's bitwise, as well as the kinds."""
    retirements = znmap.analysis._retirements
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(znmap.analysis, "_retirements",
                   lambda *args: [entry for entry in retirements(*args) if entry[1] == 0])
        yield


@pytest.fixture
def undecided_retirements():
    """The whole test under undecided_retirements_only."""
    with undecided_retirements_only():
        yield
