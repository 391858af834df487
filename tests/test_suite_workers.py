"""run_suite spreads its checks over processes: the report and the exception
it raises are the serial loop's, and no worker outlives the call."""

import functools
import json
import os
import select
import sys
import time

import pytest

from znmap import analysis, verify

ALL = list(verify.CHECKS_BY_NAME)
CHEAP = ["periodic-orbit", "properness", "gluing-smoothness", "astroid", "singularity",
         "negative-control"]
forks = pytest.mark.skipif(sys.platform != "linux", reason="workers are forked on Linux only")


def _serial(names, k, seed):
    """The reference: each named check in this process, in order."""
    checks = [verify.CHECKS_BY_NAME[name](k=k, seed=seed) for name in names]
    return verify.VerificationReport(tool=verify.TOOL_VERSION, seed=seed, spec={"k": k},
                                     checks=checks)


def _json(report):
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)


@functools.cache
def _serial_json(names, k, seed):
    return _json(_serial(list(names), k, seed))


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(analysis, "_available_cpus", lambda: count)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("names, k, seed", [
    (ALL, verify.K_DEFAULT, 0x5EED),
    (ALL, verify.K_DEFAULT, 5),
    (CHEAP, 1.15, 0x5EED),
], ids=["all-0x5EED", "all-5", "cheap-k1.15"])
def test_report_bytes_do_not_depend_on_cpus(monkeypatch, cpus, names, k, seed):
    _cpus(monkeypatch, cpus)
    report = verify.run_suite(names, k=k, seed=seed)
    assert [c.name for c in report.checks] == names
    assert _json(report) == _serial_json(tuple(names), k, seed)
    _assert_no_child()


def _raising(exc_type, message):
    def check(k, seed):
        raise exc_type(message)
    return check


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("reverse", [False, True], ids=["suite-order", "reversed"])
def test_raises_the_first_failing_check_in_suite_order(monkeypatch, cpus, reverse):
    monkeypatch.setitem(verify.CHECKS_BY_NAME, ALL[3], _raising(ValueError, "check at 3"))
    monkeypatch.setitem(verify.CHECKS_BY_NAME, ALL[7], _raising(RuntimeError, "check at 7"))
    names = ALL[::-1] if reverse else ALL
    with pytest.raises(Exception) as serial:
        _serial(names, verify.K_DEFAULT, 0x5EED)
    _cpus(monkeypatch, cpus)
    with pytest.raises(Exception) as spread:
        verify.run_suite(names)
    assert type(spread.value) is type(serial.value)
    assert str(spread.value) == str(serial.value)
    _assert_no_child()


def test_every_name_is_checked_before_any_check_runs(monkeypatch):
    calls = []
    monkeypatch.setitem(verify.CHECKS_BY_NAME, "equivariance",
                        lambda k, seed: calls.append(k))
    with pytest.raises(ValueError, match="unknown check 'bogus'"):
        verify.run_suite(["equivariance", "bogus"])
    assert calls == []


@pytest.mark.parametrize("seed", [-1, -0x5EED])
def test_a_negative_seed_is_an_error_before_any_check_or_fork(monkeypatch, seed):
    # numpy's generators reject it too, but only inside a check
    calls = []
    monkeypatch.setitem(verify.CHECKS_BY_NAME, "negative-control",
                        lambda k, seed: calls.append(seed))
    monkeypatch.setattr(os, "fork", lambda: calls.append("fork"))
    _cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match=f"seed must be non-negative; got {seed}$"):
        verify.run_suite(["negative-control", "astroid"], seed=seed)
    assert calls == []


def test_empty_suite_is_an_error():
    with pytest.raises(ValueError, match="the suite names no checks"):
        verify.run_suite([])


def test_a_repeated_name_runs_its_check_once(monkeypatch):
    calls = []
    check = verify.CHECKS_BY_NAME["negative-control"]

    def spy(k, seed):
        calls.append(seed)
        return check(k=k, seed=seed)

    monkeypatch.setitem(verify.CHECKS_BY_NAME, "negative-control", spy)
    _cpus(monkeypatch, 1)
    report = verify.run_suite(["negative-control", "astroid", "negative-control"])
    assert calls == [verify.DEFAULT_SEED]
    assert [c.name for c in report.checks] == ["negative-control", "astroid",
                                               "negative-control"]
    assert report.checks[0] == report.checks[2]


@forks
def test_an_interrupted_suite_stops_its_workers(monkeypatch):
    # the caller is interrupted in its first check while every worker sits
    # in a long one; run_suite must not wait for them
    caller = os.getpid()

    def check(k, seed):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    for name in ALL:
        monkeypatch.setitem(verify.CHECKS_BY_NAME, name, check)
    _cpus(monkeypatch, 3)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suite()
    assert time.perf_counter() - t0 < 30
    _assert_no_child()


@forks
def test_a_worker_that_dies_loses_its_check(monkeypatch):
    # the caller's check returns only once the worker has taken the other
    # check, which ends the worker without a result
    caller = os.getpid()
    taken_r, taken_w = os.pipe()
    result = verify.CheckResult("fake", {}, 0.0, 0.0, True)

    def check(k, seed):
        if os.getpid() != caller:
            os.write(taken_w, b"x")
            os._exit(3)
        assert select.select([taken_r], [], [], 30)[0], "no worker took a check"
        return result

    monkeypatch.setitem(verify.CHECKS_BY_NAME, "astroid", check)
    monkeypatch.setitem(verify.CHECKS_BY_NAME, "properness", check)
    _cpus(monkeypatch, 2)
    try:
        with pytest.raises(RuntimeError, match="was lost: its worker process ended"):
            verify.run_suite(["astroid", "properness"])
    finally:
        os.close(taken_r)
        os.close(taken_w)
    _assert_no_child()
