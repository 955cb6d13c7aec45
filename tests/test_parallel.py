"""The replicate runner: contiguous ranges, values in item order, the first
failure in order raised, one BLAS thread, one level of processes, and no
child process left behind."""

import os
import subprocess
import sys
import time

import pytest

import threshmatch
from threshmatch.errors import IndexOutOfRange
from threshmatch.parallel import _openblas_threads, map_ranges

from conftest import assert_no_child_left, set_cpus


def _square(i):
    return i * i


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("count", [1, 2, 5, 12])
def test_values_come_back_in_item_order(monkeypatch, cpus, count):
    set_cpus(monkeypatch, cpus)
    assert map_ranges(_square, count) == [i * i for i in range(count)]
    assert_no_child_left()


def test_ranges_are_contiguous_and_the_caller_computes_the_first(monkeypatch):
    set_cpus(monkeypatch, 3)
    pids = map_ranges(lambda i: os.getpid(), 7)
    # three contiguous ranges, one process each: 2, 2 and 3 items
    assert pids[:2] == [os.getpid()] * 2
    assert len(set(pids[2:4])) == 1 and len(set(pids[4:])) == 1
    assert len(set(pids)) == 3


@pytest.mark.parametrize("cpus", [3, 5])
def test_one_item_never_forks(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_ranges(_square, 1) == [0]


def test_without_affinity_everything_runs_here(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert map_ranges(lambda i: os.getpid(), 4) == [os.getpid()] * 4


@pytest.mark.parametrize("count", [1, 3])
def test_blas_runs_on_one_thread_inside_and_is_restored_after(monkeypatch, count):
    calls = _openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = calls
    set_cpus(monkeypatch, 3)
    before = get()
    set_(2)
    try:
        assert map_ranges(lambda i: get(), count) == [1] * count
        assert get() == 2
    finally:
        set_(before)


def test_a_call_inside_a_range_forks_nothing(monkeypatch):
    # three outer ranges, the caller's and two children's; each item's inner
    # call runs in the process that computes the item, in item order
    set_cpus(monkeypatch, 3)

    def outer(i):
        return os.getpid(), map_ranges(lambda j: (os.getpid(), i, j), 4)

    results = map_ranges(outer, 3)
    assert results[0][0] == os.getpid()
    assert len({pid for pid, _ in results}) == 3
    for i, (pid, inner) in enumerate(results):
        assert inner == [(pid, i, j) for j in range(4)]
    assert_no_child_left()
    # the rule ends with the call: a later call forks again
    assert len(set(map_ranges(lambda i: os.getpid(), 3))) == 3


def test_a_call_inside_a_single_range_may_fork(monkeypatch):
    set_cpus(monkeypatch, 3)
    [inner] = map_ranges(lambda i: map_ranges(lambda j: os.getpid(), 3), 1)
    assert inner[0] == os.getpid() and len(set(inner)) == 3
    assert_no_child_left()


def test_first_failure_in_item_order_wins(monkeypatch):
    # items 5 and 9 fail in the second and the third range
    set_cpus(monkeypatch, 3)

    def fn(i):
        if i in (5, 9):
            raise IndexOutOfRange(i, 3)
        return i

    with pytest.raises(IndexOutOfRange) as err:
        map_ranges(fn, 12)
    assert str(err.value) == "index 5 out of range for 3 rows"
    assert err.value.index == 5
    assert_no_child_left()


def test_a_failure_in_the_callers_range_kills_the_children(monkeypatch):
    set_cpus(monkeypatch, 3)

    def fn(i):
        if i == 0:
            raise ValueError("first")
        time.sleep(60)
        return i

    started = time.perf_counter()
    with pytest.raises(ValueError, match="first"):
        map_ranges(fn, 3)
    assert time.perf_counter() - started < 30
    assert_no_child_left()


def test_an_unpicklable_value_fails_loudly(monkeypatch):
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="unpicklable"):
        map_ranges(lambda i: (lambda: i), 2)
    assert_no_child_left()


def test_a_child_that_dies_fails_loudly(monkeypatch):
    set_cpus(monkeypatch, 2)

    def fn(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match="exited with code 3"):
        map_ranges(fn, 2)
    assert_no_child_left()


def test_children_never_flush_the_callers_buffered_stdout():
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "from threshmatch.parallel import map_ranges\n"
        "print('buffered line')\n"
        "map_ranges(lambda i: i, 3)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(threshmatch.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "buffered line\n"
