"""The replicate runner: contiguous ranges, values in item order, the first
failure in order raised, one BLAS thread, one level of processes, and no
child process left behind, even when a fork fails or OpenBLAS is absent;
and the staged runner: the loop's values and first error, one worker
thread where a second CPU is free, joined."""

import errno
import os
import subprocess
import sys
import threading
import time

import pytest

import threshmatch
from threshmatch import parallel
from threshmatch.errors import IndexOutOfRange
from threshmatch.parallel import _openblas_threads, map_ranges, map_staged

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


def test_a_failed_fork_leaves_no_child_pipe_or_state(monkeypatch):
    # the second of two forks fails: the first child, still computing its
    # range, is killed and reaped, and no pipe end of either is left open
    set_cpus(monkeypatch, 3)
    threads = []
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: (lambda: 4, threads.append))
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    fds = os.listdir("/proc/self/fd")
    started = time.perf_counter()
    with pytest.raises(OSError, match="fork refused"):
        map_ranges(lambda i: time.sleep(60), 3)
    assert time.perf_counter() - started < 30
    assert forks == [0, 1]
    assert os.listdir("/proc/self/fd") == fds
    assert_no_child_left()
    assert parallel._forked is False
    assert threads == [1, 4]  # one BLAS thread during the call, the count before it after


@pytest.mark.parametrize("cpus", [1, 2])
def test_without_openblas_the_runners_return_the_loops_values(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
    assert map_ranges(_square, 5) == [i * i for i in range(5)]
    assert map_staged(_square, lambda i, value: (i, value), 3) == [(i, i * i) for i in range(3)]
    assert_no_child_left()


def test_the_openblas_lookup_finds_nothing_without_maps_or_symbols(monkeypatch):
    lookup = _openblas_threads.__wrapped__  # the lookup without its cache
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda path: object())
    assert lookup() is None

    def unreadable(*args, **kwargs):
        raise OSError(errno.ENOENT, "no such file")

    monkeypatch.setattr(parallel, "open", unreadable, raising=False)
    assert lookup() is None


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


def _started_threads(monkeypatch) -> list[threading.Thread]:
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: (started.append(self), start(self))[1]
    )
    return started


def _stage_log():
    """``first`` and ``second`` stages that record their thread and compute ``(i, i * i)``."""
    log = []

    def first(i):
        log.append(("first", i, threading.current_thread()))
        return i * i

    def second(i, value):
        log.append(("second", i, threading.current_thread()))
        return i, value

    return log, first, second


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
def test_staged_values_equal_the_loop(monkeypatch, cpus, count):
    set_cpus(monkeypatch, cpus)
    _, first, second = _stage_log()
    assert map_staged(first, second, count) == [second(i, first(i)) for i in range(count)]


def test_the_caller_runs_the_first_stages_and_the_last_second(monkeypatch):
    set_cpus(monkeypatch, 2)
    log, first, second = _stage_log()
    map_staged(first, second, 4)
    caller = threading.current_thread()
    assert [i for stage, i, thread in log if stage == "first" and thread is caller] == [0, 1, 2, 3]
    assert [i for stage, i, thread in log if stage == "second" and thread is caller] == [3]
    assert [i for stage, i, thread in log if thread is not caller] == [0, 1, 2]
    assert len({thread for _, _, thread in log}) == 2


def _failing(stages):
    """Stages that raise ``ValueError("<stage> <i>")`` at the ``(stage, i)`` in ``stages``."""

    def first(i):
        if ("first", i) in stages:
            raise ValueError(f"first {i}")
        return i

    def second(i, value):
        if ("second", i) in stages:
            time.sleep(0.05)  # the caller's later failure comes first in time
            raise ValueError(f"second {i}")
        return value

    return first, second


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("stages, expected", [
    ({("second", 1), ("first", 2)}, "second 1"),
    ({("first", 0), ("second", 0)}, "first 0"),
    ({("second", 0), ("second", 1)}, "second 0"),
    ({("first", 1), ("second", 2)}, "first 1"),
    ({("second", 2)}, "second 2"),
])
def test_the_loops_first_error_is_raised(monkeypatch, cpus, stages, expected):
    set_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match=f"^{expected}$"):
        map_staged(*_failing(stages), 3)


@pytest.mark.parametrize("cpus, count", [(2, 0), (2, 1), (1, 3)])
def test_no_thread_starts_below_two_items_or_on_one_cpu(monkeypatch, cpus, count):
    started = _started_threads(monkeypatch)
    set_cpus(monkeypatch, cpus)
    map_staged(lambda i: i, lambda i, v: v, count)
    assert started == []


def test_a_map_ranges_item_starts_no_thread(monkeypatch):
    started = _started_threads(monkeypatch)
    set_cpus(monkeypatch, 2)

    def item(i):
        return map_staged(lambda j: j, lambda j, v: i + v, 3), len(started)

    assert map_ranges(item, 2) == [([0, 1, 2], 0), ([1, 2, 3], 0)]
    assert_no_child_left()


def test_the_worker_is_joined_after_a_raise(monkeypatch):
    started = _started_threads(monkeypatch)
    set_cpus(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^second 0$"):
        map_staged(*_failing({("second", 0)}), 3)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


class _Halt(BaseException):
    pass


def test_a_base_exception_in_a_worker_stage_reaches_the_caller(monkeypatch):
    set_cpus(monkeypatch, 2)

    def second(i, value):
        if i == 0:
            raise _Halt()
        return value

    with pytest.raises(_Halt):
        map_staged(lambda i: i, second, 3)
