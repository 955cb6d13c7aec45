"""The replicate runner: contiguous ranges, values in item order, the first
failure in order raised, one BLAS thread, one level of processes, and no
child process left behind, even when a fork fails or OpenBLAS is absent;
and the same when several of the caller's threads call it at once."""

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
from threshmatch.parallel import _openblas_threads, map_ranges

from conftest import assert_no_child_left, set_cpus


def _square(i):
    return i * i


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("count", [0, 1, 2, 5, 12])
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


# twelve items: ranges 0-3, 4-7 and 8-11 on three CPUs, 0-5 and 6-11 on two
@pytest.mark.parametrize("cpus, failing, expected", [
    (3, (5, 9), 5),
    (3, (2, 9), 2),
    (3, (11,), 11),
    (2, (7, 10), 7),
    (1, (5, 9), 5),
], ids=["second-and-third-range", "callers-and-third-range", "last-range", "one-range",
        "serial"])
def test_first_failure_in_item_order_wins(monkeypatch, cpus, failing, expected):
    set_cpus(monkeypatch, cpus)

    def fn(i):
        if i in failing:
            raise IndexOutOfRange(i, 3)
        return i

    with pytest.raises(IndexOutOfRange) as err:
        map_ranges(fn, 12)
    assert str(err.value) == f"index {expected} out of range for 3 rows"
    assert err.value.index == expected
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
    assert parallel._forked == 0 and parallel._blas_entries == 0
    assert threads == [1, 4]  # one BLAS thread during the call, the count before it after


@pytest.mark.parametrize("cpus", [1, 2])
def test_without_openblas_the_runners_return_the_loops_values(monkeypatch, cpus):
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
    assert map_ranges(_square, 5) == [i * i for i in range(5)]
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


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("last", ["second", "first"], ids=["crossing", "nested"])
def test_overlapping_callers_leave_the_blas_count_they_found(monkeypatch, last, raises):
    # the second caller enters while the first is inside; the ``last`` to
    # leave reads the count after the other has left, by a return or a raise.
    # A count saved and restored per call would leave OpenBLAS on one thread
    # (crossing), and a count restored by the first to leave would give the
    # caller still inside two threads
    calls = _openblas_threads()
    if calls is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    get, set_ = calls
    set_cpus(monkeypatch, 2)
    both_inside = threading.Barrier(2, timeout=30)
    first_inside = threading.Event()
    left = {"first": threading.Event(), "second": threading.Event()}
    other = {"first": "second", "second": "first"}
    seen = {}

    def item(name):
        def fn(i):
            if name == "first":
                first_inside.set()
            both_inside.wait()
            if name == last:
                left[other[name]].wait(timeout=30)
            count = get()
            if raises and name != last:
                raise ValueError(count)
            return count
        return fn

    def caller(name):
        if name == "second":
            first_inside.wait(timeout=30)
        try:
            [seen[name]] = map_ranges(item(name), 1)
        except ValueError as err:
            seen[name] = err.args[0]
        left[name].set()

    before = get()
    set_(2)
    try:
        callers = [threading.Thread(target=caller, args=(name,)) for name in ("first", "second")]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in callers)
        assert seen == {"first": 1, "second": 1}
        assert get() == 2
        assert parallel._blas_entries == 0
    finally:
        set_(before)


def _started_threads(monkeypatch) -> list[threading.Thread]:
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: (started.append(self), start(self))[1]
    )
    return started


@pytest.mark.parametrize("cpus, count", [(1, 3), (2, 0), (2, 1), (2, 3), (3, 7)])
def test_no_thread_starts(monkeypatch, cpus, count):
    # processes are the runner's parallelism in every branch: serial, forking,
    # and a call made inside a forking call's items
    started = _started_threads(monkeypatch)
    set_cpus(monkeypatch, cpus)
    before = threading.active_count()
    values = map_ranges(lambda i: (map_ranges(_square, 3), len(started)), count)
    assert values == [([0, 1, 4], 0)] * count
    assert started == []
    assert threading.active_count() == before
    assert_no_child_left()


def test_overlapping_callers_never_both_fork(monkeypatch):
    # a slow CPU count holds the first caller inside its check while the
    # second caller arrives; the second finds the first's ranges running
    # and computes its items in its own thread
    set_cpus(monkeypatch, 2)
    cpus, checking, second_done = parallel._cpus, threading.Event(), threading.Event()

    def slow_cpus():
        checking.set()
        time.sleep(0.2)
        return cpus()

    def first_item(i):
        if i == 0:  # the caller's range
            second_done.wait(timeout=30)
        return os.getpid()

    seen = {}

    def second():
        checking.wait(timeout=30)
        seen["second"] = map_ranges(lambda i: os.getpid(), 2)
        second_done.set()

    monkeypatch.setattr(parallel, "_cpus", slow_cpus)
    caller = threading.Thread(target=second)
    caller.start()
    try:
        seen["first"] = map_ranges(first_item, 2)
    finally:
        caller.join(timeout=60)
    assert not caller.is_alive()
    assert seen["second"] == [os.getpid()] * 2
    assert seen["first"][0] == os.getpid() and seen["first"][1] != os.getpid()
    assert parallel._forked == 0
    assert_no_child_left()


def test_a_child_never_waits_on_a_lock_another_thread_held():
    # another thread takes the runner's lock as the fork is made; the child's
    # own call to the runner needs that lock, and would wait for ever on a
    # copy that no thread of the child holds
    script = (
        "import os, signal, threading, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from threshmatch import parallel\n"
        "fork, taken = os.fork, threading.Event()\n"
        "def hold():\n"
        "    with parallel._lock:\n"
        "        taken.set()\n"
        "        time.sleep(0.5)\n"
        "def fork_while_held():\n"
        "    threading.Thread(target=hold).start()\n"
        "    taken.wait(1.0)\n"
        "    return fork()\n"
        "os.fork = fork_while_held\n"
        "def item(i):\n"
        "    signal.alarm(10)\n"  # a stuck child dies rather than outlive the test
        "    inner = parallel.map_ranges(lambda j: (i, j), 2)\n"
        "    signal.alarm(0)\n"
        "    return inner\n"
        "print(parallel.map_ranges(item, 2))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(threshmatch.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30, check=True
    ).stdout
    assert out == "[[(0, 0), (0, 1)], [(1, 0), (1, 1)]]\n"
