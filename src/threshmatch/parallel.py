"""Replicate loops on up to one forked process per CPU, and staged loops on two threads.

:func:`map_ranges` computes ``[fn(i) for i in range(count)]``.  It cuts
``range(count)`` into ``k = min(CPUs, count)`` contiguous ranges, where
the CPUs are those ``os.sched_getaffinity`` grants this process.  The
calling process computes the first range itself; ``k - 1`` forked
children compute the others and send back their values, or the error that
stopped them, through a pipe each.  Values come back in item order, and
of several failures the one with the smallest item index is raised.

Replicates draw their randomness from counter-derived streams and share
nothing, so the result does not depend on ``k``: parallel runs are
bit-identical to serial ones.  Where ``os.fork`` or
``os.sched_getaffinity`` is missing, ``k`` is 1 and nothing is forked;
a single item never forks either.  No process is started per item.

Processes are the package's parallelism (:func:`map_staged`'s one thread,
below, is the exception), so every call holds OpenBLAS (numpy's BLAS) to
one thread until it returns, ``k = 1`` included.  k processes
then keep to k CPUs, and a replicate's value does not depend on how
many replicates run beside it: a QR fit summed on two BLAS threads can
differ in the last bits from the same fit on one.  Two processes with
two BLAS threads each on two CPUs made the ITE Monte-Carlo loop several
times slower than a serial run, and even a serial ITE fit ran faster on
one thread than on two.

Calls nest one level deep.  A call made while a forking call's ranges
run, in the caller's range or in a child's, computes its items in its
own process and forks nothing, so there is never more than one process
per CPU.  A call whose ``k`` is 1 leaves the CPUs free, and a call
inside its items may fork: one Monte-Carlo seed spreads its fit's
cross-validation grid over every CPU.

:func:`map_staged` computes ``[second(i, first(i)) for i in range(count)]``,
as a cross-fit (:func:`threshmatch.att.crossfit_on_splits`) runs its
three rotations: ``first`` fits a rotation's scores and ``second``
finishes the rotation from them.  When a second thread would have a CPU
to itself, the calling thread runs every ``first`` stage in order and
then the last ``second``, while one worker thread, a plain
``threading.Thread`` named ``threshmatch-staged_0``, runs the earlier
``second`` stages in order, each as soon as its ``first`` value is
handed over through a ``queue.SimpleQueue``.  No executor is built:
``concurrent.futures`` and the ``logging`` it imports would add half a
MiB and a few milliseconds to every cross-fit CLI run.  So at most two
stages run at once, and peak memory stays near the loop's.  With one
CPU, or inside a forking call's ranges, as in bootstrap and Monte-Carlo
replicates, it is the loop in the caller and starts no thread.  The
worker is joined before the call returns or raises, so none is alive at
a fork.

Threads keep the bits where processes would not.  Both threads call one
OpenBLAS, which splits each QR by its one global thread count, whichever
thread calls it, so every stage computes the bits the loop computes;
two forked processes would each keep the caller's count and
oversubscribe the CPUs, or, held to one BLAS thread, move the last bits
of a cross-fit's ``gamma_hat``.  The threads share one GIL: numpy
releases it in most of a rotation's products, sorts and gathers, but a
QR fit (:func:`threshmatch.linreg.ols`) holds it while LAPACK factors,
and meanwhile the other thread runs only inside numpy calls that had
released it.

The children are forked, not spawned: they inherit ``fn`` with its
closure and the data it reads, where a spawned worker would need all of
it pickled, and a fork starts in a few milliseconds.  OpenBLAS stops its
threads around a fork, and a child runs only ``fn`` before ``os._exit``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import signal
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TypeVar

T = TypeVar("T")
U = TypeVar("U")

# True while this process computes one of a forking call's ranges
_forked = False


def _cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(count: int) -> int:
    """The CPUs a call over ``count`` items may use, one per process or thread.

    ``min(CPUs, count)``, but 1 while this process computes a range of a
    forking call, whose ranges take one CPU each.
    """
    return 1 if _forked else min(_cpus(), count)


def map_ranges(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(i) for i in range(count)]`` on up to one process per CPU.

    ``fn`` runs in forked children for all but the first range, so it must
    not depend on state it changes; its values and errors must pickle.
    OpenBLAS runs on one thread throughout; a call from inside another
    call's ranges runs here.  Every child has been reaped when this
    returns or raises.
    """
    global _forked
    k = _workers(count)
    with _one_blas_thread():  # set before forking: the children inherit it
        if k <= 1:
            return [fn(i) for i in range(count)]
        bounds = [count * j // k for j in range(k + 1)]
        children: list[_Child] = []
        _forked = True  # the children inherit it too
        try:
            for j in range(1, k):
                children.append(_Child(fn, range(bounds[j], bounds[j + 1])))
            values = [fn(i) for i in range(bounds[0], bounds[1])]
            for child in children:
                values.extend(child.result())
        finally:
            _forked = False
            for child in children:
                child.stop()
    return values


def map_staged(first: Callable[[int], T], second: Callable[[int, T], U], count: int) -> list[U]:
    """``[second(i, first(i)) for i in range(count)]``, on two threads when a CPU is free.

    The calling thread runs the ``first`` stages and the last ``second``;
    one worker thread runs the earlier ``second`` stages, in item order.
    The error raised is the loop's first: that of the smallest failing
    item, at its first failing stage.  The other thread runs on past a
    failure; errors after the first are dropped.
    """
    if _workers(count) < 2:
        return [second(i, first(i)) for i in range(count)]
    from queue import SimpleQueue

    handed: SimpleQueue = SimpleQueue()  # (i, first(i)) for the worker, then None
    done: list[tuple[bool, object]] = []  # (True, value) or (False, error), in item order

    def work() -> None:
        while (item := handed.get()) is not None:
            try:
                done.append((True, second(*item)))
            except BaseException as exc:
                done.append((False, exc))

    worker = threading.Thread(target=work, name="threshmatch-staged_0")
    worker.start()
    try:
        for i in range(count - 1):
            handed.put((i, first(i)))
        last = second(count - 1, first(count - 1))
    finally:
        handed.put(None)
        worker.join()
        # the worker's items come before any the caller was running
        for ok, error in done:
            if not ok:
                raise error from None
    return [value for _, value in done] + [last]


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """OpenBLAS's thread-count getter and setter in this process, if it is loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1].lower()}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return None
    for lib in libs:
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class _Child:
    """One forked process computing ``fn`` over ``items``."""

    def __init__(self, fn: Callable[[int], T], items: range):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            os.close(read_fd)
            _serve(fn, items, write_fd)
        os.close(write_fd)
        self.pid: int | None = pid
        self.fd: int | None = read_fd

    def result(self) -> list:
        """The child's values; its error is raised here."""
        with os.fdopen(self.fd, "rb") as fh:
            self.fd = None
            data = fh.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if not data:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"replicate worker exited with code {code} and sent no result")
        ok, payload = pickle.loads(data)
        if not ok:
            raise payload
        return payload

    def stop(self) -> None:
        """Kill and reap the child unless :meth:`result` already has."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _serve(fn: Callable[[int], T], items: range, fd: int) -> None:
    """Child side: send ``(True, values)`` or ``(False, error)``, then leave.

    ``os._exit`` skips every cleanup the parent's stack would run, above all
    flushing buffers (such as the CLI's stdout) the child inherited.
    """
    code = 1
    try:
        try:
            message = (True, [fn(i) for i in items])
        except BaseException as exc:
            message = (False, exc)
        try:
            data = pickle.dumps(message)
        except Exception as exc:  # a value or error that does not pickle
            data = pickle.dumps((False, RuntimeError(f"unpicklable result: {exc!r}")))
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)
