"""Replicate loops on up to one forked process per CPU.

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
a single item never forks either.  No process is started per item, and
the package starts no thread: a cross-fit runs its three rotations in
order on the calling thread.

Processes are the package's parallelism, so every call holds OpenBLAS
(numpy's BLAS) to one thread until it returns, ``k = 1`` included.  k
processes then keep to k CPUs, and a replicate's value does not depend
on how many replicates run beside it: a QR fit summed on two BLAS
threads can differ in the last bits from the same fit on one.  Two
processes with two BLAS threads each on two CPUs made the ITE
Monte-Carlo loop several times slower than a serial run, and even a
serial ITE fit ran faster on one thread than on two.  The thread count
is OpenBLAS's one global setting, so calls from several of the caller's
threads share it: the first to enter saves the count and sets 1, and
the last to leave restores it.

Calls nest one level deep.  A call made while a forking call's ranges
run, in the caller's range, in a child's or in another of the caller's
threads, computes its items in its own thread and forks nothing, so
there is never more than one process per CPU.  A call whose ``k`` is 1
leaves the CPUs free, and a call inside its items may fork: one
Monte-Carlo seed spreads its fit's cross-validation grid over every CPU.

The children are forked, not spawned: they inherit ``fn`` with its
closure and the data it reads, where a spawned worker would need all of
it pickled, and a fork starts in a few milliseconds.  OpenBLAS stops its
threads around a fork, and a child runs only ``fn`` before ``os._exit``.
The fork is made holding the lock that guards the two entry counts, so
no other thread holds the child's copy of it.
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

# guards the entry counts below, and is held across each fork
_lock = threading.Lock()
# forking calls whose ranges this process computes; a child inherits its parent's
_forked = 0
# calls inside _one_blas_thread, and the thread count the first of them found
_blas_entries = 0
_blas_before = 0


def _cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _workers(count: int) -> int:
    """The CPUs a call over ``count`` items may use, one per process.

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
    with _one_blas_thread():  # set before forking: the children inherit it
        with _lock:  # checked and entered at once, so two callers never both fork
            k = _workers(count)
            if k > 1:
                _forked += 1  # the children inherit it too
        if k <= 1:
            return [fn(i) for i in range(count)]
        bounds = [count * j // k for j in range(k + 1)]
        children: list[_Child] = []
        try:
            for j in range(1, k):
                children.append(_Child(fn, range(bounds[j], bounds[j + 1])))
            values = [fn(i) for i in range(bounds[0], bounds[1])]
            for child in children:
                values.extend(child.result())
        finally:
            with _lock:
                _forked -= 1
            for child in children:
                child.stop()
    return values


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
    """OpenBLAS on one thread until the last such block open in this process ends."""
    global _blas_entries, _blas_before
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _lock:
        if _blas_entries == 0:
            _blas_before = get()
            set_(1)
        _blas_entries += 1
    try:
        yield
    finally:
        with _lock:
            _blas_entries -= 1
            if _blas_entries == 0:
                set_(_blas_before)


class _Child:
    """One forked process computing ``fn`` over ``items``."""

    def __init__(self, fn: Callable[[int], T], items: range):
        read_fd, write_fd = os.pipe()
        try:
            with _lock:  # no other thread holds it at the fork: each side releases its copy
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
