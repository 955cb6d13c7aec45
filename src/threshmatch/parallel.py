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
a single item never forks either.  No process is started per item.

While ``k > 1`` processes run, OpenBLAS (numpy's BLAS) is held to one
thread, so k processes keep to k CPUs.  Two processes with two BLAS
threads each on two CPUs made the ITE Monte-Carlo loop several times
slower than a serial run.

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
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import TypeVar

T = TypeVar("T")


def _cpus() -> int:
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def map_ranges(fn: Callable[[int], T], count: int) -> list[T]:
    """``[fn(i) for i in range(count)]`` on up to one process per CPU.

    ``fn`` runs in forked children for all but the first range, so it must
    not depend on state it changes; its values and errors must pickle.
    Every child has been reaped when this returns or raises.
    """
    k = min(_cpus(), count)
    if k <= 1:
        return [fn(i) for i in range(count)]
    bounds = [count * j // k for j in range(k + 1)]
    children: list[_Child] = []
    with _one_blas_thread():  # set before forking: the children inherit it
        try:
            for j in range(1, k):
                children.append(_Child(fn, range(bounds[j], bounds[j + 1])))
            values = [fn(i) for i in range(bounds[0], bounds[1])]
            for child in children:
                values.extend(child.result())
        finally:
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
