"""This process's second CPU: whether it may use one (`available`), and the
worker process, forked from it, that runs one part of a task (`split`) there.
"""

import importlib
import multiprocessing
import os
import signal
import sys
import threading
import warnings
from typing import Callable, Sequence

import numpy as np

# the tasks a request may name, each a function of a module of this package,
# looked up when the worker serves the request: so a patch made before the fork
# applies there too, and no function is pickled
TASKS = {"train": ("federation", "_train_block"), "table": ("valuation", "_value_chunks")}


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def available() -> bool:
    """Whether this process may put work on its worker: it may run on two CPUs
    or more, is not itself a child (so `--parallel` jobs and the worker compute
    in-process), and can fork safely, with no other thread alive."""
    return (
        _usable_cpus() >= 2
        and multiprocessing.parent_process() is None
        and threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
    )


def split(task: str, args: tuple, arrays: Sequence[np.ndarray], near: Callable) -> tuple:
    """(near(), task(*args, *arrays)): the worker runs the task while this
    process runs near(), or this process runs it afterwards if the worker has
    died. Warnings the worker recorded are issued here, under this process's
    filters, and its exception is raised here."""
    sent = _send(task, args, arrays)
    try:
        here = near()
    finally:
        # always read the reply, so that the next request's is the next one read
        reply = _receive() if sent else None
    if reply is None:
        return here, _function(task)(*args, *arrays)
    far, caught = reply
    for warning in caught:
        _warn_here(*warning)
    if isinstance(far, Exception):
        raise far
    return here, far


def _fork() -> tuple:
    """(this end of a pipe, a daemon child that serves requests on the other)."""
    context = multiprocessing.get_context("fork")
    conn, child_end = context.Pipe()
    process = context.Process(target=_serve, args=(child_end, conn),
                              name="fedledger-worker", daemon=True)
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork with threads alive; `available` allows
        # none, and idle BLAS threads are not copied
        warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                DeprecationWarning)
        process.start()
    child_end.close()
    return conn, process


# the one worker of this process, (conn, process), forked at the first request
_worker: tuple | None = None


def _send(task: str, args: tuple, arrays: Sequence[np.ndarray]) -> bool:
    """Send a request to this process's worker, forked first if there is none;
    false if it has died. A send that fails drops the worker, since a request
    cut short would leave the pipe out of step.

    The request is the task's name, its arguments, the arrays' shapes and
    dtypes and numpy's error state, then each array as raw bytes, written from
    the array itself. Pickled, a round's shards were copied here every round,
    megabytes that changed this process's heap layout: a later set-up in the
    same process ran a quarter slower."""
    global _worker
    try:
        if _worker is None:
            _worker = _fork()  # an OSError here: no process to be had
        conn = _worker[0]
        conn.send((task, args, [(a.shape, a.dtype.str) for a in arrays], np.geterr()))
        for array in arrays:
            conn.send_bytes(np.ascontiguousarray(array))
        return True
    except BaseException as exc:
        _drop_worker()
        if isinstance(exc, OSError):
            return False
        raise


def _receive() -> tuple | None:
    """The worker's reply to the request just sent; None if it died. A receive
    that fails drops the worker, since a reply left unread would answer the
    next request."""
    try:
        return _worker[0].recv()
    except BaseException as exc:
        _drop_worker()
        if isinstance(exc, (EOFError, OSError)):
            return None
        raise


def _drop_worker() -> None:
    """Stop this process's worker, if any; the next request forks another."""
    global _worker
    if _worker is not None:
        (conn, process), _worker = _worker, None
        conn.close()
        process.terminate()
        process.join()


def _serve(conn, caller_end) -> None:
    """The worker's loop: for each request `_send` writes, reply (the task's
    result or the exception it raised, recorded warnings)."""
    caller_end.close()  # so that the caller's end closing, or its death, reads as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    while True:
        try:
            task, args, specs, errstate = conn.recv()
            arrays = [np.frombuffer(conn.recv_bytes(), dtype).reshape(shape)
                      for shape, dtype in specs]
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
            warnings.simplefilter("always")
            try:
                reply = _function(task)(*args, *arrays)
            except Exception as exc:  # the caller's to raise
                reply = exc
        conn.send((reply, [(w.message, w.category, w.filename, w.lineno) for w in caught]))


def _function(task: str) -> Callable:
    """The function `task` names, as its module holds it now."""
    module, name = TASKS[task]
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _warn_here(message, category, filename: str, lineno: int) -> None:
    """Issue a warning the worker recorded as warnings.warn would have issued it
    here: under this process's filters, and with the registry of the module at
    `filename`, which keeps a warning shown once per location."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    scope = vars(module) if module is not None else {}
    warnings.warn_explicit(message, category, filename, lineno,
                           module=scope.get("__name__"),
                           registry=scope.setdefault("__warningregistry__", {}),
                           module_globals=scope or None)
