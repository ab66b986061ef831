"""This process's second CPU: whether it may use one (`available`), and the
worker process, forked from it, that runs one part of a task (`split`) there.
Only this module knows how a request crosses the pipe (see _send).
"""

import ctypes
import functools
import glob
import importlib
import io
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import warnings
import weakref
from typing import Callable

import numpy as np

from .data import Dataset

# the tasks a request may name, each a function of a module of this package,
# looked up when the worker serves the request: so a patch made before the fork
# applies there too, and no function is pickled
TASKS = {"train": ("model", "local_train_many"), "table": ("valuation", "_value_chunks"),
         "score": ("ledger", "_score")}

# the variables BLAS libraries read their thread count from: with every one
# set to 1, BLAS is known to run one thread without a call that sets it
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found as
    tests/conftest.py finds its core name, or None without both symbols."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def available() -> bool:
    """Whether this process may put work on its worker: it may run on two CPUs
    or more, is not itself a child (so `--parallel` jobs and the worker compute
    in-process), can fork safely, with no other thread alive, and can keep
    BLAS to one thread on each side of a split: through numpy's bundled
    OpenBLAS, or because every variable of BLAS_THREAD_VARIABLES is 1. Two
    processes whose BLAS each spread over both CPUs ran slower than one."""
    return (
        _usable_cpus() >= 2
        and multiprocessing.parent_process() is None
        and threading.active_count() == 1
        and "fork" in multiprocessing.get_all_start_methods()
        and (_openblas() is not None
             or all(os.environ.get(name) == "1" for name in BLAS_THREAD_VARIABLES))
    )


def split(task: str, args: tuple, near: Callable) -> tuple:
    """(near(), task(*args)): the worker runs the task while this process runs
    near(), or this process runs it afterwards if the worker has died. The
    arguments are plain values (see _send for how they cross). Warnings the
    worker recorded are issued here, under this process's filters, and its
    exception is raised here."""
    sent = _send(task, args)
    try:
        here = near()
    finally:
        # always read the reply, so that the next request's is the next one read
        reply = _receive() if sent else None
    if reply is None:
        return here, _function(task)(*args)
    far, caught = reply
    for warning in caught:
        _warn_here(*warning)
    if isinstance(far, Exception):
        raise far
    return here, far


def _fork() -> tuple:
    """(this end of a pipe, a daemon child that serves requests on the other,
    this process's BLAS thread count before the fork, if it can tell). Until
    the worker is dropped, this process computes on one BLAS thread, as the
    worker does: one per CPU. Restoring the count after each split instead
    left a large round a quarter slower than no split (README, "Work on a
    second CPU")."""
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
    blas = _openblas()
    if blas is None:
        return conn, process, None
    get, set_ = blas
    threads = get()
    set_(1)
    return conn, process, threads


# the one worker of this process, (conn, process, BLAS threads before the
# fork), forked at the first request
_worker: tuple | None = None

# The Datasets this process's worker holds, by id(): a weak reference to each,
# dead once this process frees it. Emptied whenever the worker is dropped, so
# that a new worker receives each again.
_held: dict[int, weakref.ref] = {}


class _Pickler(pickle.Pickler):
    """A request's pickler, which names each Dataset as _send says."""

    def persistent_id(self, obj):
        if not isinstance(obj, Dataset):
            return None
        if id(obj) in _held:
            return id(obj)
        _held[id(obj)] = weakref.ref(obj)
        return id(obj), obj.features, obj.labels


def _send(task: str, args: tuple) -> bool:
    """Send a request to this process's worker, forked first if there is none;
    false if it has died. A send that fails drops the worker, since a request
    cut short would leave the pipe out of step.

    A request is one message, (the ids of the Datasets the worker may drop, a
    pickle of (task, args, numpy's error state)), then the raw bytes of each
    contiguous array the pickle holds, written from the array itself: the
    pickle is protocol 5's, with those arrays' buffers out of band (PEP 574).
    A Dataset crosses whole the first time this worker meets it, and by its
    id() alone after that: a Dataset is never changed, and the worker keeps
    it until this process frees it. The freed are those whose reference has
    died since the last request; the worker drops them before it unpickles,
    since a freed id may name a new Dataset in this very request. Pickled in
    band, a round's shards were copied here every round, megabytes that
    changed this process's heap layout: a later set-up in the same process
    ran a quarter slower."""
    global _worker
    try:
        if _worker is None:
            _worker = _fork()  # an OSError here: no process to be had
        conn = _worker[0]
        freed = [ident for ident, ref in _held.items() if ref() is None]
        for ident in freed:
            del _held[ident]
        request, buffers = io.BytesIO(), []
        _Pickler(request, 5, buffer_callback=buffers.append).dump((task, args, np.geterr()))
        conn.send((freed, request.getvalue()))
        for buffer in buffers:
            conn.send_bytes(buffer.raw())
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
    """Stop this process's worker, if any, forget the Datasets it held and
    restore this process's BLAS thread count, so that after the worker's death
    the part it would have run, and all the work if no other worker can be
    forked, compute here on every thread BLAS had; the next request forks
    another."""
    global _worker
    _held.clear()
    if _worker is not None:
        (conn, process, threads), _worker = _worker, None
        conn.close()
        process.terminate()
        process.join()
        if threads is not None:
            _openblas()[1](threads)


def _serve(conn, caller_end) -> None:
    """The worker's loop: for each request `_send` writes, drop the Datasets
    the caller freed, unpickle the rest, taking each out-of-band buffer from
    the pipe as the pickle meets it and keeping each Dataset sent whole, and
    reply (the task's result or the exception it raised, recorded warnings).
    It computes on one BLAS thread, as the caller does while the worker lives
    (see _fork)."""
    caller_end.close()  # so that the caller's end closing, or its death, reads as EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    blas = _openblas()
    if blas is not None:
        blas[1](1)
    held: dict[int, Dataset] = {}  # by the caller's id(), the Datasets it has sent

    def load(pid):  # a Dataset's id(), or (id, features, labels) when sent whole
        if isinstance(pid, int):
            return held[pid]
        held[pid[0]] = Dataset._from_checked(*pid[1:])
        return held[pid[0]]

    while True:
        try:
            freed, request = conn.recv()
            for ident in freed:
                del held[ident]
            unpickler = pickle.Unpickler(io.BytesIO(request), buffers=iter(conn.recv_bytes, None))
            unpickler.persistent_load = load
            task, args, errstate = unpickler.load()
        except EOFError:
            return
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errstate):
            warnings.simplefilter("always")
            try:
                reply = _function(task)(*args)
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
