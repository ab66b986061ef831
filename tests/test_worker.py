"""The worker process: each Dataset crosses the pipe once per worker, and BLAS
computes on one thread in each process while the worker lives."""

import gc
import multiprocessing
import os
import signal
from multiprocessing.connection import Connection

import numpy as np
import pytest

from fedledger import ledger as ledgermod
from fedledger import worker
from fedledger.data import Dataset
from fedledger.model import init_params

DIMS = (3, 4, 1)


def shard(seed, n=50):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, 3)), (rng.random(n) < 0.5).astype(np.int64))


def stack(seed, m=3):
    return np.array([init_params(DIMS, seed + i).weights for i in range(m)])


def far_scores(*items):
    """What the worker's task "score" returns for items, as bytes."""
    _, far = worker.split("score", (DIMS,), items, lambda: None)
    return [accuracies.tobytes() for accuracies in far]


def expected_scores(*items):
    """What the task "score" returns for items in this process, as bytes."""
    return [accuracies.tobytes() for accuracies in ledgermod._score(DIMS, *items)]


@pytest.fixture(autouse=True)
def fresh_worker():
    # each test forks its own worker, after its own patches, and stops it
    worker._drop_worker()
    yield
    worker._drop_worker()


@pytest.fixture
def sent(monkeypatch):
    """Every buffer this process writes raw to a worker's pipe, as bytes."""
    buffers = []
    real = Connection.send_bytes

    def recorded(conn, buf, *args):
        if multiprocessing.parent_process() is None:
            buffers.append(bytes(buf))
        return real(conn, buf, *args)

    monkeypatch.setattr(Connection, "send_bytes", recorded)
    return buffers


class TestDatasetsSentOnce:
    def test_each_dataset_crosses_the_pipe_once(self, sent):
        a, b, w = shard(1), shard(2), stack(0)
        for _ in range(3):
            assert far_scores(w, a, w, b) == expected_scores(w, a, w, b)
        # a Dataset named twice in one request crosses once, before its first use
        c = shard(3)
        assert far_scores(w, c, w, c) == expected_scores(w, c, w, c)
        data = {name: (ds.features.tobytes(), ds.labels.tobytes()) for name, ds in
                [("a", a), ("b", b)]}
        weights = w.tobytes()
        assert sent[:6] == [weights, *data["a"], weights, *data["b"]]
        # then the stacks alone: the worker holds both Datasets
        assert sent[6:10] == [weights] * 4
        assert sent[10:] == [weights, c.features.tobytes(), c.labels.tobytes(), weights]

    def test_freed_dataset_forgotten_by_the_worker(self, monkeypatch):
        # the worker counts the Datasets alive in it: a copy of every one this
        # process held at the fork, and those it was sent
        def alive(*items):
            gc.collect()
            return sum(isinstance(obj, Dataset) for obj in gc.get_objects())

        monkeypatch.setattr(ledgermod, "_count_datasets", alive, raising=False)
        monkeypatch.setitem(worker.TASKS, "count", ("ledger", "_count_datasets"))
        w = stack(0)
        kept, freed = shard(1), shard(2)
        far_scores(w, kept, w, freed)
        key = worker._held[id(freed)][0]
        before = worker.split("count", (), [], lambda: None)[1]
        del freed
        gc.collect()
        assert worker._freed == [key]
        assert worker.split("count", (), [], lambda: None)[1] == before - 1
        assert worker._freed == [] and list(worker._held) == [id(kept)]
        # the Dataset still held is still named by its key alone
        assert far_scores(w, kept) == expected_scores(w, kept)

    @pytest.mark.parametrize("how", ["dropped", "killed"])
    def test_reforked_worker_receives_every_dataset_again(self, sent, how):
        a, w = shard(1), stack(0)
        expected = expected_scores(w, a)
        data = [a.features.tobytes(), a.labels.tobytes()]
        assert far_scores(w, a) == expected
        (child,) = multiprocessing.active_children()
        if how == "dropped":
            worker._drop_worker()
        else:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)
            assert far_scores(w, a) == expected  # scored here: the worker is dead
            assert multiprocessing.active_children() == []
        assert worker._held == {}
        sent.clear()
        assert far_scores(w, a) == expected
        assert sent == [w.tobytes(), *data]
        assert len(multiprocessing.active_children()) == 1


class TestBlasThreads:
    def test_each_process_sets_one_thread(self, monkeypatch, tmp_path):
        # the worker sets one thread when it starts; this process sets one
        # when it forks the worker, and its own count back when it drops it
        calls = []

        def recorded(count):
            if multiprocessing.parent_process() is None:
                calls.append(count)
            else:
                with open(tmp_path / "worker", "a") as out:
                    out.write(f"{count}\n")

        monkeypatch.setattr(worker, "_openblas", lambda: (lambda: 5, recorded))
        a, w = shard(1), stack(0)
        far_scores(w, a)
        far_scores(w, a)
        assert calls == [1]
        assert (tmp_path / "worker").read_text() == "1\n"
        worker._drop_worker()
        assert calls == [1, 5]

    @pytest.mark.skipif(worker._openblas() is None, reason="numpy bundles no OpenBLAS "
                        "that sets its thread count")
    def test_one_thread_in_each_process_while_the_worker_lives(self, monkeypatch):
        get = worker._openblas()[0]
        monkeypatch.setattr(worker, "_threads", get, raising=False)
        monkeypatch.setitem(worker.TASKS, "threads", ("worker", "_threads"))
        before = get()
        here, far = worker.split("threads", (), [], get)
        assert (here, far) == (1, 1)
        worker._drop_worker()
        assert get() == before

    @pytest.mark.parametrize("values, available", [
        (("1", "1", "1"), True),
        (("1", "1", None), False),
        (("1", "2", "1"), False),
    ])
    def test_without_openblas_split_only_on_one_thread(self, monkeypatch, values, available):
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(worker, "_openblas", lambda: None)
        for name, value in zip(worker.BLAS_THREAD_VARIABLES, values):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert worker.available() == available
