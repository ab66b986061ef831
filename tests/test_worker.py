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


def far_scores(stacks, shards):
    """What the worker's task "score" returns for stacks and shards, as bytes."""
    _, far = worker.split("score", (DIMS, stacks, shards), lambda: None)
    return [accuracies.tobytes() for accuracies in far]


def expected_scores(stacks, shards):
    """What the task "score" returns for stacks and shards in this process,
    as bytes."""
    return [accuracies.tobytes() for accuracies in ledgermod._score(DIMS, stacks, shards)]


@pytest.fixture(autouse=True)
def fresh_worker():
    # each test forks its own worker, after its own patches, and stops it
    worker._drop_worker()
    yield
    worker._drop_worker()


@pytest.fixture
def sent(monkeypatch):
    """What this process writes to a worker's pipe: ("request", the ids the
    worker may drop) for each pickled request, and the bytes of each raw
    buffer written after it."""
    messages = []
    real_send, real_send_bytes = Connection.send, Connection.send_bytes

    def request(conn, obj):
        if multiprocessing.parent_process() is None:
            messages.append(("request", obj[0]))
        return real_send(conn, obj)

    def raw(conn, buf, *args):
        if multiprocessing.parent_process() is None:
            messages.append(bytes(buf))
        return real_send_bytes(conn, buf, *args)

    monkeypatch.setattr(Connection, "send", request)
    monkeypatch.setattr(Connection, "send_bytes", raw)
    return messages


@pytest.fixture
def count(monkeypatch):
    """A task that counts the Datasets alive in the worker: a copy of every
    one this process held at the fork, and those it was sent."""
    def alive():
        gc.collect()
        return sum(isinstance(obj, Dataset) for obj in gc.get_objects())

    monkeypatch.setattr(ledgermod, "_count_datasets", alive, raising=False)
    monkeypatch.setitem(worker.TASKS, "count", ("ledger", "_count_datasets"))
    return lambda: worker.split("count", (), lambda: None)[1]


def data(ds):
    return [ds.features.tobytes(), ds.labels.tobytes()]


class TestDatasetsSentOnce:
    def test_each_dataset_crosses_the_pipe_once(self, sent):
        a, b, w = shard(1), shard(2), stack(0)
        for _ in range(3):
            assert far_scores([w, w], [a, b]) == expected_scores([w, w], [a, b])
        # a Dataset named twice in one request crosses once, as does an array
        c = shard(3)
        assert far_scores([w, w], [c, c]) == expected_scores([w, w], [c, c])
        request, weights = ("request", []), w.tobytes()
        assert sent[:6] == [request, weights, *data(a), *data(b)]
        # then the stacks alone: the worker holds both Datasets
        assert sent[6:10] == [request, weights] * 2
        assert sent[10:] == [request, weights, *data(c)]

    def test_freed_dataset_forgotten_by_the_worker(self, sent, count):
        w = stack(0)
        kept, freed = shard(1), shard(2)
        far_scores([w, w], [kept, freed])
        before = count()
        ident = id(freed)
        del freed
        sent.clear()
        assert count() == before - 1
        assert sent == [("request", [ident])] and list(worker._held) == [id(kept)]
        # the Dataset still held is still named by its id alone
        sent.clear()
        assert far_scores([w], [kept]) == expected_scores([w], [kept])
        assert sent == [("request", []), w.tobytes()]

    def test_reused_id_names_the_new_dataset(self, count):
        # CPython hands a freed Dataset's id() to a later object: a Dataset
        # that takes it must cross whole, and the worker must drop the old
        # one before it reads the new. With every row predicted positive by
        # the zero model, shard i scores (i + 1) / 101, so each attempt's
        # expected score is its own
        w = np.vstack([np.zeros((1, stack(0).shape[1])), stack(0)])
        features = shard(0, n=101).features
        kept = shard(1)
        base = count()
        far_scores([w], [kept])
        freed = set()
        for i in range(100):
            new = Dataset(features, np.arange(101) <= i)
            reused = id(new) in freed
            assert far_scores([w], [new]) == expected_scores([w], [new])
            if reused:
                break
            freed.add(id(new))
            del new
        else:
            pytest.fail("no id() was reused in 100 Datasets")
        # the worker holds the live Datasets it was sent, and no other
        assert sorted(worker._held) == sorted([id(kept), id(new)])
        assert count() == base + 2

    @pytest.mark.parametrize("how", ["dropped", "killed"])
    def test_reforked_worker_receives_every_dataset_again(self, sent, how):
        a, w = shard(1), stack(0)
        expected = expected_scores([w], [a])
        assert far_scores([w], [a]) == expected
        (child,) = multiprocessing.active_children()
        if how == "dropped":
            worker._drop_worker()
        else:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)
            assert far_scores([w], [a]) == expected  # scored here: the worker is dead
            assert multiprocessing.active_children() == []
        assert worker._held == {}
        sent.clear()
        assert far_scores([w], [a]) == expected
        assert sent == [("request", []), w.tobytes(), *data(a)]
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
        far_scores([w], [a])
        far_scores([w], [a])
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
        here, far = worker.split("threads", (), get)
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
