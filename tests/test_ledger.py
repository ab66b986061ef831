import hashlib
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from fedledger import ledger as ledgermod
from fedledger import worker
from fedledger.data import Dataset
from fedledger.ledger import (
    TX_WIRE_BYTES,
    ZERO_DIGEST,
    BlobCorruptionError,
    BlobNotFoundError,
    Block,
    ChainIntegrityError,
    ConsensusError,
    ContentStore,
    LocalUpdateTx,
    ValidatorPanel,
    append_block,
    compute_block_hash,
    cross_verify,
    deserialize_params,
    export_chain,
    import_chain,
    majority_global,
    make_block,
    params_digest,
    serialize_params,
    validate_chain,
    verify_local_updates,
)
from fedledger.model import ModelParams, TrainConfig, average, init_params, local_train

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def make_dataset(features, labels):
    return Dataset(np.array(features, dtype=np.float64), np.array(labels))


def balanced_shard(seed=0, n=20):
    rng = np.random.default_rng(seed)
    feats = np.vstack([
        rng.normal(-1.5, 0.4, size=(n // 2, 2)),
        rng.normal(1.5, 0.4, size=(n // 2, 2)),
    ])
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return make_dataset(feats, labels)


def trained_model(shard, flip_labels=False, seed=0):
    labels = 1 - shard.labels if flip_labels else shard.labels
    ds = Dataset(shard.features, labels)
    return local_train(
        init_params((2, 1), seed),
        ds,
        TrainConfig(learning_rate=0.5, epochs=30, batch_size=5,
                    weight_decay=0.0),
        seed,
    )


def submit(store, params, org=0):
    payload = serialize_params(params)
    digest = store.put(payload)
    return LocalUpdateTx(0, org, digest, len(payload))


def simple_panel(floor=0.5):
    shards = {v: balanced_shard(seed=v) for v in range(3)}
    return ValidatorPanel(shards, accuracy_floor=floor)


class TestContentStore:
    def test_empty_payload_digest(self):
        store = ContentStore()
        assert store.put(b"").hex() == EMPTY_SHA256

    def test_idempotent_put(self):
        store = ContentStore()
        d1 = store.put(b"payload")
        d2 = store.put(b"payload")
        assert d1 == d2
        assert len(store) == 1

    def test_digest_is_256_bits(self):
        store = ContentStore()
        assert len(store.put(b"x" * 1000)) == 32

    def test_round_trip(self):
        store = ContentStore()
        payload = b"\x01\x02\x03" * 11
        assert store.get(store.put(payload)) == payload

    def test_get_missing(self):
        with pytest.raises(BlobNotFoundError):
            ContentStore().get(b"\x00" * 32)

    def test_corruption_detected_on_get(self):
        store = ContentStore()
        digest = store.put(b"original")
        store.blobs[digest] = b"tampered"
        with pytest.raises(BlobCorruptionError):
            store.get(digest)


class TestModelSerialization:
    def test_round_trip(self):
        params = init_params((5, 3, 1), seed=4)
        blob = serialize_params(params)
        back = deserialize_params(blob)
        assert back.layer_dims == params.layer_dims
        assert np.array_equal(back.weights, params.weights)

    def test_identical_models_identical_digests(self):
        a = init_params((4, 1), seed=9)
        b = ModelParams(a.layer_dims, a.weights.copy())
        assert params_digest(a) == params_digest(b)

    def test_truncated_blob_rejected(self):
        blob = serialize_params(init_params((3, 1), seed=0))
        with pytest.raises(ValueError):
            deserialize_params(blob[:10])


class TestVerifyLocalUpdate:
    def test_nan_weights_rejected(self):
        store = ContentStore()
        weights = np.zeros(3)
        weights[1] = np.nan
        tx = submit(store, ModelParams((2, 1), weights))
        outcome = verify_local_updates(simple_panel(), 0, [tx], store, (2, 1))[0]
        assert not outcome
        assert "non-finite" in outcome.reason

    def test_zero_floor_accepts_any_finite_model(self):
        store = ContentStore()
        tx = submit(store, init_params((2, 1), seed=3))
        assert verify_local_updates(simple_panel(floor=0.0), 0, [tx], store, (2, 1))[0]

    def test_poisoned_model_rejected(self):
        # label-flipped training on a separable shard lands below a 0.5 floor
        store = ContentStore()
        panel = simple_panel(floor=0.5)
        poisoned = trained_model(balanced_shard(seed=0), flip_labels=True)
        tx = submit(store, poisoned)
        outcome = verify_local_updates(panel, 0, [tx], store, (2, 1))[0]
        assert not outcome
        assert "below floor" in outcome.reason
        honest = submit(store, trained_model(balanced_shard(seed=0)), org=1)
        assert verify_local_updates(panel, 0, [honest], store, (2, 1))[0]

    def test_missing_payload_is_reported(self):
        store = ContentStore()
        tx = LocalUpdateTx(0, 0, b"\x11" * 32, 100)
        outcome = verify_local_updates(simple_panel(), 0, [tx], store, (2, 1))[0]
        assert not outcome
        assert "unavailable" in outcome.reason

    def test_wrong_input_width_rejected_as_malformed(self):
        # a well-formed payload for 5 features, against 2-wide validator shards
        store = ContentStore()
        tx = submit(store, init_params((5, 4, 1), 1))
        outcome = verify_local_updates(simple_panel(), 0, [tx], store, (2, 1))[0]
        assert not outcome
        assert outcome.reason == (
            "malformed payload: feature width 2 does not match model input width 5")

    def test_batch_equals_one_by_one(self):
        store = ContentStore()
        panel = simple_panel(floor=0.5)
        shard = balanced_shard(seed=0)
        corrupt = submit(store, init_params((2, 1), seed=8), org=1)
        store.blobs[corrupt.model_digest] = b"tampered"
        nan_weights = np.zeros(3)
        nan_weights[2] = np.nan
        wide = init_params((2, 3, 1), seed=2)
        txs = [
            submit(store, trained_model(shard), org=0),  # accepted
            corrupt,
            LocalUpdateTx(0, 2, b"\x11" * 32, 100),  # missing blob
            submit(store, trained_model(shard, flip_labels=True), org=3),  # below floor
            submit(store, ModelParams((2, 1), nan_weights), org=4),
            submit(store, init_params((5, 4, 1), 1), org=5),  # wrong width
            submit(store, trained_model(shard, seed=1), org=6),  # accepted
            submit(store, ModelParams(wide.layer_dims, wide.weights * 0.0), org=7),
            submit(store, wide, org=8),  # a second architecture
        ]
        # each architecture in turn is the global model's; the other's payloads
        # are malformed, and the scored ones share one stacked pass
        cases = [((2, 1), [0, 3, 6], [7, 8], (2, 3, 1)),
                 ((2, 3, 1), [7, 8], [0, 3, 6], (2, 1))]
        for dims, own, other, other_dims in cases:
            for vid in panel.validators:
                batch = verify_local_updates(panel, vid, txs, store, dims)
                singles = [verify_local_updates(panel, vid, [tx], store, dims)[0]
                           for tx in txs]
                assert batch == singles
                reasons = [o.reason for o in batch]
                assert reasons[1].startswith("payload unavailable: ")
                assert "integrity" in reasons[1]
                assert reasons[2].startswith("payload unavailable: ")
                assert reasons[4] == "malformed payload: non-finite weights"
                assert reasons[5] == (
                    "malformed payload: feature width 2 does not match model input width 5")
                for i in other:
                    assert reasons[i] == (f"malformed payload: layer_dims {other_dims} "
                                          f"do not match the global model's {dims}")
                if dims == (2, 1):
                    assert batch[0] and batch[6]
                    assert reasons[3].startswith("accuracy ")
                    assert reasons[3].endswith(" below floor 0.5000")
                else:
                    assert batch[7]  # the zero model scores 0.5, at the floor
                    assert all(bool(batch[i]) or reasons[i].startswith("accuracy ")
                               for i in own)
        assert verify_local_updates(panel, 0, [], store, (2, 1)) == []


class TestMajorityGlobal:
    def test_unanimous(self):
        store = ContentStore()
        panel = simple_panel()
        m = init_params((2, 1), seed=1)
        digest, winner, _ = majority_global(panel, {0: m, 1: m, 2: m}, store)
        assert digest == params_digest(m)
        assert np.array_equal(winner.weights, m.weights)
        assert digest in store

    def test_two_of_three(self):
        store = ContentStore()
        panel = simple_panel()
        a = init_params((2, 1), seed=1)
        b = init_params((2, 1), seed=2)
        digest, winner, votes = majority_global(panel, {0: a, 1: a, 2: b}, store)
        assert digest == params_digest(a)
        assert votes == {0: digest, 1: digest, 2: params_digest(b)}

    def test_stores_the_payload_it_digested(self, monkeypatch):
        # each distinct candidate is serialized once; the winner's blob is that payload
        payloads = []
        serialize = ledgermod.serialize_params

        def recording(params):
            payloads.append(serialize(params))
            return payloads[-1]

        monkeypatch.setattr(ledgermod, "serialize_params", recording)
        store = ContentStore()
        a = init_params((2, 1), seed=1)
        b = init_params((2, 1), seed=2)
        digest, winner, _ = majority_global(simple_panel(), {0: b, 1: a, 2: a}, store)
        assert winner is a and len(payloads) == 2
        assert store.blobs[digest] is payloads[1]
        assert digest == hashlib.sha256(payloads[1]).digest() == params_digest(a)

    def test_three_way_split_fails(self):
        store = ContentStore()
        panel = simple_panel()
        candidates = {v: init_params((2, 1), seed=v + 10) for v in range(3)}
        with pytest.raises(ConsensusError):
            majority_global(panel, candidates, store)

    def test_candidate_per_validator_required(self):
        with pytest.raises(ValueError):
            majority_global(simple_panel(), {0: init_params((2, 1), 0)}, ContentStore())


class TestCrossVerify:
    """Validation from the store: verify, average or carry forward, vote."""

    @staticmethod
    def panel(flipped=()):
        # a flipped validator holds its shard with every label inverted
        shards = {}
        for v in range(3):
            shard = balanced_shard(seed=v)
            if v in flipped:
                shard = Dataset(shard.features, 1 - shard.labels)
            shards[v] = shard
        return ValidatorPanel(shards, accuracy_floor=0.5)

    def test_outcomes_carry_the_stored_model(self):
        store = ContentStore()
        shard = balanced_shard(seed=0)
        nan_weights = np.zeros(3)
        nan_weights[0] = np.nan
        txs = [
            submit(store, trained_model(shard), org=0),
            submit(store, trained_model(shard, flip_labels=True), org=1),
            submit(store, ModelParams((2, 1), nan_weights), org=2),
            LocalUpdateTx(0, 3, b"\x11" * 32, 100),
            submit(store, trained_model(shard, seed=1), org=4),
        ]
        outcomes = verify_local_updates(simple_panel(), 0, txs, store, (2, 1))
        assert [bool(o) for o in outcomes] == [True, False, False, False, True]
        for tx, outcome in zip(txs, outcomes):
            if outcome:
                assert serialize_params(outcome.params) == store.get(tx.model_digest)
            else:
                assert outcome.params is None
        assert "params" not in repr(outcomes[0])

    def test_prior_carried_forward_when_all_rejected(self):
        store = ContentStore()
        shard = balanced_shard(seed=0)
        nan_weights = np.zeros(3)
        nan_weights[1] = np.nan
        txs = [
            submit(store, trained_model(shard, flip_labels=True), org=0),
            submit(store, ModelParams((2, 1), nan_weights), org=1),
        ]
        prior = init_params((2, 1), seed=5)
        digest, new_global, votes, accepted = cross_verify(self.panel(), txs, store, prior)
        assert digest == params_digest(prior)
        assert new_global.weights.tobytes() == prior.weights.tobytes()
        assert votes == {0: digest, 1: digest, 2: digest}
        assert accepted == {}
        assert digest in store

    def test_returns_the_winners_accepted_set(self):
        # a zero model scores exactly 0.5 everywhere; the honest model fails
        # validator 0's flipped shard, so validator 0 accepts only org 3
        store = ContentStore()
        honest = trained_model(balanced_shard(seed=1))
        zero = ModelParams((2, 1), np.zeros(3))
        txs = [submit(store, zero, org=3), submit(store, honest, org=7)]
        prior = init_params((2, 1), seed=5)
        digest, new_global, votes, accepted = cross_verify(
            self.panel(flipped=(0,)), txs, store, prior)
        expected = average([zero, honest])
        assert digest == params_digest(expected)
        assert new_global.weights.tobytes() == expected.weights.tobytes()
        assert votes == {0: params_digest(zero), 1: digest, 2: digest}
        assert sorted(accepted) == [3, 7]
        assert accepted[7].weights.tobytes() == honest.weights.tobytes()
        assert store.get(digest) == serialize_params(expected)

    def test_consensus_error_propagates(self, monkeypatch):
        # three validators, three accepted sets: {3, 7}, {3, 9} and {7}
        store = ContentStore()
        honest = trained_model(balanced_shard(seed=1))
        inverted = trained_model(balanced_shard(seed=1), flip_labels=True)
        zero = ModelParams((2, 1), np.zeros(3))
        skewed = balanced_shard(seed=2, n=40).subset(range(30))  # 20 negatives, 10 positives
        panel = ValidatorPanel(
            {**self.panel(flipped=(1,)).test_shards, 2: skewed},
            accuracy_floor=0.5,
        )
        txs = [submit(store, zero, org=3), submit(store, honest, org=7),
               submit(store, inverted, org=9)]
        calls = []
        real = ledgermod.majority_global

        def counted(panel, candidates, store):
            calls.append(sorted(candidates))
            return real(panel, candidates, store)

        monkeypatch.setattr(ledgermod, "majority_global", counted)
        with pytest.raises(ConsensusError, match="3 distinct candidates"):
            cross_verify(panel, txs, store, init_params((2, 1), seed=5))
        assert calls == [[0, 1, 2]]  # called through the module, as tests patch it

    @pytest.mark.parametrize("flipped, accepted_orgs, distinct", [
        ((), [3, 7], 1),  # every validator accepts both updates
        ((0,), [3, 7], 2),  # validator 0 accepts only org 3
        ((0, 2), [3], 2),  # validators 0 and 2 accept only org 3, and win
    ])
    def test_one_average_and_digest_per_distinct_accepted_set(
        self, monkeypatch, flipped, accepted_orgs, distinct
    ):
        # the votes are those of every validator averaging and digesting alone
        store = ContentStore()
        honest = trained_model(balanced_shard(seed=1))
        zero = ModelParams((2, 1), np.zeros(3))
        txs = [submit(store, zero, org=3), submit(store, honest, org=7)]
        panel = self.panel(flipped=flipped)
        prior = init_params((2, 1), seed=5)
        expected = {}
        for vid in panel.validators:
            kept = [o.params for o in verify_local_updates(panel, vid, txs, store, (2, 1)) if o]
            expected[vid] = params_digest(average(kept) if kept else prior)
        averaged, digested = [], []
        real_average, real_serialize = ledgermod.model.average, ledgermod.serialize_params

        def counted_average(models):
            averaged.append(len(models))
            return real_average(models)

        def counted_serialize(params):
            # majority_global digests, and stores for the winner, one payload per candidate
            digested.append(params)
            return real_serialize(params)

        monkeypatch.setattr(ledgermod.model, "average", counted_average)
        monkeypatch.setattr(ledgermod, "serialize_params", counted_serialize)
        digest, new_global, votes, accepted = cross_verify(panel, txs, store, prior)
        # counted before params_digest below serializes new_global once more
        assert len(averaged) == distinct
        assert len(digested) == distinct
        assert votes == expected
        assert digest == max(expected.values(), key=list(expected.values()).count)
        assert params_digest(new_global) == digest
        assert sorted(accepted) == accepted_orgs

    def test_each_payload_read_once(self, monkeypatch):
        # the panel reads and decodes each transaction's payload once per call,
        # for every validator; the outcomes are those of separate per-validator calls
        store = ContentStore()
        shard = balanced_shard(seed=0)
        honest = trained_model(shard)
        corrupt = submit(store, init_params((2, 1), seed=8), org=1)
        store.blobs[corrupt.model_digest] = b"tampered"
        nan_weights = np.zeros(3)
        nan_weights[0] = np.nan
        txs = [
            submit(store, honest, org=0),
            corrupt,
            LocalUpdateTx(0, 2, b"\x11" * 32, 100),  # missing blob
            submit(store, ModelParams((2, 1), nan_weights), org=3),
            submit(store, honest, org=4),  # org 0's payload again
            submit(store, trained_model(shard, flip_labels=True), org=5),
            submit(store, init_params((2, 3, 1), seed=1), org=6),  # another architecture
        ]
        panel = self.panel(flipped=(1,))
        prior = init_params((2, 1), seed=5)
        expected = {vid: verify_local_updates(panel, vid, txs, store, prior.layer_dims)
                    for vid in panel.validators}
        decoded, fetched, outcomes = [], [], {}
        real_decode, real_get, real_verify = (
            ledgermod.deserialize_params, store.get, ledgermod._verify)

        def counted_decode(blob):
            decoded.append(blob)
            return real_decode(blob)

        def counted_get(digest):
            fetched.append(digest)
            return real_get(digest)

        def recorded_verify(*args):
            verdicts = real_verify(*args)
            outcomes.update(verdicts)
            return verdicts

        monkeypatch.setattr(ledgermod, "deserialize_params", counted_decode)
        monkeypatch.setattr(store, "get", counted_get)
        monkeypatch.setattr(ledgermod, "_verify", recorded_verify)
        cross_verify(panel, txs, store, prior)
        # one read per transaction, in order; orgs 0 and 4 share a digest but are
        # two transactions, so each decodes; the corrupt and missing blobs never do
        assert fetched == [tx.model_digest for tx in txs]
        assert len(decoded) == 5
        assert outcomes == expected
        for vid in panel.validators:
            for got, want in zip(outcomes[vid], expected[vid]):
                if got:
                    assert got.params.weights.tobytes() == want.params.weights.tobytes()
            reasons = [o.reason for o in outcomes[vid]]
            assert "integrity" in reasons[1]
            assert reasons[2].startswith("payload unavailable: ")
            assert reasons[3] == "malformed payload: non-finite weights"
            assert reasons[6] == ("malformed payload: layer_dims (2, 3, 1) do not match "
                                  "the global model's (2, 1)")
        # the flipped validator rejects what the others accept, from the same read
        assert [bool(o) for o in outcomes[0]] == [True, False, False, False, True, False, False]
        assert [bool(o) for o in outcomes[1]] == [False, False, False, False, False, True, False]

    @pytest.mark.parametrize("hidden", [(5,), (5, 5), (3, 5)])
    def test_payloads_of_another_architecture_rejected(self, hidden):
        # finite, well-formed payloads of the right input width whose hidden
        # width is not the global model's 3: such a payload used to be averaged,
        # so it became the next global model, or averaging a mix of both
        # architectures raised ValueError out of the round
        store = ContentStore()
        prior = init_params((2, 3, 1), seed=5)
        models = {org: init_params((2, width, 1), seed=org) for org, width in enumerate(hidden)}
        txs = [submit(store, m, org=org) for org, m in models.items()]
        panel = simple_panel(floor=0.0)
        digest, new_global, votes, accepted = cross_verify(panel, txs, store, prior)
        own = [m for m in models.values() if m.layer_dims == (2, 3, 1)]
        expected = average(own) if own else prior
        assert digest == params_digest(expected)
        assert new_global.layer_dims == (2, 3, 1)
        assert new_global.weights.tobytes() == expected.weights.tobytes()
        assert votes == {0: digest, 1: digest, 2: digest}
        assert sorted(accepted) == [org for org, w in enumerate(hidden) if w == 3]
        for vid in panel.validators:
            outcomes = verify_local_updates(panel, vid, txs, store, prior.layer_dims)
            for width, outcome in zip(hidden, outcomes):
                assert bool(outcome) == (width == 3)
                if width != 3:
                    assert outcome.reason == ("malformed payload: layer_dims (2, 5, 1) do "
                                              "not match the global model's (2, 3, 1)")


class TestSplitScoring:
    """cross_verify with the worker scoring the odd-positioned models on every
    validator's shard: every verdict is the one-process run's."""

    @pytest.fixture(autouse=True)
    def fresh_worker(self, monkeypatch):
        # each test forks its own worker, after its own patches, and stops it
        worker._drop_worker()
        monkeypatch.setattr(ledgermod, "SCORE_MIN_WORK", 1)
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        yield
        worker._drop_worker()

    @staticmethod
    def verdicts(monkeypatch, cpus=2):
        """cross_verify of a round with one payload of every kind, on `cpus`
        CPUs: the winner, the new global model's bytes, the votes, the
        accepted models' bytes and every validator's rejection reasons."""
        store = ContentStore()
        shard = balanced_shard(seed=0)
        corrupt = submit(store, init_params((2, 1), seed=8), org=1)
        store.blobs[corrupt.model_digest] = b"tampered"
        nan_weights = np.zeros(3)
        nan_weights[0] = np.nan
        txs = [
            submit(store, trained_model(shard), org=0),
            corrupt,
            LocalUpdateTx(0, 2, b"\x11" * 32, 100),  # missing blob
            submit(store, ModelParams((2, 1), nan_weights), org=3),
            submit(store, trained_model(shard, seed=1), org=4),
            submit(store, trained_model(shard, flip_labels=True), org=5),
            submit(store, init_params((2, 3, 1), seed=1), org=6),  # another architecture
            submit(store, ModelParams((2, 1), np.zeros(3)), org=7),  # exactly at the floor
            submit(store, trained_model(balanced_shard(seed=3), seed=2), org=8),
        ]
        reasons = {}
        real = ledgermod._verify

        def recorded(*args):
            verdicts = real(*args)
            reasons.update({vid: [o.reason for o in outcomes] for vid, outcomes in verdicts.items()})
            return verdicts

        with monkeypatch.context() as patch:
            patch.setattr(ledgermod, "_verify", recorded)
            patch.setattr(worker, "_usable_cpus", lambda: cpus)
            digest, new_global, votes, accepted = cross_verify(
                TestCrossVerify.panel(flipped=(0,)), txs, store, init_params((2, 1), seed=5))
        return (digest, new_global.weights.tobytes(), votes,
                {org: m.weights.tobytes() for org, m in accepted.items()}, reasons)

    def test_verdicts_those_of_one_process(self, monkeypatch):
        tasks = []
        real_split = worker.split

        def spied(task, *args):
            tasks.append(task)
            return real_split(task, *args)

        monkeypatch.setattr(worker, "split", spied)
        expected = self.verdicts(monkeypatch, cpus=1)
        assert tasks == [] and multiprocessing.active_children() == []
        split = self.verdicts(monkeypatch)
        assert tasks == ["score"] and len(multiprocessing.active_children()) == 1
        assert split == expected
        digest, _, votes, accepted, reasons = split
        # the flipped validator 0 loses the vote, and the other two accept the
        # same four models; five models pass the checks, so each side scores some
        assert votes[1] == votes[2] == digest != votes[0]
        assert sorted(accepted) == [0, 4, 7, 8]
        for vid in (0, 1, 2):
            assert "integrity" in reasons[vid][1]
            assert reasons[vid][2].startswith("payload unavailable: ")
            assert reasons[vid][3] == "malformed payload: non-finite weights"
            assert reasons[vid][6].startswith("malformed payload: layer_dims (2, 3, 1)")
            below = [i for i, r in enumerate(reasons[vid]) if r.startswith("accuracy ")]
            assert below == ([0, 4, 8] if vid == 0 else [5])
            assert all(reasons[vid][i].endswith(" below floor 0.5000") for i in below)

    def test_no_fork_below_the_threshold(self, monkeypatch):
        # five models pass the checks on each of three 20-row shards
        monkeypatch.setattr(ledgermod, "SCORE_MIN_WORK", 5 * 3 * 20 + 1)
        expected = self.verdicts(monkeypatch, cpus=1)
        assert self.verdicts(monkeypatch) == expected
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(ledgermod, "SCORE_MIN_WORK", 5 * 3 * 20)
        assert self.verdicts(monkeypatch) == expected
        assert len(multiprocessing.active_children()) == 1

    def test_worker_exception_reaches_caller_and_worker_serves_on(self, monkeypatch):
        expected = self.verdicts(monkeypatch, cpus=1)
        real = ledgermod.model.stacked_accuracy
        failed = []  # in the worker's memory

        def fails_once_in_worker(*args):
            if multiprocessing.parent_process() is not None and not failed:
                failed.append(True)
                raise LookupError("scoring failed in the worker")
            return real(*args)

        monkeypatch.setattr(ledgermod.model, "stacked_accuracy", fails_once_in_worker)
        with pytest.raises(LookupError, match="^scoring failed in the worker$"):
            self.verdicts(monkeypatch)
        (child,) = multiprocessing.active_children()
        assert self.verdicts(monkeypatch) == expected
        assert multiprocessing.active_children() == [child]

    @pytest.mark.parametrize("when", ["idle", "mid-request"])
    def test_killed_worker_costs_no_verdict(self, monkeypatch, when):
        # the second round finds the worker dead, idle since the first or
        # killed while it scores, and scores the odd models in-process
        expected = self.verdicts(monkeypatch, cpus=1)
        assert self.verdicts(monkeypatch) == expected
        (child,) = multiprocessing.active_children()
        if when == "idle":
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)  # so that the request meets a closed pipe
        else:
            real = ledgermod.model.stacked_accuracy

            def killed_in_worker(*args):
                if multiprocessing.parent_process() is not None:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(*args)

            monkeypatch.setattr(ledgermod.model, "stacked_accuracy", killed_in_worker)
            worker._drop_worker()  # so that the worker forked next holds the patch
        assert self.verdicts(monkeypatch) == expected
        assert multiprocessing.active_children() == []


def build_chain(n_blocks, seed=0):
    rng = np.random.default_rng(seed)
    store = ContentStore()
    chain = []
    prev = ZERO_DIGEST
    for h in range(n_blocks):
        txs = tuple(
            LocalUpdateTx(h, org, store.put(rng.bytes(40)), 40)
            for org in range(2)
        )
        block = make_block(
            height=h,
            prev_hash=prev,
            txs=txs,
            global_model_digest=store.put(rng.bytes(64)),
            votes={v: store.put(rng.bytes(8)) for v in range(3)},
            contributions={0: float(rng.normal()), 1: float(rng.normal())},
        )
        chain = append_block(chain, block)
        prev = block.block_hash
    return chain


class TestChain:
    def test_genesis_append(self):
        block = make_block(0, ZERO_DIGEST, (), b"\x22" * 32, {}, {})
        chain = append_block([], block)
        assert len(chain) == 1
        assert validate_chain(chain)

    def test_empty_chain_valid(self):
        verdict = validate_chain([])
        assert verdict
        assert verdict.first_failure_height is None

    def test_five_block_chain_valid(self):
        assert validate_chain(build_chain(5))

    def test_tampered_tx_detected_at_height(self):
        chain = build_chain(3)
        bad_tx = LocalUpdateTx(1, 0, b"\x55" * 32, 40)
        tampered = Block(
            height=1,
            prev_hash=chain[1].prev_hash,
            txs=(bad_tx,) + chain[1].txs[1:],
            global_model_digest=chain[1].global_model_digest,
            votes=chain[1].votes,
            contributions=chain[1].contributions,
            block_hash=chain[1].block_hash,
        )
        verdict = validate_chain([chain[0], tampered, chain[2]])
        assert not verdict
        assert verdict.first_failure_height == 1

    def test_rehash_reproduces_block_hash(self):
        for block in build_chain(4, seed=3):
            assert compute_block_hash(block) == block.block_hash

    def test_height_mismatch_rejected(self):
        chain = build_chain(2)
        block = make_block(5, chain[-1].block_hash, (), b"\x01" * 32, {}, {})
        with pytest.raises(ChainIntegrityError):
            append_block(chain, block)

    def test_prev_hash_mismatch_rejected(self):
        chain = build_chain(2)
        block = make_block(2, b"\x09" * 32, (), b"\x01" * 32, {}, {})
        with pytest.raises(ChainIntegrityError):
            append_block(chain, block)

    @pytest.mark.parametrize("edit, message", [
        (lambda block: replace(block, height=5),
         "block height 5 does not extend chain of length 2"),
        (lambda block: replace(block, prev_hash=b"\x09" * 32), "prev_hash mismatch at height 2"),
        (lambda block: replace(block, global_model_digest=b"\x02" * 32),
         "block_hash mismatch at height 2"),
    ])
    def test_one_rule_seals_and_audits(self, edit, message):
        # append_block refuses a block for the reason validate_chain flags its height
        chain = build_chain(2)
        block = edit(make_block(2, chain[-1].block_hash, (), b"\x01" * 32, {}, {}))
        with pytest.raises(ChainIntegrityError, match=f"^{message}$"):
            append_block(chain, block)
        assert validate_chain([*chain, block]).first_failure_height == 2

    def test_seal_block_links_to_the_head(self):
        chain = ledgermod.seal_block([], (), b"\x22" * 32, {}, {})
        assert chain == [make_block(0, ZERO_DIGEST, (), b"\x22" * 32, {}, {})]
        votes, contributions = {0: b"\x01" * 32}, {0: 0.5}
        longer = ledgermod.seal_block(chain, (), b"\x23" * 32, votes, contributions)
        assert len(chain) == 1 and longer[0] is chain[0]
        assert longer[1] == make_block(1, chain[0].block_hash, (), b"\x23" * 32, votes,
                                       contributions)
        assert validate_chain(longer)


class TestExportImport:
    def test_export_format_is_frozen(self):
        # handcrafted two-block chain: the exact export text is a stable
        # interface, so any change to the record layout must fail here
        genesis = make_block(0, ZERO_DIGEST, (), b"\x01" * 32, {}, {})
        tx = LocalUpdateTx(0, 7, b"\x02" * 32, 344)
        block = make_block(1, genesis.block_hash, (tx,), b"\x03" * 32,
                           {0: b"\x03" * 32}, {7: 0.25})
        text = export_chain(append_block(append_block([], genesis), block))
        expected = (
            '{"block_hash":"' + genesis.block_hash.hex() + '",'
            '"contributions":{},"global_model_digest":"' + "01" * 32 + '",'
            '"height":0,"prev_hash":"' + "00" * 32 + '","txs":[],"votes":{}}\n'
            '{"block_hash":"' + block.block_hash.hex() + '",'
            '"contributions":{"7":0.25},"global_model_digest":"' + "03" * 32 + '",'
            '"height":1,"prev_hash":"' + genesis.block_hash.hex() + '",'
            '"txs":[{"model_digest":"' + "02" * 32 + '","org_id":7,'
            '"payload_bytes":344,"round":0}],"votes":{"0":"' + "03" * 32 + '"}}\n'
        )
        assert text == expected

    def test_round_trip(self):
        chain = build_chain(4, seed=8)
        text = export_chain(chain)
        back = import_chain(text)
        assert back == chain
        assert validate_chain(back)

    def test_empty_export(self):
        assert export_chain([]) == ""
        assert import_chain("") == []

    def test_hex_edit_detected(self):
        chain = build_chain(3, seed=9)
        text = export_chain(chain)
        lines = text.splitlines()
        # flip one hex digit inside block 1's global model digest
        target = chain[1].global_model_digest.hex()
        flipped = ("0" if target[0] != "0" else "1") + target[1:]
        lines[1] = lines[1].replace(target, flipped)
        verdict = validate_chain(import_chain("\n".join(lines)))
        assert not verdict
        assert verdict.first_failure_height == 1

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            import_chain("not json\n")


class TestWireAccounting:
    def test_tx_record_size_fixed(self):
        # digest (32) + round/org/payload-size counters (8 each)
        assert TX_WIRE_BYTES == 56

    def test_payload_grows_with_model_but_tx_does_not(self):
        small = serialize_params(init_params((30, 16, 1), seed=0))
        big = serialize_params(init_params((30, 160, 1), seed=0))
        assert len(big) > 9 * len(small)
        # on-chain record size is the same regardless of payload
        assert TX_WIRE_BYTES == 56


class TestValidatorPanel:
    def test_even_panel_rejected(self):
        shards = {v: balanced_shard(seed=v) for v in range(2)}
        with pytest.raises(ValueError):
            ValidatorPanel(shards)

    def test_validators_are_the_shard_keys_in_order(self):
        shards = {v: balanced_shard(seed=v) for v in (4, 0, 9)}
        panel = ValidatorPanel(shards)
        assert panel.validators == (4, 0, 9)
        # the ids are the keys of the dict given, so none can lack a shard or repeat
        assert panel.test_shards is shards


class TestRefusals:
    """Refusals that no round reaches, each from its own input."""

    @pytest.mark.parametrize("cut, reason", [
        (lambda blob: blob[:3], "model blob too short for a header"),
        (lambda blob: blob[:-3], "model blob weight section is not 8-byte aligned"),
    ], ids=["truncated-header", "misaligned-weights"])
    def test_malformed_payload_rejected_and_prior_carried(self, cut, reason):
        # stored under its own digest, so it resolves and passes the integrity check
        store = ContentStore()
        prior = ModelParams((2, 1), np.array([0.5, -0.5, 0.1]))
        payload = cut(serialize_params(prior))
        tx = LocalUpdateTx(0, 3, store.put(payload), len(payload))
        panel = simple_panel()
        [outcome] = verify_local_updates(panel, 0, [tx], store, (2, 1))
        assert not outcome and outcome.reason == f"malformed payload: {reason}"
        winner, new_global, votes, accepted = cross_verify(panel, [tx], store, prior)
        assert new_global is prior and accepted == {}
        assert winner == params_digest(prior)
        assert votes == {v: winner for v in panel.validators}

    @pytest.mark.parametrize("refused, error, match", [
        (lambda chain: append_block(chain, replace(
            make_block(2, chain[-1].block_hash, (), b"\x01" * 32, {}, {}),
            block_hash=b"\x02" * 32)),
         ChainIntegrityError, "block_hash mismatch at height 2"),
        (lambda chain: LocalUpdateTx(0, 1, b"\x00" * 31, 8),
         ValueError, "model_digest must be 32 bytes"),
        (lambda chain: simple_panel(floor=1.5), ValueError, "accuracy_floor must lie in"),
    ], ids=["altered-block-hash", "short-digest", "floor-above-one"])
    def test_refused(self, refused, error, match):
        with pytest.raises(error, match=match):
            refused(build_chain(2))
