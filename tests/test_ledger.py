import hashlib

import numpy as np
import pytest

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
    deserialize_params,
    export_chain,
    import_chain,
    majority_global,
    make_block,
    params_digest,
    serialize_params,
    validate_chain,
    verify_local_update,
    verify_local_updates,
)
from fedledger.model import ModelParams, TrainConfig, init_params, local_train

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


def simple_panel(floor=0.5):
    shards = {v: balanced_shard(seed=v) for v in range(3)}
    return ValidatorPanel((0, 1, 2), shards, accuracy_floor=floor)


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
    def submit(self, store, params, org=0):
        payload = serialize_params(params)
        digest = store.put(payload)
        return LocalUpdateTx(0, org, digest, len(payload))

    def test_nan_weights_rejected(self):
        store = ContentStore()
        weights = np.zeros(3)
        weights[1] = np.nan
        tx = self.submit(store, ModelParams((2, 1), weights))
        outcome = verify_local_update(simple_panel(), 0, tx, store)
        assert not outcome
        assert "non-finite" in outcome.reason

    def test_zero_floor_accepts_any_finite_model(self):
        store = ContentStore()
        tx = self.submit(store, init_params((2, 1), seed=3))
        assert verify_local_update(simple_panel(floor=0.0), 0, tx, store)

    def test_poisoned_model_rejected(self):
        # label-flipped training on a separable shard lands below a 0.5 floor
        store = ContentStore()
        panel = simple_panel(floor=0.5)
        poisoned = trained_model(balanced_shard(seed=0), flip_labels=True)
        tx = self.submit(store, poisoned)
        outcome = verify_local_update(panel, 0, tx, store)
        assert not outcome
        assert "below floor" in outcome.reason
        honest = trained_model(balanced_shard(seed=0))
        assert verify_local_update(panel, 0, self.submit(store, honest, org=1), store)

    def test_missing_payload_is_reported(self):
        store = ContentStore()
        tx = LocalUpdateTx(0, 0, b"\x11" * 32, 100)
        outcome = verify_local_update(simple_panel(), 0, tx, store)
        assert not outcome
        assert "unavailable" in outcome.reason

    def test_wrong_input_width_rejected_as_malformed(self):
        # a well-formed payload for 5 features, against 2-wide validator shards
        store = ContentStore()
        tx = self.submit(store, init_params((5, 4, 1), 1))
        outcome = verify_local_update(simple_panel(), 0, tx, store)
        assert not outcome
        assert outcome.reason == (
            "malformed payload: feature width 2 does not match model input width 5")

    def test_batch_equals_one_by_one(self):
        store = ContentStore()
        panel = simple_panel(floor=0.5)
        shard = balanced_shard(seed=0)
        corrupt = self.submit(store, init_params((2, 1), seed=8), org=1)
        store.blobs[corrupt.model_digest] = b"tampered"
        nan_weights = np.zeros(3)
        nan_weights[2] = np.nan
        wide = init_params((2, 3, 1), seed=2)
        txs = [
            self.submit(store, trained_model(shard), org=0),  # accepted
            corrupt,
            LocalUpdateTx(0, 2, b"\x11" * 32, 100),  # missing blob
            self.submit(store, trained_model(shard, flip_labels=True), org=3),  # below floor
            self.submit(store, ModelParams((2, 1), nan_weights), org=4),
            self.submit(store, init_params((5, 4, 1), 1), org=5),  # wrong width
            self.submit(store, trained_model(shard, seed=1), org=6),  # accepted
            self.submit(store, ModelParams(wide.layer_dims, wide.weights * 0.0), org=7),
            self.submit(store, wide, org=8),  # a second architecture, its own stack
        ]
        for vid in panel.validators:
            batch = verify_local_updates(panel, vid, txs, store)
            singles = [verify_local_update(panel, vid, tx, store) for tx in txs]
            assert batch == singles
            reasons = [o.reason for o in batch]
            assert batch[0] and batch[6]
            assert reasons[1].startswith("payload unavailable: ") and "integrity" in reasons[1]
            assert reasons[2].startswith("payload unavailable: ")
            assert reasons[3].startswith("accuracy ")
            assert reasons[3].endswith(" below floor 0.5000")
            assert reasons[4] == "malformed payload: non-finite weights"
            assert reasons[5] == (
                "malformed payload: feature width 2 does not match model input width 5")
        assert verify_local_updates(panel, 0, [], store) == []


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

    def test_three_way_split_fails(self):
        store = ContentStore()
        panel = simple_panel()
        candidates = {v: init_params((2, 1), seed=v + 10) for v in range(3)}
        with pytest.raises(ConsensusError):
            majority_global(panel, candidates, store)

    def test_candidate_per_validator_required(self):
        with pytest.raises(ValueError):
            majority_global(simple_panel(), {0: init_params((2, 1), 0)}, ContentStore())


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
            ValidatorPanel((0, 1), shards)
