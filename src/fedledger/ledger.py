"""Simulated permissioned ledger with content-addressed off-chain storage.

Model payloads live off-chain in a SHA-256 blob store; the chain records
only fixed-size transaction records carrying 256-bit digests, so on-chain
growth is independent of model size. The validator panel fetches each
submitted local model from the store once; each validator cross-verifies
the models on its held-out shard and votes on the candidate it aggregates
from those it accepted; the strict-majority candidate becomes the round's
global model. Blocks are hash-chained over a canonical JSON serialization,
so any single-byte tamper is detectable at its height.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import model, worker
from .data import Dataset, check_fields
from .model import ModelParams

ZERO_DIGEST = b"\x00" * 32

# on-chain record: 32-byte digest + round/org/payload-size as 8 bytes each
TX_WIRE_BYTES = 56

# The scoring work of a verification, the models scored times the rows of the
# shard each is scored on, summed over validators, from which the worker
# scores half the models. Below it, the request and the wait for the reply
# cost more than the second CPU saves: README, "Work on a second CPU".
SCORE_MIN_WORK = 50_000


class BlobNotFoundError(KeyError):
    """Digest not present in the content store."""


class BlobCorruptionError(RuntimeError):
    """Stored payload no longer matches its digest."""


class ChainIntegrityError(ValueError):
    """Block does not extend the chain it was appended to."""


class ConsensusError(RuntimeError):
    """No candidate global model reached a strict majority."""


class ContentStore:
    """In-process stand-in for a content-addressed file service.

    Payloads are keyed by their own SHA-256 digest, so a digest both
    locates and authenticates its blob. Puts are idempotent; gets verify
    integrity on the way out.
    """

    def __init__(self) -> None:
        self.blobs: dict[bytes, bytes] = {}

    def put(self, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).digest()
        if digest not in self.blobs:
            self.blobs[digest] = bytes(payload)
        return digest

    def get(self, digest: bytes) -> bytes:
        try:
            payload = self.blobs[digest]
        except KeyError:
            raise BlobNotFoundError(digest.hex()) from None
        if hashlib.sha256(payload).digest() != digest:
            raise BlobCorruptionError(f"blob {digest.hex()} failed integrity check")
        return payload

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.blobs

    def __len__(self) -> int:
        return len(self.blobs)


def serialize_params(params: ModelParams) -> bytes:
    """Canonical model encoding: u32 dim count, u32 dims, f64 weights, all LE.

    Identical models serialize to identical bytes on every platform, so
    independent validators hash aggregated candidates identically.
    """
    dims = np.asarray(params.layer_dims, dtype="<u4")
    header = np.asarray([len(params.layer_dims)], dtype="<u4")
    weights = np.asarray(params.weights, dtype="<f8")
    return header.tobytes() + dims.tobytes() + weights.tobytes()


def deserialize_params(blob: bytes) -> ModelParams:
    if len(blob) < 4:
        raise ValueError("model blob too short for a header")
    ndims = int(np.frombuffer(blob[:4], dtype="<u4")[0])
    offset = 4 + 4 * ndims
    if len(blob) < offset:
        raise ValueError("model blob truncated in the dims header")
    dims = tuple(int(d) for d in np.frombuffer(blob[4:offset], dtype="<u4"))
    body = blob[offset:]
    if len(body) % 8:
        raise ValueError("model blob weight section is not 8-byte aligned")
    weights = np.frombuffer(body, dtype="<f8").copy()
    return ModelParams(dims, weights)


def params_digest(params: ModelParams) -> bytes:
    return hashlib.sha256(serialize_params(params)).digest()


@dataclass(frozen=True)
class LocalUpdateTx:
    """On-chain record of one organization's local update for one round."""

    round_index: int
    org_id: int
    model_digest: bytes
    payload_bytes: int

    def __post_init__(self) -> None:
        if len(self.model_digest) != 32:
            raise ValueError("model_digest must be 32 bytes (256 bits)")


@dataclass(frozen=True)
class VerificationOutcome:
    """A validator's verdict on one payload: accepted iff it has no reason."""

    reason: str = ""
    # the model an accepted payload deserialized to; None when rejected
    params: ModelParams | None = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class ValidatorPanel:
    """The held-out shard each validator scores submissions on, by validator id.
    A submission's accuracy there, at threshold 0.5 whatever the run's
    `threshold`, must reach `accuracy_floor`."""

    test_shards: dict[int, Dataset]
    accuracy_floor: float = 0.5

    def __post_init__(self) -> None:
        check_fields(self)
        if len(self.test_shards) % 2 == 0:
            raise ValueError("validator count must be odd so majority is defined")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must lie in [0, 1]")

    @property
    def validators(self) -> tuple[int, ...]:
        """The validator ids: the shard keys, in order."""
        return tuple(self.test_shards)


def verify_local_updates(
    panel: ValidatorPanel,
    validator_id: int,
    txs: Sequence[LocalUpdateTx],
    store: ContentStore,
    layer_dims: Sequence[int],
) -> list[VerificationOutcome]:
    """One validator's accept/reject on each submitted local model, in order.

    A payload is accepted iff it resolves, deserializes to finite weights of
    the validator's feature width and of the global model's architecture
    `layer_dims`, and its accuracy on this validator's shard at threshold 0.5,
    whatever the run's `threshold`, is at or above the panel's accuracy floor;
    an accepted outcome carries the model it deserialized to. It reads and
    decodes each payload itself (cross_verify does so once for the whole
    panel), checks each model against this validator's shard and scores the
    models that pass together, in one stacked forward pass over the shard
    (or two, one in the worker, as cross_verify scores), whose accuracies are
    bit for bit model.evaluate's; its memory grows with len(txs) *
    len(shard) * the widest layer.
    """
    fetched = [_fetch(store, tx) for tx in txs]
    return _verify(panel, (validator_id,), fetched, tuple(layer_dims))[validator_id]


def _fetch(store: ContentStore, tx: LocalUpdateTx) -> ModelParams | str:
    """The finite model tx's payload encodes, or why it cannot be used."""
    try:
        params = deserialize_params(store.get(tx.model_digest))
    except (BlobNotFoundError, BlobCorruptionError) as exc:
        return f"payload unavailable: {exc}"
    except ValueError as exc:
        return f"malformed payload: {exc}"
    if not np.isfinite(params.weights).all():
        return "malformed payload: non-finite weights"
    return params


def _check(params: ModelParams | str, shard: Dataset, layer_dims: tuple[int, ...]) -> str:
    """Why a validator holding `shard` rejects a payload _fetch read before
    scoring it, or "" if it scores it."""
    if isinstance(params, str):
        return params
    if params.input_width != shard.schema_width:
        return (f"malformed payload: feature width {shard.schema_width} does not "
                f"match model input width {params.input_width}")
    if params.layer_dims != layer_dims:
        return (f"malformed payload: layer_dims {params.layer_dims} do not match "
                f"the global model's {layer_dims}")
    return ""


def _verify(
    panel: ValidatorPanel,
    validators: Sequence[int],
    fetched: Sequence[ModelParams | str],
    layer_dims: tuple[int, ...],
) -> dict[int, list[VerificationOutcome]]:
    """verify_local_updates() of each of `validators` on payloads already read
    by _fetch, in order: what each validator decides on its own shard. Each
    validator checks every payload, and the models that pass are scored,
    every validator's by _accuracies at once; then each validator applies
    its floor to its own models' accuracies."""
    shards = [panel.test_shards[vid] for vid in validators]
    reasons = [[_check(params, shard, layer_dims) for params in fetched] for shard in shards]
    scored = [[i for i, reason in enumerate(own) if not reason] for own in reasons]
    stacks = [np.array([fetched[i].weights for i in own]) for own in scored]
    floor = panel.accuracy_floor
    verdicts = {}
    for vid, own, positions, accuracies in zip(validators, reasons, scored,
                                               _accuracies(layer_dims, stacks, shards)):
        for i, accuracy in zip(positions, accuracies.tolist()):
            if accuracy < floor:
                own[i] = f"accuracy {accuracy:.4f} below floor {floor:.4f}"
        verdicts[vid] = [VerificationOutcome(reason) if reason else
                         VerificationOutcome(params=params)
                         for reason, params in zip(own, fetched)]
    return verdicts


def _accuracies(layer_dims: tuple[int, ...], stacks: Sequence[np.ndarray],
                shards: Sequence[Dataset]) -> list[np.ndarray]:
    """The accuracy of each row of stacks[j] on shards[j], for every j: _score.

    When the work, the stacks' rows times their shards' rows, reaches
    SCORE_MIN_WORK and this process may use its worker, the worker scores
    the odd rows of every stack while this process scores the even ones. A
    model's accuracy depends on neither the other models of its stack nor
    the process that scores it, so both ways give the same bits.
    """
    work = sum(len(stack) * len(shard) for stack, shard in zip(stacks, shards))
    if work < SCORE_MIN_WORK or not worker.available():
        return _score(layer_dims, stacks, shards)
    evens, odds = worker.split(
        "score", (layer_dims, [stack[1::2] for stack in stacks], shards),
        lambda: _score(layer_dims, [stack[::2] for stack in stacks], shards))
    merged = []
    for stack, even, odd in zip(stacks, evens, odds):
        accuracies = np.empty(len(stack))
        accuracies[::2], accuracies[1::2] = even, odd
        merged.append(accuracies)
    return merged


def _score(layer_dims: tuple[int, ...], stacks: Sequence[np.ndarray],
           shards: Sequence[Dataset]) -> list[np.ndarray]:
    """The worker's task "score": model.stacked_accuracy of each stack of
    weight rows on its shard, one stacked pass each; a stack of no rows
    scores nothing."""
    return [model.stacked_accuracy(layer_dims, np.ascontiguousarray(stack), shard)
            if len(stack) else np.empty(0)
            for stack, shard in zip(stacks, shards)]


def cross_verify(
    panel: ValidatorPanel,
    txs: Sequence[LocalUpdateTx],
    store: ContentStore,
    prior: ModelParams,
) -> tuple[bytes, ModelParams, dict[int, bytes], dict[int, ModelParams]]:
    """One round's validation, from the store alone.

    The panel reads and decodes each transaction's payload (one per
    organization) once; each validator then checks the decoded models
    against its own shard and the architecture of `prior`. The models that
    pass are scored on every validator's shard at once: when the models
    scored times the shards' rows reach SCORE_MIN_WORK and this process may
    use its worker, the worker scores the odd-positioned models while this
    process scores the even ones, with the same bits as one process. Each
    validator applies its accuracy floor, and averages the models it
    accepted, in the order of txs, or carries `prior` forward when it
    accepted none; majority_global then picks the round's global model.
    Validators that accepted the same transactions share one average.
    Returns the winning digest, that model, every validator's vote, and
    {org_id: model} of the updates accepted by the first validator that
    voted for the winner. No strict majority raises ConsensusError.
    """
    accepted: dict[int, dict[int, ModelParams]] = {}
    candidates: dict[int, ModelParams] = {}
    fetched = [_fetch(store, tx) for tx in txs]
    verdicts = _verify(panel, panel.validators, fetched, prior.layer_dims)
    # by the positions in txs of the accepted updates: the models and their average
    averaged: dict[tuple[int, ...], tuple[dict[int, ModelParams], ModelParams]] = {}
    for vid in panel.validators:
        outcomes = verdicts[vid]
        kept = tuple(i for i, o in enumerate(outcomes) if o)
        if kept not in averaged:
            models = {txs[i].org_id: outcomes[i].params for i in kept}
            averaged[kept] = models, model.average(list(models.values())) if models else prior
        accepted[vid], candidates[vid] = averaged[kept]
    winner, new_global, votes = majority_global(panel, candidates, store)
    first = next(vid for vid in panel.validators if votes[vid] == winner)
    return winner, new_global, votes, accepted[first]


def majority_global(
    panel: ValidatorPanel,
    candidates: dict[int, ModelParams],
    store: ContentStore,
) -> tuple[bytes, ModelParams, dict[int, bytes]]:
    """Pick the candidate aggregate held by a strict majority of validators.

    Every validator submits the model it aggregated from the updates it
    verified; identical aggregations hash identically, so honest validators
    converge on one digest. The winner's payload is stored off-chain;
    losing candidates are the round's faulty updates. No strict majority
    raises ConsensusError. Returns the winning digest, its model and every
    validator's vote (the digest of its candidate). A candidate object that
    several validators submit is serialized and digested once, and the
    winner's payload is the one that was digested.
    """
    if set(candidates) != set(panel.validators):
        raise ValueError("need exactly one candidate per validator")
    # by id() of a candidate, all held in candidates: its payload and digest
    encoded: dict[int, tuple[bytes, bytes]] = {}
    for candidate in candidates.values():
        if id(candidate) not in encoded:
            payload = serialize_params(candidate)
            encoded[id(candidate)] = payload, hashlib.sha256(payload).digest()
    votes = {vid: encoded[id(candidates[vid])][1] for vid in panel.validators}
    tally: dict[bytes, int] = {}
    for digest in votes.values():
        tally[digest] = tally.get(digest, 0) + 1
    winner, count = max(tally.items(), key=lambda kv: kv[1])
    if count * 2 <= len(panel.validators):
        raise ConsensusError(
            f"no strict majority among {len(tally)} distinct candidates "
            f"(best {count}/{len(panel.validators)})"
        )
    winner_params = next(
        candidates[vid] for vid in panel.validators if votes[vid] == winner
    )
    store.put(encoded[id(winner_params)][0])
    return winner, winner_params, votes


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    txs: tuple[LocalUpdateTx, ...]
    global_model_digest: bytes
    votes: dict[int, bytes]
    contributions: dict[int, float]
    block_hash: bytes = b""


def _canonical_dict(block: Block) -> dict:
    return {
        "height": block.height,
        "prev_hash": block.prev_hash.hex(),
        "txs": [
            {
                "round": tx.round_index,
                "org_id": tx.org_id,
                "model_digest": tx.model_digest.hex(),
                "payload_bytes": tx.payload_bytes,
            }
            for tx in block.txs
        ],
        "global_model_digest": block.global_model_digest.hex(),
        "votes": {str(vid): d.hex() for vid, d in block.votes.items()},
        "contributions": {str(org): float(v) for org, v in block.contributions.items()},
    }


def _canonical_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def compute_block_hash(block: Block) -> bytes:
    return hashlib.sha256(_canonical_json(_canonical_dict(block)).encode("utf-8")).digest()


def make_block(
    height: int,
    prev_hash: bytes,
    txs: tuple[LocalUpdateTx, ...],
    global_model_digest: bytes,
    votes: dict[int, bytes],
    contributions: dict[int, float],
) -> Block:
    block = Block(height, prev_hash, tuple(txs), global_model_digest,
                  dict(votes), dict(contributions))
    return replace(block, block_hash=compute_block_hash(block))


def _block_failure(block: Block, height: int, prev_hash: bytes) -> str | None:
    """Why `block` cannot stand at `height` after the block hashed `prev_hash`
    (ZERO_DIGEST for genesis), or None: the one rule of a chain."""
    if block.height != height:
        return f"block height {block.height} does not extend chain of length {height}"
    if block.prev_hash != prev_hash:
        return f"prev_hash mismatch at height {block.height}"
    if compute_block_hash(block) != block.block_hash:
        return f"block_hash mismatch at height {block.height}"
    return None


def append_block(chain: list[Block], block: Block) -> list[Block]:
    """Extend the chain after re-verifying height, linkage, and hash."""
    failure = _block_failure(block, len(chain), chain[-1].block_hash if chain else ZERO_DIGEST)
    if failure:
        raise ChainIntegrityError(failure)
    return chain + [block]


def seal_block(chain: list[Block], txs: Sequence[LocalUpdateTx], global_model_digest: bytes,
               votes: dict[int, bytes], contributions: dict[int, float]) -> list[Block]:
    """The chain extended by a block of this content, linked to its head."""
    head = chain[-1].block_hash if chain else ZERO_DIGEST
    return append_block(chain, make_block(len(chain), head, txs, global_model_digest,
                                          votes, contributions))


@dataclass(frozen=True)
class ChainValidation:
    first_failure_height: int | None = None

    def __bool__(self) -> bool:
        return self.first_failure_height is None


def validate_chain(chain: list[Block]) -> ChainValidation:
    """Recheck every block by append_block's rule, in one pass."""
    prev = ZERO_DIGEST
    for height, block in enumerate(chain):
        if _block_failure(block, height, prev):
            return ChainValidation(height)
        prev = block.block_hash
    return ChainValidation()


def _record(block: Block) -> dict:
    """The exported record of a block: its canonical dict and its hash."""
    record = _canonical_dict(block)
    record["block_hash"] = block.block_hash.hex()
    return record


def export_chain(chain: list[Block]) -> str:
    """Newline-delimited records, one block per line, digests hex-encoded."""
    return "".join(_canonical_json(_record(block)) + "\n" for block in chain)


def import_chain(text: str) -> list[Block]:
    """Parse an exported chain; integrity is checked by validate_chain.

    Each line must hold the canonical record of the block it parses to, as
    export_chain writes it up to whitespace and key order: a record that
    reads as its block only after a coercion (a height of 1.0 or "1", hex
    with spaces, a contribution as a string) or with a key the block lacks
    is refused, so that one block has one record.
    """
    blocks = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            block = Block(
                height=int(record["height"]),
                prev_hash=bytes.fromhex(record["prev_hash"]),
                txs=tuple(
                    LocalUpdateTx(
                        round_index=int(tx["round"]),
                        org_id=int(tx["org_id"]),
                        model_digest=bytes.fromhex(tx["model_digest"]),
                        payload_bytes=int(tx["payload_bytes"]),
                    )
                    for tx in record["txs"]
                ),
                global_model_digest=bytes.fromhex(record["global_model_digest"]),
                votes={int(v): bytes.fromhex(d) for v, d in record["votes"].items()},
                contributions={
                    int(org): float(val)
                    for org, val in record["contributions"].items()
                },
                block_hash=bytes.fromhex(record["block_hash"]),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"line {line_no}: not a valid block record: {exc}") from exc
        if _canonical_json(record) != _canonical_json(_record(block)):
            raise ValueError(f"line {line_no}: not the canonical record of its block")
        blocks.append(block)
    return blocks
