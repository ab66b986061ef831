"""Simulated permissioned ledger with content-addressed off-chain storage.

Model payloads live off-chain in a SHA-256 blob store; the chain records
only fixed-size transaction records carrying 256-bit digests, so on-chain
growth is independent of model size. Validators cross-verify submitted
local models on held-out shards and vote on independently aggregated
candidates; the strict-majority candidate becomes the round's global
model. Blocks are hash-chained over a canonical JSON serialization, so
any single-byte tamper is detectable at its height.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .data import Dataset
from .model import ModelParams

ZERO_DIGEST = b"\x00" * 32

# on-chain record: 32-byte digest + round/org/payload-size as 8 bytes each
TX_WIRE_BYTES = 56


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
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ValidatorPanel:
    """Validators and the held-out shards they score submissions on."""

    validators: tuple[int, ...]
    test_shards: dict[int, Dataset]
    accuracy_floor: float = 0.5

    def __post_init__(self) -> None:
        if len(self.validators) % 2 == 0:
            raise ValueError("validator count must be odd so majority is defined")
        if set(self.validators) != set(self.test_shards):
            raise ValueError("every validator needs a test shard")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must lie in [0, 1]")


def verify_local_update(
    panel: ValidatorPanel,
    validator_id: int,
    tx: LocalUpdateTx,
    store: ContentStore,
) -> VerificationOutcome:
    """One validator's accept/reject on a submitted local model.

    Accepts iff the payload resolves, deserializes to finite weights, and
    scores at or above the panel's accuracy floor on this validator's shard.
    """
    try:
        payload = store.get(tx.model_digest)
    except (BlobNotFoundError, BlobCorruptionError) as exc:
        return VerificationOutcome(False, f"payload unavailable: {exc}")
    try:
        params = deserialize_params(payload)
    except ValueError as exc:
        return VerificationOutcome(False, f"malformed payload: {exc}")
    if not np.isfinite(params.weights).all():
        return VerificationOutcome(False, "malformed payload: non-finite weights")
    metrics = model.evaluate(params, panel.test_shards[validator_id])
    if metrics.accuracy < panel.accuracy_floor:
        return VerificationOutcome(
            False,
            f"accuracy {metrics.accuracy:.4f} below floor {panel.accuracy_floor:.4f}",
        )
    return VerificationOutcome(True)


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
    validator's vote (the digest of its candidate).
    """
    if set(candidates) != set(panel.validators):
        raise ValueError("need exactly one candidate per validator")
    votes = {vid: params_digest(candidates[vid]) for vid in panel.validators}
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
    store.put(serialize_params(winner_params))
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


def compute_block_hash(block: Block) -> bytes:
    payload = json.dumps(
        _canonical_dict(block), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(payload).digest()


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


def append_block(chain: list[Block], block: Block) -> list[Block]:
    """Extend the chain after re-verifying height, linkage, and hash."""
    if block.height != len(chain):
        raise ChainIntegrityError(
            f"block height {block.height} does not extend chain of length {len(chain)}"
        )
    expected_prev = chain[-1].block_hash if chain else ZERO_DIGEST
    if block.prev_hash != expected_prev:
        raise ChainIntegrityError(f"prev_hash mismatch at height {block.height}")
    if compute_block_hash(block) != block.block_hash:
        raise ChainIntegrityError(f"block_hash mismatch at height {block.height}")
    return chain + [block]


@dataclass(frozen=True)
class ChainValidation:
    ok: bool
    first_failure_height: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_chain(chain: list[Block]) -> ChainValidation:
    """Recheck heights, prev_hash links, and every block hash."""
    prev = ZERO_DIGEST
    for i, block in enumerate(chain):
        if (
            block.height != i
            or block.prev_hash != prev
            or compute_block_hash(block) != block.block_hash
        ):
            return ChainValidation(False, i)
        prev = block.block_hash
    return ChainValidation(True)


def export_chain(chain: list[Block]) -> str:
    """Newline-delimited records, one block per line, digests hex-encoded."""
    lines = []
    for block in chain:
        record = _canonical_dict(block)
        record["block_hash"] = block.block_hash.hex()
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return "".join(line + "\n" for line in lines)


def import_chain(text: str) -> list[Block]:
    """Parse an exported chain; integrity is checked by validate_chain."""
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
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"line {line_no}: not a valid block record: {exc}") from exc
        blocks.append(block)
    return blocks
