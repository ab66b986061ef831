"""Deterministic seed derivation.

Every source of randomness in the simulator is seeded from a single master
seed plus a label path (e.g. master, "train", round, org). Seeds are derived
by hashing, never by Python's `hash()`, so results are stable across
processes and platforms.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: int | str) -> int:
    """Mix the given components into a 64-bit seed.

    Components are length-prefixed before hashing so that ("ab", "c") and
    ("a", "bc") derive different seeds.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            raw = part.encode("utf-8")
        elif isinstance(part, int):
            raw = int(part).to_bytes(16, "little", signed=True)
        else:
            raise TypeError(f"cannot derive seed from {type(part).__name__}")
        h.update(len(raw).to_bytes(4, "little"))
        h.update(raw)
    return int.from_bytes(h.digest()[:8], "little")


def check_seed(key: str, value: int) -> None:
    """Refuse, naming its key, a seed that derive_seed cannot encode: it
    hashes an int part as 16 signed bytes, so a seed lies in [-2**127, 2**127)."""
    if not -(2**127) <= value < 2**127:
        raise ValueError(f"{key} must lie in [-2**127, 2**127 - 1], got {value}")
