"""Per-round organization selection strategies.

Three strategies: uniform random sampling, greedy marginal-gain over a
candidate utility game, and contribution-based ranking with periodic
random exploration rounds. All are deterministic for fixed inputs and
break ties by lower org_id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .data import Count, check_fields, check_integer
from .seeds import derive_seed
from .valuation import CoalitionGame

POLICY_KINDS = ("random", "greedy", "contribution")


@dataclass(frozen=True)
class SelectionPolicy:
    kind: str
    k: Count
    exploration_period: Count = 5

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {POLICY_KINDS}, got {self.kind!r}")


def select_random(orgs: Iterable[int], k: int, round_seed: int) -> set[int]:
    """Uniform k-subset of orgs, without replacement, seeded."""
    check_integer("k", k)
    pool = sorted(orgs)
    for a, b in zip(pool, pool[1:]):
        if a == b:
            raise ValueError(f"organization {a!r} is repeated")
    if not 0 <= k <= len(pool):
        raise ValueError(f"cannot select k={k} from {len(pool)} organizations")
    rng = np.random.default_rng(round_seed)
    picked = rng.choice(len(pool), size=k, replace=False)
    return {pool[i] for i in picked}


def select_greedy(game: CoalitionGame, k: int) -> set[int]:
    """Grow a coalition k times by the organization with best marginal gain.

    Requires candidate updates from every organization in the pool (that is
    what the utility game evaluates); ties go to the lower org_id, and a NaN
    gain never wins, so a step where every gain is NaN or -inf takes the
    lowest remaining org_id. Each step asks the game for all its candidate
    coalitions in one utilities() call.
    """
    check_integer("k", k)
    pool = sorted(game.players)
    if not 0 <= k <= len(pool):
        raise ValueError(f"cannot select k={k} from a pool of {len(pool)}")
    chosen: list[int] = []
    for _ in range(k):
        base = game.utility(chosen)
        rest = [org for org in pool if org not in chosen]
        # inf - inf and overflow give NaN and inf gains, which the pick handles
        with np.errstate(invalid="ignore", over="ignore"):
            gains = game.utilities([chosen + [org] for org in rest]) - base
        # argmax takes the first largest; all NaN or -inf leaves rest[0]
        chosen.append(rest[int(np.argmax(np.where(np.isnan(gains), -np.inf, gains)))])
    return set(chosen)


def select_by_contribution(
    scores: Mapping[int, float],
    k: int,
    round_index: int,
    policy: SelectionPolicy,
    seed: int,
) -> set[int]:
    """Top-k organizations by accumulated contribution.

    Every exploration_period-th round (including round 0) falls back to
    random selection, seeded by (seed, "explore", round_index), so unseen
    organizations can accrue scores.
    """
    check_integer("k", k)
    pool = sorted(scores)
    if not 0 <= k <= len(pool):
        raise ValueError(f"cannot select k={k} from {len(pool)} organizations")
    if round_index % policy.exploration_period == 0:
        return select_random(pool, k, derive_seed(seed, "explore", round_index))
    ranked = sorted(pool, key=lambda org: (-scores[org], org))
    return set(ranked[:k])
