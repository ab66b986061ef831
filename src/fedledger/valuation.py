"""Coalition-game valuation of federated updates.

A round's submitted local models define a cooperative game: the utility of
a coalition is the loss improvement on the server test set achieved by
uniformly averaging the members' parameters (empty coalition: 0). Shapley
values of that game are the per-organization contribution scores, computed
either exactly by subset enumeration or by truncated Monte-Carlo sampling
of permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import model
from .data import Dataset
from .model import ModelParams


# exact_shapley evaluates all 2^n coalitions; beyond this many players it refuses
EXACT_MAX_PLAYERS = 20

# UtilityGame evaluates coalitions in batches of at most this many hidden
# activations (coalitions x server_test rows x widest layer): 2 MiB of float64
BATCH_ACTIVATIONS = 1 << 18


class CapacityError(ValueError):
    """Player count too large for an enumeration-based routine."""


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class CoalitionGame:
    """A cooperative game over an ordered player tuple, with a utility cache.

    Coalitions are keyed by bitmask over the sorted players (bit i is the
    i-th player) and the empty coalition is worth 0. Entries are write-once:
    utility is a pure function of the coalition, so a cached value never
    changes. A subclass calls _init_players and implements _evaluate_masks,
    which computes the misses.
    """

    _players: tuple[int, ...]
    _bit: dict[int, int]
    _cache: dict[int, float]
    # coalitions utilities() reads, and evaluates the misses of, per step
    _batch = 256

    def _init_players(self, players: Iterable[int]) -> None:
        self._players = tuple(sorted(players))
        self._bit = {p: 1 << i for i, p in enumerate(self._players)}
        self._cache = {0: 0.0}

    @property
    def players(self) -> tuple[int, ...]:
        return self._players

    def mask_of(self, coalition: Iterable[int]) -> int:
        mask = 0
        for p in coalition:
            try:
                mask |= self._bit[p]
            except KeyError:
                raise ValueError(f"unknown org_id {p!r} in coalition") from None
        return mask

    def utility(self, coalition: Iterable[int]) -> float:
        mask = self.mask_of(coalition)
        cached = self._cache.get(mask)
        if cached is None:
            self._cache.update(self._evaluate_masks([mask]))
            cached = self._cache[mask]
        return cached

    def utilities(self, coalitions: Iterable[Iterable[int]]) -> np.ndarray:
        """utility() of each coalition, in order, as one float64 array.

        Coalitions are read _batch at a time and the misses of each batch are
        evaluated together; they fill the same cache as utility().
        """
        return self._mask_utilities(map(self.mask_of, coalitions))

    def _mask_utilities(self, masks: Iterable[int]) -> np.ndarray:
        """utilities() of coalitions given as bitmasks over the sorted players."""
        return np.fromiter(self._stream_utilities(iter(masks)), dtype=np.float64)

    def _stream_utilities(self, masks: Iterator[int]) -> Iterator[float]:
        while batch := list(islice(masks, self._batch)):
            misses = [m for m in dict.fromkeys(batch) if m not in self._cache]
            if misses:
                self._cache.update(self._evaluate_masks(misses))
            yield from map(self._cache.__getitem__, batch)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """(mask, utility) for each of at most _batch uncached, non-empty masks."""
        raise NotImplementedError


class UtilityGame(CoalitionGame):
    """Loss-improvement game over one round's submitted local models.

    utility(S) = L(prior_global, server_test) - L(mean of S's models,
    server_test) for non-empty S, and 0 for the empty coalition.

    Coalitions are evaluated in batches through model.stacked_loss, up to
    BATCH_ACTIVATIONS hidden activations at a time; utility() is a batch of
    one. Every value is bit for bit base_loss - model.loss(model.average(
    members), server_test) with the members in sorted org_id order.
    """

    def __init__(
        self,
        prior_global: ModelParams,
        submissions: dict[int, ModelParams],
        server_test: Dataset,
    ) -> None:
        self.prior_global = prior_global
        self.submissions = dict(submissions)
        self.server_test = server_test
        self._init_players(self.submissions)
        self._base_loss = model.loss(prior_global, server_test)
        models = [self.submissions[p] for p in self._players]
        self._dims = models[0].layer_dims if models else prior_global.layer_dims
        if any(m.layer_dims != self._dims for m in models):
            raise ValueError("models must share layer_dims to be averaged")
        # row i: the weights of the i-th player in sorted order
        self._weights = np.array([m.weights for m in models]).reshape(
            len(models), model.param_count(self._dims))
        self._batch = max(1, BATCH_ACTIVATIONS // (len(server_test) * max(self._dims[1:])))

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """Utilities of at most _batch non-empty coalitions from one stacked pass."""
        masks = sorted(masks, key=int.bit_count)
        losses = model.stacked_loss(self._dims, self._means(masks), self.server_test)
        return zip(masks, (self._base_loss - losses).tolist())

    def _means(self, masks: list[int]) -> np.ndarray:
        """Mean weight vector of each coalition, for masks sorted by size.

        The sum runs as in model.average: from zeros, the members in sorted
        player order, then one division by the count. Coalitions of one size
        fill one block of rows, one member position at a time.
        """
        weights = self._weights
        means = np.zeros((len(masks), weights.shape[1]))
        start = 0
        for size, group in groupby(masks, key=int.bit_count):
            members = np.array([_bits(mask) for mask in group])
            block = means[start : start + len(members)]
            for position in members.T:
                block += weights.take(position, axis=0)
            block /= size
            start += len(members)
        return means


class FunctionGame(CoalitionGame):
    """Game defined by an arbitrary characteristic function, for experiments."""

    def __init__(self, players: Iterable[int], fn: Callable[[frozenset], float]) -> None:
        self._fn = fn
        self._init_players(players)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """fn of each coalition, one call per mask, in order."""
        players = self._players
        return [(mask, float(self._fn(frozenset(players[i] for i in _bits(mask)))))
                for mask in masks]


class SumGame(CoalitionGame):
    """Pointwise sum of two games over the same players."""

    def __init__(self, a: CoalitionGame, b: CoalitionGame) -> None:
        if a.players != b.players:
            raise ValueError("summed games must share the same players")
        self._a = a
        self._b = b
        self._init_players(a.players)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        # both games sort the same players, so a mask names one coalition in each
        sums = self._a._mask_utilities(masks) + self._b._mask_utilities(masks)
        return zip(masks, sums.tolist())


@dataclass(frozen=True)
class ShapleyResult:
    values: dict[int, float]
    num_evaluations: int
    method: str
    stderr: dict[int, float] | None = None


def exact_shapley(game: CoalitionGame) -> ShapleyResult:
    """Exact Shapley values by enumeration of all 2^N coalitions.

    v_i = (1/N) * sum over S not containing i of
          [U(S + i) - U(S)] / C(N-1, |S|),
    the classical permutation-average form, so the values always sum to the
    utility of the grand coalition. The table of all 2^N utilities is read
    in one mask-level pass.
    """
    players = game.players
    n = len(players)
    if n > EXACT_MAX_PLAYERS:
        raise CapacityError(
            f"{n} players is beyond exact enumeration; use tmc_shapley"
        )
    if n == 0:
        return ShapleyResult({}, 0, "exact")
    table = game._mask_utilities(range(1 << n))  # indexed by coalition mask
    masks = np.arange(1 << n, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)])
    values = {}
    for i, p in enumerate(players):
        bit = np.uint64(1 << i)
        without = masks[(masks & bit) == 0]
        marginals = table[without | bit] - table[without]
        values[p] = float(np.dot(marginals, inv_binom[sizes[without]]) / n)
    return ShapleyResult(values, 1 << n, "exact")


def tmc_shapley(
    game: CoalitionGame,
    truncation_tol: float = 1e-4,
    max_permutations: int = 10_000,
    convergence_tol: float = 1e-3,
    seed: int = 0,
) -> ShapleyResult:
    """Truncated Monte-Carlo Shapley estimation.

    Samples uniform player permutations and accumulates marginal
    contributions along each one; a walk is truncated (remaining marginals
    recorded as 0) once the prefix utility is within truncation_tol of the
    grand-coalition utility. Stops early when the largest change in any
    running mean stays below convergence_tol for 10 consecutive
    permutations. Deterministic given the seed.
    """
    if truncation_tol < 0:
        raise ValueError("truncation_tol must be non-negative")
    if max_permutations < 1:
        raise ValueError("max_permutations must be at least 1")
    players = game.players
    n = len(players)
    if n == 0:
        return ShapleyResult({}, 0, "tmc", stderr={})
    full_value = game.utility(players)
    evaluations = 1
    if n == 1:
        # one permutation settles a single-player game exactly
        return ShapleyResult({players[0]: full_value}, evaluations, "tmc",
                             stderr={players[0]: 0.0})

    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    prev_means = np.zeros(n)
    done = 0
    stable_streak = 0
    for _ in range(max_permutations):
        order = rng.permutation(n)
        marginals = np.zeros(n)
        prefix: list[int] = []
        prefix_value = 0.0
        truncated = False
        for idx in order:
            if not truncated and abs(full_value - prefix_value) < truncation_tol:
                truncated = True
            if truncated:
                continue
            prefix.append(players[idx])
            new_value = game.utility(prefix)
            evaluations += 1
            marginals[idx] = new_value - prefix_value
            prefix_value = new_value
        done += 1
        sums += marginals
        sumsq += marginals * marginals
        means = sums / done
        if done > 1:
            if np.max(np.abs(means - prev_means)) < convergence_tol:
                stable_streak += 1
            else:
                stable_streak = 0
            if stable_streak >= 10:
                prev_means = means
                break
        prev_means = means

    means = sums / done
    if done > 1:
        variance = np.maximum(sumsq - done * means * means, 0.0) / (done - 1)
        stderr_arr = np.sqrt(variance / done)
    else:
        stderr_arr = np.zeros(n)
    return ShapleyResult(
        {p: float(means[i]) for i, p in enumerate(players)},
        evaluations,
        "tmc",
        stderr={p: float(stderr_arr[i]) for i, p in enumerate(players)},
    )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the symmetry / dummy / additivity checks, with witnesses."""

    symmetry_holds: bool
    symmetric_pairs: list[tuple[int, int]]
    symmetry_max_gap: float
    dummy_holds: bool
    dummy_players: list[tuple[int, str]]
    dummy_max_gap: float
    additivity_holds: bool | None = None
    additivity_max_residual: float | None = None


def check_axioms(
    game: CoalitionGame,
    result: ShapleyResult,
    tol: float = 1e-9,
    additivity_game: CoalitionGame | None = None,
) -> AxiomReport:
    """Verify the Shapley axioms on an exact result by full coalition scans.

    Symmetry: players whose inclusion is everywhere interchangeable must
    receive equal values. Dummy: a player whose marginal contribution to
    every coalition equals its solo utility must be valued at exactly that
    solo utility (the classical zero-marginal dummy is the solo-utility-0
    special case; witnesses record which kind was found). Additivity: the
    values of the sum game must equal the per-player sums, checked against
    a caller-supplied second game.
    """
    players = game.players
    n = len(players)
    if n > 12:
        raise CapacityError(f"axiom scans are exponential; {n} players > 12")
    if result.method != "exact":
        raise ValueError("check_axioms requires an exact_shapley result")
    table = game._mask_utilities(range(1 << n))  # indexed by coalition mask
    values = result.values

    symmetric_pairs: list[tuple[int, int]] = []
    symmetry_max_gap = 0.0
    symmetry_holds = True
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            interchangeable = True
            for mask in range(1 << n):
                if mask & (bi | bj):
                    continue
                if abs(table[mask | bi] - table[mask | bj]) > tol:
                    interchangeable = False
                    break
            if interchangeable:
                pair = (players[i], players[j])
                symmetric_pairs.append(pair)
                gap = abs(values[pair[0]] - values[pair[1]])
                symmetry_max_gap = max(symmetry_max_gap, gap)
                if gap > tol:
                    symmetry_holds = False

    dummy_players: list[tuple[int, str]] = []
    dummy_max_gap = 0.0
    dummy_holds = True
    for i in range(n):
        bi = 1 << i
        solo = table[bi]
        is_dummy = True
        for mask in range(1 << n):
            if mask & bi:
                continue
            if abs(table[mask | bi] - table[mask] - solo) > tol:
                is_dummy = False
                break
        if is_dummy:
            kind = "zero" if abs(solo) <= tol else "general"
            dummy_players.append((players[i], kind))
            gap = abs(values[players[i]] - solo)
            dummy_max_gap = max(dummy_max_gap, gap)
            if gap > tol:
                dummy_holds = False

    additivity_holds = None
    additivity_residual = None
    if additivity_game is not None:
        other = exact_shapley(additivity_game)
        combined = exact_shapley(SumGame(game, additivity_game))
        additivity_residual = max(
            abs(combined.values[p] - (values[p] + other.values[p]))
            for p in players
        )
        additivity_holds = additivity_residual <= tol

    return AxiomReport(
        symmetry_holds,
        symmetric_pairs,
        symmetry_max_gap,
        dummy_holds,
        dummy_players,
        dummy_max_gap,
        additivity_holds,
        additivity_residual,
    )


def accumulate_contributions(history: Sequence[ShapleyResult]) -> dict[int, float]:
    """Per-organization running total of Shapley values across rounds.

    Organizations absent from a round contribute nothing for that round.
    """
    totals: dict[int, float] = {}
    for result in history:
        for org, value in result.values.items():
            totals[org] = totals.get(org, 0.0) + value
    return totals
