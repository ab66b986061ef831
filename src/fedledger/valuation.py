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
from functools import cached_property
from itertools import groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from . import model, worker
from .data import Dataset, check_count
from .model import ModelParams


# exact_shapley evaluates all 2^n coalitions; beyond this many players it refuses
EXACT_MAX_PLAYERS = 20

# UtilityGame evaluates coalitions in batches of at most this many hidden
# activations (coalitions x server_test rows x widest layer): 2 MiB of float64
BATCH_ACTIVATIONS = 1 << 18

# tmc_shapley stops once the running means have stayed within convergence_tol
# for this many consecutive permutations
STABLE_WALKS = 10


class CapacityError(ValueError):
    """Player count too large for an enumeration-based routine."""


class CoalitionGame:
    """A cooperative game over an ordered player tuple, with a utility cache.

    Coalitions are keyed by bitmask over the sorted players (bit i is the
    i-th player) and the empty coalition is worth 0. Entries are write-once:
    utility is a pure function of the coalition, so a cached value never
    changes. A subclass calls _init_players and implements _evaluate_masks,
    which computes the misses; it may override _table, the utilities of all
    2^n coalitions that exact_shapley and check_axioms read.
    """

    _players: tuple[int, ...]
    _bit: dict[int, int]
    _cache: dict[int, float]
    # uncached coalitions utilities() evaluates per _evaluate_masks call
    _batch = 256

    def _init_players(self, players: Iterable[int]) -> None:
        self._players = tuple(sorted(players))
        for p, q in zip(self._players, self._players[1:]):
            if p == q:
                raise ValueError(f"player {p!r} is repeated")
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
        return float(self._mask_utilities([self.mask_of(coalition)])[0])

    def utilities(self, coalitions: Iterable[Iterable[int]]) -> np.ndarray:
        """utility() of each coalition, in order, as one float64 array.

        The first-seen misses are evaluated _batch at a time; they fill the
        same cache as utility().
        """
        return self._mask_utilities(map(self.mask_of, coalitions))

    def _mask_utilities(self, masks: Iterable[int]) -> np.ndarray:
        """utilities() of coalitions given as bitmasks over the sorted players."""
        masks = list(masks)
        misses = [m for m in dict.fromkeys(masks) if m not in self._cache]
        for start in range(0, len(misses), self._batch):
            self._cache.update(self._evaluate_masks(misses[start : start + self._batch]))
        return np.array([self._cache[m] for m in masks], dtype=np.float64)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """(mask, utility) for each of at most _batch uncached, non-empty masks."""
        raise NotImplementedError

    def _table(self) -> np.ndarray:
        """The utility of every coalition, indexed by mask: 2^n floats."""
        return self._mask_utilities(range(1 << len(self._players)))


class UtilityGame(CoalitionGame):
    """Loss-improvement game over one round's submitted local models.

    utility(S) = L(prior_global, server_test) - L(mean of S's models,
    server_test) for non-empty S, and 0 for the empty coalition.

    Coalitions are evaluated in batches of up to BATCH_ACTIVATIONS hidden
    activations, utility() a batch of one, each by one call of the game's
    own model._Loss kernel. The full table (_table) builds each coalition's
    mean from a smaller coalition's sum with one add, bypassing the cache,
    and may value half its chunks in the worker process. Every value is bit
    for bit base_loss - model.loss(model.average(members), server_test) with
    the members in sorted org_id order, in either process.

    base_loss is model.loss(prior_global, server_test); a caller that
    already holds that value passes it as _base_loss and saves the pass.
    Likewise a caller holding the loss of the grand coalition's mean, that
    model.average of every submission in sorted org_id order, passes it as
    _grand_loss, and the grand coalition is cached as worth base_loss minus it.
    """

    def __init__(
        self,
        prior_global: ModelParams,
        submissions: dict[int, ModelParams],
        server_test: Dataset,
        *,
        _base_loss: float | None = None,
        _grand_loss: float | None = None,
    ) -> None:
        self.prior_global = prior_global
        self.submissions = dict(submissions)
        self.server_test = server_test
        self._init_players(self.submissions)
        self._base_loss = (
            model.loss(prior_global, server_test) if _base_loss is None else _base_loss)
        if _grand_loss is not None and self._players:
            self._cache[(1 << len(self._players)) - 1] = self._base_loss - _grand_loss
        models = [self.submissions[p] for p in self._players]
        self._dims = models[0].layer_dims if models else prior_global.layer_dims
        if any(m.layer_dims != self._dims for m in models):
            raise ValueError("models must share layer_dims to be averaged")
        # row i: the weights of the i-th player in sorted order
        self._weights = np.array([m.weights for m in models]).reshape(
            len(models), model.param_count(self._dims))
        model._check_data(self._dims[0], [server_test])
        self._batch = max(1, BATCH_ACTIVATIONS // (len(server_test) * max(self._dims[1:])))

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, model._Loss]:
        """The game's (_batch, P) weight block and the loss kernel on it, built
        at the first miss: a game valued only by _table() never holds them."""
        block = np.empty((self._batch, self._weights.shape[1]))
        return block, model._Loss(self._dims, block, self.server_test)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """Utilities of at most _batch non-empty coalitions from one kernel
        call, their means written into the block's last len(masks) rows."""
        masks = sorted(masks, key=int.bit_count)
        block, kernel = self._kernel
        start = len(block) - len(masks)
        self._means(masks, block[start:])
        return zip(masks, (self._base_loss - kernel(start)).tolist())

    def _means(self, masks: list[int], means: np.ndarray) -> None:
        """Mean weight vector of each coalition into the rows of `means`, for
        masks sorted by size.

        The sum runs as in model.average: from zeros, the members in sorted
        player order, then one division by the count. Coalitions of one size
        fill one block of rows, one member position at a time.
        """
        weights = self._weights
        # row i holds the bits of masks[i], lowest first, so that the nonzero
        # columns of a row are its coalition's member positions in ascending order
        width = (len(self._players) + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
        bits = np.unpackbits(packed.reshape(len(masks), width), axis=1, bitorder="little")
        means.fill(0.0)
        start = 0
        for size, group in groupby(masks, key=int.bit_count):
            count = len(list(group))
            members = np.nonzero(bits[start : start + count])[1].reshape(count, size)
            block = means[start : start + count]
            for position in members.T:
                block += weights.take(position, axis=0)
            block /= size
            start += count

    def _table(self) -> np.ndarray:
        """Every coalition's utility, indexed by mask: _value_chunks of each
        aligned chunk of 2^low masks, 2^low coalitions being what fits one pass.
        A table of two chunks or more, when this process may use its worker, has
        the worker value the odd chunks while this process values the even ones;
        a chunk's values depend on neither the other chunks nor the process.
        """
        n = len(self._players)
        low = min(n, self._batch.bit_length() - 1)
        table = np.zeros(1 << n)
        chunks = table.reshape(-1, 1 << low)  # row c: the masks of chunk c
        count = len(chunks)
        args = (self._dims, self._base_loss, low)
        items = (self._weights, self.server_test)
        if count < 2 or not worker.available():
            chunks[:] = _value_chunks(*args, range(count), *items)
        else:
            chunks[::2], chunks[1::2] = worker.split(
                "table", (*args, range(1, count, 2)), items,
                lambda: _value_chunks(*args, range(0, count, 2), *items))
        return table


def _value_chunks(dims: tuple[int, ...], base_loss: float, low: int, chunks: Sequence[int],
                  weights: np.ndarray, server_test: Dataset) -> np.ndarray:
    """The worker's task "table": row i holds the utilities of chunk
    chunks[i], masks chunks[i] * 2^low onwards, of the UtilityGame whose
    players' weights are the rows of `weights` and whose test set is
    `server_test`.

    The sums over the lowest `low` players are tabled once, each from a
    smaller mask's sum plus one weight row. Each chunk copies that table, or
    adds its first higher member to it, adds the rest in ascending order and
    divides each row by its count, a float column tabled per count of higher
    members: a mean summed as model.average sums, from +0.0 in ascending
    player order. One call of a model._Loss kernel, built once on its block,
    values the chunk, and base_loss minus its losses is written straight into
    its row; the empty coalition gets no row and stays 0.0.
    """
    n = len(weights)
    size = 1 << low
    out = np.zeros((len(chunks), size))
    rows = list(weights)  # one row view per player, taken once
    sums = np.zeros((size, weights.shape[1]))
    for i in range(low):
        np.add(sums[: 1 << i], rows[i], out=sums[1 << i : 2 << i])
    # divisors[h]: each row's member count in a chunk with h higher members
    divisors = np.add.outer(np.arange(n - low + 1.0), np.bitwise_count(np.arange(size)))
    block = np.empty_like(sums)
    kernel = model._Loss(dims, block, server_test)
    for chunk, row in zip(chunks, out):
        first = 1 if chunk == 0 else 0  # skip the empty coalition
        if first == size:
            continue
        high = [rows[i] for i in range(low, n) if chunk << low >> i & 1]
        if high:
            np.add(sums, high[0], out=block)
            for weight in high[1:]:
                block += weight
        else:
            np.copyto(block, sums)
        means = block[first:]
        means /= divisors[len(high), first:, None]
        np.subtract(base_loss, kernel(first), out=row[first:])
    return out


class FunctionGame(CoalitionGame):
    """Game defined by an arbitrary characteristic function, for experiments."""

    def __init__(self, players: Iterable[int], fn: Callable[[frozenset], float]) -> None:
        self._fn = fn
        self._init_players(players)

    def _evaluate_masks(self, masks: list[int]) -> Iterable[tuple[int, float]]:
        """fn of each coalition, one call per mask, in order."""
        players = self._players
        return [(mask, float(self._fn(
                    frozenset(p for i, p in enumerate(players) if mask >> i & 1))))
                for mask in masks]


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
    utility of the grand coalition. The table of all 2^N utilities comes
    from game._table(): one read of the cache for most games, subset sums
    for a UtilityGame, whose values do not depend on which process computed what.
    """
    players = game.players
    n = len(players)
    if n > EXACT_MAX_PLAYERS:
        raise CapacityError(
            f"{n} players is beyond exact enumeration; use tmc_shapley"
        )
    if n == 0:
        return ShapleyResult({}, 0, "exact")
    return ShapleyResult(_shapley_values(players, game._table()), 1 << n, "exact")


def _shapley_values(players: tuple[int, ...], table: np.ndarray) -> dict[int, float]:
    """exact_shapley's values from the utilities of every coalition, indexed by mask."""
    n = len(players)
    sizes = np.bitwise_count(np.arange(1 << n))
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)])
    values = {}
    for i, p in enumerate(players):
        without, marginals = _marginals(table, i)
        values[p] = float(np.dot(marginals, inv_binom[sizes[without]]) / n)
    return values


def _marginals(table: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The masks without player i, ascending, and i's marginal utility to each.

    `table` holds the utility of every coalition, indexed by mask.
    """
    masks = np.arange(len(table))
    without = masks[(masks & 1 << i) == 0]
    return without, table[without | 1 << i] - table[without]


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
    running mean stays below convergence_tol for STABLE_WALKS consecutive
    permutations. Deterministic given the seed.

    Walks are drawn in batches that the stopping rule could not end early:
    as many as the streak lacks. The streak starts at -1, since the first
    walk has no means before it to compare with, so the first batch is
    STABLE_WALKS + 1 walks. A batch advances together (see _walk_marginals)
    and is folded in walk order, so the result, the evaluation count and the
    coalitions evaluated are those of walking the permutations one at a time.
    """
    if not 0 <= truncation_tol < math.inf:
        raise ValueError(
            f"truncation_tol must be non-negative and finite, got {truncation_tol!r}")
    if not 0 <= convergence_tol < math.inf:
        raise ValueError(
            f"convergence_tol must be non-negative and finite, got {convergence_tol!r}")
    check_count("max_permutations", max_permutations)
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
    done = 0
    stable_streak = -1  # the first walk's change, from no means, sets it to 0
    while done < max_permutations and stable_streak < STABLE_WALKS:
        batch = min(STABLE_WALKS - stable_streak, max_permutations - done)
        orders = np.array([rng.permutation(n) for _ in range(batch)])
        walks, steps = _walk_marginals(game, orders, full_value, truncation_tol)
        evaluations += steps
        # row w: the running sums after walk w, added one walk at a time as
        # cumsum does; each walk's means are compared with those before it
        running = np.cumsum(np.vstack([sums, walks]), axis=0)[1:]
        sumsq = np.cumsum(np.vstack([sumsq, walks * walks]), axis=0)[-1]
        means = running / np.arange(done + 1, done + batch + 1)[:, None]
        before = sums / max(done, 1)  # as the last batch divided them; zeros at first
        changes = np.max(np.abs(np.diff(means, axis=0, prepend=before[None])), axis=1)
        for change in changes.tolist():
            stable_streak = stable_streak + 1 if change < convergence_tol else 0
        done += batch
        sums = running[-1]

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


def _walk_marginals(
    game: CoalitionGame, orders: np.ndarray, full_value: float, truncation_tol: float
) -> tuple[np.ndarray, int]:
    """Marginals of TMC walks along the rows of `orders`, and the prefixes evaluated.

    The walks advance one position at a time. A walk whose prefix utility is
    within truncation_tol of full_value stops there (its later marginals stay
    0); the next prefix of every other walk is read in one _mask_utilities
    call, so one stacked pass serves a step of the whole batch. Row w holds
    walk w's marginal per player index, bit for bit those of walking it alone.
    """
    count, n = orders.shape
    marginals = np.zeros((count, n))
    masks = [0] * count
    values = [0.0] * count
    live = range(count)
    steps = 0
    for column in orders.T.tolist():
        live = [w for w in live if not abs(full_value - values[w]) < truncation_tol]
        if not live:
            break
        for w in live:
            masks[w] |= 1 << column[w]
        steps += len(live)
        new_values = game._mask_utilities([masks[w] for w in live]).tolist()
        for w, value in zip(live, new_values):
            marginals[w, column[w]] = value - values[w]
            values[w] = value
    return marginals, steps


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
    a caller-supplied second game over the same players; the sum game's
    table is the sum of the two games' tables. The scans read the table of
    all 2^N utilities from game._table(), as exact_shapley does. The result
    must value exactly the game's players.
    """
    players = game.players
    n = len(players)
    if n > 12:
        raise CapacityError(f"axiom scans are exponential; {n} players > 12")
    if result.method != "exact":
        raise ValueError("check_axioms requires an exact_shapley result")
    if set(result.values) != set(players):
        raise ValueError("the result must value exactly the game's players")
    if additivity_game is not None and additivity_game.players != players:
        raise ValueError("the additivity game must have the same players")
    table = game._table()  # indexed by coalition mask
    values = result.values
    # a NaN difference is never above tol: it breaks no interchangeability or
    # dummy status, fails no axiom and is never a max gap (the running max
    # keeps its value when compared with NaN); inf - inf gives such a NaN
    with np.errstate(invalid="ignore", over="ignore"):
        scans = [_marginals(table, i) for i in range(n)]
        symmetric_pairs = []
        for i, (without, _) in enumerate(scans):
            for j in range(i + 1, n):
                neither = without[(without & 1 << j) == 0]
                if not (np.abs(table[neither | 1 << i] - table[neither | 1 << j]) > tol).any():
                    symmetric_pairs.append((players[i], players[j]))
        dummies = [i for i, (_, marginals) in enumerate(scans)
                   if not (np.abs(marginals - table[1 << i]) > tol).any()]
        symmetry_gaps = [abs(values[a] - values[b]) for a, b in symmetric_pairs]
        dummy_gaps = [abs(values[players[i]] - table[1 << i]) for i in dummies]
    dummy_players = [(players[i], "zero" if abs(table[1 << i]) <= tol else "general")
                     for i in dummies]

    additivity_holds = None
    additivity_residual = None
    if additivity_game is not None:
        other_table = additivity_game._table()
        other = _shapley_values(players, other_table)
        combined = _shapley_values(players, table + other_table)
        additivity_residual = max(
            (abs(combined[p] - (values[p] + other[p])) for p in players), default=0.0)
        additivity_holds = additivity_residual <= tol

    return AxiomReport(
        not any(gap > tol for gap in symmetry_gaps),
        symmetric_pairs,
        max([0.0, *symmetry_gaps]),
        not any(gap > tol for gap in dummy_gaps),
        dummy_players,
        max([0.0, *dummy_gaps]),
        additivity_holds,
        additivity_residual,
    )
