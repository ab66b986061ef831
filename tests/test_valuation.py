import itertools
import math
import multiprocessing
import os
import signal
import threading
import tracemalloc
from itertools import groupby

import numpy as np
import pytest

from fedledger import valuation, worker
from fedledger.data import Dataset
from fedledger.model import ModelParams, average, loss
from fedledger.valuation import (
    STABLE_WALKS,
    CapacityError,
    CoalitionGame,
    FunctionGame,
    ShapleyResult,
    UtilityGame,
    check_axioms,
    exact_shapley,
    _walk_marginals,
    tmc_shapley,
)


def permutation_oracle(game):
    """Average marginal contribution over all N! permutations.

    Independent of the subset-enumeration route used by exact_shapley.
    """
    players = game.players
    n = len(players)
    totals = {p: 0.0 for p in players}
    for perm in itertools.permutations(players):
        coalition = []
        prev = 0.0
        for p in perm:
            coalition.append(p)
            value = game.utility(coalition)
            totals[p] += value - prev
            prev = value
    return {p: t / math.factorial(n) for p, t in totals.items()}


def additive_game(gains):
    table = dict(enumerate(gains))
    return FunctionGame(range(len(gains)), lambda s: sum(table[p] for p in s))


def random_game(n, seed):
    """Seeded game with arbitrary coalition utilities in [-1, 1]."""
    rng = np.random.default_rng(seed)
    values = {frozenset(): 0.0}
    players = list(range(n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(players, r):
            values[frozenset(combo)] = float(rng.uniform(-1.0, 1.0))
    return FunctionGame(players, lambda s: values[frozenset(s)])


def logistic(weights, bias):
    d = len(weights)
    return ModelParams((d, 1), np.array([*weights, bias], dtype=np.float64))


def make_dataset(features, labels):
    return Dataset(np.array(features, dtype=np.float64), np.array(labels))


@pytest.fixture
def small_model_game():
    server_test = make_dataset(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.5, -0.5]], [1, 0, 0, 1]
    )
    prior = logistic([0.0, 0.0], 0.0)
    submissions = {
        1: logistic([0.8, -0.2], 0.1),
        2: logistic([-0.1, 0.4], -0.3),
    }
    return UtilityGame(prior, submissions, server_test)


class TestUtility:
    def test_no_progress_client_scores_zero(self, small_model_game):
        base = small_model_game
        submissions = {**base.submissions, 3: base.prior_global}
        game = UtilityGame(base.prior_global, submissions, base.server_test)
        assert game.utility([3]) == pytest.approx(0.0, abs=1e-15)

    def test_empty_coalition_zero(self, small_model_game):
        assert small_model_game.utility([]) == 0.0

    def test_two_member_average_hand_check(self, small_model_game):
        game = small_model_game
        # average the two weight vectors by hand and compare loss improvements
        avg = logistic([(0.8 - 0.1) / 2, (-0.2 + 0.4) / 2], (0.1 - 0.3) / 2)
        expected = loss(game.prior_global, game.server_test) - loss(
            avg, game.server_test
        )
        assert game.utility([1, 2]) == pytest.approx(expected, abs=1e-12)

    def test_unknown_org_rejected(self, small_model_game):
        with pytest.raises(ValueError):
            small_model_game.utility([99])

    def test_cache_stable(self, small_model_game):
        first = small_model_game.utility([1, 2])
        again = small_model_game.utility([2, 1])
        assert first == again


class TestExactShapley:
    @pytest.mark.parametrize("players", [[1, 1, 2], [2, 1, 3, 1], [0, 0]])
    def test_repeated_player_refused(self, players):
        # kept, a repeated player shares one bit: its values would not sum to U(N)
        with pytest.raises(ValueError, match=f"^player {min(players)} is repeated$"):
            FunctionGame(players, lambda s: float(len(s)))

    def test_additive_game(self):
        res = exact_shapley(additive_game([1.0, 2.0, 3.0]))
        assert res.values[0] == pytest.approx(1.0, abs=1e-12)
        assert res.values[1] == pytest.approx(2.0, abs=1e-12)
        assert res.values[2] == pytest.approx(3.0, abs=1e-12)
        assert res.method == "exact"
        assert res.num_evaluations == 8

    def test_dummy_player_scores_zero(self):
        # utility ignores player 2 entirely
        game = FunctionGame(range(3), lambda s: float(len(s - {2})) ** 2)
        res = exact_shapley(game)
        assert res.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_fixed_three_player_game(self):
        # oracle value (1.5, 1.5, 0) frozen from enumerating all 3! permutations
        values = {
            frozenset(): 0.0,
            frozenset({1}): 1.0, frozenset({2}): 1.0, frozenset({3}): 0.0,
            frozenset({1, 2}): 3.0, frozenset({1, 3}): 1.0, frozenset({2, 3}): 1.0,
            frozenset({1, 2, 3}): 3.0,
        }
        game = FunctionGame([1, 2, 3], lambda s: values[frozenset(s)])
        res = exact_shapley(game)
        assert res.values[1] == pytest.approx(1.5, abs=1e-12)
        assert res.values[2] == pytest.approx(1.5, abs=1e-12)
        assert res.values[3] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2), (5, 3), (6, 4)])
    def test_matches_permutation_oracle(self, n, seed):
        game = random_game(n, seed)
        res = exact_shapley(game)
        oracle = permutation_oracle(game)
        for p in game.players:
            assert res.values[p] == pytest.approx(oracle[p], abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_efficiency(self, seed):
        game = random_game(5, seed + 100)
        res = exact_shapley(game)
        assert sum(res.values.values()) == pytest.approx(
            game.utility(game.players), abs=1e-9
        )

    def test_capacity_guard(self):
        game = FunctionGame(range(21), lambda s: float(len(s)))
        with pytest.raises(CapacityError, match="tmc"):
            exact_shapley(game)

    def test_model_game_efficiency(self, small_model_game):
        res = exact_shapley(small_model_game)
        total = small_model_game.utility(small_model_game.players)
        assert sum(res.values.values()) == pytest.approx(total, abs=1e-9)

    def test_identical_submissions_get_identical_values(self, small_model_game):
        base = small_model_game
        twin = ModelParams(base.submissions[1].layer_dims,
                           base.submissions[1].weights.copy())
        game = UtilityGame(base.prior_global,
                           {1: base.submissions[1], 2: twin, 3: base.submissions[2]},
                           base.server_test)
        res = exact_shapley(game)
        assert res.values[1] == pytest.approx(res.values[2], abs=1e-12)
        # relabeling the twins swaps assignments but not the value multiset
        relabeled = UtilityGame(base.prior_global,
                                {2: base.submissions[1], 1: twin,
                                 3: base.submissions[2]},
                                base.server_test)
        res2 = exact_shapley(relabeled)
        assert sorted(res.values.values()) == pytest.approx(
            sorted(res2.values.values()), abs=1e-12
        )
        assert res2.values[2] == pytest.approx(res.values[1], abs=1e-12)


class TestTmcShapley:
    def test_converges_to_additive_solution(self):
        game = additive_game([1.0, 2.0, 3.0])
        res = tmc_shapley(game, truncation_tol=0.0, max_permutations=100_000,
                          convergence_tol=0.0, seed=5)
        for p, expected in [(0, 1.0), (1, 2.0), (2, 3.0)]:
            assert res.values[p] == pytest.approx(expected, abs=0.05)
        assert res.method == "tmc"

    def test_single_player(self):
        game = FunctionGame([7], lambda s: 2.5 if s else 0.0)
        res = tmc_shapley(game, seed=1)
        assert res.values == {7: 2.5}
        assert res.stderr == {7: 0.0}

    def test_deterministic(self):
        game = random_game(5, 42)
        a = tmc_shapley(game, truncation_tol=0.0, max_permutations=500, seed=9)
        b = tmc_shapley(game, truncation_tol=0.0, max_permutations=500, seed=9)
        assert a == b

    def test_truncation_skips_settled_walks(self):
        # constant game: prefix utility equals the full utility immediately,
        # so every walk truncates after zero evaluations
        game = FunctionGame(range(4), lambda s: 0.0)
        res = tmc_shapley(game, truncation_tol=1e-6, max_permutations=50, seed=0)
        assert all(v == 0.0 for v in res.values.values())
        assert res.num_evaluations == 1  # just the grand coalition

    def test_stderr_reported(self):
        game = random_game(4, 7)
        res = tmc_shapley(game, truncation_tol=0.0, max_permutations=200,
                          convergence_tol=0.0, seed=3)
        assert set(res.stderr) == set(game.players)
        assert all(s >= 0.0 for s in res.stderr.values())


def sequential_tmc(game, truncation_tol, max_permutations, convergence_tol, seed):
    """TMC walking one permutation at a time, one utility() call per step.

    The walk loop tmc_shapley ran before its walks advanced in lock-step,
    kept verbatim as the oracle.
    """
    players = game.players
    n = len(players)
    full_value = game.utility(players)
    evaluations = 1
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


def saturating_game(n, seed):
    """Seeded game whose coalitions of at least n/2 players are worth the grand
    coalition, so that truncation_tol > 0 cuts walks part way."""
    rng = np.random.default_rng(seed)
    full = float(rng.uniform(-1.0, 1.0))
    values = {}
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            values[frozenset(combo)] = float(rng.uniform(-1.0, 1.0)) if 2 * r < n else full
    return FunctionGame(range(n), lambda s: values[frozenset(s)])


def nan_game(n, seed):
    """random_game, except that coalitions holding players 0 and 1 are NaN."""
    base = random_game(n, seed)._fn
    return FunctionGame(range(n), lambda s: math.nan if {0, 1} <= s else base(s))


def assert_matches_sequential(make_game, truncation_tol, max_permutations,
                              convergence_tol, seed):
    """Same values and stderr bit for bit, same count, and the same coalitions
    evaluated: no walk went past where the sequential loop stopped."""
    oracle_game, game = make_game(), make_game()
    want = sequential_tmc(oracle_game, truncation_tol, max_permutations,
                          convergence_tol, seed)
    got = tmc_shapley(game, truncation_tol, max_permutations, convergence_tol, seed)
    players = game.players
    for field in ("values", "stderr"):
        assert np.array_equal(bits([getattr(got, field)[p] for p in players]),
                              bits([getattr(want, field)[p] for p in players])), field
    assert got.num_evaluations == want.num_evaluations
    assert set(game._cache) == set(oracle_game._cache)


class TestTmcLockStep:
    """tmc_shapley's lock-step walks against the sequential walk loop."""

    @pytest.mark.parametrize("max_permutations", [1, 10, 11, 12, 37])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_sequential_oracle(self, n, max_permutations):
        seed = 100 * n + max_permutations
        for make in (random_game, saturating_game):
            for truncation_tol in (0.0, 1e-4, 10.0):
                for convergence_tol in (0.0, 1e-3, 1.0):
                    assert_matches_sequential(
                        lambda: make(n, seed), truncation_tol, max_permutations,
                        convergence_tol, seed)

    @pytest.mark.parametrize("truncation_tol", [0.0, 1e-4])
    @pytest.mark.parametrize("convergence_tol", [0.0, 1.0])
    def test_nan_utilities(self, truncation_tol, convergence_tol):
        assert_matches_sequential(lambda: nan_game(6, 4), truncation_tol, 37,
                                  convergence_tol, 2)

    def test_small_model_game(self, small_model_game):
        g = small_model_game
        for truncation_tol in (0.0, 1e-4):
            assert_matches_sequential(
                lambda: UtilityGame(g.prior_global, g.submissions, g.server_test),
                truncation_tol, 37, 1e-3, 1)

    @pytest.mark.parametrize("batch", [None, 3])
    def test_model_game(self, batch):
        # batch=3 splits a step's prefixes over several stacked passes
        def make():
            game = model_game((4,), 20, range(8), seed=6)
            if batch is not None:
                game._batch = batch
            return game
        for truncation_tol in (0.0, 1e-3):
            assert_matches_sequential(make, truncation_tol, 37, 1e-3, 9)

    def test_one_evaluation_pass_per_walk_step(self):
        # 37 walks of 5 players, never stopping early: batches of 11, 10, 10
        # and 6 walks, each needing at most 5 passes, where the sequential
        # loop needs up to one pass per prefix
        class Counting(FunctionGame):
            passes = 0

            def _evaluate_masks(self, masks):
                self.passes += 1
                return super()._evaluate_masks(masks)

        game = Counting(range(5), random_game(5, 3)._fn)
        res = tmc_shapley(game, truncation_tol=0.0, max_permutations=37,
                          convergence_tol=0.0, seed=1)
        assert res.num_evaluations == 1 + 37 * 5
        assert game.passes <= 1 + 4 * 5

    @pytest.mark.parametrize("kwargs", [
        {"truncation_tol": math.nan},
        {"truncation_tol": math.inf},
        {"truncation_tol": -1.0},
        {"convergence_tol": math.nan},
        {"convergence_tol": math.inf},
        {"convergence_tol": -1.0},
    ])
    def test_bad_tolerances_rejected(self, kwargs):
        (key,) = kwargs
        with pytest.raises(ValueError, match=f"{key} must be non-negative and finite"):
            tmc_shapley(random_game(3, 0), **kwargs)


def parent_tmc_shapley(game, truncation_tol, max_permutations, convergence_tol, seed):
    """tmc_shapley as it was when it folded each batch of walks one walk at a
    time, kept verbatim as the oracle for its cumulative sums."""
    if not 0 <= truncation_tol < math.inf:
        raise ValueError(
            f"truncation_tol must be non-negative and finite, got {truncation_tol!r}")
    if not 0 <= convergence_tol < math.inf:
        raise ValueError(
            f"convergence_tol must be non-negative and finite, got {convergence_tol!r}")
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
    while done < max_permutations and stable_streak < STABLE_WALKS:
        lacking = STABLE_WALKS + 1 if done == 0 else STABLE_WALKS - stable_streak
        batch = min(lacking, max_permutations - done)
        orders = np.array([rng.permutation(n) for _ in range(batch)])
        walks, steps = _walk_marginals(game, orders, full_value, truncation_tol)
        evaluations += steps
        for marginals in walks:
            done += 1
            sums += marginals
            sumsq += marginals * marginals
            means = sums / done
            if done > 1:
                if np.max(np.abs(means - prev_means)) < convergence_tol:
                    stable_streak += 1
                else:
                    stable_streak = 0
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



class TestTmcFold:
    """tmc_shapley's cumulative-sum fold against the walk-by-walk loop."""

    @staticmethod
    def assert_same(make_game, truncation_tol, max_permutations, convergence_tol, seed):
        want = parent_tmc_shapley(make_game(), truncation_tol, max_permutations,
                                  convergence_tol, seed)
        got = tmc_shapley(make_game(), truncation_tol, max_permutations, convergence_tol, seed)
        players = list(want.values)
        for field in ("values", "stderr"):
            assert np.array_equal(bits([getattr(got, field)[p] for p in players]),
                                  bits([getattr(want, field)[p] for p in players])), field
        assert got.num_evaluations == want.num_evaluations

    # 1 and 5 cap the first batch, 16 the second, 40 the fourth
    @pytest.mark.parametrize("max_permutations", [1, 5, 11, 16, 40, 500])
    @pytest.mark.parametrize("convergence_tol", [0.0, 1e-3, 0.05, 1e9])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_matches_walk_by_walk_loop(self, n, convergence_tol, max_permutations):
        seed = 7 * n + max_permutations
        for make in (random_game, saturating_game):
            for truncation_tol in (0.0, 1e-4, 10.0):
                self.assert_same(lambda: make(n, seed), truncation_tol, max_permutations,
                                 convergence_tol, seed)

    @pytest.mark.parametrize("max_permutations", [1, 11, 37])
    @pytest.mark.parametrize("convergence_tol", [0.0, 1e9])
    def test_nan_marginals(self, convergence_tol, max_permutations):
        self.assert_same(lambda: nan_game(5, 8), 0.0, max_permutations, convergence_tol, 3)

    def test_stops_after_the_streak(self):
        # any change is below 1e9: the streak fills on walk 11, so one batch is all
        res = tmc_shapley(random_game(4, 2), 0.0, 500, 1e9, 5)
        assert res.num_evaluations == 1 + 11 * 4


class TestCheckAxioms:
    def test_symmetric_pair(self):
        values = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                  frozenset({1, 2}): 2.0}
        game = FunctionGame([1, 2], lambda s: values[frozenset(s)])
        res = exact_shapley(game)
        report = check_axioms(game, res, tol=1e-9)
        assert report.symmetry_holds
        assert (1, 2) in report.symmetric_pairs
        assert res.values[1] == pytest.approx(1.0, abs=1e-12)
        assert res.values[2] == pytest.approx(1.0, abs=1e-12)

    def test_constant_zero_game_all_dummies(self):
        game = FunctionGame(range(4), lambda s: 0.0)
        res = exact_shapley(game)
        report = check_axioms(game, res, tol=1e-9)
        assert report.dummy_holds
        assert [p for p, kind in report.dummy_players] == [0, 1, 2, 3]
        assert all(kind == "zero" for _, kind in report.dummy_players)
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in res.values.values())

    def test_general_dummy_valued_at_solo_utility(self):
        # player 1 always adds exactly 0.75, its solo utility
        def fn(s):
            return 2.0 * len(s - {1}) + (0.75 if 1 in s else 0.0)

        game = FunctionGame([0, 1, 2], fn)
        res = exact_shapley(game)
        report = check_axioms(game, res, tol=1e-9)
        assert (1, "general") in report.dummy_players
        assert report.dummy_holds
        assert res.values[1] == pytest.approx(0.75, abs=1e-12)

    def test_additivity_on_random_pair(self):
        a = random_game(5, 21)
        b = random_game(5, 22)
        res = exact_shapley(a)
        report = check_axioms(a, res, tol=1e-9, additivity_game=b)
        assert report.additivity_holds
        assert report.additivity_max_residual < 1e-9

    def test_empty_game_with_additivity_game(self):
        # no players: nothing to scan, and the additivity residual is 0.0
        game = FunctionGame([], lambda s: float(len(s)))
        other = FunctionGame([], lambda s: 2.0 * len(s))
        report = check_axioms(game, exact_shapley(game), additivity_game=other)
        assert report.symmetry_holds and report.dummy_holds
        assert report.additivity_holds is True
        assert report.additivity_max_residual == 0.0

    def test_additivity_game_over_other_players_rejected(self):
        a = additive_game([1.0, 2.0])
        res = exact_shapley(a)
        with pytest.raises(ValueError, match="same players"):
            check_axioms(a, res, additivity_game=additive_game([1.0, 2.0, 4.0]))

    def test_capacity_guard(self):
        game = FunctionGame(range(13), lambda s: float(len(s)))
        res = ShapleyResult({p: 0.0 for p in range(13)}, 0, "exact")
        with pytest.raises(CapacityError):
            check_axioms(game, res)

    @pytest.mark.parametrize("players,others", [
        ([1, 2, 3], [7, 8, 9]),
        ([1, 2], [7, 8]),
        ([1, 2], [1, 2, 3]),
        ([1, 2, 3], [1, 2]),
    ])
    def test_result_over_other_players_rejected(self, players, others):
        game = FunctionGame(players, lambda s: float(len(s)))
        res = exact_shapley(FunctionGame(others, lambda s: 2.0 * len(s)))
        with pytest.raises(ValueError, match="the game's players"):
            check_axioms(game, res)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop_scans(self, seed):
        rng = np.random.default_rng(seed)
        game = table_game(seed)
        other = table_game(seed + 1000, game.players)
        with np.errstate(all="ignore"):  # inf - inf is NaN in both versions
            res = exact_shapley(game)
        values = {p: float(rng.choice([v, v + 0.5, np.nan, v]))
                  for p, v in res.values.items()}
        for result in (res, ShapleyResult(values, res.num_evaluations, "exact")):
            for tol in (1e-9, 0.0, 0.3):
                for additivity in (None, other):
                    with np.errstate(all="ignore"):
                        got = check_axioms(game, result, tol, additivity)
                        want = loop_check_axioms(game, result, tol, additivity)
                    assert repr(got) == repr(want)

    @pytest.mark.parametrize("seed", range(40))
    def test_values_match_loop_over_masks(self, seed):
        game = table_game(seed)
        with np.errstate(all="ignore"):
            got = exact_shapley(game).values
            want = loop_shapley_values(game.players, game._table())
        assert list(got) == list(want)
        assert bits(list(got.values())).tobytes() == bits(list(want.values())).tobytes()


# utilities that stress the scans: NaN, both infinities, and finite values
# whose differences overflow
SPECIAL_UTILITIES = (np.nan, np.inf, -np.inf, 1e308, -1e308)


def table_game(seed, players=None):
    """Seeded game with symmetric players and dummies, some utilities special.

    Coupled players gain a bonus that grows with how many coupled players a
    coalition holds; the others are dummies. Equal weights on players of the
    same kind make them interchangeable. About 15% of the non-empty
    coalitions are then worth a SPECIAL_UTILITIES value instead.
    """
    rng = np.random.default_rng(seed)
    if players is None:
        n = int(rng.integers(1, 7))
        players = sorted(rng.choice(50, size=n, replace=False).tolist())
    n = len(players)
    weight = rng.choice([0.0, 0.5, 1.0], size=n)
    coupled = rng.random(n) < 0.5
    values = {}
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        value = float(sum(weight[i] for i in members)) + 0.25 * sum(coupled[members]) ** 2
        if rng.random() < 0.15:
            value = float(rng.choice(SPECIAL_UTILITIES))
        values[frozenset(players[i] for i in members)] = value
    return FunctionGame(players, lambda s: values[frozenset(s)])


# The loop versions below are the reference implementations the array code in
# fedledger.valuation replaced; the array code must reproduce them bit for bit.


def loop_shapley_values(players, table):
    n = len(players)
    masks = np.arange(1 << n, dtype=np.uint64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    inv_binom = np.array([1.0 / math.comb(n - 1, s) for s in range(n)])
    values = {}
    for i, p in enumerate(players):
        bit = np.uint64(1 << i)
        without = masks[(masks & bit) == 0]
        marginals = table[without | bit] - table[without]
        values[p] = float(np.dot(marginals, inv_binom[sizes[without]]) / n)
    return values


def loop_check_axioms(game, result, tol, additivity_game):
    players = game.players
    n = len(players)
    table = game._table()
    values = result.values

    symmetric_pairs = []
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

    dummy_players = []
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
        other_table = additivity_game._table()
        other = loop_shapley_values(players, other_table)
        combined = loop_shapley_values(players, table + other_table)
        additivity_residual = max(
            abs(combined[p] - (values[p] + other[p])) for p in players)
        additivity_holds = additivity_residual <= tol

    return valuation.AxiomReport(
        symmetry_holds,
        symmetric_pairs,
        symmetry_max_gap,
        dummy_holds,
        dummy_players,
        dummy_max_gap,
        additivity_holds,
        additivity_residual,
    )


def bits(values):
    """uint64 view, so that equality is bit for bit (signed zeros, NaN payloads)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def model_game(hidden_dims, n_test, players, seed, width=6):
    """UtilityGame over seeded submissions scattered around a seeded prior."""
    rng = np.random.default_rng(seed)
    dims = (width, *hidden_dims, 1)
    server_test = Dataset(rng.normal(size=(n_test, width)),
                          (rng.random(n_test) < 0.3).astype(np.int64))
    size = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
    prior = ModelParams(dims, rng.uniform(-0.5, 0.5, size=size))
    submissions = {
        p: ModelParams(dims, prior.weights + rng.normal(scale=0.4, size=size))
        for p in players
    }
    return UtilityGame(prior, submissions, server_test)


def per_coalition_oracle(game, coalition):
    """The definition: base loss minus the loss of the members' plain mean."""
    if not coalition:
        return 0.0
    members = [game.submissions[p] for p in sorted(coalition)]
    mean = np.stack([m.weights for m in members]).mean(axis=0)
    base = loss(game.prior_global, game.server_test)
    return base - loss(ModelParams(members[0].layer_dims, mean), game.server_test)


PLAYERS = (2, 5, 7, 11, 13)
ALL_COALITIONS = [list(c) for r in range(len(PLAYERS) + 1)
                  for c in itertools.combinations(PLAYERS, r)]


class TestBatchedUtilities:
    @pytest.mark.parametrize("hidden_dims", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("n_test", [1, 37])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_bitwise_equal_to_per_coalition_oracle(
        self, monkeypatch, hidden_dims, n_test, batch
    ):
        if batch is not None:
            # batches of 3: the 31 non-empty coalitions leave a partial batch
            widest = max((*hidden_dims, 1))
            monkeypatch.setattr(valuation, "BATCH_ACTIVATIONS", batch * n_test * widest)
        game = model_game(hidden_dims, n_test, PLAYERS, seed=n_test + len(hidden_dims))
        if batch is not None:
            assert game._batch == batch
        order = np.random.default_rng(1).permutation(len(ALL_COALITIONS))
        coalitions = [ALL_COALITIONS[i] for i in order]  # sizes 0..5, mixed
        expected = [per_coalition_oracle(game, c) for c in coalitions]
        got = game.utilities(coalitions)
        assert got.dtype == np.float64 and got.shape == (len(coalitions),)
        np.testing.assert_array_equal(bits(got), bits(expected))
        # utility() on a fresh game is the same computation, one coalition at a time
        fresh = model_game(hidden_dims, n_test, PLAYERS, seed=n_test + len(hidden_dims))
        singles = [fresh.utility(list(reversed(c))) for c in coalitions]
        np.testing.assert_array_equal(bits(singles), bits(expected))
        # and the cache utilities() filled answers utility() with the same bits
        np.testing.assert_array_equal(
            bits([game.utility(c) for c in coalitions]), bits(expected))

    def test_masks_wider_than_64_bits(self):
        players = tuple(range(0, 140, 2))  # 70 players: masks span nine bytes
        game = model_game((3,), 5, players, seed=9)
        coalitions = [[0], [138], [0, 138], [6, 128, 130, 136], list(players),
                      players[::3], [126, 128], [2, 4]]
        expected = [per_coalition_oracle(game, c) for c in coalitions]
        np.testing.assert_array_equal(bits(game.utilities(coalitions)), bits(expected))

    def test_exact_shapley_equals_values_from_oracle_table(self):
        game = model_game((16,), 37, PLAYERS, seed=3)
        table = {frozenset(c): per_coalition_oracle(game, c) for c in ALL_COALITIONS}
        from_table = exact_shapley(FunctionGame(PLAYERS, lambda s: table[frozenset(s)]))
        res = exact_shapley(game)
        assert res.values == from_table.values
        assert res.num_evaluations == 2 ** len(PLAYERS)

    def test_duplicates_and_hits_evaluated_once(self):
        calls = []

        def fn(s):
            calls.append(s)
            return float(sum(s)) + 0.5

        game = FunctionGame(range(3), fn)
        assert game.utility([2]) == 2.5
        got = game.utilities(iter([[0], [1, 0], [0], [2], [0, 1], []]))
        assert got.tolist() == [0.5, 1.5, 0.5, 2.5, 1.5, 0.0]
        assert calls == [frozenset({2}), frozenset({0}), frozenset({0, 1})]
        assert game.utilities([]).shape == (0,)

    def test_unknown_org_rejected(self, small_model_game):
        with pytest.raises(ValueError):
            small_model_game.utilities([[1], [99]])


def stacked_loss(layer_dims, stack, data):
    """model.stacked_loss as it was before each game owned its kernel: a
    new, checked loss kernel on the stack, called once."""
    return valuation.model._Loss(layer_dims, stack, data)()


class ParentGame(UtilityGame):
    """UtilityGame with the _evaluate_masks and _means it had before it owned
    its kernel, kept verbatim as the oracle: each call builds a means array
    and, through stacked_loss, a checked kernel of its own."""

    def _evaluate_masks(self, masks):
        """Utilities of at most _batch non-empty coalitions from one stacked pass."""
        masks = sorted(masks, key=int.bit_count)
        losses = stacked_loss(self._dims, self._means(masks), self.server_test)
        return zip(masks, (self._base_loss - losses).tolist())

    def _means(self, masks):
        """Mean weight vector of each coalition, for masks sorted by size.

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
        means = np.zeros((len(masks), weights.shape[1]))
        start = 0
        for size, group in groupby(masks, key=int.bit_count):
            count = len(list(group))
            members = np.nonzero(bits[start : start + count])[1].reshape(count, size)
            block = means[start : start + count]
            for position in members.T:
                block += weights.take(position, axis=0)
            block /= size
            start += count
        return means


def parent_of(game):
    """A ParentGame on the same inputs as `game`, with the same batch."""
    oracle = ParentGame(game.prior_global, game.submissions, game.server_test)
    oracle._batch = game._batch
    return oracle


def assert_batches_match_parent(game, batches):
    """Each batch of masks through game._evaluate_masks, in turn on the one
    game, gives bit for bit what the parent's _evaluate_masks gives."""
    oracle = parent_of(game)
    for masks in batches:
        got = list(game._evaluate_masks(list(masks)))
        want = list(oracle._evaluate_masks(list(masks)))
        assert [m for m, _ in got] == [m for m, _ in want]
        np.testing.assert_array_equal(bits([v for _, v in got]), bits([v for _, v in want]))


class TestGameKernel:
    """A UtilityGame values its misses on the one _Loss kernel it builds, on
    the last rows of its own block, bit for bit as the parent's fresh arrays."""

    @pytest.mark.parametrize("hidden_dims", [(), (16,), (8, 4)])
    def test_mixed_size_batches(self, hidden_dims):
        # batches of every length in turn on one block, longer ones first, so
        # that a short batch follows rows a longer one left behind
        game = model_game(hidden_dims, 37, tuple(range(9)), seed=len(hidden_dims))
        rng = np.random.default_rng(7)
        masks = rng.permutation(np.arange(1, 1 << 9)).tolist()
        batches = [masks[:31], masks[31:33], masks[33:50], masks[50:51], masks[51:200]]
        assert max(map(len, batches)) <= game._batch
        assert_batches_match_parent(game, batches)

    def test_one_mask(self):
        game = model_game((16,), 37, PLAYERS, seed=2)
        assert_batches_match_parent(game, [[0b10110], [0b1], [0b11111]])

    def test_exactly_batch_masks(self, monkeypatch):
        # a full batch starts at the block's first row
        monkeypatch.setattr(valuation, "BATCH_ACTIVATIONS", 8 * 37 * 16)
        game = model_game((16,), 37, PLAYERS, seed=3)
        assert game._batch == 8
        masks = np.random.default_rng(3).permutation(np.arange(1, 32)).tolist()
        assert_batches_match_parent(game, [masks[:8], masks[8:16], masks[16:19], masks[19:27]])

    def test_nan_weight(self):
        base = model_game((16,), 37, PLAYERS, seed=4)
        submissions = dict(base.submissions)
        weights = submissions[7].weights.copy()
        weights[5] = np.nan
        submissions[7] = ModelParams(base.prior_global.layer_dims, weights)
        game = UtilityGame(base.prior_global, submissions, base.server_test)
        masks = list(range(1, 32))
        assert_batches_match_parent(game, [masks[::2], masks[1::2], masks])
        assert np.isnan(game.utility([7])) and not np.isnan(game.utility([2, 5]))

    def test_more_than_64_players(self):
        # masks span nine bytes: the packed-bits path of _means
        players = tuple(range(0, 140, 2))
        game = model_game((3,), 5, players, seed=9)
        rng = np.random.default_rng(9)
        masks = [1, 1 << 69, (1 << 70) - 1, 1 << 3 | 1 << 64 | 1 << 65 | 1 << 68,
                 *(int(m) << 8 for m in rng.integers(1, 1 << 62, size=20))]
        assert_batches_match_parent(game, [masks, masks[3:4], masks[::-1][:7]])

    def test_batch_set_after_construction(self, monkeypatch):
        # _batch = 3 after the block was sized: TMC's steps of up to 11 live
        # walks are split over several passes of at most 3 rows each
        game = model_game((4,), 20, range(8), seed=6)
        oracle = parent_of(game)
        game._batch = oracle._batch = 3
        rows = []
        call = valuation.model._Loss.__call__

        def counting(kernel, start=0):
            losses = call(kernel, start)
            rows.append(len(losses))
            return losses

        reads = []
        read = game._mask_utilities

        def counting_reads(masks):
            reads.append(masks)
            return read(masks)

        monkeypatch.setattr(valuation.model._Loss, "__call__", counting)
        monkeypatch.setattr(game, "_mask_utilities", counting_reads)
        got = tmc_shapley(game, truncation_tol=0.0, max_permutations=37, seed=9)
        passes = len(rows)
        want = tmc_shapley(oracle, truncation_tol=0.0, max_permutations=37, seed=9)
        assert max(rows[:passes]) == 3 and passes > len(reads)
        assert rows[:passes] == rows[passes:]
        assert got.num_evaluations == want.num_evaluations
        players = game.players
        for field in ("values", "stderr"):
            np.testing.assert_array_equal(
                bits([getattr(got, field)[p] for p in players]),
                bits([getattr(want, field)[p] for p in players]))
        assert game._cache.keys() == oracle._cache.keys()
        np.testing.assert_array_equal(bits(list(game._cache.values())),
                                      bits([oracle._cache[m] for m in game._cache]))

    def test_one_kernel_per_game(self, monkeypatch):
        # the game's whole TMC valuation builds one kernel, and calls it often
        base = model_game((16,), 37, tuple(range(10)), seed=5)
        base_loss = loss(base.prior_global, base.server_test)
        built, called = [], []
        init, call = valuation.model._Loss.__init__, valuation.model._Loss.__call__

        def counting_init(kernel, *args):
            built.append(kernel)
            init(kernel, *args)

        def counting_call(kernel, start=0):
            called.append(kernel)
            return call(kernel, start)

        monkeypatch.setattr(valuation.model._Loss, "__init__", counting_init)
        monkeypatch.setattr(valuation.model._Loss, "__call__", counting_call)
        game = UtilityGame(base.prior_global, base.submissions, base.server_test,
                           _base_loss=base_loss)
        res = tmc_shapley(game, truncation_tol=0.0, max_permutations=40, seed=2)
        assert res.num_evaluations > 40
        assert len(built) == 1
        assert len(called) > 10 and set(called) == set(built)

    def test_no_kernel_for_a_table(self):
        # exact_shapley reads the table, whose chunks are valued on kernels of their own
        game = model_game((16,), 37, PLAYERS, seed=3)
        exact_shapley(game)
        assert "_kernel" not in vars(game)
        game.utility([2, 5])
        assert "_kernel" in vars(game)

    def test_empty_server_test_refused_at_construction(self):
        prior = logistic([0.1, -0.2], 0.3)
        empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="^dataset is empty$"):
            UtilityGame(prior, {1: prior, 2: prior}, empty, _base_loss=0.5)

    def test_wrong_width_server_test_refused_at_construction(self):
        prior = logistic([0.1, -0.2], 0.3)
        narrow = make_dataset([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]], [0, 1])
        with pytest.raises(
                ValueError, match="^feature width 3 does not match model input width 2$"):
            UtilityGame(prior, {1: prior, 2: prior}, narrow, _base_loss=0.5)


class TestAverageOrder:
    @pytest.mark.parametrize("count", [1, 2, 3, 9, 25])
    def test_bitwise_equal_to_stacked_mean(self, count):
        rng = np.random.default_rng(count)
        dims = (12, 8, 1)
        size = sum((a + 1) * b for a, b in zip(dims, dims[1:]))
        vectors = rng.normal(size=(count, size)) * 10.0 ** rng.integers(-9, 9, (count, size))
        vectors[:, 0] = -0.0  # all -0.0: the stacked mean gives +0.0
        vectors[0, 1] = -0.0
        vectors[:, 2] = [(-1.0) ** i * 3.0 for i in range(count)]
        models = [ModelParams(dims, v) for v in vectors]
        got = average(models).weights
        np.testing.assert_array_equal(bits(got), bits(np.stack(vectors).mean(axis=0)))


def spread_game(hidden_dims, players, seed):
    """model_game with submissions as in TestAverageOrder: signed zeros, and
    magnitudes from 1e-9 to 1e9 in one vector."""
    base = model_game(hidden_dims, 37, players, seed)
    rng = np.random.default_rng(seed)
    count, size = len(players), base.prior_global.weights.size
    vectors = rng.normal(size=(count, size)) * 10.0 ** rng.integers(-9, 9, (count, size))
    vectors[:, 0] = -0.0
    vectors[0, 1] = -0.0
    vectors[:, 2] = [(-1.0) ** i * 3.0 for i in range(count)]
    dims = base.prior_global.layer_dims
    return UtilityGame(base.prior_global,
                       {p: ModelParams(dims, v) for p, v in zip(players, vectors)},
                       base.server_test)


class TestCoalitionTable:
    """UtilityGame._table(), the subset-sum table exact_shapley reads."""

    @pytest.fixture(autouse=True)
    def fresh_worker(self):
        # each test forks its own worker, after its own patches, and stops it
        worker._drop_worker()
        yield
        worker._drop_worker()

    @pytest.mark.parametrize("hidden_dims", [(), (16,), (8, 4)])
    @pytest.mark.parametrize("batch", [1, 3, 40])  # L = min(n, 0), min(n, 1), min(n, 5)
    @pytest.mark.parametrize("players", [(2, 5, 11), (2, 5, 7, 11, 13, 17, 23)])
    @pytest.mark.parametrize("spread", [False, True])
    @pytest.mark.parametrize("cpus", [1, 2])  # in-process, or the worker where there are two chunks
    def test_bitwise_equal_to_batched_and_oracle(
        self, monkeypatch, hidden_dims, batch, players, spread, cpus
    ):
        widest = max((*hidden_dims, 1))
        monkeypatch.setattr(valuation, "BATCH_ACTIVATIONS", batch * 37 * widest)
        monkeypatch.setattr(worker, "_usable_cpus", lambda: cpus)

        def build():
            if spread:
                return spread_game(hidden_dims, players, seed=len(players))
            return model_game(hidden_dims, 37, players, seed=len(players))

        game = build()
        assert game._batch == batch
        n = len(players)
        table = game._table()
        forked = cpus == 2 and batch.bit_length() - 1 < n
        assert len(multiprocessing.active_children()) == forked
        assert table.dtype == np.float64 and table.shape == (1 << n,)
        assert game._cache == {0: 0.0}  # the table bypasses the cache
        np.testing.assert_array_equal(
            bits(table), bits(build()._mask_utilities(range(1 << n))))
        expected = [per_coalition_oracle(game, [p for i, p in enumerate(players) if m >> i & 1])
                    for m in range(1 << n)]
        np.testing.assert_array_equal(bits(table), bits(expected))

    @staticmethod
    def count_passes(monkeypatch, cpus):
        """The rows each loss-kernel call of an exact_shapley of 10 players
        values in this process with `cpus` CPUs, in call order; the game's
        batch is 40."""
        monkeypatch.setattr(valuation, "BATCH_ACTIVATIONS", 40 * 37 * 16)
        monkeypatch.setattr(worker, "_usable_cpus", lambda: cpus)
        game = model_game((16,), 37, tuple(range(0, 30, 3)), seed=4)
        assert game._batch == 40
        rows = []
        call = valuation.model._Loss.__call__

        def counting(kernel, start=0):
            losses = call(kernel, start)
            if multiprocessing.parent_process() is None:
                rows.append(len(losses))
            return losses

        def refused(self, masks):
            raise AssertionError("the exact table must not evaluate masks in batches")

        monkeypatch.setattr(valuation.model._Loss, "__call__", counting)
        monkeypatch.setattr(UtilityGame, "_evaluate_masks", refused)
        assert exact_shapley(game).num_evaluations == 1024
        return rows

    def test_one_stacked_pass_per_chunk(self, monkeypatch):
        # 2^10 masks in chunks of 2^5; the empty coalition gets no row
        assert self.count_passes(monkeypatch, cpus=1) == [31] + [32] * 31

    def test_caller_passes_the_even_chunks_at_full_size(self, monkeypatch):
        # the worker values the odd 16 of the 32 chunks of 2^5 masks
        assert self.count_passes(monkeypatch, cpus=2) == [31] + [32] * 15
        assert len(multiprocessing.active_children()) == 1

    @staticmethod
    def one_cpu_table(monkeypatch, game):
        with monkeypatch.context() as patch:
            patch.setattr(worker, "_usable_cpus", lambda: 1)
            return game._table()

    @pytest.mark.parametrize("fails", ["caller", "worker"])
    def test_chunk_failure_reaches_caller_and_worker_serves_on(self, monkeypatch, fails):
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        game = model_game((16,), 37, tuple(range(10)), seed=5)
        assert game._batch.bit_length() - 1 < 10  # two chunks or more: the worker's share
        expected = self.one_cpu_table(monkeypatch, game)
        call = valuation.model._Loss.__call__
        failed, caller_calls = [], []  # in the memory of the process that appends

        def failing(kernel, start=0):
            in_worker = multiprocessing.parent_process() is not None
            if not in_worker:
                caller_calls.append(start)
            if in_worker == (fails == "worker") and not failed:
                failed.append(start)
                raise LookupError(f"chunk failed in the {fails}")
            return call(kernel, start)

        monkeypatch.setattr(valuation.model._Loss, "__call__", failing)
        with pytest.raises(LookupError, match=f"^chunk failed in the {fails}$"):
            game._table()
        (child,) = multiprocessing.active_children()
        caller_calls.clear()
        table = game._table()
        assert multiprocessing.active_children() == [child]
        assert len(caller_calls) == 2  # the caller's 2 of the 4 chunks
        np.testing.assert_array_equal(bits(table), bits(expected))

    @pytest.mark.parametrize("when", ["idle", "mid-request"])
    def test_killed_worker_costs_no_table(self, monkeypatch, when):
        # the second table finds the worker dead, idle since the first or
        # killed while it values the odd chunks, and values them in-process
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        game = model_game((16,), 37, tuple(range(10)), seed=5)
        expected = self.one_cpu_table(monkeypatch, game)
        np.testing.assert_array_equal(bits(game._table()), bits(expected))
        (child,) = multiprocessing.active_children()
        if when == "idle":
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=10)  # so that the request meets a closed pipe
            assert not child.is_alive()
        else:
            call = valuation.model._Loss.__call__

            def killed_in_worker(kernel, start=0):
                if multiprocessing.parent_process() is not None:
                    os.kill(os.getpid(), signal.SIGKILL)
                return call(kernel, start)

            monkeypatch.setattr(valuation.model._Loss, "__call__", killed_in_worker)
            worker._drop_worker()  # so that the worker forked next holds the patch
        np.testing.assert_array_equal(bits(game._table()), bits(expected))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("condition", ["one chunk", "one cpu", "in a child",
                                           "second thread"])
    def test_no_fork(self, monkeypatch, condition):
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        if condition == "one chunk":
            monkeypatch.setattr(valuation, "BATCH_ACTIVATIONS", 1024 * 37 * 16)
        game = model_game((16,), 37, tuple(range(10)), seed=5)
        assert (game._batch.bit_length() - 1 >= 10) == (condition == "one chunk")
        expected = self.one_cpu_table(monkeypatch, game)
        if condition == "one cpu":
            monkeypatch.setattr(worker, "_usable_cpus", lambda: 1)
        elif condition == "in a child":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if condition == "second thread":
            thread.start()
        try:
            table = game._table()
            assert multiprocessing.active_children() == []
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        np.testing.assert_array_equal(bits(table), bits(expected))

    def test_peak_memory_below_a_quarter_of_the_means(self, monkeypatch):
        # in-process: tracemalloc sees this process only
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 1)
        game = model_game((16,), 37, tuple(range(14)), seed=6, width=4)
        assert game._dims == (4, 16, 1)
        means_bytes = (1 << 14) * game._weights.shape[1] * 8
        tracemalloc.start()
        try:
            table = game._table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.shape == (1 << 14,)
        assert peak < means_bytes / 4

    def test_worker_peak_memory_below_a_quarter_of_the_means(self, monkeypatch, tmp_path):
        # the worker traces its own task and leaves its peak in a file
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        game = model_game((16,), 37, tuple(range(14)), seed=6, width=4)
        means_bytes = (1 << 14) * game._weights.shape[1] * 8
        value_chunks = valuation._value_chunks

        def traced_in_worker(*args, **kwargs):
            if multiprocessing.parent_process() is None:
                return value_chunks(*args, **kwargs)
            tracemalloc.start()
            try:
                chunks = value_chunks(*args, **kwargs)
                (tmp_path / "peak").write_text(str(tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return chunks

        monkeypatch.setattr(valuation, "_value_chunks", traced_in_worker)
        table = game._table()
        assert len(multiprocessing.active_children()) == 1
        assert table.shape == (1 << 14,)
        assert 0 < int((tmp_path / "peak").read_text()) < means_bytes / 4

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        # as on macOS, where os has no sched_getaffinity
        monkeypatch.delattr(worker.os, "sched_getaffinity", raising=False)
        assert worker._usable_cpus() == worker.os.cpu_count()
        monkeypatch.setattr(worker.os, "cpu_count", lambda: None)
        assert worker._usable_cpus() == 1


class TestRefusals:
    """Inputs that no round gives the valuation routines."""

    @pytest.mark.parametrize("refused, match", [
        (lambda game: tmc_shapley(game, max_permutations=0),
         "max_permutations must be at least 1"),
        (lambda game: check_axioms(game, tmc_shapley(game, seed=3)),
         "check_axioms requires an exact_shapley result"),
        (lambda game: UtilityGame(ModelParams((2, 1), np.zeros(3)), {
            0: ModelParams((2, 1), np.zeros(3)), 1: ModelParams((2, 2, 1), np.zeros(9))},
            Dataset(np.zeros((2, 2)), np.array([0, 1]))),
         "models must share layer_dims to be averaged"),
    ], ids=["no-permutations", "axioms-of-tmc", "mixed-architectures"])
    def test_refused(self, refused, match):
        with pytest.raises(ValueError, match=match):
            refused(additive_game([1.0, 2.0, 3.0]))

    def test_game_without_evaluate_masks(self):
        # a subclass must implement _evaluate_masks; only the empty coalition
        # is known without it
        class Bare(CoalitionGame):
            def __init__(self):
                self._init_players([1, 2])

        game = Bare()
        assert game.utility([]) == 0.0
        with pytest.raises(NotImplementedError):
            game.utility([1])

    def test_tmc_of_no_players_is_empty(self):
        assert tmc_shapley(FunctionGame([], len)) == ShapleyResult({}, 0, "tmc", stderr={})
