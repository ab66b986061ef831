import itertools
import math

import numpy as np
import pytest

from fedledger import valuation
from fedledger.data import Dataset
from fedledger.model import ModelParams, average, loss
from fedledger.valuation import (
    CapacityError,
    FunctionGame,
    ShapleyResult,
    SumGame,
    UtilityGame,
    accumulate_contributions,
    check_axioms,
    exact_shapley,
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

    def test_capacity_guard(self):
        game = FunctionGame(range(13), lambda s: float(len(s)))
        res = ShapleyResult({p: 0.0 for p in range(13)}, 0, "exact")
        with pytest.raises(CapacityError):
            check_axioms(game, res)


class TestSumGame:
    def test_pointwise_sum(self):
        a = additive_game([1.0, 2.0])
        b = additive_game([10.0, 20.0])
        s = SumGame(a, b)
        assert s.utility([0, 1]) == pytest.approx(33.0)

    def test_mismatched_players_rejected(self):
        with pytest.raises(ValueError):
            SumGame(additive_game([1.0]), additive_game([1.0, 2.0]))


class TestAccumulateContributions:
    def test_empty_history(self):
        assert accumulate_contributions([]) == {}

    def test_two_rounds(self):
        history = [
            ShapleyResult({0: 1.0, 1: 0.0}, 4, "exact"),
            ShapleyResult({0: 0.0, 1: 1.0}, 4, "exact"),
        ]
        assert accumulate_contributions(history) == {0: 1.0, 1: 1.0}

    def test_sum_oracle_over_seeded_rounds(self):
        rng = np.random.default_rng(30)
        history = []
        expected = {}
        for _ in range(5):
            orgs = sorted(rng.choice(10, size=4, replace=False))
            values = {int(o): float(rng.normal()) for o in orgs}
            history.append(ShapleyResult(values, 16, "exact"))
            for o, v in values.items():
                expected[o] = expected.get(o, 0.0) + v
        got = accumulate_contributions(history)
        assert set(got) == set(expected)
        for o in expected:
            assert got[o] == pytest.approx(expected[o], abs=1e-12)


def bits(values):
    """uint64 view, so that equality is bit for bit (signed zeros, NaN payloads)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def model_game(hidden_dims, n_test, players, seed):
    """UtilityGame over seeded submissions scattered around a seeded prior."""
    rng = np.random.default_rng(seed)
    width = 6
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

    def test_sum_game_utilities(self):
        a = additive_game([1.0, 2.0, 4.0])
        b = additive_game([10.0, 20.0, 40.0])
        got = SumGame(a, b).utilities([[0], [1, 2], [0, 1, 2]])
        assert got.tolist() == [11.0, 66.0, 77.0]

    def test_unknown_org_rejected(self, small_model_game):
        with pytest.raises(ValueError):
            small_model_game.utilities([[1], [99]])


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
