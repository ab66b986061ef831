import math

import numpy as np
import pytest

from fedledger.data import Dataset
from fedledger.model import ModelParams, loss
from fedledger.selection import (
    SelectionPolicy,
    select_by_contribution,
    select_greedy,
    select_random,
)
from fedledger.valuation import FunctionGame, UtilityGame


def additive_game(gains):
    table = dict(enumerate(gains))
    return FunctionGame(range(len(gains)), lambda s: sum(table[p] for p in s))


class TestSelectRandom:
    def test_full_pool(self):
        assert select_random(range(4), 4, round_seed=0) == {0, 1, 2, 3}

    def test_deterministic_singleton(self):
        a = select_random(range(10), 1, round_seed=77)
        b = select_random(range(10), 1, round_seed=77)
        assert a == b and len(a) == 1

    def test_uniform_inclusion_frequency(self):
        # binomial oracle: inclusion of each org in a 2-of-5 draw is
        # Bernoulli(0.4); over 10,000 draws the frequency should sit
        # within 3 sigma of the mean
        draws = 10_000
        counts = {org: 0 for org in range(5)}
        for s in range(draws):
            for org in select_random(range(5), 2, round_seed=s):
                counts[org] += 1
        p = 0.4
        sigma = math.sqrt(draws * p * (1 - p))
        for org, c in counts.items():
            assert abs(c - draws * p) < 3 * sigma, f"org {org}: {c}"

    def test_oversized_k_rejected(self):
        with pytest.raises(ValueError):
            select_random(range(3), 4, round_seed=0)


class TestSelectGreedy:
    def test_top_two_of_additive(self):
        assert select_greedy(additive_game([3.0, 1.0, 2.0]), 2) == {0, 2}

    def test_k_one_is_argmax(self):
        assert select_greedy(additive_game([0.5, 4.0, 1.0]), 1) == {1}

    def test_tie_breaks_to_lower_id(self):
        assert select_greedy(additive_game([1.0, 1.0, 1.0]), 2) == {0, 1}

    def test_matches_exhaustive_search_on_submodular_game(self):
        # coverage-style submodular utility: greedy is optimal-enough that
        # its value matches the best C(5,3) subset here by construction
        rng = np.random.default_rng(40)
        weights = rng.uniform(0.5, 2.0, size=8)
        cover = {org: set(rng.choice(8, size=4, replace=False)) for org in range(5)}

        def fn(s):
            covered = set().union(*(cover[p] for p in s)) if s else set()
            return float(sum(weights[i] for i in covered))

        game = FunctionGame(range(5), fn)
        got = select_greedy(game, 3)
        import itertools

        best = max(
            (frozenset(c) for c in itertools.combinations(range(5), 3)),
            key=lambda c: fn(c),
        )
        assert fn(got) == pytest.approx(fn(best), abs=1e-9)

    def test_all_nan_gains_pick_lowest_ids(self):
        game = FunctionGame(range(5), lambda s: math.nan if s else 0.0)
        assert select_greedy(game, 3) == {0, 1, 2}

    def test_pool_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            select_greedy(additive_game([1.0]), 2)


class TestSelectByContribution:
    def test_top_k_by_score(self):
        policy = SelectionPolicy("contribution", k=2, exploration_period=5)
        scores = {0: 0.5, 1: 0.3, 2: 0.2}
        assert select_by_contribution(scores, 2, round_index=1, policy=policy,
                                      seed=0) == {0, 1}

    def test_round_zero_explores(self):
        policy = SelectionPolicy("contribution", k=2, exploration_period=5)
        scores = {org: float(org) for org in range(6)}
        explored = select_by_contribution(scores, 2, round_index=0, policy=policy, seed=3)
        assert explored == select_random(range(6), 2, round_seed=_explore_seed(3, 0))
        # non-exploration round ranks by score instead
        assert select_by_contribution(scores, 2, round_index=1, policy=policy,
                                      seed=3) == {4, 5}

    def test_all_zero_scores_tie_break(self):
        policy = SelectionPolicy("contribution", k=3, exploration_period=7)
        scores = {org: 0.0 for org in range(6)}
        assert select_by_contribution(scores, 3, round_index=2, policy=policy,
                                      seed=0) == {0, 1, 2}

    def test_scaling_invariance(self):
        policy = SelectionPolicy("contribution", k=2, exploration_period=9)
        scores = {0: 0.1, 1: 0.9, 2: 0.4, 3: 0.7}
        base = select_by_contribution(scores, 2, round_index=3, policy=policy, seed=0)
        scaled = {o: 1000.0 * v for o, v in scores.items()}
        assert select_by_contribution(scaled, 2, round_index=3, policy=policy,
                                      seed=0) == base

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SelectionPolicy("bogus", k=1)
        with pytest.raises(ValueError):
            SelectionPolicy("random", k=0)


def _explore_seed(policy_seed, round_index):
    from fedledger.seeds import derive_seed

    return derive_seed(policy_seed, "explore", round_index)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["random", "contribution"])
    def test_identical_inputs_identical_output(self, kind):
        policy = SelectionPolicy(kind, k=2, exploration_period=4)
        scores = {org: float(org % 3) for org in range(8)}
        for rnd in range(6):
            if kind == "random":
                a = select_random(range(8), 2, round_seed=rnd)
                b = select_random(range(8), 2, round_seed=rnd)
            else:
                a = select_by_contribution(scores, 2, rnd, policy, 11)
                b = select_by_contribution(scores, 2, rnd, policy, 11)
            assert a == b
            assert len(a) == 2


def model_game(seed, twin_of_best=False, nan_org=None):
    """UtilityGame over seeded logistic submissions for orgs 3..8.

    twin_of_best adds org 1 with exactly the weights of the best single org,
    so greedy's first step is a tie; nan_org gets NaN weights.
    """
    rng = np.random.default_rng(seed)
    dims = (4, 1)
    server_test = Dataset(rng.normal(size=(60, 4)), (rng.random(60) < 0.4).astype(np.int64))
    prior = ModelParams(dims, np.zeros(5))
    submissions = {org: ModelParams(dims, rng.normal(size=5)) for org in range(3, 9)}
    if nan_org is not None:
        submissions[nan_org] = ModelParams(dims, np.full(5, np.nan))
    if twin_of_best:
        solo = {org: scalar_utility(prior, submissions, server_test, [org])
                for org in submissions}
        best = max(solo, key=lambda org: (solo[org], -org))
        submissions[1] = ModelParams(dims, submissions[best].weights.copy())
    return UtilityGame(prior, submissions, server_test)


def scalar_utility(prior, submissions, server_test, coalition):
    if not coalition:
        return 0.0
    members = [submissions[org].weights for org in sorted(coalition)]
    mean = ModelParams(prior.layer_dims, np.stack(members).mean(axis=0))
    return loss(prior, server_test) - loss(mean, server_test)


def oracle_greedy(game, k):
    """Scalar greedy on the per-coalition definition, first-best wins ties."""
    def u(coalition):
        return scalar_utility(game.prior_global, game.submissions, game.server_test,
                              coalition)

    chosen = []
    for _ in range(k):
        base = u(chosen)
        gains = [(u(chosen + [org]) - base, org)
                 for org in sorted(game.players) if org not in chosen]
        finite = [(gain, org) for gain, org in gains if not np.isnan(gain)]
        best_gain = max(gain for gain, _ in finite)
        chosen.append(min(org for gain, org in finite if gain == best_gain))
    return chosen


class TestSelectGreedyOnModels:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_matches_scalar_oracle(self, seed, k):
        game = model_game(seed)
        assert select_greedy(game, k) == set(oracle_greedy(game, k))

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_between_identical_submissions_goes_to_lower_id(self, seed):
        game = model_game(seed, twin_of_best=True)
        first = oracle_greedy(game, 1)
        assert first == [1]  # the twin with the lower org_id
        assert select_greedy(game, 1) == {1}
        assert select_greedy(game, 3) == set(oracle_greedy(game, 3))

    def test_nan_gain_never_wins(self):
        game = model_game(2, nan_org=5)
        assert np.isnan(game.utility([5]))
        got = select_greedy(game, 4)
        assert 5 not in got
        assert got == set(oracle_greedy(game, 4))
