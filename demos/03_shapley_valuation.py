#!/usr/bin/env python3
"""Value coalition members exactly and by truncated Monte-Carlo sampling.

A three-player game with one free rider shows the axioms in action; a
model-backed game shows how a round's submitted updates get scored by
their loss improvement on the server test set.
"""

from fedledger import (
    FunctionGame,
    UtilityGame,
    check_axioms,
    exact_shapley,
    tmc_shapley,
)
from fedledger.cli import ExperimentSpec, synthetic_dataset
from fedledger.model import TrainConfig, init_params, local_train
from fedledger.data import partition, split, PartitionPlan

# a hand-built game: players 1 and 2 synergize, player 3 adds nothing
table = {
    frozenset(): 0.0,
    frozenset({1}): 1.0, frozenset({2}): 1.0, frozenset({3}): 0.0,
    frozenset({1, 2}): 3.0, frozenset({1, 3}): 1.0, frozenset({2, 3}): 1.0,
    frozenset({1, 2, 3}): 3.0,
}
game = FunctionGame([1, 2, 3], lambda s: table[frozenset(s)])
exact = exact_shapley(game)
print("hand-built game:")
for player, value in sorted(exact.values.items()):
    print(f"  player {player}: {value:+.3f}")
print(f"  sum equals grand-coalition utility: "
      f"{abs(sum(exact.values.values()) - 3.0) < 1e-12}")

estimate = tmc_shapley(game, truncation_tol=0.0, max_permutations=5000, seed=0)
print("  TMC estimate:", {p: round(v, 3) for p, v in sorted(estimate.values.items())})

axioms = check_axioms(game, exact, tol=1e-9)
print(f"  symmetric pairs: {axioms.symmetric_pairs}, "
      f"dummies: {axioms.dummy_players}")

# a model-backed game over real local updates
spec = ExperimentSpec(synthetic_n=1500, synthetic_minority_fraction=0.05,
                      synthetic_separation=3.0, seed=2)
data = synthetic_dataset(spec)
train, server_test = split(data, 0.8, seed=0)
shards = partition(train, PartitionPlan(num_orgs=4, mode="iid"), seed=1)
w0 = init_params((data.schema_width, 8, 1), seed=4)
submissions = {
    org: local_train(w0, shards[org],
                     TrainConfig(learning_rate=0.1, epochs=3, batch_size=32), seed=org)
    for org in range(4)
}
round_game = UtilityGame(w0, submissions, server_test)
values = exact_shapley(round_game).values
print("\nround contributions (loss improvement on the server test set):")
for org, value in sorted(values.items()):
    print(f"  org {org}: {value:+.5f}")
