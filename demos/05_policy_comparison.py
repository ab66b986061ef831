#!/usr/bin/env python3
"""Compare selection policies when some organizations hold noisy labels.

Four of ten organizations carry 40% flipped labels. Contribution-based
selection learns to avoid them through accumulated Shapley scores;
random sampling keeps inviting them. Greedy marginal-gain selection is
the strong (and expensive) baseline: it requires candidate updates from
every organization each round.
"""

import statistics

from fedledger.cli import ExperimentSpec, build_federation_config, synthetic_dataset
from fedledger.federation import run

BASE = dict(
    synthetic_n=2000, synthetic_features=30, synthetic_minority_fraction=0.02,
    synthetic_separation=3.0, num_orgs=10, clients_per_round=2, rounds=20,
    learning_rate=0.15, epochs=3, batch_size=32, hidden_dims=(16,),
    partition_mode="iid", smote=True, smote_k=2, smote_target_ratio=1.0,
    label_noise_orgs=4, label_noise=0.4,
    valuation="tmc", tmc_max_permutations=30, exploration_period=5,
    accuracy_floor=0.0,
)

print(f"{'policy':>13s} {'rounds-to-90%':>14s} {'final acc':>10s} "
      f"{'org-level acc':>14s} {'off-chain MB':>13s}")
for policy in ("contribution", "random", "greedy"):
    rtts, finals, orgs, mb = [], [], [], []
    for seed in range(3):
        spec = ExperimentSpec(**BASE, seed=seed, policies=(policy,))
        cfg = build_federation_config(spec, policy, spec.epochs, spec.batch_size)
        result, _ = run(cfg, synthetic_dataset(spec))
        final = result.reports[-1]
        rtts.append(result.rounds_to_threshold)
        finals.append(final.global_metrics.accuracy)
        orgs.append(statistics.mean(
            m.accuracy for m in final.per_org_metrics.values()
        ))
        mb.append(sum(r.bytes_off_chain for r in result.reports) / 1e6)
    print(f"{policy:>13s} {statistics.median(rtts):>14.1f} "
          f"{statistics.mean(finals):>10.4f} {statistics.mean(orgs):>14.4f} "
          f"{statistics.mean(mb):>13.3f}")

print("\ngreedy pays for its quality: every organization trains and uploads")
print("a candidate every round, so its communication cost is the largest.")
