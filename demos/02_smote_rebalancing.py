#!/usr/bin/env python3
"""Rebalance a heavily skewed shard with SMOTE and inspect the geometry.

Every synthetic example sits on the segment between a real minority point
and one of its nearest minority neighbors, so the synthetic cloud never
leaves the minority region.
"""

import numpy as np

from fedledger import SmoteConfig, imbalance_stats, knn_minority, smote
from fedledger.data import Dataset

rng = np.random.default_rng(5)
n_fraud, n_normal = 12, 600
features = np.vstack([
    rng.normal(loc=0.0, scale=1.0, size=(n_fraud, 2)),
    rng.normal(loc=4.0, scale=1.0, size=(n_normal, 2)),
])
labels = np.array([1] * n_fraud + [0] * n_normal)
shard = Dataset(features, labels)

count, ratio = imbalance_stats(shard)
print(f"before: {count} fraud of {len(shard)} ({ratio:.2%})")
print(f"fraud examples nearest to point 0: {knn_minority(shard, 0, k=3)}")

balanced = smote(shard, SmoteConfig(k=3, target_ratio=1.0), seed=11)
count, ratio = imbalance_stats(balanced)
print(f"after:  {count} fraud of {len(balanced)} ({ratio:.2%})")

synth = balanced.features[len(shard):]
print(f"\n{synth.shape[0]} synthetic points; every coordinate stays inside the")
print("bounding box of the real minority cloud:")
real = features[:n_fraud]
print(f"  real  x in [{real[:, 0].min():+.2f}, {real[:, 0].max():+.2f}], "
      f"y in [{real[:, 1].min():+.2f}, {real[:, 1].max():+.2f}]")
print(f"  synth x in [{synth[:, 0].min():+.2f}, {synth[:, 0].max():+.2f}], "
      f"y in [{synth[:, 1].min():+.2f}, {synth[:, 1].max():+.2f}]")
