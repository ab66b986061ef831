#!/usr/bin/env python3
"""Train the MLP fraud classifier on one organization's data.

Walks through the numerical substrate: synthetic data generation,
standardization, SGD training, and the evaluation metrics.
"""

import numpy as np

from fedledger import TrainConfig, evaluate, init_params, local_train
from fedledger.cli import ExperimentSpec, synthetic_dataset
from fedledger.data import split

spec = ExperimentSpec(
    synthetic_n=4000,
    synthetic_minority_fraction=0.2,
    synthetic_separation=3.0,
    seed=7,
)
data = synthetic_dataset(spec)
train, test = split(data, train_fraction=0.8, seed=1)
print(f"dataset: {len(data)} rows, {data.schema_width} features, "
      f"{int(data.labels.sum())} fraud")
print(f"split:   {len(train)} train / {len(test)} test")

params = init_params((data.schema_width, 16, 1), seed=0)
print(f"\nmodel: dims {params.layer_dims}, {params.weights.size} parameters")
print(f"untrained accuracy: {evaluate(params, test).accuracy:.4f}")

cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=32,
                  weight_decay=0.001)
trained = local_train(params, train, cfg, seed=3)
m = evaluate(trained, test)
print(f"\nafter {cfg.epochs} epochs of SGD (lr={cfg.learning_rate}):")
print(f"  accuracy  {m.accuracy:.4f}")
print(f"  loss      {m.loss:.4f}")
print(f"  F1        {m.f1:.4f}")
print(f"  precision {m.precision:.4f}")

# training is deterministic: same seed, same weights
again = local_train(params, train, cfg, seed=3)
print(f"\nbitwise reproducible: {np.array_equal(trained.weights, again.weights)}")
