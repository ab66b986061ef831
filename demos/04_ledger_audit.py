#!/usr/bin/env python3
"""Run a short federation, export its chain, tamper with it, re-validate.

Shows the storage design: fixed 56-byte on-chain records per update,
model payloads off-chain under their own SHA-256 digests, and a hash
chain that pins every recorded field.
"""

from fedledger import export_chain, import_chain, validate_chain
from fedledger.cli import ExperimentSpec, build_federation_config, synthetic_dataset
from fedledger.federation import run

spec = ExperimentSpec(
    synthetic_n=600, synthetic_features=8, synthetic_minority_fraction=0.1,
    synthetic_separation=3.0, num_orgs=4, clients_per_round=2, rounds=5,
    learning_rate=0.1, epochs=2, batch_size=16, hidden_dims=(4,),
    valuation="exact", accuracy_floor=0.0, seed=13, policies=("random",),
)
cfg = build_federation_config(spec, "random", spec.epochs, spec.batch_size)
result, state = run(cfg, synthetic_dataset(spec))

print(f"chain height: {len(state.chain)} (genesis + {len(result.reports)} rounds)")
print(f"off-chain store holds {len(state.store)} blobs")
last = result.reports[-1]
print(f"per-round bytes: {last.bytes_on_chain} on-chain vs "
      f"{last.bytes_off_chain} off-chain")

text = export_chain(state.chain)
print(f"\nexported {len(text.splitlines())} block records; verdict:",
      bool(validate_chain(import_chain(text))))

# flip one hex digit inside block 2's global model digest
lines = text.splitlines()
target = state.chain[2].global_model_digest.hex()
flipped = ("0" if target[0] != "0" else "1") + target[1:]
lines[2] = lines[2].replace(target, flipped)
verdict = validate_chain(import_chain("\n".join(lines)))
print(f"after tampering with block 2: valid={bool(verdict)}, "
      f"first failure at height {verdict.first_failure_height}")

# the final model is recoverable and authenticated by its digest
payload = state.store.get(result.final_model_digest)
print(f"\nfinal model digest {result.final_model_digest.hex()[:16]}... "
      f"resolves to a {len(payload)}-byte payload")
