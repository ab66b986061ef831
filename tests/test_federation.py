import pickle

import numpy as np
import pytest

from fedledger import federation as fed
from fedledger import ledger as ledgermod
from fedledger import model as modelmod
from fedledger.cli import ExperimentSpec, build_federation_config, synthetic_dataset
from fedledger.data import Dataset, SmoteConfig
from fedledger.federation import (
    FederationConfig,
    init_round0,
    run,
    run_round,
)
from fedledger.model import ModelParams, TrainConfig
from fedledger.seeds import derive_seed
from fedledger.selection import SelectionPolicy, select_random


def small_dataset(seed=0, n=400, minority=0.1, separation=3.0):
    spec = ExperimentSpec(
        synthetic_n=n,
        synthetic_features=6,
        synthetic_minority_fraction=minority,
        synthetic_separation=separation,
        seed=seed,
    )
    return synthetic_dataset(spec)


def small_config(**kwargs):
    defaults = dict(
        policy=SelectionPolicy("random", k=2),
        train=TrainConfig(learning_rate=0.1, epochs=2, batch_size=16,
                          weight_decay=0.0),
        num_orgs=4,
        rounds=3,
        smote=None,
        valuation="exact",
        validators=3,
        accuracy_floor=0.0,
        master_seed=11,
        hidden_dims=(4,),
    )
    defaults.update(kwargs)
    return FederationConfig(**defaults)


class TestInitRound0:
    def test_two_org_init(self):
        data = small_dataset()
        cfg = small_config(num_orgs=2, policy=SelectionPolicy("random", k=1))
        state = init_round0(cfg, data)
        assert len(state.shards) == 2
        assert len(state.chain) == 1
        assert state.chain[0].height == 0
        assert state.chain[0].prev_hash == ledgermod.ZERO_DIGEST
        assert state.chain[0].global_model_digest in state.store

    def test_deterministic(self):
        data = small_dataset()
        cfg = small_config()
        a = init_round0(cfg, data)
        b = init_round0(cfg, data)
        assert np.array_equal(a.global_params.weights, b.global_params.weights)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.features, sb.features)
        assert a.chain[0].block_hash == b.chain[0].block_hash

    def test_smote_meets_target_per_shard(self):
        data = small_dataset(n=600, minority=0.15)
        cfg = small_config(smote=SmoteConfig(k=3, target_ratio=1.0))
        state = init_round0(cfg, data)
        for shard in state.shards:
            pos = int(shard.labels.sum())
            neg = len(shard) - pos
            assert pos >= neg - 1  # within one example of the 1.0 target

    def test_single_class_data_rejected(self):
        data = small_dataset()
        from fedledger.data import Dataset

        negatives = Dataset(data.features[data.labels == 0],
                            data.labels[data.labels == 0])
        with pytest.raises(ValueError):
            init_round0(small_config(), negatives)

    def test_default_label_skew_deals_the_cli_shards(self):
        # a library caller who leaves partition_skew unset gets the CLI's partition
        spec = ExperimentSpec(synthetic_n=600, synthetic_features=6,
                              synthetic_minority_fraction=0.1, num_orgs=5,
                              clients_per_round=2, partition_mode="label-skew", seed=3)
        cli_cfg = build_federation_config(spec, "random", spec.epochs, spec.batch_size)
        lib_cfg = FederationConfig(policy=cli_cfg.policy, train=cli_cfg.train,
                                   num_orgs=spec.num_orgs, smote=cli_cfg.smote,
                                   master_seed=spec.seed, partition_mode="label-skew")
        data = synthetic_dataset(spec)
        cli_shards = init_round0(cli_cfg, data).shards
        lib_shards = init_round0(lib_cfg, data).shards
        assert len(lib_shards) == len(cli_shards) == 5
        for a, b in zip(lib_shards, cli_shards):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)


class TestRunRound:
    def test_single_org_round_equals_local_train(self):
        data = small_dataset()
        cfg = small_config(num_orgs=1, policy=SelectionPolicy("random", k=1))
        state = init_round0(cfg, data)
        w0 = state.global_params
        report = run_round(state, 0)
        expected = modelmod.local_train(
            w0, state.shards[0],
            TrainConfig(learning_rate=0.1, epochs=2, batch_size=16,
                        weight_decay=0.0),
            derive_seed(cfg.master_seed, "train", 0, 0),
        )
        assert np.array_equal(state.global_params.weights, expected.weights)
        assert report.selected == frozenset({0})

    def test_identical_shards_identical_digests(self):
        # two orgs holding byte-identical data submit byte-identical models
        data = small_dataset(n=200)
        cfg = small_config(num_orgs=2, policy=SelectionPolicy("random", k=2),
                           valuation="off")
        state = init_round0(cfg, data)
        state.shards[1] = state.shards[0]

        seed0 = derive_seed(cfg.master_seed, "train", 0, 0)
        orig_train_round = fed.FederationState.train_round

        def same_seed(self, round_index, orgs):
            cfg_t = TrainConfig(learning_rate=0.1, epochs=2, batch_size=16,
                                weight_decay=0.0)
            return {org: modelmod.local_train(self.global_params, self.shards[org], cfg_t,
                                              seed0)
                    for org in orgs}

        fed.FederationState.train_round = same_seed
        try:
            run_round(state, 0)
        finally:
            fed.FederationState.train_round = orig_train_round
        txs = state.chain[-1].txs
        assert len(txs) == 2
        assert txs[0].model_digest == txs[1].model_digest

    def test_nan_submission_excluded_from_aggregate(self, monkeypatch):
        data = small_dataset()
        cfg = small_config(num_orgs=3, policy=SelectionPolicy("random", k=3),
                           valuation="off")
        state = init_round0(cfg, data)
        honest = state.train_round(0, range(3))

        def corrupt(self, round_index, orgs):
            bad = honest[2].weights.copy()
            bad[0] = np.nan
            return {org: ModelParams(honest[2].layer_dims, bad)
                    if org == 2 else honest[org] for org in orgs}

        monkeypatch.setattr(fed.FederationState, "train_round", corrupt)
        run_round(state, 0)
        expected = modelmod.average([honest[0], honest[1]])
        assert np.array_equal(state.global_params.weights, expected.weights)
        # the rejected update is still recorded on-chain as a transaction
        assert len(state.chain[-1].txs) == 3

    def test_per_org_metrics_equal_evaluate_per_shard(self):
        state = init_round0(small_config(num_orgs=5), small_dataset())
        raw = state.raw_shards
        width = raw[0].schema_width
        raw[1] = Dataset(np.empty((0, width)), np.empty(0, dtype=np.int64))
        raw[3] = raw[3].subset(range(40))
        sizes = [len(shard) for shard in raw]
        assert sizes.count(sizes[0]) == 3 and len(set(sizes)) == 3
        report = run_round(state, 0)
        expected = {org: modelmod.evaluate(state.global_params, raw[org], 0.5)
                    for org in (0, 2, 3, 4)}
        assert report.per_org_metrics == expected  # org 1 holds nothing: skipped

    def test_round_order_enforced(self):
        data = small_dataset()
        state = init_round0(small_config(), data)
        with pytest.raises(ValueError):
            run_round(state, 5)

    def test_consensus_failure_retries_with_random_selection(self, monkeypatch):
        state = init_round0(small_config(), small_dataset())
        real = ledgermod.majority_global
        calls = []

        def flaky(panel, candidates, store):
            calls.append(1)
            if len(calls) == 1:
                raise ledgermod.ConsensusError("forced disagreement")
            return real(panel, candidates, store)

        monkeypatch.setattr(ledgermod, "majority_global", flaky)
        report = run_round(state, 0)
        assert len(calls) == 2  # first attempt failed, retry succeeded
        assert len(report.selected) == 2
        assert len(state.chain) == 2

    def test_double_consensus_failure_aborts_with_reports(self, monkeypatch):
        state = init_round0(small_config(), small_dataset())
        run_round(state, 0)

        def always_fails(panel, candidates, store):
            raise ledgermod.ConsensusError("forced disagreement")

        monkeypatch.setattr(ledgermod, "majority_global", always_fails)
        with pytest.raises(fed.FederationAborted) as excinfo:
            run_round(state, 1)
        assert len(excinfo.value.reports) == 1  # round 0 retained

    def test_abort_survives_pickling(self):
        # worker processes hand the exception back to the parent pickled
        state = init_round0(small_config(), small_dataset())
        run_round(state, 0)
        exc = fed.FederationAborted("round 1: consensus failed twice", state.reports)
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is fed.FederationAborted
        assert str(copy) == str(exc)
        assert copy.reports == state.reports


class TestRun:
    def test_single_round_run(self):
        result, _ = run(small_config(rounds=1), small_dataset())
        assert len(result.reports) == 1
        assert result.rounds_to_threshold == 1

    def test_zero_accuracy_target_stops_after_first_round(self):
        result, _ = run(small_config(rounds=50, accuracy_target=0.0), small_dataset())
        assert len(result.reports) == 1

    def test_full_determinism(self):
        cfg = small_config(valuation="tmc", tmc_max_permutations=20)
        a, state_a = run(cfg, small_dataset())
        b, state_b = run(cfg, small_dataset())
        assert ledgermod.export_chain(state_a.chain) == ledgermod.export_chain(state_b.chain)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.global_metrics == rb.global_metrics
            assert ra.selected == rb.selected
            assert ra.shapley == rb.shapley
        assert a.contributions == b.contributions
        assert a.final_model_digest == b.final_model_digest

    def test_final_digest_reproduces_final_metrics(self):
        cfg = small_config()
        result, state = run(cfg, small_dataset())
        payload = state.store.get(result.final_model_digest)
        reloaded = ledgermod.deserialize_params(payload)
        metrics = modelmod.evaluate(reloaded, state.server_test, cfg.threshold)
        assert metrics == result.reports[-1].global_metrics

    def test_chain_validates_and_contributions_accumulate(self):
        cfg = small_config(valuation="exact")
        result, state = run(cfg, small_dataset())
        assert ledgermod.validate_chain(state.chain)
        per_round_totals = {}
        for block in state.chain[1:]:
            for org, v in block.contributions.items():
                per_round_totals[org] = per_round_totals.get(org, 0.0) + v
        for org, total in result.contributions.items():
            assert total == pytest.approx(per_round_totals.get(org, 0.0), abs=1e-12)

    def test_greedy_policy_charges_full_pool(self):
        cfg_greedy = small_config(policy=SelectionPolicy("greedy", k=2),
                                  rounds=1)
        cfg_random = small_config(policy=SelectionPolicy("random", k=2),
                                  rounds=1)
        data = small_dataset()
        greedy_report = run(cfg_greedy, data)[0].reports[0]
        random_report = run(cfg_random, data)[0].reports[0]
        assert len(greedy_report.selected) == 2
        # all 4 orgs submit candidates under greedy; only the 2 selected otherwise
        assert greedy_report.bytes_on_chain == 5 * ledgermod.TX_WIRE_BYTES
        assert random_report.bytes_on_chain == 3 * ledgermod.TX_WIRE_BYTES
        assert greedy_report.bytes_off_chain > random_report.bytes_off_chain

    def test_on_chain_bytes_independent_of_model_width(self):
        data = small_dataset()
        narrow, _ = run(small_config(hidden_dims=(4,), rounds=2), data)
        wide, _ = run(small_config(hidden_dims=(40,), rounds=2), data)
        for rn, rw in zip(narrow.reports, wide.reports):
            assert rn.bytes_on_chain == rw.bytes_on_chain
            assert rw.bytes_off_chain > 9 * rn.bytes_off_chain

    def test_contribution_policy_runs(self):
        cfg = small_config(
            policy=SelectionPolicy("contribution", k=2, exploration_period=2),
            rounds=4,
        )
        result, _ = run(cfg, small_dataset())
        assert len(result.reports) == 4
        assert set(result.contributions)  # some orgs accrued scores

    def test_exploration_follows_master_seed(self):
        # round 0 explores with a seed derived from the master seed alone
        data = small_dataset(n=600)
        picks = set()
        for master in range(1, 5):
            cfg = small_config(policy=SelectionPolicy("contribution", k=3),
                               num_orgs=6, rounds=1, master_seed=master)
            selected = run_round(init_round0(cfg, data), 0).selected
            policy_seed = derive_seed(master, "policy")
            assert selected == select_random(
                range(6), 3, derive_seed(policy_seed, "explore", 0))
            picks.add(selected)
        assert len(picks) > 1

    def test_training_improves_on_initial_model(self):
        # separable synthetic data: the final global model must beat w0
        cfg = small_config(rounds=5)
        data = small_dataset(separation=4.0)
        state = init_round0(cfg, data)
        initial = modelmod.evaluate(state.global_params, state.server_test).accuracy
        result, _ = run(cfg, data)
        assert result.reports[-1].global_metrics.accuracy >= initial
