import multiprocessing
import os
import pickle
import signal
import threading
import warnings

import numpy as np
import pytest

from fedledger import federation as fed
from fedledger import ledger as ledgermod
from fedledger import model as modelmod
from fedledger import valuation as valmod
from fedledger import worker
from fedledger.cli import (ExperimentSpec, build_federation_config, execute_job,
                           synthetic_dataset)
from fedledger.data import Dataset, SmoteConfig, StratificationError
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


class TestFederationConfig:
    @pytest.mark.parametrize("key, value", [
        ("tmc_truncation_tol", float("nan")),
        ("tmc_truncation_tol", float("inf")),
        ("tmc_convergence_tol", float("nan")),
        ("tmc_convergence_tol", float("inf")),
    ])
    def test_non_finite_tmc_tolerances_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            small_config(valuation="tmc", **{key: value})

    def test_negative_convergence_tol_rejected(self):
        with pytest.raises(ValueError, match="tmc_convergence_tol"):
            small_config(valuation="tmc", tmc_convergence_tol=-1.0)

    @pytest.mark.parametrize("key, value", [
        ("master_seed", 11.0), ("num_orgs", True), ("hidden_dims", (4.0,)),
    ])
    def test_non_integer_settings_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^{key}( entry)? must be an integer, got "):
            small_config(**{key: value})

    def test_panel_validators_are_its_shard_keys(self):
        state = init_round0(small_config(validators=5), small_dataset())
        assert state.panel.validators == tuple(range(5)) == tuple(state.panel.test_shards)


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

    @pytest.mark.parametrize("kept", [0, 1])
    def test_single_class_data_rejected(self, kept):
        data = small_dataset()
        one_class = Dataset(data.features[data.labels == kept], data.labels[data.labels == kept])
        with pytest.raises(StratificationError, match=f"^class {1 - kept} has 0 example"):
            init_round0(small_config(), one_class)

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
        raw = list(state.raw_shards)
        raw[1] = raw[1].subset(range(30))
        raw[3] = raw[3].subset(range(40))
        state.raw_shards = tuple(raw)
        sizes = [len(shard) for shard in raw]
        assert len(set(sizes)) == 3
        report = run_round(state, 0)
        expected = {org: modelmod.evaluate(state.global_params, shard, 0.5)
                    for org, shard in enumerate(raw)}
        assert report.per_org_metrics == expected

    def test_per_org_metrics_are_the_rounds_own(self, monkeypatch):
        # computed on first read, after later rounds ran and the shards changed,
        # from each round's own global model and raw shards
        state = init_round0(small_config(num_orgs=5, rounds=3), small_dataset())
        real = modelmod.evaluate
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(modelmod, "evaluate", counted)
        width = state.raw_shards[0].schema_width
        empty = Dataset(np.empty((0, width)), np.empty(0, dtype=np.int64))
        seen = []
        for t in range(3):
            raw = list(state.raw_shards)
            run_round(state, t)
            assert len(calls) == t + 1  # the global model's evaluate only
            seen.append((state.global_params, raw))
            state.raw_shards = (*raw[:t], raw[t].subset(range(20 + t)), *raw[t + 1:])
        state.raw_shards = (*state.raw_shards[:4], empty)
        for report, (params, raw) in zip(state.reports, seen):
            assert report.global_params is params
            expected = {org: real(params, shard, 0.5) for org, shard in enumerate(raw)}
            assert report.per_org_metrics == expected
        assert [len(report.per_org_metrics) for report in state.reports] == [5, 5, 5]
        assert len(calls) == 3 + 3 * 5  # each report evaluates its shards once, on first read

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
        # per-org metrics were not read before pickling: the copy computes them
        expected = {org: modelmod.evaluate(state.global_params, shard, 0.5)
                    for org, shard in enumerate(state.raw_shards)}
        assert copy.reports[0].per_org_metrics == expected

    @pytest.mark.parametrize("kind", ["random", "greedy", "contribution"])
    def test_carried_loss_is_the_global_models(self, kind, monkeypatch):
        # every valuation game takes the loss carried from the round that
        # produced the global model, bit for bit the one it would compute;
        # round 1 fails consensus once and is retried with random selection
        cfg = small_config(policy=SelectionPolicy(kind, k=2, exploration_period=2),
                           rounds=4, valuation="tmc")
        state = init_round0(cfg, small_dataset())
        bases = []

        class Recorded(valmod.UtilityGame):
            def __init__(self, prior_global, submissions, server_test, **kwargs):
                super().__init__(prior_global, submissions, server_test, **kwargs)
                assert "_base_loss" in kwargs
                bases.append((self._base_loss, modelmod.loss(prior_global, server_test)))

        real = ledgermod.majority_global
        calls = []

        def flaky(panel, candidates, store):
            calls.append(1)
            if len(calls) == 2:
                raise ledgermod.ConsensusError("forced disagreement")
            return real(panel, candidates, store)

        monkeypatch.setattr(fed, "UtilityGame", Recorded)
        monkeypatch.setattr(ledgermod, "majority_global", flaky)
        for t in range(cfg.rounds):
            carried = modelmod.loss(state.global_params, state.server_test)
            assert state.global_loss.hex() == carried.hex()
            report = run_round(state, t)
            assert state.global_loss.hex() == report.global_metrics.loss.hex()
        assert len(calls) == cfg.rounds + 1
        assert state.global_loss.hex() == modelmod.loss(
            state.global_params, state.server_test).hex()
        # one game values each round; greedy's selection builds one per policy
        # attempt, the failed first attempt of round 1 included
        assert len(bases) == cfg.rounds * (2 if kind == "greedy" else 1)
        for passed, computed in bases:
            assert passed.hex() == computed.hex()

    @pytest.mark.parametrize("valuation", ["tmc", "exact"])
    def test_grand_coalition_worth_is_the_new_global_models(self, valuation, monkeypatch):
        # the round's game is handed U(N) from the new global model's loss,
        # bit for bit the utility a fresh game computes for all its players
        cfg = small_config(policy=SelectionPolicy("contribution", k=3, exploration_period=2),
                           rounds=5, valuation=valuation)
        state = init_round0(cfg, small_dataset())
        games = []

        class Recorded(valmod.UtilityGame):
            def __init__(self, prior_global, submissions, server_test, **kwargs):
                super().__init__(prior_global, submissions, server_test, **kwargs)
                games.append((kwargs["_grand_loss"], self))

        monkeypatch.setattr(fed, "UtilityGame", Recorded)
        for t in range(cfg.rounds):
            report = run_round(state, t)
            grand_loss, game = games[-1]
            assert grand_loss.hex() == report.global_metrics.loss.hex()
            fresh = valmod.UtilityGame(game.prior_global, game.submissions, game.server_test)
            full = (1 << len(game.players)) - 1
            assert game._cache[full].hex() == fresh.utility(game.players).hex()
            assert fresh._cache[full].hex() == game.utility(game.players).hex()
        assert len(games) == cfg.rounds


class TestRun:
    def test_single_round_run(self):
        result, _ = run(small_config(rounds=1), small_dataset())
        assert len(result.reports) == 1
        assert result.rounds_to_threshold == 1

    def test_rounds_to_threshold_of_no_rounds(self):
        # a run whose round 0 aborted has no reports
        assert fed.rounds_to_threshold([]) is None

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
        # 2 of 4 orgs a round, so orgs sit out some rounds; the running totals
        # are checked from the empty history on, after every round
        cfg = small_config(valuation="exact", rounds=4)
        state = init_round0(cfg, small_dataset())
        assert state.contributions == {}
        totals = {}
        for t in range(cfg.rounds):
            run_round(state, t)
            for org, value in state.chain[-1].contributions.items():
                totals[org] = totals.get(org, 0.0) + value
            # exact: same keys, and each value the same float sum in round order
            assert set(state.contributions) == set(totals)
            assert state.contributions == totals
        assert any(len(block.contributions) < cfg.num_orgs for block in state.chain[1:])
        result, state = run(cfg, small_dataset())
        assert ledgermod.validate_chain(state.chain)
        assert result.contributions == totals
        off, _ = run(small_config(valuation="off"), small_dataset())
        assert off.contributions == {}

    @pytest.mark.parametrize("kind", ["random", "greedy"])
    @pytest.mark.parametrize("floor", [0.5, 0.9])
    def test_blocks_replay_from_the_store(self, kind, floor):
        # every vote, every global model and every valued set of a block is
        # rebuilt from the selected transactions' payloads in the store alone
        cfg = small_config(policy=SelectionPolicy(kind, k=3), num_orgs=6,
                           accuracy_floor=floor, label_noise_orgs=2, label_noise=0.9)
        result, state = run(cfg, small_dataset())
        store = state.store
        for prev, block, report in zip(state.chain, state.chain[1:], result.reports):
            prior = ledgermod.deserialize_params(store.get(prev.global_model_digest))
            selected = [tx for tx in block.txs if tx.org_id in report.selected]
            assert [tx.org_id for tx in selected] == sorted(report.selected)
            if kind == "greedy":  # the whole pool stores, only the selected are verified
                assert len(block.txs) == cfg.num_orgs > len(selected)
            accepted = {}
            for vid in state.panel.validators:
                outcomes = ledgermod.verify_local_updates(
                    state.panel, vid, selected, store, prior.layer_dims)
                orgs = [tx.org_id for tx, ok in zip(selected, outcomes) if ok]
                models = [ledgermod.deserialize_params(store.get(tx.model_digest))
                          for tx, ok in zip(selected, outcomes) if ok]
                candidate = modelmod.average(models) if models else prior
                assert ledgermod.params_digest(candidate) == block.votes[vid]
                accepted.setdefault(block.votes[vid], orgs)
            tally = list(block.votes.values())
            assert tally.count(block.global_model_digest) * 2 > len(tally)
            assert set(block.contributions) == set(accepted[block.global_model_digest])

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


class TestTrainingWorker:
    """A round whose training work reaches SPLIT_MIN_WORK trains half its
    shards in a forked worker process; every output is the in-process run's."""

    @pytest.fixture(autouse=True)
    def fresh_worker(self, monkeypatch):
        # each test forks its own worker, after its own patches, and stops it
        worker._drop_worker()
        monkeypatch.setattr(fed, "SPLIT_MIN_WORK", 1)
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        yield
        worker._drop_worker()

    @staticmethod
    def state(**kwargs):
        cfg = small_config(num_orgs=5, policy=SelectionPolicy("random", k=5), **kwargs)
        return init_round0(cfg, small_dataset(n=600))

    @staticmethod
    def in_process(monkeypatch, fn):
        with monkeypatch.context() as patch:
            patch.setattr(worker, "_usable_cpus", lambda: 1)
            return fn()

    @staticmethod
    def worker_pid():
        (child,) = multiprocessing.active_children()
        return child.pid

    @pytest.mark.parametrize("policy", ["random", "greedy"])
    def test_outputs_byte_identical(self, monkeypatch, policy):
        spec = ExperimentSpec(synthetic_n=900, num_orgs=6, clients_per_round=3, rounds=3,
                              hidden_dims=(4,), epochs=2, valuation="tmc", seed=7)

        def job():
            outputs = execute_job((spec, policy, spec.epochs, spec.batch_size))
            return outputs["rounds_csv"], outputs["chain_jsonl"]

        split = job()
        self.worker_pid()  # the split run forked the worker
        worker._drop_worker()
        assert self.in_process(monkeypatch, job) == split
        assert multiprocessing.active_children() == []

    def test_overflow_warns_and_trains_as_in_process(self, monkeypatch):
        state = self.state(train=TrainConfig(learning_rate=1e300, epochs=2, batch_size=16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning):
                state.train_round(0, range(5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = state.train_round(0, range(5))
            expected = self.in_process(monkeypatch, lambda: state.train_round(0, range(5)))
        self.worker_pid()
        assert split.keys() == expected.keys()
        for org in expected:
            assert split[org].weights.tobytes() == expected[org].weights.tobytes()

    def test_worker_warnings_issued_under_callers_filters(self, monkeypatch):
        original = modelmod.local_train_many

        def warning_in_worker(*args):
            if multiprocessing.parent_process() is not None:
                warnings.warn("raised in the worker", UserWarning)
            return original(*args)

        monkeypatch.setattr(modelmod, "local_train_many", warning_in_worker)
        state = self.state()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="^raised in the worker$"):
                state.train_round(0, range(5))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state.train_round(1, range(5))
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (UserWarning, "raised in the worker", __file__)]

    def test_worker_exception_reaches_caller_and_worker_serves_on(self, monkeypatch):
        state = self.state()
        round0 = {derive_seed(state.cfg.master_seed, "train", 0, org) for org in range(5)}
        original = modelmod.local_train_many

        def fail_round0_in_worker(params, shards, cfg, seeds):
            if multiprocessing.parent_process() is not None and round0 & set(seeds):
                raise LookupError(f"no shard for {len(shards)} seeds")
            return original(params, shards, cfg, seeds)

        monkeypatch.setattr(modelmod, "local_train_many", fail_round0_in_worker)
        with pytest.raises(LookupError, match="^no shard for 2 seeds$"):
            state.train_round(0, range(5))
        pid = self.worker_pid()
        split = state.train_round(1, range(5))
        assert self.worker_pid() == pid
        expected = self.in_process(monkeypatch, lambda: state.train_round(1, range(5)))
        for org in expected:
            assert split[org].weights.tobytes() == expected[org].weights.tobytes()

    @pytest.mark.parametrize("shard, message", [
        (Dataset(np.zeros((4, 2)), np.zeros(4)),
         "feature width 2 does not match model input width 6"),
        (Dataset(np.zeros((0, 6)), np.zeros(0)), "dataset is empty"),
    ])
    def test_refused_shard_named_by_its_index_in_the_round(self, shard, message):
        state = self.state()
        state.shards[3] = shard
        with pytest.raises(ValueError, match=f"^shard 3: {message}$"):
            state.train_round(0, range(5))

    @pytest.mark.parametrize("when", ["idle", "mid-request"])
    def test_killed_worker_costs_no_round(self, monkeypatch, when):
        # round 1 finds the worker dead, idle since round 0 or killed while it
        # trains round 1's far half, and trains both halves in-process
        cfg = self.state(valuation="tmc").cfg
        round1 = {derive_seed(cfg.master_seed, "train", 1, org) for org in range(5)}
        original = modelmod.local_train_many

        def killed_in_worker(params, shards, train, seeds):
            if (when == "mid-request" and multiprocessing.parent_process() is not None
                    and round1 & set(seeds)):
                os.kill(os.getpid(), signal.SIGKILL)
            return original(params, shards, train, seeds)

        monkeypatch.setattr(modelmod, "local_train_many", killed_in_worker)
        pids = []

        def chain_after(rounds):
            state = self.state(valuation="tmc")
            for t in range(rounds):
                run_round(state, t)
                children = multiprocessing.active_children()
                pids.extend(child.pid for child in children)
                if t == 0 and when == "idle" and children:
                    os.kill(children[0].pid, signal.SIGKILL)
                    children[0].join(timeout=10)  # so that round 1's request meets a closed pipe
            return ledgermod.export_chain(state.chain)

        expected = self.in_process(monkeypatch, lambda: chain_after(3))
        assert chain_after(3) == expected
        # rounds 0 and 2 each forked a worker, and round 1 left none alive
        assert len(pids) == 2 and pids[0] != pids[1]
        assert [child.pid for child in multiprocessing.active_children()] == [pids[1]]

    def test_interrupted_reply_leaves_no_stale_reply(self, monkeypatch):
        # an interrupt while the caller waits leaves the reply unread: the
        # worker goes with it, so the next round cannot read that reply
        state = self.state()
        state.train_round(0, range(5))
        conn = worker._worker[0]

        def interrupted():
            raise KeyboardInterrupt

        monkeypatch.setattr(conn, "recv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            state.train_round(1, range(5))
        split = state.train_round(2, range(5))
        expected = self.in_process(monkeypatch, lambda: state.train_round(2, range(5)))
        for org in expected:
            assert split[org].weights.tobytes() == expected[org].weights.tobytes()

    def test_one_worker_forked_at_the_threshold_and_kept(self, monkeypatch):
        state = self.state()
        monkeypatch.setattr(fed, "SPLIT_MIN_WORK", 2 * sum(len(shard) for shard in state.shards))
        state.train_round(0, range(5))
        pid = self.worker_pid()
        state.train_round(1, range(5))
        assert self.worker_pid() == pid

    @pytest.mark.parametrize("condition", ["one cpu", "below threshold", "in a child",
                                           "second thread"])
    def test_no_fork(self, monkeypatch, condition):
        state = self.state()
        if condition == "one cpu":
            monkeypatch.setattr(worker, "_usable_cpus", lambda: 1)
        elif condition == "below threshold":
            # 5 shards x 2 epochs: twice the rows, one short of splitting
            work = 2 * sum(len(shard) for shard in state.shards)
            monkeypatch.setattr(fed, "SPLIT_MIN_WORK", work + 1)
        elif condition == "in a child":
            monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if condition == "second thread":
            thread.start()
        try:
            trained = state.train_round(0, range(5))
            assert multiprocessing.active_children() == []
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        expected = modelmod.local_train_many(
            state.global_params, state.shards, state.cfg.train,
            [derive_seed(state.cfg.master_seed, "train", 0, org) for org in range(5)])
        assert [trained[org].weights.tobytes() for org in range(5)] == [
            model.weights.tobytes() for model in expected]
