import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from fedledger.cli import (
    ConfigError,
    ExperimentSpec,
    cmd_generate,
    cmd_run,
    cmd_validate,
    config_hash,
    main,
    parse_config_file,
    resolve_spec,
    synthesize_raw,
    synthetic_dataset,
)
from fedledger.data import load_csv, split
from fedledger.model import TrainConfig, evaluate, init_params, local_train
from fedledger.valuation import EXACT_MAX_PLAYERS

GOLDEN = Path(__file__).parent / "golden_rounds_toy.csv"
GOLDEN_SUMMARY = Path(__file__).parent / "golden_summary_toy.csv"
GOLDEN_CHAIN = Path(__file__).parent / "golden_chain_contribution_toy.jsonl"

TOY = ExperimentSpec(
    synthetic_n=300,
    synthetic_features=8,
    synthetic_minority_fraction=0.1,
    synthetic_separation=3.0,
    num_orgs=3,
    clients_per_round=2,
    rounds=3,
    learning_rate=0.1,
    epochs=2,
    batch_size=16,
    hidden_dims=(4,),
    policies=("random",),
    valuation="exact",
    accuracy_floor=0.0,
    seed=5,
)


class TestGenerate:
    def test_minority_count(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=1000, synthetic_minority_fraction=0.02,
                              seed=3)
        path = cmd_generate(spec, out_path=tmp_path / "data.csv")
        ds = load_csv(path)
        assert len(ds) == 1000
        assert int(ds.labels.sum()) == 20

    def test_same_seed_identical_files(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=200, seed=8)
        a = cmd_generate(spec, out_path=tmp_path / "a.csv")
        b = cmd_generate(spec, out_path=tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_large_separation_trains_accurately(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=1200, synthetic_minority_fraction=0.05,
                              synthetic_separation=6.0, seed=4)
        path = cmd_generate(spec, out_path=tmp_path / "sep.csv")
        ds = load_csv(path)
        train, test = split(ds, 0.8, seed=0)
        params = local_train(
            init_params((30, 1), seed=0), train,
            TrainConfig(learning_rate=0.5, epochs=20, batch_size=64,
                        weight_decay=0.0),
            1,
        )
        assert evaluate(params, test).accuracy > 0.95

    def test_bad_minority_fraction(self):
        with pytest.raises(ValueError):
            synthesize_raw(100, 30, 0.7, 2.0, 0)


class TestConfigResolution:
    def test_file_env_flag_precedence(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("rounds = 7\nseed = 1\nbatch_size = 8\n")
        spec = resolve_spec(
            config=parse_config_file(conf),
            env={"FEDLEDGER_SEED": "2"},
            overrides={"batch_size": 64},
        )
        assert spec.rounds == 7
        assert spec.seed == 2
        assert spec.batch_size == 64

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            resolve_spec(config=parse_config_file(conf), env={})

    def test_bad_value_names_field(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("rounds = soon\n")
        with pytest.raises(ConfigError, match="rounds"):
            resolve_spec(config=parse_config_file(conf), env={})

    def test_comments_and_blanks_ignored(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("# comment\n\nrounds = 4  # trailing\n")
        assert resolve_spec(config=parse_config_file(conf), env={}).rounds == 4

    def test_sweep_parsing(self, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("epochs_sweep = 5, 10, 15\npolicies = random,contribution\n")
        spec = resolve_spec(config=parse_config_file(conf), env={})
        assert spec.epochs_sweep == (5, 10, 15)
        assert spec.policies == ("random", "contribution")

    def test_config_hash_tracks_content(self):
        a = ExperimentSpec(seed=1)
        b = ExperimentSpec(seed=2)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(ExperimentSpec(seed=1))


DEFAULT_CONFIG_HASH = "443f76d1caa83e5db6dfc1fb355b63d525d32144e32cb3ba844f30504730753d"


def render(value) -> str:
    """A spec value as config text: comma lists, blank for None, on/off."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


SPEC_FIELDS = [f.name for f in dataclasses.fields(ExperimentSpec)]


class TestTypeDrivenParsing:
    @pytest.mark.parametrize("key", SPEC_FIELDS)
    def test_default_text_round_trips_through_file(self, tmp_path, key):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"{key} = {render(getattr(ExperimentSpec(), key))}\n")
        spec = resolve_spec(config=parse_config_file(conf), env={})
        assert spec == ExperimentSpec()
        assert config_hash(spec) == DEFAULT_CONFIG_HASH  # also pins int vs float

    @pytest.mark.parametrize("key", SPEC_FIELDS)
    def test_default_text_round_trips_through_env(self, key):
        env = {f"FEDLEDGER_{key.upper()}": render(getattr(ExperimentSpec(), key))}
        spec = resolve_spec(env=env)
        assert spec == ExperimentSpec()
        assert config_hash(spec) == DEFAULT_CONFIG_HASH

    def test_default_config_hash_pinned(self):
        assert config_hash(ExperimentSpec()) == DEFAULT_CONFIG_HASH

    def test_values_parse_by_field_type(self):
        spec = resolve_spec(env={
            "FEDLEDGER_HIDDEN_DIMS": "8, 4",
            "FEDLEDGER_POLICIES": " random , greedy ",
            "FEDLEDGER_SMOTE": "No",
            "FEDLEDGER_ACCURACY_TARGET": "0.9",
            "FEDLEDGER_LABEL_NOISE": "1",
        })
        assert spec.hidden_dims == (8, 4)
        assert spec.policies == ("random", "greedy")
        assert spec.smote is False
        assert spec.accuracy_target == 0.9
        assert type(spec.label_noise) is float

    def test_bad_env_value_names_variable(self):
        with pytest.raises(ConfigError, match="FEDLEDGER_SMOTE"):
            resolve_spec(env={"FEDLEDGER_SMOTE": "maybe"})


class TestConfigChecks:
    @pytest.mark.parametrize("text, key", [
        ("rounds = 0", "rounds"),
        ("valuation = exct", "valuation"),
        ("policies = contrib", "policies"),
        ("threshold = 1.5", "threshold"),
        ("validators = 2", "validators"),
        ("partition_mode = skewed", "partition_mode"),
        ("valuation = exact\nclients_per_round = 25\naccuracy_floor = 0", "valuation"),
        ("data = parquet", "data"),
        ("synthetic_minority_fraction = 0.7", "synthetic_minority_fraction"),
        ("data = csv\ncsv_path = nowhere.csv", "csv_path"),
        ("tmc_truncation_tol = -1", "tmc_truncation_tol"),
        ("tmc_max_permutations = 0", "tmc_max_permutations"),
        ("accuracy_floor = 1.5", "accuracy_floor"),
        ("synthetic_separation = nan", "synthetic_separation"),
        ("synthetic_separation = inf", "synthetic_separation"),
        ("learning_rate = nan", "learning_rate"),
        ("learning_rate = inf", "learning_rate"),
        ("weight_decay = nan", "weight_decay"),
        ("tmc_truncation_tol = nan", "tmc_truncation_tol"),
        ("tmc_convergence_tol = nan", "tmc_convergence_tol"),
        ("tmc_convergence_tol = -1", "tmc_convergence_tol"),
    ])
    def test_run_refuses_before_writing(self, tmp_path, capsys, text, key):
        conf = tmp_path / "bad.conf"
        conf.write_text(text + "\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err
        assert not out.exists()

    def test_generate_refuses_before_writing(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("rounds = 0\n")
        out = tmp_path / "gen.csv"
        assert main(["generate", "--config", str(conf), "--out", str(out)]) == 2
        assert "rounds" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_point_checked_before_any_job(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("epochs_sweep = 2, 0\n")
        with pytest.raises(ConfigError, match="epochs"):
            resolve_spec(config=parse_config_file(conf), env={})

    def test_exact_player_limit(self):
        at_limit = {"valuation": "exact", "clients_per_round": EXACT_MAX_PLAYERS}
        assert resolve_spec(env={}, overrides=at_limit).clients_per_round == EXACT_MAX_PLAYERS
        with pytest.raises(ConfigError, match=str(EXACT_MAX_PLAYERS)):
            resolve_spec(env={}, overrides={**at_limit,
                                            "clients_per_round": EXACT_MAX_PLAYERS + 1})


class TestRunCommand:
    def test_output_schema(self, tmp_path):
        spec = ExperimentSpec(**{**TOY.__dict__, "out": str(tmp_path / "res")})
        written = cmd_run(spec)
        names = {p.name for p in written}
        assert names == {"rounds_random_e2_b16.csv", "chain_random_e2_b16.jsonl",
                         "summary.csv"}
        rounds = (tmp_path / "res" / "rounds_random_e2_b16.csv").read_text()
        lines = rounds.splitlines()
        assert lines[0] == f"# config_hash={config_hash(spec)}"
        assert lines[1] == "round,accuracy,loss,f1,precision,bytes_on_chain,bytes_off_chain"
        assert len(lines) == 2 + 3  # header lines + one row per round

    def test_epoch_sweep_produces_three_files(self, tmp_path):
        spec = ExperimentSpec(**{
            **TOY.__dict__,
            "out": str(tmp_path / "res"),
            "rounds": 1,
            "epochs_sweep": (1, 2, 3),
        })
        written = cmd_run(spec)
        rounds_files = [p for p in written if p.name.startswith("rounds_")]
        assert len(rounds_files) == 3

    def test_policy_comparison_summary(self, tmp_path):
        spec = ExperimentSpec(**{
            **TOY.__dict__,
            "out": str(tmp_path / "res"),
            "rounds": 2,
            "policies": ("random", "contribution"),
        })
        cmd_run(spec)
        summary = (tmp_path / "res" / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 + 2  # hash + header + one row per policy
        assert summary[2].startswith("random,")
        assert summary[3].startswith("contribution,")
        # rounds_to_threshold column is populated for both
        for row in summary[2:]:
            assert row.split(",")[8].isdigit()

    def test_golden_three_round_run(self, tmp_path):
        spec = ExperimentSpec(**{**TOY.__dict__, "out": str(tmp_path / "res")})
        cmd_run(spec)
        got = (tmp_path / "res" / "rounds_random_e2_b16.csv").read_text()
        assert got == GOLDEN.read_text()
        # the summary pins the per-org accuracy column too
        assert (tmp_path / "res" / "summary.csv").read_text() == GOLDEN_SUMMARY.read_text()

    def test_golden_contribution_chain(self, tmp_path):
        # rounds 0 and 2 explore, so the chain's transactions pin how the run
        # derives the exploration seed from the master seed
        spec = ExperimentSpec(**{
            **TOY.__dict__,
            "out": str(tmp_path / "res"),
            "num_orgs": 6,
            "rounds": 4,
            "exploration_period": 2,
            "policies": ("contribution",),
        })
        cmd_run(spec)
        got = (tmp_path / "res" / "chain_contribution_e2_b16.jsonl").read_text()
        assert got == GOLDEN_CHAIN.read_text()

    def test_greedy_policy_runs_end_to_end(self, tmp_path):
        spec = ExperimentSpec(**{
            **TOY.__dict__,
            "out": str(tmp_path / "res"),
            "rounds": 2,
            "policies": ("greedy",),
        })
        cmd_run(spec)
        summary = (tmp_path / "res" / "summary.csv").read_text().splitlines()
        assert summary[2].startswith("greedy,")

    def test_parallel_matches_sequential(self, tmp_path):
        seq_spec = ExperimentSpec(**{
            **TOY.__dict__,
            "out": str(tmp_path / "seq"),
            "rounds": 2,
            "policies": ("random", "contribution"),
        })
        par_spec = ExperimentSpec(**{**seq_spec.__dict__, "out": str(tmp_path / "par")})
        seq_files = cmd_run(seq_spec, parallel=False)
        par_files = cmd_run(par_spec, parallel=True)
        for s, p in zip(sorted(seq_files), sorted(par_files)):
            assert s.name == p.name
            assert s.read_bytes() == p.read_bytes(), s.name


class TestValidateCommand:
    def test_fresh_chain_valid(self, tmp_path, capsys):
        spec = ExperimentSpec(**{**TOY.__dict__, "out": str(tmp_path / "res"),
                                 "rounds": 1})
        cmd_run(spec)
        code = cmd_validate(tmp_path / "res" / "chain_random_e2_b16.jsonl")
        assert code == 0

    def test_hex_edit_detected(self, tmp_path, capsys):
        spec = ExperimentSpec(**{**TOY.__dict__, "out": str(tmp_path / "res"),
                                 "rounds": 2})
        cmd_run(spec)
        chain_path = tmp_path / "res" / "chain_random_e2_b16.jsonl"
        lines = chain_path.read_text().splitlines()
        lines[1] = lines[1].replace(
            lines[1].split('"global_model_digest":"')[1][:8],
            "deadbeef",
        )
        chain_path.write_text("\n".join(lines) + "\n")
        assert cmd_validate(chain_path) == 1
        assert "height 1" in capsys.readouterr().out

    def test_empty_file_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert cmd_validate(path) == 0

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        assert cmd_validate(path) == 2

    def test_missing_file(self, tmp_path):
        assert cmd_validate(tmp_path / "nope.jsonl") == 2


class TestMainEntry:
    def test_generate_and_validate_via_main(self, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "toy.conf"
        conf.write_text(
            "synthetic_n = 120\nsynthetic_minority_fraction = 0.1\nseed = 2\n"
        )
        out_csv = tmp_path / "gen.csv"
        assert main(["generate", "--config", str(conf), "--out", str(out_csv)]) == 0
        assert out_csv.exists()

    def test_env_override_reaches_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDLEDGER_ROUNDS", "1")
        conf = tmp_path / "toy.conf"
        conf.write_text(
            "synthetic_n = 300\nsynthetic_features = 8\n"
            "synthetic_minority_fraction = 0.1\nsynthetic_separation = 3.0\n"
            "num_orgs = 3\nclients_per_round = 2\nrounds = 9\n"
            "hidden_dims = 4\npolicies = random\naccuracy_floor = 0.0\nseed = 5\n"
        )
        out = tmp_path / "res"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        rounds = (out / "rounds_random_e10_b32.csv").read_text().splitlines()
        assert len(rounds) == 2 + 1  # env var cut the run to one round

    def test_flag_overrides_policy_and_epochs(self, tmp_path):
        conf = tmp_path / "toy.conf"
        conf.write_text(
            "synthetic_n = 300\nsynthetic_features = 8\n"
            "synthetic_minority_fraction = 0.1\nsynthetic_separation = 3.0\n"
            "num_orgs = 3\nclients_per_round = 2\nrounds = 1\n"
            "hidden_dims = 4\npolicies = random,contribution\n"
            "accuracy_floor = 0.0\nseed = 5\n"
        )
        out = tmp_path / "res"
        code = main(["run", "--config", str(conf), "--out", str(out),
                     "--policy", "random", "--epochs", "1", "--batch", "8"])
        assert code == 0
        assert (out / "rounds_random_e1_b8.csv").exists()
        assert not (out / "rounds_contribution_e1_b8.csv").exists()

    # the overflowing learning rate is the point: every update is non-finite
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_greedy_survives_all_nan_gains(self, tmp_path):
        conf = tmp_path / "nan.conf"
        conf.write_text("learning_rate = 1e300\nsynthetic_n = 600\nrounds = 2\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(conf), "--out", str(out),
                     "--policy", "greedy"]) == 0
        assert len((out / "rounds_greedy_e10_b32.csv").read_text().splitlines()) == 2 + 2


class TestSyntheticDataset:
    def test_standardized_and_labeled(self):
        ds = synthetic_dataset(ExperimentSpec(synthetic_n=500, seed=1))
        assert ds.schema_width == 30
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_in_memory_matches_csv_roundtrip(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=150, synthetic_minority_fraction=0.1,
                              seed=12)
        in_memory = synthetic_dataset(spec)
        path = cmd_generate(spec, out_path=tmp_path / "x.csv")
        from_file = load_csv(path)
        np.testing.assert_allclose(in_memory.features, from_file.features,
                                   atol=1e-12)
        assert np.array_equal(in_memory.labels, from_file.labels)


class TestDataChecks:
    """Errors only the loaded data reveals: exit 2, `error: …`, and no --out."""

    # 400 rows at 10% fraud leave a server test set of 72 + 8 = 80 rows; the
    # panel deals them class by class, so more than 72 validators leaves
    # some shard empty
    PANEL = ("synthetic_n = 400\nsynthetic_minority_fraction = 0.1\nrounds = 1\n"
             "num_orgs = 3\nclients_per_round = 2\nepochs = 1\n")

    def run_main(self, tmp_path, text, *flags):
        conf = tmp_path / "exp.conf"
        conf.write_text(text)
        out = tmp_path / "res"
        code = main(["run", "--config", str(conf), "--out", str(out), *flags])
        return code, out

    @pytest.mark.parametrize("count", [81, 73])
    def test_too_many_validators_refused(self, tmp_path, capsys, count):
        code, out = self.run_main(tmp_path, self.PANEL + f"validators = {count}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"validators = {count}" in err
        assert "80 rows" in err
        assert not out.exists()

    def test_largest_panel_with_full_shards_runs(self, tmp_path):
        code, out = self.run_main(tmp_path, self.PANEL + "validators = 71\n")
        assert code == 0
        assert (out / "summary.csv").exists()

    def test_refused_in_parallel_jobs_too(self, tmp_path, capsys):
        code, out = self.run_main(
            tmp_path, self.PANEL + "validators = 81\npolicies = random, contribution\n",
            "--parallel")
        assert code == 2
        assert "validators = 81" in capsys.readouterr().err
        assert not out.exists()

    def test_more_organizations_than_training_rows(self, tmp_path, capsys):
        # 18 + 2 rows: 14 + 1 of them train, too few for 30 organizations
        code, out = self.run_main(
            tmp_path, "synthetic_n = 20\nsynthetic_minority_fraction = 0.1\n")
        assert code == 2
        assert "15 training rows to 30 organizations" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_with_wrong_header(self, tmp_path, capsys):
        csv = tmp_path / "two.csv"
        csv.write_text("a,b\n1.0,0\n2.0,1\n")
        code, out = self.run_main(tmp_path, f"data = csv\ncsv_path = {csv}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "header mismatch" in err and "two.csv" in err
        assert not out.exists()


class TestAbortedRun:
    # one full-batch step per epoch leaves the updates near the accuracy
    # floor, which each validator's shard then splits differently: three
    # distinct aggregates, so round 0 fails consensus on both attempts
    @pytest.mark.parametrize("policies, flags", [
        ("random", ()),
        ("random, contribution", ("--parallel",)),
    ])
    def test_exits_1_without_output(self, tmp_path, capsys, policies, flags):
        conf = tmp_path / "exp.conf"
        conf.write_text(f"rounds = 3\npolicies = {policies}\n")
        out = tmp_path / "res"
        argv = ["run", "--config", str(conf), "--out", str(out),
                "--epochs", "5", "--batch", "10000000", *flags]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: round 0: consensus failed twice: ")
        assert err.count("\n") == 1
        assert not out.exists()
