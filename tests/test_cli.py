import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedledger import cli, worker
from fedledger.cli import (
    ConfigError,
    ExperimentSpec,
    build_federation_config,
    cmd_generate,
    cmd_run,
    cmd_validate,
    config_hash,
    execute_job,
    load_experiment_data,
    main,
    parse_config_file,
    resolve_spec,
    synthesize_raw,
    synthetic_dataset,
)
from fedledger.data import (CREDIT_CARD_COLUMNS, Count, Dataset, PartitionPlan, SmoteConfig,
                            _field_types, load_csv, split)
from fedledger.federation import FederationConfig, RunSettings, init_round0
from fedledger.ledger import ValidatorPanel, export_chain, import_chain, serialize_params
from fedledger.model import TrainConfig, evaluate, init_params, local_train
from fedledger.seeds import derive_seed
from fedledger.selection import SelectionPolicy
from fedledger.valuation import EXACT_MAX_PLAYERS

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden_rounds_toy.csv"
GOLDEN_SUMMARY = TESTS / "golden_summary_toy.csv"

# The pins below are bytes of dgemm results, which differ between OpenBLAS
# kernels, so each maps a kernel name (conftest.blas_kernel) to its value, and
# tests/record_pins.py records them for a kernel that has none.
# The golden chains of the contribution and shipped-scale runs:
GOLDEN_CHAIN = {"SkylakeX": TESTS / "golden_chain_contribution_toy.jsonl",
                "Haswell": TESTS / "golden_chain_contribution_toy.Haswell.jsonl"}
GOLDEN_TMC_CHAIN = {"SkylakeX": TESTS / "golden_chain_tmc_default.jsonl",
                    "Haswell": TESTS / "golden_chain_tmc_default.Haswell.jsonl"}

# The SHA-256 of each benchmark workload's exported chain at seed 1. The
# workloads themselves are benchmarks/run.py's WORKLOADS, read from that file.
BENCHMARK_CHAINS = {
    "default-tmc": {
        "SkylakeX": "66cd45e3511447d6be2a9fc720df85d7ebb76f0ad9e1ab507280ed351426160c",
        "Haswell": "f9a680a14d82fa390856e42c8a89cd5fa7748b0008ef2d089cbc54d89c72f59c",
    },
    "exact-shapley": {
        "SkylakeX": "54e935538de9933b03c1edab67ff22c101781b92a23ea6c525c0af71c7c8cc56",
        "Haswell": "9370295590e7951a1d8c80475bcb0e94fc82b9fa1b90fa886cad32727cce4d05",
    },
    "greedy-pool": {
        "SkylakeX": "efa2d8226a98a41a6a7e0bf50d0d43a53a5b04f43ce4145fb3c21b0170dd4624",
        "Haswell": "905e1043655426ec859e7bd2780b30e7fa8e323f5ca4e119f0ec0f068e409a2a",
    },
    "large-shards": {
        "SkylakeX": "ff00fae2072aa75bfc665d8feef42dbf578a6fa81729cf5e2ad154e3ca442e62",
        "Haswell": "fa6924e8895a789d61d2da48ee9b9b833e6cb197c729eddf53edc206d1b99fac",
    },
}

# SHA-256 of everything init_round0 builds for large-shards at seed 1, the only
# workload whose set-up runs SMOTE (see test_large_shards_setup_pinned)
LARGE_SHARDS_SETUP = "7f2628ccc46bfe4c99258dec9fe82aaf0aa8e2543a44c2cb05058e41831d76fd"

BOM = "\ufeff".encode()

# the toy experiment of the golden rounds and summary files, read as a config file is
TOY = resolve_spec(config=parse_config_file(TESTS / "toy.conf"), env={})


def contribution_chain(out: Path) -> bytes:
    """The exported chain of a toy contribution run. Rounds 0 and 2 explore, so its
    transactions pin how the run derives the exploration seed from the master seed."""
    cmd_run(ExperimentSpec(**{**TOY.__dict__, "out": str(out), "num_orgs": 6, "rounds": 4,
                              "exploration_period": 2, "policies": ("contribution",)}))
    return (out / "chain_contribution_e2_b16.jsonl").read_bytes()


def tmc_chain(out: Path) -> bytes:
    """The exported chain of 6 rounds at the shipped defaults: 30 orgs, k = 10, TMC
    over 10 players a round, and rounds 1-4 rank by the TMC values before them."""
    cmd_run(ExperimentSpec(rounds=6, out=str(out)))
    return (out / "chain_contribution_e10_b32.jsonl").read_bytes()


def load_benchmark():
    """benchmarks/run.py as a module, imported without running its main."""
    spec = importlib.util.spec_from_file_location("benchmark_run",
                                                  TESTS.parent / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their class's module up by name
    spec.loader.exec_module(module)
    return module


BENCHMARK = load_benchmark()


def workload_chain_digest(name: str) -> str:
    """The SHA-256 of a benchmark workload's exported chain at seed 1."""
    spec = BENCHMARK.workload_spec(cli, name, 1)
    job = execute_job((spec, spec.policies[0], spec.epochs, spec.batch_size))
    return hashlib.sha256(job["chain_jsonl"].encode("utf-8")).hexdigest()


class TestGenerate:
    def test_minority_count(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=1000, synthetic_minority_fraction=0.02,
                              seed=3)
        path = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "data.csv")))
        ds = load_csv(path)
        assert len(ds) == 1000
        assert int(ds.labels.sum()) == 20

    def test_same_seed_identical_files(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=200, seed=8)
        a = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "a.csv")))
        b = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "b.csv")))
        assert a.read_bytes() == b.read_bytes()

    def test_large_separation_trains_accurately(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=1200, synthetic_minority_fraction=0.05,
                              synthetic_separation=6.0, seed=4)
        path = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "sep.csv")))
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

    def test_out_without_suffix_is_a_directory(self, tmp_path):
        # the default out = results names a directory: the file goes inside it
        spec = ExperimentSpec(synthetic_n=200, seed=8)
        path = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "gen")))
        assert path == tmp_path / "gen" / "synthetic.csv"
        named = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "named.csv")))
        assert path.read_bytes() == named.read_bytes()


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

    def test_config_hash_covers_csv_contents(self, tmp_path):
        # two files at one path are two experiments: the hash reads the bytes
        path = cmd_generate(ExperimentSpec(synthetic_n=200, seed=3,
                                           out=str(tmp_path / "data.csv")))
        spec = resolve_spec(env={}, overrides={"data": "csv", "csv_path": str(path)})
        before = config_hash(spec)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[0] = repr(float(cells[0]) + 1.0)
        lines[1] = ",".join(cells)
        path.write_text("".join(lines))
        assert config_hash(spec) != before


# a valid value other than the default for every run key the spec shares
# with FederationConfig
RUN_KEY_VALUES = {
    "num_orgs": 12,
    "rounds": 7,
    "valuation": "exact",
    "tmc_truncation_tol": 0.5,
    "tmc_max_permutations": 3,
    "tmc_convergence_tol": 0.25,
    "accuracy_target": 0.75,
    "validators": 5,
    "accuracy_floor": 0.25,
    "hidden_dims": (8, 4),
    "partition_mode": "label-skew",
    "partition_skew": 0.5,
    "threshold": 0.25,
    "label_noise_orgs": 2,
    "label_noise": 0.5,
}


class TestRunSettings:
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunSettings)])
    def test_spec_value_reaches_federation_config(self, key):
        value = RUN_KEY_VALUES[key]
        assert value != getattr(ExperimentSpec(), key)
        spec = dataclasses.replace(ExperimentSpec(), **{key: value})
        cfg = build_federation_config(spec, "random", spec.epochs, spec.batch_size)
        assert getattr(cfg, key) == value

    def test_nested_defaults_are_the_owning_classes(self):
        spec = ExperimentSpec()
        cfg = build_federation_config(spec, "random", spec.epochs, spec.batch_size)
        assert spec.epochs == 10 != TrainConfig().epochs  # the one default of its own
        assert cfg.train == TrainConfig(epochs=spec.epochs)
        assert cfg.smote == SmoteConfig()
        assert cfg.policy == SelectionPolicy("random", k=spec.clients_per_round)

    def test_library_defaults_are_the_cli_defaults(self):
        cfg = FederationConfig(policy=SelectionPolicy("random", k=2), train=TrainConfig())
        spec = ExperimentSpec()
        for f in dataclasses.fields(RunSettings):
            assert getattr(cfg, f.name) == getattr(spec, f.name), f.name


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
        ("synthetic_features = 0", "synthetic_features"),
        ("synthetic_features = -1", "synthetic_features"),
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
        ("policies =", "policies"),
        ("policies = random, random", "policies"),
        ("epochs_sweep = 2, 3, 2", "epochs_sweep"),
        ("batch_sweep = 8, 8", "batch_sweep"),
        ("smote = off\nsmote_k = 0", "smote_k"),
        ("smote = off\nsmote_target_ratio = 1.5", "smote_target_ratio"),
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

    @pytest.mark.parametrize("mark", [b"", BOM])
    def test_non_utf8_config_refused(self, tmp_path, capsys, mark):
        # the offset counts from the start of the file, byte-order mark included
        conf = tmp_path / "latin1.conf"
        conf.write_bytes(mark + "rounds = 1\n# caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "res"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {conf}: not UTF-8 text (invalid continuation byte at byte "
            f"{16 + len(mark)})\n")
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

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integral_smote_k_refused(self, k):
        with pytest.raises(ConfigError, match="smote_k / smote_target_ratio: k must be an integer"):
            resolve_spec(env={}, overrides={"smote_k": k})

    @pytest.mark.parametrize("key, value, message", [
        ("smote_k", 0, "k must be at least 1, got 0"),
        ("smote_k", 2.5, "k must be an integer"),
        ("smote_target_ratio", 0.0, "target_ratio must lie in"),
    ])
    def test_unused_smote_keys_checked(self, key, value, message):
        # config_hash digests them with smote off too, so a bad value would
        # give a run a hash of its own
        with pytest.raises(ConfigError, match=f"smote_k / smote_target_ratio: {message}"):
            resolve_spec(env={}, overrides={"smote": False, key: value})

    @pytest.mark.parametrize("text, message", [
        ("num_orgs = 0", "num_orgs must be at least 1, got 0"),
        ("accuracy_target = 1", "accuracy_target must lie in [0, 1)"),
        ("label_noise_orgs = 31", "label_noise_orgs must lie in [0, num_orgs]"),
        ("hidden_dims = 0", "hidden_dims entry must be at least 1, got 0"),
        ("clients_per_round = 31", "clients per round (policy.k) cannot exceed num_orgs"),
        ("partition_skew = 1.5", "partition_mode / partition_skew: skew must lie in [0, 1]"),
        ("learning_rate = 0", "learning_rate must be positive"),
        ("batch_size = 0", "batch_size must be at least 1, got 0"),
        ("exploration_period = 0", "exploration_period must be at least 1, got 0"),
        ("label_noise = 1.5", "label_noise must lie in [0, 1]"),
        ("weight_decay = -1", "weight_decay must be non-negative"),
        ("synthetic_n = 10", "bad value for synthetic_n / synthetic_minority_fraction: "
                             "both classes need at least 2 examples"),
        ("rounds 3", "{conf}: line 1: expected key = value"),
    ])
    def test_run_prints_the_refusal(self, tmp_path, capsys, text, message):
        # refusals no other test reaches, each through `fedledger run`
        conf = tmp_path / "bad.conf"
        conf.write_text(text + "\n")
        out = tmp_path / "res"
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(conf=conf)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("num_orgs", 3.0), ("rounds", 2.5), ("rounds", True), ("validators", 3.0),
        ("tmc_max_permutations", 5.5), ("label_noise_orgs", 0.0), ("synthetic_n", 300.0),
        ("synthetic_features", "8"), ("clients_per_round", 2.0), ("epochs", 2.0),
        ("batch_size", False), ("exploration_period", 2.5), ("seed", 5.0),
        ("hidden_dims", (4.7,)), ("hidden_dims", (4, True)), ("epochs_sweep", (2, 3.0)),
        ("batch_sweep", (np.float64(8),)),
    ])
    def test_non_integer_settings_refused(self, key, value):
        # a float or bool int setting would run as something else, under a hash of
        # its own, or die mid-run
        with pytest.raises(ConfigError, match=f"^{key}( entry)? must be an integer, got "):
            resolve_spec(env={}, overrides={key: value})

    def test_numpy_integer_settings_accepted(self):
        plain = {"num_orgs": 3, "rounds": 2, "hidden_dims": (4, 2), "clients_per_round": 2,
                 "seed": 5, "epochs_sweep": (1, 2)}
        spec = resolve_spec(env={}, overrides={
            key: tuple(map(np.int64, value)) if isinstance(value, tuple) else np.int32(value)
            for key, value in plain.items()})
        assert spec == resolve_spec(env={}, overrides=plain)

    @pytest.mark.parametrize("key, value, plain", [
        ("num_orgs", np.int64(30), 30),
        ("hidden_dims", (np.int32(16), np.uint8(4)), (16, 4)),
    ])
    def test_numpy_integer_settings_hash_as_python_ints(self, key, value, plain):
        # a numpy integer is stored as its Python int, which json serializes
        spec = resolve_spec(env={}, overrides={key: value})
        stored = getattr(spec, key)
        assert all(type(v) is int for v in (stored if isinstance(stored, tuple) else (stored,)))
        assert config_hash(spec) == config_hash(resolve_spec(env={}, overrides={key: plain}))

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", np.float32(0.01)), ("tmc_truncation_tol", np.float16(0.5)),
        ("accuracy_target", np.float64(0.9)), ("smote_target_ratio", np.float32(0.25)),
        ("learning_rate", 1), ("learning_rate", np.int64(1)), ("accuracy_target", 0),
        ("partition_skew", np.uint8(1)),
    ])
    def test_real_float_settings_stored_as_python_floats(self, key, value):
        # a numpy float used to reach config_hash, which json cannot serialize,
        # and an int ran the job of its float under a hash of its own
        spec = resolve_spec(env={}, overrides={key: value})
        assert type(getattr(spec, key)) is float
        plain = resolve_spec(env={}, overrides={key: float(value)})
        assert getattr(spec, key) == getattr(plain, key)
        assert config_hash(spec) == config_hash(plain)

    @pytest.mark.parametrize("key, value", [
        ("partition_skew", True), ("learning_rate", True), ("accuracy_target", False),
        ("weight_decay", "0.001"), ("tmc_convergence_tol", 1j), ("label_noise", [0.0]),
        ("synthetic_separation", np.bool_(True)),
    ])
    def test_non_real_float_settings_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be a real number, got "):
            resolve_spec(env={}, overrides={key: value})

    @pytest.mark.parametrize("value", [math.nan, "off", 0])
    def test_non_bool_smote_refused(self, value):
        # each would run SMOTE, or not, by its truthiness, under a hash of its own
        with pytest.raises(ConfigError, match="^smote must be a bool, got "):
            resolve_spec(env={}, overrides={"smote": value})

    def test_numpy_bool_smote_stored_as_bool(self):
        spec = resolve_spec(env={}, overrides={"smote": np.bool_(False)})
        assert spec.smote is False
        assert config_hash(spec) == config_hash(resolve_spec(env={}, overrides={"smote": False}))

    @pytest.mark.parametrize("key, value", [
        ("tmc_truncation_tol", np.float32("nan")), ("tmc_convergence_tol", np.float16("inf")),
        ("learning_rate", np.float32("-inf")), ("accuracy_target", np.float32("nan")),
    ])
    def test_non_finite_numpy_float_settings_refused(self, key, value):
        # a numpy NaN tolerance used to pass every check and stop the run mid-way
        with pytest.raises(ConfigError, match=f"^{key} must be finite, got "):
            resolve_spec(env={}, overrides={key: value})


def config(cls, **settings):
    """An instance of config class `cls` at its defaults and `settings`."""
    required = {
        FederationConfig: {"policy": SelectionPolicy("random", k=10), "train": TrainConfig()},
        PartitionPlan: {"num_orgs": 3},
        SelectionPolicy: {"kind": "random", "k": 2},
        ValidatorPanel: {"test_shards": {0: Dataset(np.zeros((1, 1)), np.zeros(1))}},
    }
    return cls(**{**required.get(cls, {}), **settings})


CONFIG_CLASSES = [FederationConfig, ExperimentSpec, TrainConfig, SmoteConfig, PartitionPlan,
                  SelectionPolicy, ValidatorPanel]


class TestCheckFields:
    """data.check_fields, the one type rule of every config class."""

    @pytest.mark.parametrize("cls, key", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
        if _field_types(cls)[f.name] in (int, Count, float, float | None)])
    def test_typed_fields(self, cls, key):
        hint = _field_types(cls)[key]
        kind = int if hint in (int, Count) else float
        default = getattr(config(cls), key)
        if kind is int:
            refused = {"must be an integer": (True, 2.5)}
            if hint is Count:
                refused["must be at least 1"] = (0, -1)
            stored = (np.int64(default), Count(default))
        else:
            refused = {"must be (a real number|finite)": (True, "0.1", math.nan)}
            stored = (np.float32(0.5 if default is None else default),)
        for message, values in refused.items():
            for value in values:
                # a smote key is named as the spec names it, with SmoteConfig's own
                with pytest.raises(ValueError, match=f"{key}.* {message}, got "):
                    config(cls, **{key: value})
        for value in stored:
            got = getattr(config(cls, **{key: value}), key)
            assert type(got) is kind and got == value

    @pytest.mark.parametrize("cls, key", [
        pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
        for cls in CONFIG_CLASSES for f in dataclasses.fields(cls)
        if _field_types(cls)[f.name] == tuple[Count, ...]])
    def test_count_entries(self, cls, key):
        with pytest.raises(ValueError, match=f"^{key} entry must be at least 1, got 0$"):
            config(cls, **{key: (2, 0)})


class TestSeedRange:
    """A seed must fit derive_seed's 16 signed bytes: [-2**127, 2**127 - 1]."""

    @pytest.mark.parametrize("seed", [2**127 - 1, -(2**127)])
    def test_range_ends_accepted(self, seed):
        assert resolve_spec(env={}, overrides={"seed": seed}).seed == seed
        derive_seed(seed, "synthetic")

    @pytest.mark.parametrize("seed", [2**127, -(2**127) - 1])
    def test_outside_refused(self, seed):
        with pytest.raises(ConfigError, match="^seed must lie in"):
            resolve_spec(env={}, overrides={"seed": seed})
        with pytest.raises(ValueError, match="^master_seed must lie in"):
            FederationConfig(policy=SelectionPolicy("random", k=2), train=TrainConfig(),
                             master_seed=seed)

    @staticmethod
    def refused(argv, seed, out, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must lie in [-2**127, 2**127 - 1], got {seed}\n"
        assert captured.out == "" and not out.exists()

    def test_run_flag(self, tmp_path, capsys):
        out = tmp_path / "res"
        self.refused(["run", "--seed", str(10**42), "--out", str(out)], 10**42, out, capsys)

    def test_generate_config(self, tmp_path, capsys):
        conf = tmp_path / "seed.conf"
        conf.write_text(f"seed = {2**127}\n")
        out = tmp_path / "gen.csv"
        self.refused(["generate", "--config", str(conf), "--out", str(out)], 2**127, out,
                     capsys)

    def test_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDLEDGER_SEED", str(-(2**127) - 1))
        out = tmp_path / "res"
        self.refused(["run", "--out", str(out)], -(2**127) - 1, out, capsys)

    @pytest.mark.parametrize("part", [b"train", 1.0, None])
    def test_derive_seed_takes_ints_and_strings_only(self, part):
        with pytest.raises(TypeError, match=f"^cannot derive seed from {type(part).__name__}$"):
            derive_seed(3, part)


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

    def test_golden_contribution_chain(self, tmp_path, kernel_pin):
        golden = kernel_pin(GOLDEN_CHAIN)
        assert contribution_chain(tmp_path / "res") == golden.read_bytes()

    def test_golden_tmc_chain_at_shipped_scale(self, tmp_path, kernel_pin):
        golden = kernel_pin(GOLDEN_TMC_CHAIN)
        assert tmc_chain(tmp_path / "res") == golden.read_bytes()

    def test_benchmark_workload_chains_pinned(self, kernel_pin, monkeypatch):
        # large-shards is the only byte-compare of a run with SMOTE and with
        # lock-step SGD groups that keep their shape for many steps. Where
        # this process may use its worker, large-shards trains and scores
        # through it and exact-shapley values its tables through it, so that
        # a run on one CPU and one on two compare both paths with the pins
        expected = {name: kernel_pin(pins) for name, pins in BENCHMARK_CHAINS.items()}
        tasks = {}
        real_split = worker.split

        def spied(task, *args):
            tasks.setdefault(name, set()).add(task)  # name: the workload running
            return real_split(task, *args)

        monkeypatch.setattr(worker, "split", spied)
        digests = {}
        for name in BENCHMARK.WORKLOADS:
            digests[name] = workload_chain_digest(name)
        assert digests == expected
        assert tasks == ({"exact-shapley": {"table"}, "large-shards": {"train", "score"}}
                         if worker.available() else {})

    def test_large_shards_setup_pinned(self):
        # 50,000 rows standardized, 30 shards rebalanced by SMOTE from 26-27
        # minority rows each: every array of the set-up, byte for byte
        spec = BENCHMARK.workload_spec(cli, "large-shards", 1)
        cfg = build_federation_config(spec, spec.policies[0], spec.epochs, spec.batch_size)
        state = init_round0(cfg, load_experiment_data(spec))
        digest = hashlib.sha256()
        for ds in [*state.shards, *state.raw_shards, state.server_test,
                   *state.panel.test_shards.values()]:
            digest.update(ds.features.tobytes())
            digest.update(ds.labels.tobytes())
        digest.update(serialize_params(state.global_params))
        digest.update(np.float64(state.global_loss).tobytes())
        assert digest.hexdigest() == LARGE_SHARDS_SETUP

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

    def test_csv_hashed_once_per_run(self, tmp_path, monkeypatch):
        # config_hash reads the whole file: one read heads every job's rounds
        # CSV and the summary, and the headers are those config_hash gives
        path = cmd_generate(ExperimentSpec(synthetic_n=300, synthetic_minority_fraction=0.1,
                                           seed=3, out=str(tmp_path / "data.csv")))
        spec = ExperimentSpec(**{**TOY.__dict__, "data": "csv", "csv_path": str(path),
                                 "out": str(tmp_path / "res"), "rounds": 1,
                                 "policies": ("random", "contribution")})
        header = f"# config_hash={config_hash(spec)}"
        reads = []
        read_bytes = Path.read_bytes

        def spy(self):
            reads.append(self)
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", spy)
        written = cmd_run(spec)
        assert reads == [path]
        csvs = [p for p in written if p.suffix == ".csv"]
        assert len(csvs) == 3
        for csv in csvs:
            assert csv.read_text().partition("\n")[0] == header

    @pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, 3)])
    def test_parallel_pool_sized_by_jobs_and_usable_cpus(self, tmp_path, monkeypatch,
                                                          cpus, workers):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(worker, "_usable_cpus", lambda: cpus)
        spec = ExperimentSpec(**{**TOY.__dict__, "out": str(tmp_path / "res"), "rounds": 1,
                                 "policies": ("random", "contribution", "greedy")})
        cmd_run(spec, parallel=True)
        assert sizes == [workers]


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

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
    def test_empty_or_blank_file_rejected(self, tmp_path, capsys, text):
        # every export starts with a genesis block, so no blocks is no chain
        path = tmp_path / "empty.jsonl"
        path.write_text(text)
        assert cmd_validate(path) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: no blocks\n"
        assert captured.out == ""

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("definitely not json\n")
        assert cmd_validate(path) == 2

    def test_missing_file(self, tmp_path):
        assert cmd_validate(tmp_path / "nope.jsonl") == 2

    @pytest.mark.parametrize("field", ["votes", "contributions"])
    def test_array_for_a_mapping_rejected(self, tmp_path, capsys, field):
        record = {"height": 0, "prev_hash": "00", "txs": [], "global_model_digest": "00",
                  "votes": {}, "contributions": {}, "block_hash": "00", field: [["0", "00"]]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 1: not a valid block record: ")
        assert captured.out == ""

    @pytest.fixture(scope="class")
    def two_round_export(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("two_rounds")
        cmd_run(ExperimentSpec(**{**TOY.__dict__, "out": str(out), "rounds": 2}))
        return (out / "chain_random_e2_b16.jsonl").read_text()

    @pytest.mark.parametrize("edit", [
        lambda r: r.update(height=1.9),
        lambda r: r.update(height=True),
        lambda r: r.update(height="1"),
        lambda r: r["txs"][0].update(org_id=r["txs"][0]["org_id"] + 0.5),
        lambda r: r["txs"][0].update(payload_bytes=str(r["txs"][0]["payload_bytes"])),
        lambda r: r["contributions"].update(
            {org: repr(value) for org, value in list(r["contributions"].items())[:1]}),
        lambda r: r.update(prev_hash=" ".join(
            r["prev_hash"][i : i + 2] for i in range(0, len(r["prev_hash"]), 2))),
        lambda r: r["votes"].update({" 0": r["votes"].pop("0")}),
        lambda r: r.update(note="extra"),
    ], ids=["height-1.9", "height-true", "height-string", "org-id-plus-half",
            "payload-bytes-string", "contribution-string", "prev-hash-spaced",
            "vote-key-spaced", "extra-key"])
    def test_non_canonical_record_refused(self, tmp_path, capsys, two_round_export, edit):
        # each edit used to be coerced back to block 1 and validate
        lines = two_round_export.splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: not the canonical record of its block\n"
        assert captured.out == ""

    def test_whitespace_and_key_order_free(self, tmp_path, capsys, two_round_export):
        lines = [json.dumps(dict(reversed(json.loads(line).items())), indent=None,
                            separators=(" , ", " : "))
                 for line in two_round_export.splitlines()]
        path = tmp_path / "spaced.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "valid chain of 3 block(s)\n"

    @pytest.mark.parametrize("chain", [
        pytest.param(path, id=name if kernel == "SkylakeX" else f"{name}-{kernel}")
        for name, pins in (("contribution-toy", GOLDEN_CHAIN), ("tmc-default", GOLDEN_TMC_CHAIN))
        for kernel, path in pins.items()])
    def test_golden_chains_canonical(self, chain):
        text = chain.read_text()
        assert export_chain(import_chain(text)) == text
        assert main(["validate", str(chain)]) == 0

    def test_non_utf8_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: not UTF-8 text (invalid start byte at byte 0)\n"
        assert captured.out == ""


class TestMainEntry:
    def test_module_entry_point(self):
        # `python -m fedledger.cli` runs cli.entrypoint, the console script's target
        src = Path(cli.__file__).parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src),
                                                           os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "fedledger.cli", "validate",
             str(TESTS / "golden_chain_tmc_default.jsonl")],
            capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (0, "valid chain of 7 block(s)\n")

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


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte-order mark reads as the file without it."""

    TOY_CONF = ("rounds = 2\nsynthetic_n = 300\nsynthetic_features = 8\n"
                "synthetic_minority_fraction = 0.1\nnum_orgs = 3\nclients_per_round = 2\n"
                "hidden_dims = 4\npolicies = random\naccuracy_floor = 0.0\nseed = 5\n")

    def run(self, tmp_path, name, conf_bytes):
        conf = tmp_path / f"{name}.conf"
        conf.write_bytes(conf_bytes)
        out = tmp_path / name
        assert main(["run", "--config", str(conf), "--out", str(out)]) == 0
        return {path.name: path.read_text() for path in out.iterdir()}

    def test_config(self, tmp_path):
        plain = self.run(tmp_path, "plain", self.TOY_CONF.encode())
        marked = self.run(tmp_path, "marked", BOM + self.TOY_CONF.encode())
        assert marked == plain

    def test_csv(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("synthetic_n = 300\nsynthetic_minority_fraction = 0.1\nseed = 3\n")
        plain_csv = tmp_path / "plain.csv"
        assert main(["generate", "--config", str(conf), "--out", str(plain_csv)]) == 0
        marked_csv = tmp_path / "marked.csv"
        marked_csv.write_bytes(BOM + plain_csv.read_bytes())
        outputs = [
            self.run(tmp_path, path.stem, f"data = csv\ncsv_path = {path}\n{self.TOY_CONF}"
                     .encode())
            for path in (plain_csv, marked_csv)]
        # csv_path and the file's bytes enter config_hash, the first line of each CSV output
        plain, marked = ({name: text.partition("\n")[2] if name.endswith(".csv") else text
                          for name, text in out.items()} for out in outputs)
        assert marked == plain

    def test_validate(self, tmp_path, capsys):
        chain = Path(__file__).parent / "golden_chain_tmc_default.jsonl"
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(BOM + chain.read_bytes())
        assert main(["validate", str(chain)]) == 0
        plain_out = capsys.readouterr().out
        assert main(["validate", str(marked)]) == 0
        assert capsys.readouterr().out == plain_out


class TestUnwritableOut:
    """An --out under a regular file cannot be created: exit 2, `error: …`."""

    def test_run(self, tmp_path, capsys):
        conf = tmp_path / "toy.conf"
        conf.write_text("synthetic_n = 300\nnum_orgs = 3\nclients_per_round = 2\n"
                        "rounds = 1\nepochs = 1\naccuracy_floor = 0.0\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", str(conf), "--out", str(blocker / "res")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(blocker) in captured.err
        assert captured.out == ""

    def test_generate(self, tmp_path, capsys):
        conf = tmp_path / "toy.conf"
        conf.write_text("synthetic_n = 120\n")
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["generate", "--config", str(conf), "--out", str(blocker / "x.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(blocker) in captured.err
        assert captured.out == "" and blocker.read_text() == ""


def oracle_synthesize_raw(n, width, minority_fraction, separation, seed):
    """The stacked synthesize_raw: both classes stacked, then gathered by the permutation."""
    n_minority = int(round(n * minority_fraction))
    n_majority = n - n_minority
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=width)
    direction /= np.linalg.norm(direction)
    majority = rng.normal(size=(n_majority, width))
    minority = rng.normal(size=(n_minority, width)) + separation * direction
    features = np.vstack([majority, minority])
    labels = np.concatenate(
        [np.zeros(n_majority, dtype=np.int64), np.ones(n_minority, dtype=np.int64)]
    )
    order = rng.permutation(n)
    return features[order], labels[order]


class TestSyntheticDataset:
    @pytest.mark.parametrize("n, width, fraction, separation, seed", [
        (4, 1, 0.49, 0.0, 0),
        (40, 3, 0.05, 2.0, 1),
        (300, 8, 0.1, 3.0, 5),
        (1001, 30, 0.02, 2.0, derive_seed(1, "synthetic")),
        (2000, 30, 0.3, -1.5, 2**62),
        (50000, 30, 0.02, 2.0, derive_seed(8, "synthetic")),
    ])
    def test_raw_rows_match_the_stacked_gather(self, n, width, fraction, separation, seed):
        features, labels = synthesize_raw(n, width, fraction, separation, seed)
        want_features, want_labels = oracle_synthesize_raw(n, width, fraction, separation, seed)
        assert features.tobytes() == want_features.tobytes()
        assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()

    def test_standardized_and_labeled(self):
        ds = synthetic_dataset(ExperimentSpec(synthetic_n=500, seed=1))
        assert ds.schema_width == 30
        np.testing.assert_allclose(ds.features.mean(axis=0), 0.0, atol=1e-10)
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_in_memory_matches_csv_roundtrip(self, tmp_path):
        spec = ExperimentSpec(synthetic_n=150, synthetic_minority_fraction=0.1,
                              seed=12)
        in_memory = synthetic_dataset(spec)
        path = cmd_generate(dataclasses.replace(spec, out=str(tmp_path / "x.csv")))
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

    def test_label_skew_leaving_an_organization_no_rows(self, tmp_path, capsys):
        # 32 training rows, 14 of them fraud, all concentrated in the first 10
        # shards: the other 18 rows reach only 18 of the 30 organizations
        code, out = self.run_main(
            tmp_path, "synthetic_n = 40\nsynthetic_minority_fraction = 0.45\n"
            "partition_mode = label-skew\npartition_skew = 1.0\npolicies = random\n"
            "smote = off\nrounds = 3\n")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: label-skew partition of 32 training rows leaves organization 18 "
            "no rows\n")
        assert not out.exists()

    def test_csv_not_utf8(self, tmp_path, capsys):
        csv = tmp_path / "latin1.csv"
        header = ",".join(CREDIT_CARD_COLUMNS) + "\n"
        csv.write_bytes(header.encode() + b"\xe9" + b",0" * 30 + b"\n")
        code, out = self.run_main(tmp_path, f"data = csv\ncsv_path = {csv}\n")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: not UTF-8 text (invalid continuation byte at byte "
            f"{len(header)})\n")
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

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    def test_csv_with_non_finite_cell(self, tmp_path, capsys, cell):
        csv = tmp_path / "bad.csv"
        row = ["0.0"] * 30 + ["0"]
        row[3] = cell
        csv.write_text(",".join(CREDIT_CARD_COLUMNS) + "\n" + ",".join(row) + "\n")
        code, out = self.run_main(tmp_path, f"data = csv\ncsv_path = {csv}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv}: row 2, column V3: not a finite number: {cell!r}\n"
        assert not out.exists()


    @pytest.mark.parametrize("cells", [["1e308", "1e308"], ["1e200", "-1e200", "0"]])
    def test_csv_column_too_large_to_standardize(self, tmp_path, capsys, cells):
        csv = tmp_path / "huge.csv"
        rows = [["0.0"] * 30 + [str(i % 2)] for i in range(len(cells))]
        for row, cell in zip(rows, cells):
            row[2] = cell
        csv.write_text("\n".join(",".join(r) for r in [CREDIT_CARD_COLUMNS, *rows]) + "\n")
        code, out = self.run_main(tmp_path, f"data = csv\ncsv_path = {csv}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv}: column V2: values too large to standardize\n"
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
