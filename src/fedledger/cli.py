"""Command-line front end.

Three subcommands: `generate` writes a synthetic credit-card-schema CSV,
`run` executes federated training runs (one per policy x sweep point) and
emits per-round metric CSVs plus a comparison summary, `validate` rechecks
an exported ledger. Configuration comes from a key=value file, overridden
by FEDLEDGER_* environment variables, overridden by flags; every run
output records the hash of its fully-resolved configuration, so runs are
reproducible from config + seed alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ledger as ledgermod
from .data import CREDIT_CARD_COLUMNS, Dataset, DataError, SmoteConfig, load_csv, standardize
from .federation import FederationAborted, FederationConfig, RunResult, run
from .model import TrainConfig
from .seeds import derive_seed
from .selection import SelectionPolicy

ENV_PREFIX = "FEDLEDGER_"

ROUND_CSV_HEADER = "round,accuracy,loss,f1,precision,bytes_on_chain,bytes_off_chain"
SUMMARY_CSV_HEADER = (
    "policy,epochs,batch_size,final_accuracy,final_loss,final_f1,final_precision,"
    "org_level_accuracy,rounds_to_threshold,bytes_on_chain_total,bytes_off_chain_total"
)


class ConfigError(ValueError):
    """Bad key or value in the experiment configuration."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully-resolved experiment configuration with one key per setting."""

    data: str = "synthetic"  # "synthetic" | "csv"
    csv_path: str = ""
    synthetic_n: int = 2000
    synthetic_features: int = 30
    synthetic_minority_fraction: float = 0.02
    synthetic_separation: float = 2.0
    num_orgs: int = 30
    clients_per_round: int = 10
    rounds: int = 100
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    weight_decay: float = 0.001
    hidden_dims: tuple[int, ...] = (16,)
    exploration_period: int = 5
    partition_mode: str = "iid"
    partition_skew: float = 0.8
    smote: bool = True
    smote_k: int = 5
    smote_target_ratio: float = 1.0
    label_noise_orgs: int = 0
    label_noise: float = 0.0
    valuation: str = "tmc"
    tmc_truncation_tol: float = 1e-4
    tmc_max_permutations: int = 200
    tmc_convergence_tol: float = 1e-3
    accuracy_target: float | None = None
    validators: int = 3
    accuracy_floor: float = 0.5
    threshold: float = 0.5
    seed: int = 0
    epochs_sweep: tuple[int, ...] = ()
    batch_sweep: tuple[int, ...] = ()
    policies: tuple[str, ...] = ("contribution",)
    out: str = "results"

    def __post_init__(self) -> None:
        """Refuse, before any job runs or writes, a value that a job would reject."""
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"bad value for {key!r}: {value!r} is not finite")
        if self.data not in ("synthetic", "csv"):
            raise ConfigError(f"bad value for 'data': {self.data!r} (synthetic or csv)")
        if self.data == "csv" and not Path(self.csv_path).is_file():
            raise ConfigError(f"bad value for 'csv_path': no file {self.csv_path!r}")
        _checked("synthetic_n / synthetic_minority_fraction", _class_sizes,
                 n=self.synthetic_n, minority_fraction=self.synthetic_minority_fraction)
        for job in _run_jobs(self):
            build_federation_config(*job)


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _parse(hint, v: str):
    """Read one text value as the spec field type `hint`."""
    if hint is bool:
        return _parse_bool(v)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...]: comma-separated
        item = typing.get_args(hint)[0]
        return tuple(_parse(item, p.strip()) for p in v.split(",") if p.strip())
    args = typing.get_args(hint)
    if type(None) in args:  # X | None: blank means unset
        return None if v.strip() == "" else _parse(args[0], v)
    return hint(v)


_FIELD_TYPES = typing.get_type_hints(ExperimentSpec)


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    raw: dict[str, str] = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {line_no}: expected key = value")
            key, value = stripped.split("=", 1)
            raw[key.strip()] = value.strip()
    return raw


def resolve_spec(
    config: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentSpec:
    """Defaults < config file < environment < overrides; text parsed by field type."""
    values: dict[str, object] = {}
    for key, raw in (config or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            values[key] = _parse(_FIELD_TYPES[key], raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    env = dict(os.environ) if env is None else env
    for key, hint in _FIELD_TYPES.items():
        env_key = ENV_PREFIX + key.upper()
        if env_key in env:
            try:
                values[key] = _parse(hint, env[env_key])
            except ValueError as exc:
                raise ConfigError(f"bad value for {env_key}: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    try:
        return ExperimentSpec(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _run_jobs(spec: ExperimentSpec) -> list[tuple[ExperimentSpec, str, int, int]]:
    """(spec, policy, epochs, batch_size) per run: policies x epoch and batch sweeps."""
    return [
        (spec, policy, epochs, batch)
        for policy in spec.policies
        for epochs in spec.epochs_sweep or (spec.epochs,)
        for batch in spec.batch_sweep or (spec.batch_size,)
    ]


def _checked(keys: str, make, **kwargs):
    """`make(**kwargs)`, naming the spec keys it was built from if a check fails."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad value for {keys}: {exc}") from exc


def config_hash(spec: ExperimentSpec) -> str:
    """Digest of every experiment-defining setting (output location excluded)."""
    payload = dataclasses.asdict(spec)
    del payload["out"]
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# synthetic data


def _class_sizes(n: int, minority_fraction: float) -> tuple[int, int]:
    """(majority, minority) example counts of an n-row synthetic dataset."""
    if not 0.0 < minority_fraction < 0.5:
        raise ValueError("minority_fraction must lie in (0, 0.5)")
    n_minority = int(round(n * minority_fraction))
    if n_minority < 2 or n - n_minority < 2:
        raise ValueError("both classes need at least 2 examples")
    return n - n_minority, n_minority


def synthesize_raw(
    n: int, width: int, minority_fraction: float, separation: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two Gaussian classes in the credit-card schema's raw feature space.

    The minority class mean is shifted by `separation` along a seeded random
    direction, so larger values give an easier classification problem.
    """
    n_majority, n_minority = _class_sizes(n, minority_fraction)
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


def synthetic_dataset(spec: ExperimentSpec) -> Dataset:
    features, labels = synthesize_raw(
        spec.synthetic_n,
        spec.synthetic_features,
        spec.synthetic_minority_fraction,
        spec.synthetic_separation,
        derive_seed(spec.seed, "synthetic"),
    )
    return Dataset(standardize(features), labels)


def write_schema_csv(path, features: np.ndarray, labels: np.ndarray) -> None:
    if features.shape[1] != len(CREDIT_CARD_COLUMNS) - 1:
        raise ValueError(
            f"schema CSV needs {len(CREDIT_CARD_COLUMNS) - 1} feature columns"
        )
    with open(path, "w") as fh:
        fh.write(",".join(CREDIT_CARD_COLUMNS) + "\n")
        for row, label in zip(features, labels):
            cells = [repr(float(v)) for v in row] + [str(int(label))]
            fh.write(",".join(cells) + "\n")


def load_experiment_data(spec: ExperimentSpec) -> Dataset:
    if spec.data == "csv":
        return load_csv(spec.csv_path)
    return synthetic_dataset(spec)


# ---------------------------------------------------------------------------
# runs


def build_federation_config(
    spec: ExperimentSpec, policy_kind: str, epochs: int, batch_size: int
) -> FederationConfig:
    policy = _checked(
        "policies / clients_per_round / exploration_period",
        SelectionPolicy,
        kind=policy_kind,
        k=spec.clients_per_round,
        exploration_period=spec.exploration_period,
    )
    train = TrainConfig(
        learning_rate=spec.learning_rate,
        epochs=epochs,
        batch_size=batch_size,
        weight_decay=spec.weight_decay,
    )
    smote_cfg = (
        _checked("smote_k / smote_target_ratio", SmoteConfig,
                 k=spec.smote_k, target_ratio=spec.smote_target_ratio)
        if spec.smote
        else None
    )
    return FederationConfig(
        policy=policy,
        train=train,
        num_orgs=spec.num_orgs,
        rounds=spec.rounds,
        smote=smote_cfg,
        valuation=spec.valuation,
        tmc_truncation_tol=spec.tmc_truncation_tol,
        tmc_max_permutations=spec.tmc_max_permutations,
        tmc_convergence_tol=spec.tmc_convergence_tol,
        accuracy_target=spec.accuracy_target,
        validators=spec.validators,
        accuracy_floor=spec.accuracy_floor,
        master_seed=spec.seed,
        hidden_dims=spec.hidden_dims,
        partition_mode=spec.partition_mode,
        partition_skew=spec.partition_skew,
        threshold=spec.threshold,
        label_noise_orgs=spec.label_noise_orgs,
        label_noise=spec.label_noise,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def render_round_csv(spec: ExperimentSpec, result: RunResult) -> str:
    lines = [f"# config_hash={config_hash(spec)}", ROUND_CSV_HEADER]
    for report in result.reports:
        m = report.global_metrics
        lines.append(
            f"{report.round_index},{_fmt(m.accuracy)},{_fmt(m.loss)},"
            f"{_fmt(m.f1)},{_fmt(m.precision)},"
            f"{report.bytes_on_chain},{report.bytes_off_chain}"
        )
    return "".join(line + "\n" for line in lines)


def summary_row(
    policy: str, epochs: int, batch_size: int, result: RunResult
) -> str:
    final = result.reports[-1]
    m = final.global_metrics
    org_accs = [metrics.accuracy for metrics in final.per_org_metrics.values()]
    org_level = sum(org_accs) / len(org_accs) if org_accs else 0.0
    return (
        f"{policy},{epochs},{batch_size},{_fmt(m.accuracy)},{_fmt(m.loss)},"
        f"{_fmt(m.f1)},{_fmt(m.precision)},{_fmt(org_level)},"
        f"{result.rounds_to_threshold},"
        f"{sum(r.bytes_on_chain for r in result.reports)},"
        f"{sum(r.bytes_off_chain for r in result.reports)}"
    )


def execute_job(args: tuple[ExperimentSpec, str, int, int]) -> dict[str, str]:
    """One (policy, epochs, batch) run; module-level so worker pools can pickle it.

    Loads its own copy of the data, so results are identical whether jobs
    run sequentially or in parallel processes.
    """
    spec, policy, epochs, batch_size = args
    dataset = load_experiment_data(spec)
    cfg = build_federation_config(spec, policy, epochs, batch_size)
    result, state = run(cfg, dataset)
    return {
        "tag": f"{policy}_e{epochs}_b{batch_size}",
        "rounds_csv": render_round_csv(spec, result),
        "summary_row": summary_row(policy, epochs, batch_size, result),
        "chain_jsonl": ledgermod.export_chain(state.chain),
    }


def cmd_run(spec: ExperimentSpec, parallel: bool = False) -> list[Path]:
    """Run every job, then write their outputs; a failed job leaves no --out."""
    jobs = _run_jobs(spec)
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor() as pool:
            outcomes = list(pool.map(execute_job, jobs))
    else:
        outcomes = [execute_job(job) for job in jobs]

    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary_lines = [f"# config_hash={config_hash(spec)}", SUMMARY_CSV_HEADER]
    for outcome in outcomes:
        rounds_path = out_dir / f"rounds_{outcome['tag']}.csv"
        rounds_path.write_text(outcome["rounds_csv"])
        written.append(rounds_path)
        chain_path = out_dir / f"chain_{outcome['tag']}.jsonl"
        chain_path.write_text(outcome["chain_jsonl"])
        written.append(chain_path)
        summary_lines.append(outcome["summary_row"])
    summary_path = out_dir / "summary.csv"
    summary_path.write_text("".join(line + "\n" for line in summary_lines))
    written.append(summary_path)
    return written


def cmd_generate(spec: ExperimentSpec, out_path=None) -> Path:
    path = Path(out_path) if out_path else Path(spec.out)
    if not path.suffix:  # directory given: use a default file name inside it
        path = path / "synthetic.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    features, labels = synthesize_raw(
        spec.synthetic_n,
        len(CREDIT_CARD_COLUMNS) - 1,  # emitted files always carry the full schema
        spec.synthetic_minority_fraction,
        spec.synthetic_separation,
        derive_seed(spec.seed, "synthetic"),
    )
    write_schema_csv(path, features, labels)
    return path


def cmd_validate(path) -> int:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        chain = ledgermod.import_chain(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    verdict = ledgermod.validate_chain(chain)
    if verdict:
        print(f"valid chain of {len(chain)} block(s)")
        return 0
    print(f"INVALID chain: first failure at height {verdict.first_failure_height}")
    return 1


# ---------------------------------------------------------------------------
# argument parsing


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    config = parse_config_file(args.config) if args.config else {}
    overrides: dict[str, object] = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out"] = args.out
    if getattr(args, "policy", None) is not None:
        overrides["policies"] = (args.policy,)
    if getattr(args, "epochs", None) is not None:
        overrides["epochs"] = args.epochs
        overrides["epochs_sweep"] = ()
    if getattr(args, "batch", None) is not None:
        overrides["batch_size"] = args.batch
        overrides["batch_sweep"] = ()
    return resolve_spec(config=config, overrides=overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedledger",
        description="Deterministic federated-training simulator with a "
        "content-addressed ledger and Shapley contribution accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--seed", type=int, help="master seed override")
    common.add_argument("--out", help="output directory (or file for generate)")

    gen = sub.add_parser("generate", parents=[common],
                         help="write a synthetic credit-card-schema CSV")

    runp = sub.add_parser("run", parents=[common],
                          help="execute the configured experiment runs")
    runp.add_argument("--policy", choices=("random", "greedy", "contribution"),
                      help="run a single selection policy")
    runp.add_argument("--epochs", type=int, help="local epochs override")
    runp.add_argument("--batch", type=int, help="batch size override")
    runp.add_argument("--parallel", action="store_true",
                      help="run sweep points in parallel worker processes")

    val = sub.add_parser("validate", help="recheck an exported chain file")
    val.add_argument("chain", help="path to a chain .jsonl export")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.chain)
    try:
        spec = _spec_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "generate":
        path = cmd_generate(spec, out_path=args.out)
        print(f"wrote {path}")
        return 0
    try:
        written = cmd_run(spec, parallel=args.parallel)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FederationAborted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
