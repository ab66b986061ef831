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
import functools
import hashlib
import json
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ledger as ledgermod
from . import worker
from .data import (CREDIT_CARD_COLUMNS, Count, Dataset, DataError, SmoteConfig, _field_types,
                   load_csv, read_utf8, standardize)
from .federation import FederationAborted, FederationConfig, RunResult, RunSettings, run
from .model import TrainConfig
from .seeds import check_seed, derive_seed
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
class ExperimentSpec(RunSettings):
    """Fully-resolved experiment configuration: the `RunSettings` keys and its own."""

    data: str = "synthetic"  # "synthetic" | "csv"
    csv_path: str = ""
    synthetic_n: int = 2000
    synthetic_features: Count = 30
    synthetic_minority_fraction: float = 0.02
    synthetic_separation: float = 2.0
    clients_per_round: Count = 10
    learning_rate: float = TrainConfig.learning_rate
    # deliberately not TrainConfig's 1 (one pass): a run trains 10 local epochs a round
    epochs: Count = 10
    batch_size: Count = TrainConfig.batch_size
    weight_decay: float = TrainConfig.weight_decay
    exploration_period: Count = SelectionPolicy.exploration_period
    smote: bool = True
    smote_k: Count = SmoteConfig.k
    smote_target_ratio: float = SmoteConfig.target_ratio
    seed: int = 0
    epochs_sweep: tuple[Count, ...] = ()
    batch_sweep: tuple[Count, ...] = ()
    policies: tuple[str, ...] = ("contribution",)
    out: str = "results"

    def __post_init__(self) -> None:
        """Refuse, before any job runs or writes, a value that a job would reject."""
        # checked by SmoteConfig with smote off too: config_hash digests the keys either way
        _checked("smote_k / smote_target_ratio", SmoteConfig,
                 k=self.smote_k, target_ratio=self.smote_target_ratio)
        super().__post_init__()
        if self.data not in ("synthetic", "csv"):
            raise ConfigError(f"bad value for 'data': {self.data!r} (synthetic or csv)")
        if self.data == "csv" and not Path(self.csv_path).is_file():
            raise ConfigError(f"bad value for 'csv_path': no file {self.csv_path!r}")
        if not self.policies:
            raise ConfigError("bad value for 'policies': empty (at least one policy)")
        for key in ("policies", "epochs_sweep", "batch_sweep"):
            entries = getattr(self, key)
            if len(set(entries)) < len(entries):
                raise ConfigError(f"bad value for {key!r}: {entries!r} repeats an entry")
        check_seed("seed", self.seed)
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


_FIELD_TYPES = _field_types(ExperimentSpec)
_RUN_KEYS = tuple(f.name for f in dataclasses.fields(RunSettings))


def parse_config_file(path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
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
    """Digest of every experiment-defining setting (output location excluded)
    and, for a CSV run, of the file's bytes."""
    payload = dataclasses.asdict(spec)
    del payload["out"]
    if spec.data == "csv":
        payload["csv_sha256"] = hashlib.sha256(Path(spec.csv_path).read_bytes()).hexdigest()
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
    direction, so larger values give an easier classification problem. Row i
    is row `order[i]` of the majority rows followed by the minority rows, for
    a seeded permutation `order` drawn last; each class is written straight
    into its rows through the inverse permutation.
    """
    n_majority, n_minority = _class_sizes(n, minority_fraction)
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=width)
    direction /= np.linalg.norm(direction)
    majority = rng.normal(size=(n_majority, width))
    minority = rng.normal(size=(n_minority, width))
    minority += separation * direction
    order = rng.permutation(n)
    rows = np.empty(n, dtype=np.intp)
    rows[order] = np.arange(n)
    features = np.empty((n, width))
    features[rows[:n_majority]] = majority
    features[rows[n_majority:]] = minority
    return features, (order >= n_majority).astype(np.int64)


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
    """The rows under the credit-card header; features has the schema's width."""
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
        "policies",
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
    return FederationConfig(
        policy=policy,
        train=train,
        smote=SmoteConfig(spec.smote_k, spec.smote_target_ratio) if spec.smote else None,
        master_seed=spec.seed,
        **{key: getattr(spec, key) for key in _RUN_KEYS},
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def render_round_csv(spec: ExperimentSpec, result: RunResult,
                     digest: str | None = None) -> str:
    """The rounds CSV, under the header `config_hash(spec)`, or `digest` when
    the caller has computed it."""
    lines = [f"# config_hash={digest or config_hash(spec)}", ROUND_CSV_HEADER]
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
    org_level = sum(org_accs) / len(org_accs)
    return (
        f"{policy},{epochs},{batch_size},{_fmt(m.accuracy)},{_fmt(m.loss)},"
        f"{_fmt(m.f1)},{_fmt(m.precision)},{_fmt(org_level)},"
        f"{result.rounds_to_threshold},"
        f"{sum(r.bytes_on_chain for r in result.reports)},"
        f"{sum(r.bytes_off_chain for r in result.reports)}"
    )


def execute_job(args: tuple[ExperimentSpec, str, int, int],
                digest: str | None = None) -> dict[str, str]:
    """One (policy, epochs, batch) run; module-level so worker pools can pickle it.

    Loads its own copy of the data, so results are identical whether jobs
    run sequentially or in parallel processes. `digest`, the spec's
    `config_hash` if the caller has it, heads the rounds CSV.
    """
    spec, policy, epochs, batch_size = args
    dataset = load_experiment_data(spec)
    cfg = build_federation_config(spec, policy, epochs, batch_size)
    result, state = run(cfg, dataset)
    return {
        "tag": f"{policy}_e{epochs}_b{batch_size}",
        "rounds_csv": render_round_csv(spec, result, digest),
        "summary_row": summary_row(policy, epochs, batch_size, result),
        "chain_jsonl": ledgermod.export_chain(state.chain),
    }


def cmd_run(spec: ExperimentSpec, parallel: bool = False) -> list[Path]:
    """Run every job, then write their outputs; a failed job leaves no --out.

    The spec's `config_hash`, which reads a CSV run's whole file, is computed
    once and heads every output CSV."""
    jobs = _run_jobs(spec)
    digest = config_hash(spec)
    job = functools.partial(execute_job, digest=digest)
    if parallel and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(len(jobs), worker._usable_cpus())) as pool:
            outcomes = list(pool.map(job, jobs))
    else:
        outcomes = [job(args) for args in jobs]

    out_dir = Path(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary_lines = [f"# config_hash={digest}", SUMMARY_CSV_HEADER]
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


def cmd_generate(spec: ExperimentSpec) -> Path:
    path = Path(spec.out)
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
        chain = ledgermod.import_chain(read_utf8(path))
    except (OSError, ValueError) as exc:  # read_utf8's DataError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not chain:  # every export starts with a genesis block
        print(f"error: {path}: no blocks", file=sys.stderr)
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
    # resolve_spec skips an override of None, a flag not given
    overrides: dict[str, object] = {"seed": args.seed, "out": args.out}
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
    try:
        if args.command == "generate":
            written = [cmd_generate(spec)]
        else:
            written = cmd_run(spec, parallel=args.parallel)
    except (DataError, OSError) as exc:  # OSError: an --out that cannot be written
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
