"""Round orchestration for the federated training simulation.

Each round: select organizations, train locally in parallel-safe fashion
(every source of randomness is derived from the master seed, so execution
order cannot change results), submit updates through the content store,
cross-verify and aggregate via the validator panel, value the verified
submissions, and seal the round in a new block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import data as datamod
from . import ledger as ledgermod
from . import model as modelmod
from . import selection as selmod
from . import valuation as valmod
from .data import Dataset, PartitionPlan, SmoteConfig
from .ledger import Block, ContentStore, LocalUpdateTx, ValidatorPanel
from .model import Metrics, ModelParams, TrainConfig
from .seeds import derive_seed
from .selection import SelectionPolicy
from .valuation import ShapleyResult, UtilityGame


# share of each class held by the organizations; the rest is the server test set
TRAIN_FRACTION = 0.8


class FederationAborted(RuntimeError):
    """Run stopped early; completed round reports ride along."""

    def __init__(self, message: str, reports: list["RoundReport"]):
        super().__init__(message)
        self.reports = reports

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process pool intact
        return type(self), (str(self), self.reports)


VALUATION_METHODS = ("exact", "tmc", "off")


@dataclass(frozen=True)
class FederationConfig:
    policy: SelectionPolicy
    train: TrainConfig
    num_orgs: int = 30
    rounds: int = 100
    smote: SmoteConfig | None = None
    valuation: str = "tmc"
    tmc_truncation_tol: float = 1e-4
    tmc_max_permutations: int = 200
    tmc_convergence_tol: float = 1e-3
    accuracy_target: float | None = None
    # an odd count, so that a strict majority of validators is defined
    validators: int = 3
    accuracy_floor: float = 0.5
    master_seed: int = 0
    hidden_dims: tuple[int, ...] = (16,)
    partition_mode: str = "iid"
    partition_skew: float = 0.8
    threshold: float = 0.5
    # experiment condition: a seeded subset of orgs holds label-noisy data,
    # modeling participants whose updates are persistently low-quality
    label_noise_orgs: int = 0
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.num_orgs < 1:
            raise ValueError("num_orgs must be positive")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.policy.k > self.num_orgs:
            raise ValueError("clients per round (policy.k) cannot exceed num_orgs")
        if self.valuation not in VALUATION_METHODS:
            raise ValueError(
                f"valuation must be one of {VALUATION_METHODS}, got {self.valuation!r}")
        if self.tmc_truncation_tol < 0:
            raise ValueError("tmc_truncation_tol must be non-negative")
        if self.tmc_convergence_tol < 0:
            raise ValueError("tmc_convergence_tol must be non-negative")
        if self.tmc_max_permutations < 1:
            raise ValueError("tmc_max_permutations must be at least 1")
        if self.accuracy_target is not None and not 0.0 <= self.accuracy_target < 1.0:
            raise ValueError("accuracy_target must lie in [0, 1)")
        if self.validators < 1 or self.validators % 2 == 0:
            raise ValueError("validators must be odd so majority is defined")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must lie in [0, 1]")
        if not 0 <= self.label_noise_orgs <= self.num_orgs:
            raise ValueError("label_noise_orgs must lie in [0, num_orgs]")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError("hidden_dims widths must be positive")
        try:
            PartitionPlan(self.num_orgs, self.partition_mode, self.partition_skew)
        except ValueError as exc:
            raise ValueError(f"partition_mode / partition_skew: {exc}") from exc
        if self.valuation == "exact" and self.policy.k > valmod.EXACT_MAX_PLAYERS:
            raise valmod.CapacityError(
                f"valuation exact allows at most {valmod.EXACT_MAX_PLAYERS} clients "
                f"per round (policy.k), got {self.policy.k}; use tmc")


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    selected: frozenset[int]
    global_metrics: Metrics
    per_org_metrics: dict[int, Metrics]
    shapley: ShapleyResult | None
    bytes_on_chain: int
    bytes_off_chain: int


@dataclass(frozen=True)
class RunResult:
    reports: list[RoundReport]
    final_model_digest: bytes
    rounds_to_threshold: int | None
    contributions: dict[int, float]


@dataclass
class FederationState:
    """Mutable state threaded through the rounds of one run.

    `shards` is what organizations train on (after any SMOTE rebalancing);
    `raw_shards` is the data they actually hold, used for the org-level
    accuracy metric.
    """

    cfg: FederationConfig
    shards: list[Dataset]
    raw_shards: list[Dataset]
    server_test: Dataset
    panel: ValidatorPanel
    store: ContentStore
    chain: list[Block]
    global_params: ModelParams
    contributions: dict[int, float] = field(default_factory=dict)
    reports: list[RoundReport] = field(default_factory=list)

    def train_round(self, round_index: int, orgs: Iterable[int]) -> dict[int, ModelParams]:
        """Each listed organization's local SGD pass for this round, the
        organizations in lock-step. Org i is seeded by (master, round, i), so
        which orgs train together cannot change any one's result."""
        orgs = list(orgs)
        trained = modelmod.local_train_many(
            self.global_params,
            [self.shards[org] for org in orgs],
            self.cfg.train,
            [derive_seed(self.cfg.master_seed, "train", round_index, org) for org in orgs],
        )
        return dict(zip(orgs, trained))


def _flip_labels(shard: Dataset, probability: float, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    flip = rng.random(len(shard)) < probability
    return Dataset(shard.features, np.where(flip, 1 - shard.labels, shard.labels))


def init_round0(cfg: FederationConfig, dataset: Dataset) -> FederationState:
    """Split, shard, rebalance, initialize the global model, seal genesis."""
    counts = dataset.class_counts()
    if min(counts) == 0:
        raise datamod.DataError("dataset must contain both classes")
    ms = cfg.master_seed
    train, server_test = datamod.split(dataset, TRAIN_FRACTION, derive_seed(ms, "split"))
    validator_shards = datamod.stratified_parts(
        server_test, cfg.validators, derive_seed(ms, "panel")
    )
    if any(len(shard) == 0 for shard in validator_shards):
        raise datamod.DataError(
            f"validators = {cfg.validators} leaves some validators no test rows: "
            f"the server test set has {len(server_test)} rows "
            f"({' + '.join(map(str, server_test.class_counts()))} by class)"
        )
    plan = PartitionPlan(cfg.num_orgs, cfg.partition_mode, cfg.partition_skew)
    shards = datamod.partition(train, plan, derive_seed(ms, "partition"))
    if cfg.label_noise_orgs and cfg.label_noise > 0.0:
        rng = np.random.default_rng(derive_seed(ms, "noisy-orgs"))
        noisy = rng.choice(cfg.num_orgs, size=cfg.label_noise_orgs, replace=False)
        for org in noisy:
            shards[org] = _flip_labels(
                shards[org], cfg.label_noise, derive_seed(ms, "noise", int(org))
            )
    raw_shards = list(shards)
    if cfg.smote is not None:
        rebalanced = []
        for org, shard in enumerate(shards):
            minority = int(np.count_nonzero(shard.labels == 1))
            # shards too minority-poor for k neighbors are left as-is
            if minority > cfg.smote.k:
                shard = datamod.smote(shard, cfg.smote, derive_seed(ms, "smote", org))
            rebalanced.append(shard)
        shards = rebalanced

    dims = (train.schema_width, *cfg.hidden_dims, 1)
    w0 = modelmod.init_params(dims, derive_seed(ms, "init"))

    validator_ids = tuple(range(cfg.validators))
    panel = ValidatorPanel(
        validator_ids,
        dict(zip(validator_ids, validator_shards)),
        cfg.accuracy_floor,
    )

    store = ContentStore()
    genesis = ledgermod.make_block(
        0, ledgermod.ZERO_DIGEST, (), store.put(ledgermod.serialize_params(w0)), {}, {}
    )
    chain = ledgermod.append_block([], genesis)
    return FederationState(cfg, shards, raw_shards, server_test, panel, store, chain, w0)


def _select(state: FederationState, t: int) -> tuple[set[int], dict[int, ModelParams]]:
    """Apply the configured policy; greedy pre-trains the full candidate pool."""
    cfg = state.cfg
    orgs = range(cfg.num_orgs)
    if cfg.policy.kind == "random":
        return selmod.select_random(
            orgs, cfg.policy.k, derive_seed(cfg.master_seed, "select", t)
        ), {}
    if cfg.policy.kind == "contribution":
        scores = {org: state.contributions.get(org, 0.0) for org in orgs}
        return selmod.select_by_contribution(
            scores, cfg.policy.k, t, cfg.policy, derive_seed(cfg.master_seed, "policy")), {}
    candidates = state.train_round(t, orgs)
    game = UtilityGame(state.global_params, candidates, state.server_test)
    return selmod.select_greedy(game, cfg.policy.k), candidates


def run_round(state: FederationState, t: int) -> RoundReport:
    """Execute one full round and append its block.

    On a consensus failure, the round is retried once with random
    selection; a second failure aborts the run.
    """
    expected = len(state.chain) - 1
    if t != expected:
        raise ValueError(f"round {t} out of order; expected {expected}")
    try:
        report = _attempt_round(state, t, forced_random=False)
    except ledgermod.ConsensusError:
        try:
            report = _attempt_round(state, t, forced_random=True)
        except ledgermod.ConsensusError as exc:
            raise FederationAborted(
                f"round {t}: consensus failed twice: {exc}", state.reports
            ) from exc
    state.reports.append(report)
    return report


def _attempt_round(state: FederationState, t: int, forced_random: bool) -> RoundReport:
    cfg = state.cfg
    if forced_random:
        selected = selmod.select_random(
            range(cfg.num_orgs), cfg.policy.k,
            derive_seed(cfg.master_seed, "retry", t),
        )
        pretrained: dict[int, ModelParams] = {}
    else:
        selected, pretrained = _select(state, t)

    # local training and submission; greedy charges its full candidate pool
    submissions = pretrained or state.train_round(t, sorted(selected))
    submitting = sorted(submissions)
    txs = []
    bytes_off_chain = 0
    for org in submitting:
        payload = ledgermod.serialize_params(submissions[org])
        digest = state.store.put(payload)
        txs.append(LocalUpdateTx(t, org, digest, len(payload)))
        bytes_off_chain += len(payload)
    bytes_on_chain = (len(txs) + 1) * ledgermod.TX_WIRE_BYTES
    tx_by_org = {tx.org_id: tx for tx in txs}

    # each validator independently verifies and aggregates the selected updates
    verified_by_validator: dict[int, list[int]] = {}
    candidates: dict[int, ModelParams] = {}
    selected_txs = [tx_by_org[org] for org in sorted(selected)]
    for vid in state.panel.validators:
        outcomes = ledgermod.verify_local_updates(state.panel, vid, selected_txs, state.store)
        accepted = [tx.org_id for tx, ok in zip(selected_txs, outcomes) if ok]
        verified_by_validator[vid] = accepted
        if accepted:
            candidates[vid] = modelmod.average([submissions[org] for org in accepted])
        else:
            candidates[vid] = state.global_params  # nothing verified: carry forward

    winner_digest, new_global, votes = ledgermod.majority_global(
        state.panel, candidates, state.store)
    winning_orgs = next(
        verified_by_validator[vid]
        for vid in state.panel.validators
        if votes[vid] == winner_digest
    )

    shapley = None
    if cfg.valuation != "off" and winning_orgs:
        game = UtilityGame(
            state.global_params,
            {org: submissions[org] for org in winning_orgs},
            state.server_test,
        )
        if cfg.valuation == "exact":
            shapley = valmod.exact_shapley(game)
        else:
            shapley = valmod.tmc_shapley(
                game,
                truncation_tol=cfg.tmc_truncation_tol,
                max_permutations=cfg.tmc_max_permutations,
                convergence_tol=cfg.tmc_convergence_tol,
                seed=derive_seed(cfg.master_seed, "tmc", t),
            )
        for org, value in shapley.values.items():
            state.contributions[org] = state.contributions.get(org, 0.0) + value

    block = ledgermod.make_block(
        height=len(state.chain),
        prev_hash=state.chain[-1].block_hash,
        txs=tuple(txs),
        global_model_digest=winner_digest,
        votes=votes,
        contributions=shapley.values if shapley else {},
    )
    state.chain = ledgermod.append_block(state.chain, block)
    state.global_params = new_global

    global_metrics = modelmod.evaluate(new_global, state.server_test, cfg.threshold)
    holding = [org for org in range(cfg.num_orgs) if len(state.raw_shards[org])]
    per_org = dict(zip(holding, modelmod.evaluate_many(
        new_global, [state.raw_shards[org] for org in holding], cfg.threshold)))
    return RoundReport(
        round_index=t,
        selected=frozenset(selected),
        global_metrics=global_metrics,
        per_org_metrics=per_org,
        shapley=shapley,
        bytes_on_chain=bytes_on_chain,
        bytes_off_chain=bytes_off_chain,
    )


def rounds_to_threshold(reports: list[RoundReport]) -> int | None:
    """Rounds until global accuracy first reaches 90% of the run's final
    accuracy (1-based count); the communication-efficiency summary metric."""
    if not reports:
        return None
    final = reports[-1].global_metrics.accuracy
    cutoff = 0.9 * final
    for report in reports:
        if report.global_metrics.accuracy >= cutoff:
            return report.round_index + 1
    return None


def run(cfg: FederationConfig, dataset: Dataset) -> tuple[RunResult, FederationState]:
    """Iterate rounds until the accuracy target is met or rounds run out.

    Returns the result plus the final state, whose chain and store back the
    CLI's ledger export.
    """
    state = init_round0(cfg, dataset)
    for t in range(cfg.rounds):
        report = run_round(state, t)
        if (
            cfg.accuracy_target is not None
            and report.global_metrics.accuracy >= cfg.accuracy_target
        ):
            break
    verdict = ledgermod.validate_chain(state.chain)
    if not verdict:
        raise ledgermod.ChainIntegrityError(
            f"chain invalid at height {verdict.first_failure_height} after run"
        )
    result = RunResult(
        reports=state.reports,
        final_model_digest=state.chain[-1].global_model_digest,
        rounds_to_threshold=rounds_to_threshold(state.reports),
        contributions=dict(state.contributions),
    )
    return result, state

