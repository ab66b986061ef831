"""Round orchestration for the federated training simulation.

Each round: select organizations, train locally in parallel-safe fashion
(every source of randomness is derived from the master seed, so execution
order cannot change results; a large round trains half its organizations
in a forked worker process, bit for bit), submit updates through the
content store, let the validator panel cross-verify and aggregate what it
fetches back from the store, value the updates the winning candidate
averaged, and seal the round in a new block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from . import data as datamod
from . import ledger as ledgermod
from . import model as modelmod
from . import selection as selmod
from . import valuation as valmod
from . import worker
from .data import Count, Dataset, PartitionPlan, SmoteConfig, check_fields
from .ledger import Block, ContentStore, LocalUpdateTx, ValidatorPanel
from .model import Metrics, ModelParams, TrainConfig
from .seeds import check_seed, derive_seed
from .selection import SelectionPolicy
from .valuation import ShapleyResult, UtilityGame


# share of each class held by the organizations; the rest is the server test set
TRAIN_FRACTION = 0.8

# A round's training work, epochs x the rows of its shards, from which half its
# shards train in the worker process. Below it, shipping them and waiting for
# the reply cost more than the second CPU saves: README, "Work on a second CPU".
SPLIT_MIN_WORK = 100_000


class FederationAborted(RuntimeError):
    """Run stopped early; completed round reports ride along."""

    def __init__(self, message: str, reports: list["RoundReport"]):
        super().__init__(message)
        self.reports = reports

    def __reduce__(self):
        # rebuilt from both arguments, so it crosses a process pool intact
        return type(self), (str(self), self.reports)


VALUATION_METHODS = ("exact", "tmc", "off")


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """The run keys `FederationConfig` shares with the CLI spec, each checked here
    alone: its type, and a count's lower bound, by `data.check_fields`, then its range."""

    num_orgs: Count = 30
    rounds: Count = 100
    valuation: str = "tmc"
    tmc_truncation_tol: float = 1e-4
    tmc_max_permutations: Count = 200
    tmc_convergence_tol: float = 1e-3
    accuracy_target: float | None = None
    # an odd count, so that a strict majority of validators is defined
    validators: Count = 3
    accuracy_floor: float = 0.5
    hidden_dims: tuple[Count, ...] = (16,)
    partition_mode: str = "iid"
    partition_skew: float = 0.8
    threshold: float = 0.5
    # experiment condition: a seeded subset of orgs holds label-noisy data,
    # modeling participants whose updates are persistently low-quality
    label_noise_orgs: int = 0
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.valuation not in VALUATION_METHODS:
            raise ValueError(
                f"valuation must be one of {VALUATION_METHODS}, got {self.valuation!r}")
        if self.tmc_truncation_tol < 0:
            raise ValueError("tmc_truncation_tol must be non-negative")
        if self.tmc_convergence_tol < 0:
            raise ValueError("tmc_convergence_tol must be non-negative")
        if self.accuracy_target is not None and not 0.0 <= self.accuracy_target < 1.0:
            raise ValueError("accuracy_target must lie in [0, 1)")
        if self.validators % 2 == 0:
            raise ValueError("validators must be odd so majority is defined")
        if not 0.0 <= self.accuracy_floor <= 1.0:
            raise ValueError("accuracy_floor must lie in [0, 1]")
        if not 0 <= self.label_noise_orgs <= self.num_orgs:
            raise ValueError("label_noise_orgs must lie in [0, num_orgs]")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ValueError("label_noise must lie in [0, 1]")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie strictly between 0 and 1")
        try:
            PartitionPlan(self.num_orgs, self.partition_mode, self.partition_skew)
        except ValueError as exc:
            raise ValueError(f"partition_mode / partition_skew: {exc}") from exc


@dataclass(frozen=True)
class FederationConfig(RunSettings):
    policy: SelectionPolicy
    train: TrainConfig
    smote: SmoteConfig | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_seed("master_seed", self.master_seed)
        if self.policy.k > self.num_orgs:
            raise ValueError("clients per round (policy.k) cannot exceed num_orgs")
        if self.valuation == "exact" and self.policy.k > valmod.EXACT_MAX_PLAYERS:
            raise valmod.CapacityError(
                f"valuation exact allows at most {valmod.EXACT_MAX_PLAYERS} clients "
                f"per round (policy.k), got {self.policy.k}; use tmc")


@dataclass(frozen=True)
class RoundReport:
    """What one sealed round did and how its new global model scores.

    per_org_metrics, the global model's metrics on each organization's raw
    shard, is computed on first read and then kept; a run reads only its
    final round's. It is computed from the round's own global model, the
    run's tuple of raw shards and the threshold, so a later read, or one
    from a pickled copy, gives what the round itself would have. Those three
    inputs take no part in == or repr.
    """

    round_index: int
    selected: frozenset[int]
    global_metrics: Metrics
    shapley: ShapleyResult | None
    bytes_on_chain: int
    bytes_off_chain: int
    global_params: ModelParams = field(compare=False, repr=False)
    raw_shards: tuple[Dataset, ...] = field(compare=False, repr=False)
    threshold: float = field(compare=False, repr=False)

    @cached_property
    def per_org_metrics(self) -> dict[int, Metrics]:
        return {org: modelmod.evaluate(self.global_params, shard, self.threshold)
                for org, shard in enumerate(self.raw_shards)}


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
    metrics: a tuple, made once, that each round's report references.
    `global_loss` is `global_params`' loss on `server_test`, the
    `global_metrics.loss` of the round that produced it (init_round0
    computes the first); the valuation games take it as their base loss
    instead of recomputing it.
    """

    cfg: FederationConfig
    shards: list[Dataset]
    raw_shards: tuple[Dataset, ...]
    server_test: Dataset
    panel: ValidatorPanel
    store: ContentStore
    chain: list[Block]
    global_params: ModelParams
    global_loss: float
    contributions: dict[int, float] = field(default_factory=dict)
    reports: list[RoundReport] = field(default_factory=list)

    def train_round(self, round_index: int, orgs: Iterable[int]) -> dict[int, ModelParams]:
        """Each listed organization's local SGD pass for this round, the
        organizations in lock-step. Org i is seeded by (master, round, i), so
        which orgs train together, and in which process, cannot change any
        one's result."""
        orgs = list(orgs)
        trained = _train(
            self.global_params,
            [self.shards[org] for org in orgs],
            self.cfg.train,
            [derive_seed(self.cfg.master_seed, "train", round_index, org) for org in orgs],
        )
        return dict(zip(orgs, trained))


def _train(params: ModelParams, shards: list[Dataset], train: TrainConfig,
           seeds: list[int]) -> list[ModelParams]:
    """modelmod.local_train_many(params, shards, train, seeds), bit for bit.

    A round of two shards or more whose work reaches SPLIT_MIN_WORK, when this
    process may use its worker, sorts its shards by size and deals them
    alternately into two halves, which never change each other's arithmetic:
    the worker trains the second while this process trains the first.
    """
    work = train.epochs * sum(len(shard) for shard in shards)
    if len(shards) < 2 or work < SPLIT_MIN_WORK or not worker.available():
        return modelmod.local_train_many(params, shards, train, seeds)
    # local_train_many's own check, on the whole round, so that a refusal
    # names a shard by its index in `shards`, not in a half
    modelmod._check_data(params.input_width, shards, "shard")
    by_size = sorted(range(len(shards)), key=lambda i: len(shards[i]))
    near, far = by_size[::2], by_size[1::2]
    trained, block = worker.split(
        "train", (params, train, [seeds[i] for i in far]), [shards[i] for i in far],
        lambda: modelmod.local_train_many(
            params, [shards[i] for i in near], train, [seeds[i] for i in near]))
    far_trained = [ModelParams(params.layer_dims, row) for row in block]
    by_position = dict(zip(near + far, trained + far_trained))
    return [by_position[i] for i in range(len(shards))]


def _train_block(params: ModelParams, train: TrainConfig, seeds: list[int],
                 *shards: Dataset) -> np.ndarray:
    """The worker's task "train": local_train_many of the shards, as one block
    of weights."""
    return np.stack([model.weights for model in
                     modelmod.local_train_many(params, list(shards), train, seeds)])


def _flip_labels(shard: Dataset, probability: float, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    flip = rng.random(len(shard)) < probability
    return Dataset._from_checked(shard.features,
                                 np.where(flip, 1 - shard.labels, shard.labels))


def init_round0(cfg: FederationConfig, dataset: Dataset) -> FederationState:
    """Split, shard, rebalance, initialize the global model, seal genesis."""
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
    raw_shards = tuple(shards)
    if cfg.smote is not None:
        rebalanced = []
        for org, shard in enumerate(shards):
            # shards too minority-poor for k neighbors are left as-is
            if shard.class_counts()[1] > cfg.smote.k:
                shard = datamod.smote(shard, cfg.smote, derive_seed(ms, "smote", org))
            rebalanced.append(shard)
        shards = rebalanced

    dims = (train.schema_width, *cfg.hidden_dims, 1)
    w0 = modelmod.init_params(dims, derive_seed(ms, "init"))

    panel = ValidatorPanel(dict(enumerate(validator_shards)), cfg.accuracy_floor)

    store = ContentStore()
    chain = ledgermod.seal_block([], (), store.put(ledgermod.serialize_params(w0)), {}, {})
    return FederationState(cfg, shards, raw_shards, server_test, panel, store, chain, w0,
                           modelmod.loss(w0, server_test))


def _select(
    state: FederationState, t: int, forced_random: bool
) -> tuple[set[int], dict[int, ModelParams]]:
    """Apply the configured policy, or random selection on a forced retry;
    greedy pre-trains the full candidate pool."""
    cfg = state.cfg
    orgs = range(cfg.num_orgs)
    if forced_random or cfg.policy.kind == "random":
        label = "retry" if forced_random else "select"
        return selmod.select_random(
            orgs, cfg.policy.k, derive_seed(cfg.master_seed, label, t)
        ), {}
    if cfg.policy.kind == "contribution":
        scores = {org: state.contributions.get(org, 0.0) for org in orgs}
        return selmod.select_by_contribution(
            scores, cfg.policy.k, t, cfg.policy, derive_seed(cfg.master_seed, "policy")), {}
    candidates = state.train_round(t, orgs)
    game = UtilityGame(state.global_params, candidates, state.server_test,
                       _base_loss=state.global_loss)
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
    selected, pretrained = _select(state, t, forced_random)

    # local training and submission; greedy charges its full candidate pool
    submissions = pretrained or state.train_round(t, sorted(selected))
    txs = []
    for org in sorted(submissions):
        payload = ledgermod.serialize_params(submissions[org])
        txs.append(LocalUpdateTx(t, org, state.store.put(payload), len(payload)))

    # from here on, every model is one a validator fetched from the store
    winner_digest, new_global, votes, accepted = ledgermod.cross_verify(
        state.panel, [tx for tx in txs if tx.org_id in selected], state.store,
        state.global_params)

    # new_global is the mean of the accepted models in ascending org_id
    # order, the grand coalition's mean, so its loss is the game's U(N)
    global_metrics = modelmod.evaluate(new_global, state.server_test, cfg.threshold)
    shapley = None
    if cfg.valuation != "off" and accepted:
        game = UtilityGame(state.global_params, accepted, state.server_test,
                           _base_loss=state.global_loss, _grand_loss=global_metrics.loss)
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

    state.chain = ledgermod.seal_block(state.chain, txs, winner_digest, votes,
                                       shapley.values if shapley else {})
    state.global_params, state.global_loss = new_global, global_metrics.loss
    return RoundReport(
        round_index=t,
        selected=frozenset(selected),
        global_metrics=global_metrics,
        shapley=shapley,
        bytes_on_chain=(len(txs) + 1) * ledgermod.TX_WIRE_BYTES,
        bytes_off_chain=sum(tx.payload_bytes for tx in txs),
        global_params=new_global,
        raw_shards=state.raw_shards,
        threshold=cfg.threshold,
    )


def rounds_to_threshold(reports: list[RoundReport]) -> int | None:
    """Rounds until global accuracy first reaches 90% of the run's final
    accuracy (1-based count); the communication-efficiency summary metric."""
    if not reports:
        return None
    cutoff = 0.9 * reports[-1].global_metrics.accuracy
    # an accuracy is never negative, so the final round itself reaches the cutoff
    return next(r.round_index + 1 for r in reports if r.global_metrics.accuracy >= cutoff)


def run(cfg: FederationConfig, dataset: Dataset) -> tuple[RunResult, FederationState]:
    """Iterate rounds until the accuracy target is met or rounds run out.

    Returns the result plus the final state, whose chain and store back the
    CLI's ledger export; seal_block checked each block as it was sealed.
    """
    state = init_round0(cfg, dataset)
    for t in range(cfg.rounds):
        report = run_round(state, t)
        if (
            cfg.accuracy_target is not None
            and report.global_metrics.accuracy >= cfg.accuracy_target
        ):
            break
    return RunResult(
        reports=state.reports,
        final_model_digest=state.chain[-1].global_model_digest,
        rounds_to_threshold=rounds_to_threshold(state.reports),
        contributions=dict(state.contributions),
    ), state

