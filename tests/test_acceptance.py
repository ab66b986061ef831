"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 8-10 are directional desk-scale reproductions on synthetic data;
their experiment dials are fixed here, including the label-noise org
heterogeneity that gives contribution-based selection something to
discriminate (see README, experiment design).
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from fedledger import ledger as ledgermod
from fedledger import model as modelmod
from fedledger.cli import (
    ExperimentSpec,
    build_federation_config,
    cmd_run,
    synthetic_dataset,
)
from fedledger.data import Dataset, SmoteConfig, imbalance_stats, knn_minority, smote
from fedledger.federation import run
from fedledger.ledger import (
    TX_WIRE_BYTES,
    Block,
    ContentStore,
    LocalUpdateTx,
    validate_chain,
)
from fedledger.model import ModelParams, TrainConfig, gradient, local_train, loss, param_count
from fedledger.valuation import FunctionGame, check_axioms, exact_shapley, tmc_shapley


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion:2d}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# game helpers


def random_subset_game(n: int, seed: int) -> FunctionGame:
    """Arbitrary seeded utilities in [-1, 1] per coalition, U(empty)=0."""
    rng = np.random.default_rng(seed)
    values = {frozenset(): 0.0}
    players = list(range(n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(players, r):
            values[frozenset(combo)] = float(rng.uniform(-1.0, 1.0))
    return FunctionGame(players, lambda s: values[frozenset(s)])


def noisy_additive_game(n: int, seed: int) -> FunctionGame:
    """Per-player base gains in [0.5, 2] plus bounded interaction noise.

    Keeps max |Shapley value| around 1-2 so relative TMC error bounds are
    meaningful.
    """
    rng = np.random.default_rng(seed)
    gains = rng.uniform(0.5, 2.0, size=n)
    noise = {frozenset(): 0.0}
    players = list(range(n))
    for r in range(1, n + 1):
        for combo in itertools.combinations(players, r):
            noise[frozenset(combo)] = float(rng.uniform(-0.25, 0.25))
    return FunctionGame(
        players, lambda s: float(sum(gains[p] for p in s)) + noise[frozenset(s)]
    )


def permutation_enumeration_shapley(game) -> dict[int, float]:
    """Independent oracle: average marginals over all N! permutations."""
    players = game.players
    n = len(players)
    bit = {p: 1 << i for i, p in enumerate(players)}
    table = {}
    for mask in range(1 << n):
        coalition = [players[i] for i in range(n) if mask >> i & 1]
        table[mask] = game.utility(coalition)
    totals = {p: 0.0 for p in players}
    for perm in itertools.permutations(players):
        mask = 0
        prev = 0.0
        for p in perm:
            mask |= bit[p]
            value = table[mask]
            totals[p] += value - prev
            prev = value
    factor = math.factorial(n)
    return {p: totals[p] / factor for p in players}


def test_criterion_1_exact_shapley_matches_permutation_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(20240801)
    worst = 0.0
    worst_eff = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        game = random_subset_game(n, seed=int(rng.integers(0, 2**63)))
        result = exact_shapley(game)
        oracle = permutation_enumeration_shapley(game)
        worst = max(worst, max(abs(result.values[p] - oracle[p]) for p in game.players))
        total = game.utility(game.players)
        worst_eff = max(worst_eff, abs(sum(result.values.values()) - total))
    elapsed = time.perf_counter() - started
    report(
        1,
        worst < 1e-9 and worst_eff < 1e-9 and elapsed < 60.0,
        f"200 games N in 2..8: max |exact - oracle| = {worst:.2e}, "
        f"max efficiency residual = {worst_eff:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_tmc_accuracy():
    started = time.perf_counter()
    rng = np.random.default_rng(77001)
    worst_ratio = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 9))
        game = noisy_additive_game(n, seed=int(rng.integers(0, 2**63)))
        exact = exact_shapley(game)
        estimate = tmc_shapley(
            game,
            truncation_tol=0.0,
            max_permutations=20_000,
            convergence_tol=0.0,  # disabled: run all permutations
            seed=trial,
        )
        scale = max(abs(v) for v in exact.values.values())
        err = max(abs(estimate.values[p] - exact.values[p]) for p in game.players)
        worst_ratio = max(worst_ratio, err / (0.02 * scale))
    elapsed = time.perf_counter() - started
    report(
        2,
        worst_ratio < 1.0 and elapsed < 120.0,
        f"20 games, 20k permutations: worst error / (0.02 max|v|) = "
        f"{worst_ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_3_axiom_suite():
    # symmetric pair
    sym_values = {frozenset(): 0.0, frozenset({1}): 1.0, frozenset({2}): 1.0,
                  frozenset({1, 2}): 2.0}
    sym_game = FunctionGame([1, 2], lambda s: sym_values[frozenset(s)])
    sym_report = check_axioms(sym_game, exact_shapley(sym_game), tol=1e-9)
    # constant game: every player is a zero dummy
    const_game = FunctionGame(range(4), lambda s: 0.0)
    const_result = exact_shapley(const_game)
    const_report = check_axioms(const_game, const_result, tol=1e-9)
    # random pair additivity
    game_a = random_subset_game(5, seed=901)
    game_b = random_subset_game(5, seed=902)
    add_report = check_axioms(game_a, exact_shapley(game_a), tol=1e-9,
                              additivity_game=game_b)
    ok = (
        sym_report.symmetry_holds
        and (1, 2) in sym_report.symmetric_pairs
        and const_report.dummy_holds
        and len(const_report.dummy_players) == 4
        and all(abs(v) < 1e-9 for v in const_result.values.values())
        and add_report.additivity_holds
    )
    report(
        3,
        ok,
        f"symmetry gap {sym_report.symmetry_max_gap:.2e}, "
        f"dummies {len(const_report.dummy_players)}/4, "
        f"additivity residual {add_report.additivity_max_residual:.2e}",
    )


def _fd_gradient(params: ModelParams, batch: Dataset, wd: float, step: float):
    out = np.empty_like(params.weights)
    for j in range(params.weights.size):
        up = params.weights.copy()
        up[j] += step
        down = params.weights.copy()
        down[j] -= step
        out[j] = (
            loss(ModelParams(params.layer_dims, up), batch, wd)
            - loss(ModelParams(params.layer_dims, down), batch, wd)
        ) / (2 * step)
    return out


def _smooth_case(rng, dims):
    """Random params/batch away from ReLU kinks so finite differences are valid."""
    while True:
        params = ModelParams(dims, rng.uniform(-0.8, 0.8, param_count(dims)))
        feats = rng.normal(size=(8, dims[0]))
        labels = rng.integers(0, 2, size=8)
        batch = Dataset(feats, labels)
        if len(dims) == 2:
            return params, batch
        din, width = dims[0], dims[1]
        w = params.weights[: din * width].reshape(din, width)
        b = params.weights[din * width : (din + 1) * width]
        if np.abs(feats @ w + b).min() > 1e-3:
            return params, batch


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(56)
    worst = 0.0
    for dims in ((8, 1), (6, 4, 1)):
        for trial in range(50):
            params, batch = _smooth_case(rng, dims)
            wd = float(rng.uniform(0.0, 0.05))
            analytic = gradient(params, batch, wd)
            fd = _fd_gradient(params, batch, wd, step=1e-5)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    report(
        4,
        worst <= 1e-4,
        f"100 random (params, batch) pairs, logistic + 1-hidden-layer: "
        f"max relative component error {worst:.2e}",
    )


def test_criterion_5_fedavg_equivalences():
    # (a) a single-org federation reproduces plain local SGD bit-for-bit
    from fedledger.federation import (
        FederationConfig,
        init_round0,
        run_round,
    )
    from fedledger.seeds import derive_seed
    from fedledger.selection import SelectionPolicy

    data = synthetic_dataset(ExperimentSpec(
        synthetic_n=400, synthetic_features=6, synthetic_minority_fraction=0.1,
        synthetic_separation=3.0, seed=3,
    ))
    cfg = FederationConfig(
        policy=SelectionPolicy("random", k=1),
        train=TrainConfig(learning_rate=0.1, epochs=2, batch_size=16,
                          weight_decay=0.001),
        num_orgs=1, rounds=3, smote=None,
        valuation="off",
        validators=3,
        accuracy_floor=0.0,
        master_seed=17, hidden_dims=(4,),
    )
    state = init_round0(cfg, data)
    w = state.global_params
    shard = state.shards[0]
    for t in range(3):
        run_round(state, t)
        w = local_train(
            w, shard,
            TrainConfig(learning_rate=0.1, epochs=2, batch_size=16,
                        weight_decay=0.001),
            derive_seed(cfg.master_seed, "train", t, 0),
        )
    single_org_exact = np.array_equal(state.global_params.weights, w.weights)

    # (b) averaged one-step shard training equals one centralized step
    rng = np.random.default_rng(91)
    dims = (5, 3, 1)
    params = ModelParams(dims, rng.uniform(-0.5, 0.5, param_count(dims)))
    shards = [
        Dataset(rng.normal(size=(12, 5)), rng.integers(0, 2, size=12))
        for _ in range(4)
    ]
    union = Dataset(
        np.vstack([s.features for s in shards]),
        np.concatenate([s.labels for s in shards]),
    )
    step_cfg = lambda bs: TrainConfig(learning_rate=0.2, epochs=1, batch_size=bs,
                                      weight_decay=0.0)
    averaged = modelmod.average([local_train(params, s, step_cfg(12), 0) for s in shards])
    central = local_train(params, union, step_cfg(48), 0)
    max_dev = float(np.max(np.abs(averaged.weights - central.weights)))
    report(
        5,
        single_org_exact and max_dev < 1e-12,
        f"single-org run bitwise equal: {single_org_exact}; "
        f"4-shard one-step averaging deviation {max_dev:.2e}",
    )


def test_criterion_6_smote_geometry():
    rng = np.random.default_rng(23)
    n_min, n_maj, k = 25, 1200, 4
    feats = np.vstack([
        rng.normal(size=(n_min, 5)),
        rng.normal(3.0, 1.0, size=(n_maj, 5)),
    ])
    ds = Dataset(feats, np.array([1] * n_min + [0] * n_maj))
    out = smote(ds, SmoteConfig(k=k, target_ratio=1.0), 6)
    synth = out.features[len(ds):]
    n_synth = synth.shape[0]
    assert n_synth >= 1000

    minority_idx = list(range(n_min))
    neighbor_sets = [knn_minority(ds, i, k) for i in minority_idx]
    worst = 0.0
    for s in range(n_synth):
        parent = minority_idx[s % n_min]
        a = ds.features[parent]
        best = min(
            _segment_residual(synth[s], a, ds.features[j])
            for j in neighbor_sets[parent]
        )
        worst = max(worst, best)
    minority_after, _ = imbalance_stats(out)
    ratio_ok = minority_after >= n_maj - 1
    report(
        6,
        worst < 1e-9 and ratio_ok,
        f"{n_synth} syntheses: max distance to a parent-to-kNN segment "
        f"{worst:.2e}; post-SMOTE minority {minority_after} vs majority {n_maj}",
    )


def _segment_residual(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _mutate_block(block: Block, field: str, rng) -> Block:
    """Single-byte/value mutation of one field, keeping the stored hash."""
    kwargs = {
        "height": block.height,
        "prev_hash": block.prev_hash,
        "txs": block.txs,
        "global_model_digest": block.global_model_digest,
        "votes": dict(block.votes),
        "contributions": dict(block.contributions),
        "block_hash": block.block_hash,
    }
    flip = lambda b, i: b[:i] + bytes([b[i] ^ 0x01]) + b[i + 1:]
    if field == "height":
        kwargs["height"] = block.height + 1
    elif field == "prev_hash":
        kwargs["prev_hash"] = flip(block.prev_hash, int(rng.integers(32)))
    elif field == "txs":
        tx = block.txs[0]
        kwargs["txs"] = (
            LocalUpdateTx(tx.round_index, tx.org_id,
                          flip(tx.model_digest, int(rng.integers(32))),
                          tx.payload_bytes),
        ) + block.txs[1:]
    elif field == "global_model_digest":
        kwargs["global_model_digest"] = flip(
            block.global_model_digest, int(rng.integers(32))
        )
    elif field == "votes":
        vid = sorted(block.votes)[0]
        kwargs["votes"] = {
            **block.votes, vid: flip(block.votes[vid], int(rng.integers(32)))
        }
    elif field == "contributions":
        org = sorted(block.contributions)[0]
        kwargs["contributions"] = {**block.contributions,
                                   org: block.contributions[org] + 2.0**-40}
    return Block(**kwargs)


def test_criterion_7_ledger_integrity():
    # a ten-block chain from a real run
    spec = ExperimentSpec(
        synthetic_n=400, synthetic_features=6, synthetic_minority_fraction=0.1,
        synthetic_separation=3.0, num_orgs=4, clients_per_round=2, rounds=10,
        learning_rate=0.1, epochs=1, batch_size=32, hidden_dims=(4,),
        valuation="exact", accuracy_floor=0.0, seed=9, policies=("random",),
    )
    cfg = build_federation_config(spec, "random", 1, 32)
    _, state = run(cfg, synthetic_dataset(spec))
    chain = state.chain
    assert len(chain) == 11  # genesis + 10 rounds
    assert validate_chain(chain)

    rng = np.random.default_rng(14)
    checked = 0
    ok = True
    for height in range(1, len(chain)):
        for field in ("height", "prev_hash", "txs", "global_model_digest",
                      "votes", "contributions"):
            block = chain[height]
            if field == "txs" and not block.txs:
                continue
            if field == "contributions" and not block.contributions:
                continue
            tampered = chain[:height] + [_mutate_block(block, field, rng)] + chain[height + 1:]
            verdict = validate_chain(tampered)
            checked += 1
            if verdict or verdict.first_failure_height != height:
                ok = False

    # content store round-trips and the published empty digest
    store = ContentStore()
    roundtrips = all(
        store.get(store.put(payload)) == payload
        for payload in (rng.bytes(int(rng.integers(0, 2000))) for _ in range(100))
    )
    empty_ok = (
        store.put(b"").hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    report(
        7,
        ok and roundtrips and empty_ok,
        f"{checked} single-field tampers each detected at the right height; "
        f"100 payload round-trips; empty-payload digest matches the constant",
    )


# ---------------------------------------------------------------------------
# directional experiments (criteria 8-10)

COMPARISON = dict(
    synthetic_n=2000,
    synthetic_features=30,
    synthetic_minority_fraction=0.02,
    synthetic_separation=3.0,
    num_orgs=10,
    clients_per_round=2,
    rounds=20,
    learning_rate=0.15,
    epochs=3,
    batch_size=32,
    hidden_dims=(16,),
    partition_mode="iid",
    smote=True,
    smote_k=2,
    smote_target_ratio=1.0,
    label_noise_orgs=4,
    label_noise=0.4,
    valuation="tmc",
    tmc_max_permutations=30,
    exploration_period=5,
    accuracy_floor=0.0,
)


@pytest.fixture(scope="module")
def paired_policy_runs():
    """10 paired (contribution, random) runs on the shared comparison setup."""
    started = time.perf_counter()
    outcomes = []
    for seed in range(10):
        per_policy = {}
        for policy in ("contribution", "random"):
            spec = ExperimentSpec(**COMPARISON, seed=seed, policies=(policy,))
            cfg = build_federation_config(spec, policy, spec.epochs, spec.batch_size)
            result, _ = run(cfg, synthetic_dataset(spec))
            final = result.reports[-1]
            per_policy[policy] = {
                "rtt": result.rounds_to_threshold,
                "org_acc": statistics.mean(
                    m.accuracy for m in final.per_org_metrics.values()
                ),
            }
        outcomes.append(per_policy)
    return outcomes, time.perf_counter() - started


def test_criterion_8_rounds_to_threshold_direction(paired_policy_runs):
    outcomes, elapsed = paired_policy_runs
    rtt_c = [o["contribution"]["rtt"] for o in outcomes]
    rtt_r = [o["random"]["rtt"] for o in outcomes]
    wins_or_ties = sum(1 for c, r in zip(rtt_c, rtt_r) if c <= r)
    med_c, med_r = statistics.median(rtt_c), statistics.median(rtt_r)
    report(
        8,
        med_c <= med_r and wins_or_ties >= 8 and elapsed < 600.0,
        f"median rounds-to-threshold contribution={med_c} vs random={med_r}; "
        f"contribution wins/ties {wins_or_ties}/10 paired seeds; {elapsed:.0f}s",
    )


def test_criterion_9_org_level_accuracy_direction(paired_policy_runs):
    outcomes, _ = paired_policy_runs
    margins = [
        o["contribution"]["org_acc"] - o["random"]["org_acc"] for o in outcomes
    ]
    mean_margin = statistics.mean(margins)
    report(
        9,
        mean_margin > 0.0,
        f"mean org-level accuracy margin (contribution - random) over 10 seeds "
        f"= {mean_margin:+.4f}",
    )


def test_criterion_10_epoch_and_batch_trends():
    def final_metrics(seed, epochs, batch):
        spec = ExperimentSpec(
            synthetic_n=2000, synthetic_features=30,
            synthetic_minority_fraction=0.02, synthetic_separation=2.5,
            num_orgs=10, clients_per_round=3, rounds=8,
            learning_rate=0.03, epochs=epochs, batch_size=batch,
            hidden_dims=(16,), partition_mode="iid",
            smote=True, smote_k=2, smote_target_ratio=1.0,
            valuation="off", accuracy_floor=0.0, seed=seed,
            policies=("random",),
        )
        cfg = build_federation_config(spec, "random", epochs, batch)
        m = run(cfg, synthetic_dataset(spec))[0].reports[-1].global_metrics
        return m.f1, m.accuracy

    seeds = (0, 1, 2)
    f1_by_epochs = {
        e: statistics.mean(final_metrics(s, e, 32)[0] for s in seeds)
        for e in (5, 10, 15)
    }
    acc_by_batch = {
        b: statistics.mean(final_metrics(s, 10, b)[1] for s in seeds)
        for b in (16, 32, 64)
    }
    epoch_trend = (
        f1_by_epochs[10] >= f1_by_epochs[5] - 0.01
        and f1_by_epochs[15] >= f1_by_epochs[10] - 0.01
    )
    batch_trend = acc_by_batch[64] <= acc_by_batch[16] + 0.005
    report(
        10,
        epoch_trend and batch_trend,
        f"F1 by epochs {{5: {f1_by_epochs[5]:.3f}, 10: {f1_by_epochs[10]:.3f}, "
        f"15: {f1_by_epochs[15]:.3f}}}; accuracy by batch "
        f"{{16: {acc_by_batch[16]:.3f}, 64: {acc_by_batch[64]:.3f}}}",
    )


def test_criterion_11_on_chain_economy():
    def byte_profile(hidden):
        spec = ExperimentSpec(
            synthetic_n=400, synthetic_features=6,
            synthetic_minority_fraction=0.1, synthetic_separation=3.0,
            num_orgs=4, clients_per_round=2, rounds=2, learning_rate=0.1,
            epochs=1, batch_size=32, hidden_dims=hidden, valuation="off",
            accuracy_floor=0.0, seed=4, policies=("random",),
        )
        cfg = build_federation_config(spec, "random", 1, 32)
        reports = run(cfg, synthetic_dataset(spec))[0].reports
        return (
            [r.bytes_on_chain for r in reports],
            [r.bytes_off_chain for r in reports],
        )

    on_narrow, off_narrow = byte_profile((16,))
    on_wide, off_wide = byte_profile((160,))  # 10x hidden width
    width_ratio = param_count((6, 160, 1)) / param_count((6, 16, 1))
    on_chain_constant = on_narrow == on_wide and all(
        b == 3 * TX_WIRE_BYTES for b in on_narrow
    )
    off_ratio = min(w / n for w, n in zip(off_wide, off_narrow))
    report(
        11,
        on_chain_constant and off_ratio >= 9.0,
        f"per-round on-chain bytes {on_narrow[0]} at both widths "
        f"(param ratio {width_ratio:.1f}x); off-chain grew {off_ratio:.1f}x",
    )


def test_criterion_12_full_run_determinism(tmp_path):
    base = dict(
        synthetic_n=400, synthetic_features=6, synthetic_minority_fraction=0.1,
        synthetic_separation=3.0, num_orgs=4, clients_per_round=2, rounds=3,
        learning_rate=0.1, epochs=2, batch_size=16, hidden_dims=(4,),
        valuation="exact", accuracy_floor=0.0, seed=21,
        policies=("random", "contribution"),
    )
    seq = cmd_run(ExperimentSpec(**base, out=str(tmp_path / "seq")), parallel=False)
    par = cmd_run(ExperimentSpec(**base, out=str(tmp_path / "par")), parallel=True)
    again = cmd_run(ExperimentSpec(**base, out=str(tmp_path / "again")), parallel=False)
    names = sorted(p.name for p in seq)
    identical = True
    for name in names:
        blobs = {
            (tmp_path / sub / name).read_bytes() for sub in ("seq", "par", "again")
        }
        if len(blobs) != 1:
            identical = False
    report(
        12,
        identical and len(names) == 2 * 2 + 1,
        f"{len(names)} output files byte-identical across sequential, parallel, "
        f"and repeated runs",
    )
