"""Round-latency benchmark for fedledger.

    python3 benchmarks/run.py --workload default-tmc --seed 1 --seconds 25 --trace 0

Runs one workload in this process through the public path `fedledger run`
takes for one sweep point: resolve the spec, load the data, build the
federation config, seal round 0, run every round back to back (a closed
loop, one simulator), validate the chain and render the rounds CSV, summary
row and chain export. The whole run is repeated with the same master seed
until `--seconds` would be overrun, at least `MIN_REPS` times.

Times are reported in reference seconds. A shared virtual machine changes
speed under load from its neighbours: on the two-vCPU VM this was tuned on,
a fixed loop switched between two speeds about 1.7x apart, for seconds at a
time. So before and after every timed step (set-up, each round, the closing
validation and rendering) the benchmark times `HostSpeed`, a fixed numpy
kernel of its own that calls no fedledger code, and scales the step's wall
time by REF_KERNEL_S / (mean of the two kernel times): the step's time on a
host that runs the kernel in exactly REF_KERNEL_S. Wall times are printed
in the details line next to them.

`--trace 0` reports the end-to-end metrics; `--trace 1` first checks that
`cli.execute_job` on the same spec writes the same outputs, then alternates
untraced and traced repetitions and reports the per-layer metrics of
`tracing.layer_metrics` with the tracing overhead: the median over
untraced/traced pairs of the traced run time minus the untraced one.

Every repetition is checked: the chain validates, has rounds + 1 blocks,
survives an export/import round trip, ends in the digest of the final
model, and its rounds CSV, summary row and chain export are byte-identical
to the first repetition's. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; `attempted` counts
rounds, `failed` those that needed the forced-random retry, aborted, or
belong to a repetition that failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Matrices here are at most ten thousand rows by 30 columns, too small for
# BLAS threads to pay off; one thread also keeps timings steadier.
BLAS_THREADS = 1
MIN_REPS = 3
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
KERNEL_EPOCHS = 2
REF_KERNEL_S = 1.5e-3
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    rounds: int
    overrides: dict


# Why each workload exists is in BENCHMARK.json. Each leaves accuracy_target
# unset, so every run seals `rounds` rounds. Rounds are cut below the shipped
# 100 where a round is slow, so that MIN_REPS runs fit in a 25-second window.
WORKLOADS = {
    "default-tmc": Workload(100, {}),
    "exact-shapley": Workload(40, {"policies": ("random",), "valuation": "exact"}),
    "greedy-pool": Workload(40, {"policies": ("greedy",)}),
    "large-shards": Workload(
        7, {"synthetic_n": 50000, "policies": ("random",), "valuation": "off"}
    ),
}


class HostSpeed:
    """SGD on a small MLP in plain numpy: a kernel to gauge the host's speed.

    Each step makes the kinds of calls a simulator step makes (batch
    indexing, finiteness and label checks, flat parameter packing, masked
    sigmoid, backpropagation, update), so the kernel slows down with the
    host as the simulator does. It calls no fedledger code, so no change to
    the program can change its speed.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(2212)
        self.np = np
        self.x = rng.normal(size=(200, 30))
        self.y = (rng.random(200) < 0.5).astype(np.int64)
        self.batches = [rng.permutation(200)[:32] for _ in range(8)]
        self.params = (
            rng.normal(scale=0.1, size=(30, 16)), np.zeros(16),
            rng.normal(scale=0.1, size=(16, 1)), np.zeros(1),
        )

    def kernel_s(self) -> float:
        np = self.np
        started = time.perf_counter()
        for _ in range(KERNEL_EPOCHS):
            w1, b1, w2, b2 = self.params
            for idx in self.batches:
                xb = np.asarray(self.x[np.asarray(idx, dtype=np.int64)], dtype=np.float64)
                yb = np.asarray(self.y[idx], dtype=np.int64)
                if not (np.isfinite(xb).all() and np.isin(yb, (0, 1)).all()):
                    raise ValueError("kernel data must be finite with 0/1 labels")
                np.ascontiguousarray(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))
                h = np.maximum(xb @ w1 + b1, 0.0)
                z = (h @ w2 + b2).ravel()
                p = np.empty_like(z)
                pos = z >= 0
                p[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
                ez = np.exp(z[~pos])
                p[~pos] = ez / (1.0 + ez)
                d = ((p - yb) / len(xb)).reshape(-1, 1)
                dh = (d @ w2.T) * (h > 0)
                w2 = w2 - 0.01 * (h.T @ d)
                b2 = b2 - 0.01 * d.sum(axis=0)
                w1 = w1 - 0.01 * (xb.T @ dh)
                b1 = b1 - 0.01 * dh.sum(axis=0)
        return time.perf_counter() - started


class Timer:
    """Scales the wall time of consecutive steps to the reference host speed."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.last_kernel_s = host.kernel_s()
        self.scales: list[float] = []

    def step(self, wall_s: float) -> float:
        """Reference seconds of a step that has just taken `wall_s`."""
        kernel_s = self.host.kernel_s()
        scale = REF_KERNEL_S / ((self.last_kernel_s + kernel_s) / 2)
        self.last_kernel_s = kernel_s
        self.scales.append(scale)
        return wall_s * scale


@dataclass
class Rep:
    """One full run of a workload: timings, outputs and failures.

    `*_s` are wall seconds, `*_ref` reference seconds.
    """

    setup_s: float
    setup_ref: float
    round_s: list[float]
    round_ref: list[float]
    run_s: float
    run_ref: float
    scale: float  # median reference seconds per wall second over the run
    outputs: dict[str, str]
    final_loss: float
    final_auc: float
    bytes_on_chain: list[int]
    bytes_off_chain: list[int]
    retried: int
    failures: list[str] = field(default_factory=list)
    aborted: bool = False


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve (Mann-Whitney U), ties given half credit."""
    import numpy as np

    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((ends - counts + 1 + ends) / 2.0)[inverse]
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


class RetryCounter:
    """Counts consensus failures, each of which makes a round retry or abort."""

    def __init__(self, ledger) -> None:
        self.count = 0
        original = ledger.majority_global

        @functools.wraps(original)
        def counted(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            except ledger.ConsensusError:
                self.count += 1
                raise

        ledger.majority_global = counted


def workload_spec(cli, name: str, seed: int):
    work = WORKLOADS[name]
    return cli.resolve_spec(env={}, overrides={**work.overrides, "rounds": work.rounds, "seed": seed})


def set_up(program, name: str, seed: int):
    """Everything before round 0: spec, data, federation config and genesis."""
    cli, federation, _, _ = program
    spec = workload_spec(cli, name, seed)
    dataset = cli.load_experiment_data(spec)
    cfg = cli.build_federation_config(spec, spec.policies[0], spec.epochs, spec.batch_size)
    return spec, cfg, federation.init_round0(cfg, dataset)


def run_rep(program, host: HostSpeed, name: str, seed: int, retries: RetryCounter,
            tracer=None) -> Rep:
    """Run the workload once, timing each public call from outside.

    With a tracer, only the run itself is traced, not the checks after it.
    """
    cli, federation, ledger, model = program
    clock = time.perf_counter
    retried_before = retries.count
    timer = Timer(host)
    with tracer.installed() if tracer else contextlib.nullcontext():
        started = clock()
        spec, cfg, state = set_up(program, name, seed)
        setup_s = clock() - started
        setup_ref = timer.step(setup_s)
        round_s = []
        round_ref = []
        aborted = False
        for t in range(cfg.rounds):
            started = clock()
            try:
                federation.run_round(state, t)
            except federation.FederationAborted:
                aborted = True
                break
            round_s.append(clock() - started)
            round_ref.append(timer.step(round_s[-1]))
        started = clock()
        verdict = ledger.validate_chain(state.chain)
        result = federation.RunResult(
            reports=state.reports,
            final_model_digest=state.chain[-1].global_model_digest,
            rounds_to_threshold=federation.rounds_to_threshold(state.reports),
            contributions=dict(state.contributions),
        )
        outputs = {
            "rounds_csv": cli.render_round_csv(spec, result),
            "summary_row": cli.summary_row(
                spec.policies[0], spec.epochs, spec.batch_size, result
            ),
            "chain_jsonl": ledger.export_chain(state.chain),
        }
        close_s = clock() - started
        close_ref = timer.step(close_s)

    failures = []
    if aborted:
        failures.append("run aborted")
    if not verdict:
        failures.append(f"validate_chain failed at height {verdict.first_failure_height}")
    if len(state.chain) != cfg.rounds + 1:
        failures.append(f"chain has {len(state.chain)} blocks, expected {cfg.rounds + 1}")
    if not ledger.validate_chain(ledger.import_chain(outputs["chain_jsonl"])):
        failures.append("exported chain does not validate after import")
    if state.chain[-1].global_model_digest != ledger.params_digest(state.global_params):
        failures.append("last block does not seal the final global model")
    server_test = state.server_test
    scores = model.predict_batch(state.global_params, server_test.features)
    return Rep(
        setup_s=setup_s,
        setup_ref=setup_ref,
        round_s=round_s,
        round_ref=round_ref,
        run_s=setup_s + sum(round_s) + close_s,
        run_ref=setup_ref + sum(round_ref) + close_ref,
        scale=statistics.median(timer.scales),
        outputs=outputs,
        final_loss=state.reports[-1].global_metrics.loss if state.reports else float("nan"),
        final_auc=roc_auc(scores, server_test.labels),
        bytes_on_chain=[r.bytes_on_chain for r in state.reports],
        bytes_off_chain=[r.bytes_off_chain for r in state.reports],
        retried=retries.count - retried_before,
        failures=failures,
        aborted=aborted,
    )


def check_outputs(reps: list[Rep], reference: dict[str, str], label: str) -> None:
    """Record, on each repetition, every output that differs from the reference."""
    for rep in reps:
        for key, text in rep.outputs.items():
            if text != reference[key]:
                rep.failures.append(f"{key} differs from {label}")


def tally(reps: list[Rep]) -> tuple[int, int]:
    """(rounds attempted, rounds failed) over all repetitions."""
    attempted = failed = 0
    for rep in reps:
        done = len(rep.round_s) + rep.aborted
        attempted += done
        failed += done if rep.failures else rep.retried
    return attempted, failed


def tail_percentile(samples: int) -> int:
    """Highest listed percentile with at least ten of `samples` above it."""
    for pct in TAIL_PERCENTILES:
        if samples * (100 - pct) / 100 >= 10:
            return pct
    raise ValueError(f"{samples} rounds are too few for a tail percentile")


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def to_ref(metric: str, value: float, scale: float) -> float:
    """A per-layer figure in wall seconds (or per wall second) in reference ones."""
    return value / scale if metric.endswith("_per_s") else value * scale


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads_cap": BLAS_THREADS,
        "machine": platform.machine(),
    }


def repeat(seconds: float, minimum: int, step) -> list:
    """Call step() until `seconds` would be overrun, at least `minimum` times."""
    results = []
    durations = []
    started = time.perf_counter()
    while len(results) < minimum or (
        time.perf_counter() - started + statistics.median(durations or [0.0]) <= seconds
    ):
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
    return results


def end_to_end(program, host, name: str, seed: int, seconds: float, retries) -> tuple[dict, dict]:
    reps = repeat(seconds, MIN_REPS, lambda: run_rep(program, host, name, seed, retries))
    check_outputs(reps[1:], reps[0].outputs, "the first repetition")

    rounds = WORKLOADS[name].rounds
    round_ref = [t for rep in reps for t in rep.round_ref]
    round_s = [t for rep in reps for t in rep.round_s]
    # fixed per workload, so that every run reports the same percentile
    tail_pct = tail_percentile(MIN_REPS * rounds)
    run_ref = statistics.median(rep.run_ref for rep in reps)
    attempted, failed = tally(reps)
    first = reps[0]
    metrics = {
        "setup_s": (statistics.median(rep.setup_ref for rep in reps), "s"),
        "run_s": (run_ref, "s"),
        "round_s.p50": (statistics.median(round_ref), "s"),
        "round_s.tail": (percentile(round_ref, tail_pct), "s"),
        "rounds_per_s": (rounds / run_ref, "1/s"),
        "final_loss": (first.final_loss, "nat"),
        "ok_round_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "bytes_on_chain_per_round": (statistics.mean(first.bytes_on_chain), "bytes"),
        "bytes_off_chain_per_round": (statistics.mean(first.bytes_off_chain), "bytes"),
    }
    details = {
        "reps": len(reps),
        "round_samples": len(round_ref),
        "tail_percentile": tail_pct,
        "wall": {
            "setup_s": statistics.median(rep.setup_s for rep in reps),
            "run_s": statistics.median(rep.run_s for rep in reps),
            "round_s.p50": statistics.median(round_s),
            "round_s.tail": percentile(round_s, tail_pct),
        },
        "ref_per_wall_s": [min(rep.scale for rep in reps), max(rep.scale for rep in reps)],
        "failed_round_frac": failed / attempted,
        "final_auc": first.final_auc,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for rep in reps for f in rep.failures}),
        "rounds_csv_sha256": sha256(first.outputs["rounds_csv"]),
        "chain_sha256": sha256(first.outputs["chain_jsonl"]),
    }
    return metrics, details


def per_layer(program, host, name: str, seed: int, seconds: float, retries) -> tuple[dict, dict]:
    """Per-layer metrics: counts of the first traced repetition, which every
    other traced repetition must repeat, and for each seconds figure the
    median over traced repetitions, in reference seconds."""
    import tracing  # imports fedledger, so only after load_program()

    cli = program[0]
    spec = workload_spec(cli, name, seed)
    job = cli.execute_job((spec, spec.policies[0], spec.epochs, spec.batch_size))
    reference = {key: job[key] for key in ("rounds_csv", "summary_row", "chain_jsonl")}

    untraced: list[Rep] = []
    traced: list[Rep] = []
    layers: list[tuple[dict, dict]] = []

    def pair() -> None:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            if with_trace:
                tracer = tracing.Tracer()
                traced.append(run_rep(program, host, name, seed, retries, tracer))
                layers.append(tracing.layer_metrics(tracer.spans))
            else:
                untraced.append(run_rep(program, host, name, seed, retries))

    repeat(seconds, 2, pair)
    reps = untraced + traced
    execute_job_matches = all(rep.outputs == reference for rep in reps)
    check_outputs(reps, reference, "cli.execute_job")
    counts = layers[0][0]
    for rep, (other, _) in zip(traced[1:], layers[1:]):
        if other != counts:
            rep.failures.append("per-layer counts differ between traced repetitions")
    seconds_by_metric = {
        key: statistics.median(
            to_ref(key, secs[key], rep.scale) for rep, (_, secs) in zip(traced, layers)
        )
        for key in layers[0][1]
    }
    # each pair ran back to back, so its difference is least affected by drift
    pair_overheads = [t.run_ref - u.run_ref for u, t in zip(untraced, traced)]
    overhead = statistics.median(pair_overheads)
    untraced_ref = statistics.median(rep.run_ref for rep in untraced)
    metrics = {key: (value, unit_of(key)) for key, value in {**counts, **seconds_by_metric}.items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / untraced_ref, "ratio")
    attempted, failed = tally(reps)
    details = {
        "reps": len(reps),
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for rep in reps for f in rep.failures}),
        "execute_job_matches": execute_job_matches,
        "trace_overhead_pairs_s": pair_overheads,
        "chain_sha256": sha256(reference["chain_jsonl"]),
    }
    return metrics, details


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "rows/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith(".rows"):
        return "rows"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def load_program():
    """Import fedledger from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fedledger" / "__init__.py").is_file():
        raise SystemExit(f"error: no fedledger sources under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    from fedledger import cli, federation, ledger, model

    if Path(cli.__file__).resolve().parent != src / "fedledger":
        raise SystemExit(f"error: imported fedledger from {cli.__file__}, not {src}")
    return cli, federation, ledger, model


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="master seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    host = HostSpeed()
    retries = RetryCounter(program[2])
    measure = per_layer if args.trace else end_to_end
    metrics, details = measure(program, host, args.workload, args.seed, args.seconds, retries)

    for key, (value, unit) in metrics.items():
        print(f"{key:48s} {value:.6g} {unit}")
    details = {"workload": args.workload, "seed": args.seed, **details, "env": environment()}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not details["failures"],
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
