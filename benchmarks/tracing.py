"""Span tracer that wraps fedledger's public functions from outside the package.

`Tracer.installed()` replaces every public function and public method of the
traced modules with a wrapper that records one span per call: name, parent
span, start and end. On exit the originals are put back, so untraced code
runs with no wrapper at all. A function re-bound by `from .x import y` is
replaced in every module that holds it, so calls between modules are seen
too. Spans stay in memory; `layer_metrics` turns the spans of one traced run
into per-round and per-run figures.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

import fedledger
from fedledger import cli, data, federation, ledger, model, selection, valuation

TRACED_MODULES = {
    "data": data,
    "model": model,
    "ledger": ledger,
    "valuation": valuation,
    "selection": selection,
    "federation": federation,
    "cli": cli,
}

ROUND = "federation.run_round"
UTILITY = "valuation.UtilityGame.utility"
SHAPLEY = ("valuation.exact_shapley", "valuation.tmc_shapley")
GREEDY = "selection.select_greedy"
SELECT = ("selection.select_random", GREEDY, "selection.select_by_contribution")
SEAL = ("ledger.make_block", "ledger.append_block")
# spans that only run once per run (outside every round), reported per run
PER_RUN = (
    "ledger.validate_chain",
    "ledger.export_chain",
    "federation.init_round0",
    "data.split",
    "data.partition",
    "data.smote",
    "cli.load_experiment_data",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "size", "ok", "error")

    def __init__(self, name: str, parent: int, start: float) -> None:
        self.name = name
        self.parent = parent  # index of the enclosing span, -1 at top level
        self.start = start
        self.end = start
        self.size = 0  # rows, bytes or evaluations, depending on the span
        self.ok = True  # verify_local_update's verdict
        self.error = ""  # class name of an exception that left the span


def _rows(features) -> int:
    shape = getattr(features, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# sizes read from a call's arguments or result: (args, result) -> int
_SIZES = {
    "model.gradient": lambda args, result: len(args[1]),
    "model.predict_batch": lambda args, result: _rows(args[1]),
    "ledger.ContentStore.put": lambda args, result: len(args[1]),
    "ledger.ContentStore.get": lambda args, result: len(result),
    "ledger.export_chain": lambda args, result: len(result.encode("utf-8")),
    "valuation.exact_shapley": lambda args, result: result.num_evaluations,
    "valuation.tmc_shapley": lambda args, result: result.num_evaluations,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        size_of = _SIZES.get(name)
        verdict = name == "ledger.verify_local_update"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if size_of is not None:
                span.size = size_of(args, result)
            if verdict:
                span.ok = bool(result)
            return result

        return traced

    @staticmethod
    def _targets() -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every callable to wrap."""
        names: dict[int, str] = {}
        targets = []
        for short, mod in TRACED_MODULES.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    names[id(obj)] = f"{short}.{attr}"
                elif inspect.isclass(obj):
                    for meth, _ in inspect.getmembers(obj, inspect.isfunction):
                        if not meth.startswith("_"):
                            targets.append((obj, meth, f"{short}.{attr}.{meth}"))
        for mod in (*TRACED_MODULES.values(), fedledger):
            for attr, obj in vars(mod).items():
                if id(obj) in names:
                    targets.append((mod, attr, names[id(obj)]))
        return targets

    @contextlib.contextmanager
    def installed(self):
        """Record a span for every traced call made inside the block."""
        saved = []
        try:
            for owner, attr, name in self._targets():
                own = owner.__dict__.get(attr)  # None: inherited by a class
                saved.append((owner, attr, own))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, own in reversed(saved):
                if own is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer figures of one traced run: (deterministic counts, seconds).

    Figures of spans inside `run_round` are divided by the number of rounds;
    the `PER_RUN` spans, which run outside every round, are totals for the run.
    Self time is a span's duration minus the durations of its direct
    children, which cover disjoint parts of it because calls are nested.
    """
    n = len(spans)
    child_s = [0.0] * n
    in_round = [False] * n
    in_shapley = [False] * n
    in_greedy = [False] * n
    in_valuation_utility = [False] * n
    for i, span in enumerate(spans):
        p = span.parent
        if p < 0:
            continue
        parent = spans[p]
        child_s[p] += span.end - span.start
        in_round[i] = in_round[p] or parent.name == ROUND
        in_shapley[i] = in_shapley[p] or parent.name in SHAPLEY
        in_greedy[i] = in_greedy[p] or parent.name == GREEDY
        in_valuation_utility[i] = in_valuation_utility[p] or (
            parent.name == UTILITY and in_shapley[p]
        )

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    size: dict[str, int] = {}

    def add(key: str, i: int) -> None:
        span = spans[i]
        duration = span.end - span.start
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + duration
        self_s[key] = self_s.get(key, 0.0) + duration - child_s[i]
        size[key] = size.get(key, 0) + span.size

    accepted = 0
    consensus_errors = 0
    for i, span in enumerate(spans):
        name = span.name
        if not (in_round[i] or name == ROUND):
            if name in PER_RUN:
                add("run:" + name, i)
            continue
        add(name, i)
        if name == UTILITY and in_shapley[i]:
            add("valuation.utility", i)
        elif name == UTILITY and in_greedy[i]:
            add("selection.select_greedy.utility", i)
        elif name == "model.average" and in_valuation_utility[i]:
            add("valuation.utility.miss", i)
        elif name in SHAPLEY:
            add("valuation.shapley", i)
        elif name in SELECT and spans[span.parent].name not in SELECT:
            add("selection.select", i)
        elif name in SEAL:
            add("ledger.seal", i)
        elif name == "model.evaluate" and spans[span.parent].name == ROUND:
            add("federation.metrics_eval", i)
        elif name == "ledger.verify_local_update":
            accepted += span.ok
        elif name == "ledger.majority_global":
            consensus_errors += span.error == "ConsensusError"

    rounds = calls.get(ROUND, 0)
    if rounds == 0:
        raise ValueError("trace holds no federation.run_round span")

    def per_round(table: dict, key: str) -> float:
        return table.get(key, 0) / rounds

    counts = {
        "model.local_train.calls": per_round(calls, "model.local_train"),
        "model.gradient.calls": per_round(calls, "model.gradient"),
        "model.gradient.rows": per_round(size, "model.gradient"),
        "data.Dataset.subset.calls": per_round(calls, "data.Dataset.subset"),
        "model.predict_batch.calls": per_round(calls, "model.predict_batch"),
        "model.predict_batch.rows": per_round(size, "model.predict_batch"),
        "model.loss.calls": per_round(calls, "model.loss"),
        "model.average.calls": per_round(calls, "model.average"),
        "valuation.utility.calls": per_round(calls, "valuation.utility"),
        "valuation.utility.misses": per_round(calls, "valuation.utility.miss"),
        "valuation.utility.hit_ratio": (
            1.0 - calls.get("valuation.utility.miss", 0) / calls["valuation.utility"]
            if calls.get("valuation.utility") else 0.0
        ),
        "valuation.num_evaluations": per_round(size, "valuation.shapley"),
        "selection.select_greedy.utility_calls": per_round(
            calls, "selection.select_greedy.utility"
        ),
        "ledger.verify_local_update.calls": per_round(calls, "ledger.verify_local_update"),
        "ledger.verify_local_update.accepted_ratio": (
            accepted / calls["ledger.verify_local_update"]
            if calls.get("ledger.verify_local_update") else 0.0
        ),
        "ledger.ContentStore.put.calls": per_round(calls, "ledger.ContentStore.put"),
        "ledger.ContentStore.put.bytes": per_round(size, "ledger.ContentStore.put"),
        "ledger.ContentStore.get.calls": per_round(calls, "ledger.ContentStore.get"),
        "ledger.ContentStore.get.bytes": per_round(size, "ledger.ContentStore.get"),
        "ledger.serialize_params.calls": per_round(calls, "ledger.serialize_params"),
        "ledger.params_digest.calls": per_round(calls, "ledger.params_digest"),
        "ledger.consensus_errors": consensus_errors / rounds,
        "ledger.export_chain.bytes": size.get("run:ledger.export_chain", 0),
        "federation.metrics_eval.calls": per_round(calls, "federation.metrics_eval"),
    }
    train_s = total.get("model.local_train", 0.0)
    seconds = {
        "model.local_train.self_s": per_round(self_s, "model.local_train"),
        "model.local_train.total_s": per_round(total, "model.local_train"),
        "model.gradient.total_s": per_round(total, "model.gradient"),
        "model.train_rows_per_s": size.get("model.gradient", 0) / train_s if train_s else 0.0,
        "data.Dataset.subset.total_s": per_round(total, "data.Dataset.subset"),
        "model.predict_batch.total_s": per_round(total, "model.predict_batch"),
        "model.loss.self_s": per_round(self_s, "model.loss"),
        "model.average.total_s": per_round(total, "model.average"),
        "valuation.shapley.total_s": per_round(total, "valuation.shapley"),
        "valuation.shapley.self_s": per_round(self_s, "valuation.shapley"),
        "valuation.utility.total_s": per_round(total, "valuation.utility"),
        "selection.select.total_s": per_round(total, "selection.select"),
        "selection.select_greedy.total_s": per_round(total, GREEDY),
        "ledger.verify_local_update.total_s": per_round(total, "ledger.verify_local_update"),
        "ledger.verify_local_update.self_s": per_round(self_s, "ledger.verify_local_update"),
        "ledger.ContentStore.put.total_s": per_round(total, "ledger.ContentStore.put"),
        "ledger.ContentStore.get.total_s": per_round(total, "ledger.ContentStore.get"),
        "ledger.majority_global.total_s": per_round(total, "ledger.majority_global"),
        "ledger.seal.total_s": per_round(total, "ledger.seal"),
        "federation.run_round.total_s": per_round(total, ROUND),
        "federation.run_round.self_s": per_round(self_s, ROUND),
        "federation.metrics_eval.total_s": per_round(total, "federation.metrics_eval"),
    }
    for name in PER_RUN:
        seconds[name + ".total_s"] = total.get("run:" + name, 0.0)
    return counts, seconds
