"""Span tracer that wraps the public functions of the mpqkd modules.

Nothing inside the package is edited: each public function is replaced, in
every mpqkd namespace that binds it, by a wrapper that records one span per
call.  Callers resolve module globals at call time, so ``optimize`` calling
``key_length_nsixstate`` and ``key_length_nsixstate`` calling
``gamma_pe_infimum`` both go through the wrappers.

Spans are kept in flat arrays (name, parent span, operation id, start, end)
and written out once a traced pass ends.  Self time is a span's duration
minus the durations of its direct children; ``span_problems`` checks that
the children lie inside their parent and do not overlap, which is what
makes that subtraction right.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from mpqkd.finite_key import ConfigurationError

LAYERS = ("numerics", "noise", "finite_key", "asymptotic", "optimize", "simulate")


def _infeasible(args, result, exc):
    if exc is not None:
        return 1 if isinstance(exc, ConfigurationError) else None
    return None if result.feasible else 1


def _optimum(args, result, exc):
    # (evaluations, L): L identifies the round count a threshold scan probed
    return None if exc is not None else (result.evaluations, args[2])


def _sampled_rounds(args, result, exc):
    return None if exc is not None else result.ab_rounds + result.x_rounds


def _trials(args, result, exc):
    return None if exc is not None else result.trials


# per-call measurements stored beside the span, keyed by "<layer>.<function>"
HOOKS: Dict[str, Callable] = {
    "finite_key.key_length_nbb84": _infeasible,
    "finite_key.key_length_nsixstate": _infeasible,
    "optimize.optimize_rate": _optimum,
    "simulate.simulate_rounds": _sampled_rounds,
    "simulate.sampling_lemma_experiment": _trials,
    "simulate.ec_toy_run": _trials,
}


def public_functions() -> List[Tuple[str, object]]:
    """(``layer.function``, function) for every public function of each layer."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"mpqkd.{layer}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found.append((f"{layer}.{attr}", fn))
    return found


class Tracer:
    """Wraps the layers between ``install`` and ``remove``; spans stay in memory."""

    def __init__(self) -> None:
        targets = public_functions()
        self.names: List[str] = [name for name, _ in targets]
        self._targets = targets
        self.name_id = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values: Dict[int, object] = {}
        self.current_op = -1
        self._stack = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, hook: Optional[Callable]):
        name_id_a, parent_a, op_a = self.name_id, self.parent, self.op
        start_a, end_a, values, stack = self.start, self.end, self.values, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(end_a)
            name_id_a.append(name_id)
            parent_a.append(stack[-1])
            op_a.append(tracer.current_op)
            end_a.append(0.0)
            stack.append(sid)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end_a[sid] = clock()
                stack.pop()
                if hook is not None:
                    value = hook(args, None, exc)
                    if value is not None:
                        values[sid] = value
                raise
            end_a[sid] = clock()
            stack.pop()
            if hook is not None:
                value = hook(args, result, None)
                if value is not None:
                    values[sid] = value
            return result

        return traced

    def install(self) -> None:
        wrappers = {
            id(fn): (fn, self._wrap(fn, i, HOOKS.get(name)))
            for i, (name, fn) in enumerate(self._targets)
        }
        modules = [m for n, m in sys.modules.items() if n == "mpqkd" or n.startswith("mpqkd.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def remove(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def spans(self) -> Dict[str, np.ndarray]:
        if self._stack != [-1]:
            raise RuntimeError("tracer read inside an open span")
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def function_stats(spans: Dict[str, np.ndarray], names: List[str]) -> Dict[str, Dict[str, float]]:
    """calls, self_s and total_s (inclusive) per traced function."""
    dur = spans["end"] - spans["start"]
    nested = spans["parent"] >= 0
    child = np.bincount(spans["parent"][nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    k = len(names)
    calls = np.bincount(spans["name_id"], minlength=k)
    self_s = np.bincount(spans["name_id"], weights=self_time, minlength=k)
    total_s = np.bincount(spans["name_id"], weights=dur, minlength=k)
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
        for i, name in enumerate(names)
    }


def covered_seconds(spans: Dict[str, np.ndarray]) -> float:
    """Length of the union of all span intervals, read without parent ids."""
    order = np.argsort(spans["start"], kind="stable")
    start, end = spans["start"][order], spans["end"][order]
    reach = np.maximum.accumulate(end)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.sum(reach - np.maximum(start, before)))


def span_problems(spans: Dict[str, np.ndarray]) -> List[str]:
    """Ways in which the recorded spans are not properly nested calls.

    A parent must be an earlier span that contains its child, spans with the
    same parent (top-level spans included) must not overlap, and the self
    times must add up to the time that the spans cover.
    """
    problems = []
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    ids = np.arange(len(start))
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans end before they start")
    nested = parent >= 0
    if np.any(parent[nested] >= ids[nested]):
        problems.append("a parent span is not earlier than its child")
    else:
        up = parent[nested]
        outside = (start[nested] < start[up]) | (end[nested] > end[up])
        if np.any(outside):
            problems.append(f"{int(np.sum(outside))} spans lie outside their parent span")
    order = np.lexsort((ids, parent))
    same = parent[order][1:] == parent[order][:-1]
    overlap = same & (start[order][1:] < end[order][:-1])
    if np.any(overlap):
        problems.append(f"{int(np.sum(overlap))} sibling spans overlap")
    dur = end - start
    self_total = float(dur.sum() - dur[nested].sum())
    covered = covered_seconds(spans)
    if abs(self_total - covered) > 1e-9 * max(covered, 1.0):
        problems.append(f"self times sum to {self_total!r} s, the spans cover {covered!r} s")
    return problems


# per-layer metrics reported by a traced run: which statistic of which function
CALLS_AND_SELF = (
    "finite_key.key_length_nsixstate",
    "finite_key.key_length_nbb84",
    "finite_key.gamma_pe_infimum",
    "optimize.optimize_rate",
    "optimize.allocate_budget",
    "optimize.threshold_L",
    "numerics.eps_sum",
    "simulate.simulate_rounds",
    "simulate.exact_marginals",
    "noise.marginal_probabilities",
    "asymptotic.rate_sixstate_asymptotic",
    "asymptotic.find_rate_root",
)
SELF_ONLY = ("simulate.sampling_lemma_experiment", "simulate.ec_toy_run")
CALLS_ONLY = ("numerics.eta_correction", "numerics.xi_correction")
US_PER_CALL = (
    "finite_key.key_length_nsixstate",
    "finite_key.key_length_nbb84",
    "finite_key.gamma_pe_infimum",
    "optimize.allocate_budget",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Dict[str, np.ndarray], names: List[str], values: Dict[int, object]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit).

    ``us_per_call`` and the throughputs use inclusive span time, the cost of
    one call as its caller sees it; ``self_s`` excludes traced callees.
    """
    stats = function_stats(spans, names)
    out: Dict[str, Tuple[float, str]] = {}
    for fn in CALLS_AND_SELF:
        out[f"{fn}.calls"] = (stats[fn]["calls"], "count")
        out[f"{fn}.self_s"] = (stats[fn]["self_s"], "s")
    for fn in SELF_ONLY:
        out[f"{fn}.self_s"] = (stats[fn]["self_s"], "s")
    for fn in CALLS_ONLY:
        out[f"{fn}.calls"] = (stats[fn]["calls"], "count")
    for fn in US_PER_CALL:
        out[f"{fn}.us_per_call"] = (1e6 * _ratio(stats[fn]["total_s"], stats[fn]["calls"]), "us")

    by_name: Dict[str, List[Tuple[int, object]]] = {}
    for sid, value in values.items():
        by_name.setdefault(names[spans["name_id"][sid]], []).append((sid, value))

    evaluators = ("finite_key.key_length_nbb84", "finite_key.key_length_nsixstate")
    infeasible = sum(len(by_name.get(fn, [])) for fn in evaluators)
    evaluations = sum(stats[fn]["calls"] for fn in evaluators)
    out["finite_key.infeasible_ratio"] = (_ratio(infeasible, evaluations), "ratio")

    optima = by_name.get("optimize.optimize_rate", [])
    out["optimize.optimize_rate.evals_per_call"] = (
        _ratio(sum(v[0] for _, v in optima), stats["optimize.optimize_rate"]["calls"]),
        "count",
    )
    threshold_id = names.index("optimize.threshold_L")
    probed = {
        (int(spans["parent"][sid]), v[1])
        for sid, v in optima
        if spans["parent"][sid] >= 0 and spans["name_id"][spans["parent"][sid]] == threshold_id
    }
    out["optimize.threshold_L.rounds_probed"] = (len(probed), "count")

    rounds = sum(v for _, v in by_name.get("simulate.simulate_rounds", []))
    out["simulate.simulate_rounds.rounds_per_s"] = (
        _ratio(rounds, stats["simulate.simulate_rounds"]["total_s"]),
        "1/s",
    )
    for fn in SELF_ONLY:
        trials = sum(v for _, v in by_name.get(fn, []))
        out[f"{fn}.trials_per_s"] = (_ratio(trials, stats[fn]["total_s"]), "1/s")
    return out
