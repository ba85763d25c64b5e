"""Span tracer that wraps the package's public functions from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each public
function of a layer module, and selected ``QuadSurd`` methods, by a
timing wrapper, in every package module that bound the function by name
(``from .engine import surd_cf`` in ``ratios``, ``properties`` and
``cli`` makes three separate bindings).  ``uninstall`` puts the
originals back.

Each call is a span (name, start, end, parent, op id).  Spans are folded
into per-function counters as they close; the first ``keep`` spans are
also kept verbatim so that the folding can be checked offline and
written out at the end.  A span's self time is its duration minus the
durations of its direct child spans; the time of an op outside every
span is the op's untraced remainder, so for each op

    sum of self times over its spans + untraced remainder == op wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("exactarith", "engine", "ratios", "properties", "areas", "cli")
QUADSURD_METHODS = (
    "__post_init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse", "sign",
    "__lt__", "__le__", "__gt__", "__ge__", "floor", "decimal",
)
VERDICTS = (
    "ratios.ratio_eq", "ratios.mixed_ratio_eq", "ratios.cross_product_eq",
    "ratios.check_proposition",
)


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op)
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.layer_self = {layer: 0 for layer in LAYERS}
        self.layer_outer = {layer: 0 for layer in LAYERS}  # outermost-span time
        self.extra: dict[str, int] = {}
        self._depth = {layer: 0 for layer in LAYERS}
        self._stack: list[list] = []  # frames [child_ns, span_id, name]
        self._next_id = 0
        self._op = -1
        self._op_top_ns = 0
        self._verdict_depth = 0
        self._verdict_pairs: set = set()
        self._verdict_calls = 0
        self._patched: list[tuple] = []
        self.ops = 0
        self.wall_ns = 0
        self.untraced_ns = 0

    # -- counters derived at span boundaries ---------------------------------

    def add(self, key: str, n: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.extra.get(key, 0):
            self.extra[key] = n

    def _on_exit(self, name: str, args, result, dur: int, parent: str | None) -> None:
        if name == "engine.run_anthyphairesis":
            cf, trace = result
            self.peak("engine.peak_states", len(trace.states))
            self.add("engine.expansions.truncated", int(cf.truncated))
        elif name == "engine.surd_cf":
            self.add("engine.expansions.truncated", int(result.truncated))
            if parent == "ratios.anth_of_ratio":
                self.add("ratios.via_surd_cf")
        elif name == "ratios.anth_of_ratio":
            if self._verdict_depth:
                self._verdict_calls += 1
                self._verdict_pairs.add((args[0], args[1]))
        elif name == "properties.run_property":
            self.add("properties.trials", result.trials)
            self.add("properties.vacuous", result.vacuous)
            self.add("properties.%s.ns" % args[0], dur)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        depth = self._depth
        layer_self = self.layer_self
        layer_outer = self.layer_outer
        spans = self.spans
        clock = time.perf_counter_ns
        verdict = name in VERDICTS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, tracer._next_id, name]
            tracer._next_id += 1
            stack.append(frame)
            depth[layer] += 1
            if verdict:
                if tracer._verdict_depth == 0:
                    tracer._verdict_pairs = set()
                    tracer._verdict_calls = 0
                tracer._verdict_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                own = dur - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += own
                layer_self[layer] += own
                if depth[layer] == 0:
                    layer_outer[layer] += dur
                if parent is not None:
                    parent[0] += dur
                else:
                    tracer._op_top_ns += dur
                if len(spans) < tracer.keep:
                    spans.append((frame[1], name, t0, t1,
                                  None if parent is None else parent[1], tracer._op))
                if verdict:
                    tracer._verdict_depth -= 1
                    if tracer._verdict_depth == 0:
                        tracer.add("ratios.verdicts")
                        tracer.add("ratios.verdict.anth_calls", tracer._verdict_calls)
                        tracer.add("ratios.verdict.distinct_pairs", len(tracer._verdict_pairs))
                        tracer.add("ratios.verdict.ns", dur)
            tracer._on_exit(name, args, result, dur, None if parent is None else parent[2])
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function of each layer module of ``package``."""
        modules = {"": package}
        for layer in LAYERS:
            modules[layer] = importlib.import_module(package.__name__ + "." + layer)
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules[layer]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not callable(value) or inspect.isclass(value):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(value)] = self._wrap(value, "%s.%s" % (layer, attr), layer)
        quad = modules["exactarith"].QuadSurd
        for meth in QUADSURD_METHODS:
            original = quad.__dict__[meth]
            w = wrappers.get(id(original))
            if w is None:  # __radd__ is __add__: one wrapper serves both names
                w = self._wrap(original, "exactarith.QuadSurd.%s" % meth.strip("_"), "exactarith")
                wrappers[id(original)] = w
            self._patched.append((quad, meth, original))
            setattr(quad, meth, w)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and not inspect.isclass(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_top_ns = 0

    def end_op(self, wall_ns: int) -> None:
        """Fold one op: its wall time is spans at top level plus the remainder."""
        self.ops += 1
        self.wall_ns += wall_ns
        self.untraced_ns += wall_ns - self._op_top_ns

    # -- results ---------------------------------------------------------------

    def counters(self) -> dict:
        """Additive counters; merge several with ``merge`` before ``metrics``."""
        out = {"ops": self.ops, "wall_ns": self.wall_ns, "untraced_ns": self.untraced_ns}
        for name, (calls, incl, own) in self.stats.items():
            if calls:
                out[name + ".calls"] = calls
                out[name + ".ns"] = incl
                out[name + ".self_ns"] = own
        for layer in LAYERS:
            out[layer + ".self_ns"] = self.layer_self[layer]
            out[layer + ".outer_ns"] = self.layer_outer[layer]
        for key, value in self.extra.items():
            out["extra." + key] = value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent, "op": op}) + "\n")


def merge(counter_sets) -> dict:
    """Sum additive counters; peaks (``extra.*peak*``) take the maximum."""
    out: dict = {}
    for c in counter_sets:
        for key, value in c.items():
            if "peak" in key:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def self_times_from_spans(spans) -> dict:
    """Per-op (sum of self times, sum of top-level durations), from raw spans."""
    child = {}
    for sid, name, t0, t1, parent, op in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0) + (t1 - t0)
    per_op: dict = {}
    for sid, name, t0, t1, parent, op in spans:
        own = (t1 - t0) - child.get(sid, 0)
        acc = per_op.setdefault(op, [0, 0])
        acc[0] += own
        if parent is None:
            acc[1] += t1 - t0
    return per_op


def _get(c: dict, key: str) -> float:
    return c.get(key, 0)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(c: dict) -> dict:
    """Per-layer metrics from merged counters: counts and seconds per op."""
    ops = max(1, c.get("ops", 0))
    s = 1e-9 / ops  # ns total -> seconds per op

    def calls(name):
        return _get(c, name + ".calls") / ops

    steps = _get(c, "engine.excess_step.calls") + _get(c, "engine.defect_step.calls")
    run_ns = _get(c, "engine.run_anthyphairesis.ns")
    expansions = _get(c, "engine.run_anthyphairesis.calls") + _get(c, "engine.surd_cf.calls")
    anth = _get(c, "ratios.anth_of_ratio.calls")
    verdicts = _get(c, "extra.ratios.verdicts")
    verdict_anth = _get(c, "extra.ratios.verdict.anth_calls")
    trials = _get(c, "extra.properties.trials")
    areas = [k for k in c if k.startswith("areas.") and k.endswith(".calls")]
    m = {
        "exactarith.square_free_split.calls": calls("exactarith.square_free_split"),
        "exactarith.square_free_split.s": _get(c, "exactarith.square_free_split.ns") * s,
        "exactarith.constructed": calls("exactarith.QuadSurd.post_init"),
        "exactarith.self_s": _get(c, "exactarith.self_ns") * s,
        "exactarith.floor.calls": calls("exactarith.QuadSurd.floor"),
        "exactarith.floor.s": _get(c, "exactarith.QuadSurd.floor.ns") * s,
        "engine.expansions": calls("engine.run_anthyphairesis"),
        "engine.steps": steps / ops,
        "engine.defect_steps": calls("engine.defect_step"),
        "engine.run.s": run_ns * s,
        "engine.steps_per_s": _share(steps, run_ns * 1e-9),
        "engine.peak_states": _get(c, "extra.engine.peak_states"),
        "engine.surd_cf.calls": calls("engine.surd_cf"),
        "engine.surd_cf.s": _get(c, "engine.surd_cf.ns") * s,
        "engine.state_space_size.s": _get(c, "engine.state_space_size.ns") * s,
        "engine.truncated_share": _share(_get(c, "extra.engine.expansions.truncated"), expansions),
        "engine.self_s": _get(c, "engine.self_ns") * s,
        "ratios.anth_of_ratio.calls": anth / ops,
        "ratios.anth_of_ratio.s": _get(c, "ratios.anth_of_ratio.ns") * s,
        "ratios.via_surd_cf_share": _share(_get(c, "extra.ratios.via_surd_cf"), anth),
        "ratios.expansions_per_verdict": _share(verdict_anth, verdicts),
        "ratios.distinct_share": _share(_get(c, "extra.ratios.verdict.distinct_pairs"),
                                        verdict_anth),
        "ratios.verdict.s": _get(c, "extra.ratios.verdict.ns") * s,
        "ratios.self_s": _get(c, "ratios.self_ns") * s,
        "properties.trials": trials / ops,
        "properties.vacuous_share": _share(_get(c, "extra.properties.vacuous"), trials),
        "properties.engine.s": _get(c, "extra.properties.engine.ns") * s,
        "properties.ratio.s": _get(c, "extra.properties.ratio.ns") * s,
        "properties.areas.s": _get(c, "extra.properties.areas.ns") * s,
        "properties.self_s": _get(c, "properties.self_ns") * s,
        "areas.calls": sum(_get(c, k) for k in areas) / ops,
        "areas.s": _get(c, "areas.outer_ns") * s,
        "areas.self_s": _get(c, "areas.self_ns") * s,
        "cli.main.s": _get(c, "cli.main.ns") * s,
        "cli.self_s": _get(c, "cli.self_ns") * s,
        "trace.untraced_s": _get(c, "untraced_ns") * s,
        "trace.op_s": _get(c, "wall_ns") * s,
    }
    return m


def dominant_layer(c: dict, cli_outside_ns: int = 0) -> str:
    """The layer with the largest self time.

    ``cli_outside_ns`` is CLI process time outside ``cli.main``
    (interpreter start and import), which belongs to the CLI layer.
    """
    own = {layer: c.get(layer + ".self_ns", 0) for layer in LAYERS}
    own["cli"] += cli_outside_ns
    return max(LAYERS, key=own.get)
