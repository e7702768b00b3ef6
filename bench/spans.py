"""Span tracing from outside the program, and the per-layer figures.

`Tracer.install` replaces the program's functions with timing wrappers in
every ordembed module namespace that holds them (a name imported with
`from x import f` is a separate binding that must be replaced too), and
`uninstall` puts the originals back. Each call records a span: layer name,
start, end, parent span and op id. Spans live in flat typed arrays while
the run lasts, so a falsifier pass (a few hundred thousand stress
evaluations) costs a few megabytes, and are written out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# (module, attribute, layer); attributes that map to one layer are summed
LAYERS = (
    ("ordembed.cli", "main", "cli"),
    ("ordembed.orders", "from_json", "orders.from_json"),
    ("ordembed.orders", "validate", "orders.validate"),
    ("ordembed.constructions", "realize", "constructions.realize"),
    ("ordembed.constructions", "perturbed_distances",
     "constructions.perturbed_distances"),
    ("ordembed.constructions", "align_isometry",
     "constructions.align_isometry"),
    ("ordembed.constructions", "_realized_margin",
     "constructions.realized_margin"),
    ("ordembed.schoenberg", "distances_of", "schoenberg.distances_of"),
    ("ordembed.schoenberg", "gram_from_distances",
     "schoenberg.gram_from_distances"),
    ("ordembed.schoenberg", "min_eigenvalue", "schoenberg.min_eigenvalue"),
    ("ordembed.schoenberg", "factor_points", "schoenberg.factor_points"),
    ("ordembed.schoenberg", "config_to_json", "schoenberg.config_io"),
    ("ordembed.schoenberg", "config_from_json", "schoenberg.config_io"),
    ("ordembed.verifier", "verify", "verifier.verify"),
    ("ordembed.verifier", "induced_preorder", "verifier.induced_preorder"),
    ("ordembed.verifier", "_first_disagreement",
     "verifier.first_disagreement"),
    ("ordembed.counterexamples", "falsify", "counterexamples.falsify"),
    ("ordembed.counterexamples", "_descend", "counterexamples.descend"),
    ("ordembed.counterexamples", "_loss_grad", "counterexamples.loss_grad"),
    ("ordembed.counterexamples", "_loss_only", "counterexamples.loss_only"),
)
EPSILON_STEP = "constructions.epsilon_steps"
# layers whose calls nest other traced layers report self time too
NESTING = ("cli", "orders.from_json", "constructions.realize",
           EPSILON_STEP, "constructions.realized_margin", "verifier.verify",
           "verifier.induced_preorder", "counterexamples.falsify",
           "counterexamples.descend")


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ordembed"
                                  or name.startswith("ordembed."))]


class Tracer:
    def __init__(self):
        self.layers = sorted({layer for _, _, layer in LAYERS}
                             | {EPSILON_STEP})
        self._id = {layer: k for k, layer in enumerate(self.layers)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_kinds: list[str] = []
        self.descend_iters: dict[int, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self, kind: str) -> None:
        self.op_id = len(self.op_kinds)
        self.op_kinds.append(kind)

    def _wrap(self, layer: str, fn, on_open=None):
        nid = self._id[layer]
        name, parent, op, start, end, stack = (
            self.name, self.parent, self.op, self.start, self.end,
            self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            if on_open is not None:
                on_open(i, args, kwargs)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def _replace(self, original, wrapped) -> None:
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        for module_name, attr, layer in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            on_open = None
            if layer == "counterexamples.descend":
                sig = inspect.signature(original)

                def on_open(i, args, kwargs, sig=sig):
                    bound = sig.bind(*args, **kwargs)
                    self.descend_iters[i] = int(bound.arguments["iters"])
            self._replace(original, self._wrap(layer, original, on_open))
        # each probe of the epsilon search is one call of the test closure
        # that the realizers hand to choose_epsilon
        choose = sys.modules["ordembed.constructions"].choose_epsilon
        wrap = self._wrap

        @functools.wraps(choose)
        def traced_choose(search, test):
            return choose(search, wrap(EPSILON_STEP, test))
        self._replace(choose, traced_choose)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        return name, parent, op, dur

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures as {metric: (value, unit)}. A layer that was
        never called reports zero calls and zero seconds; a ratio or
        per-call figure whose base is zero reports 0."""
        name, parent, op, dur = self.arrays()
        n = len(dur)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_dur = dur - child
        out: dict[str, tuple[float, str]] = {}
        for layer in self.layers:
            mask = name == self._id[layer]
            out[f"{layer}.calls"] = (int(mask.sum()), "count")
            out[f"{layer}.s"] = (float(dur[mask].sum()), "s")
            if layer in NESTING:
                out[f"{layer}.self_s"] = (float(self_dur[mask].sum()), "s")

        def calls(layer):
            return out[f"{layer}.calls"][0]

        kinds = np.array(self.op_kinds + [""])  # op id -1 maps to ""
        realize_ops = self.op_kinds.count("realize")
        in_realize = kinds[op] == "realize"
        validate = name == self._id["orders.validate"]
        out["orders.validate.calls_per_realize"] = (
            _ratio(int((validate & in_realize).sum()), realize_ops), "count")
        out[f"{EPSILON_STEP}.per_realize"] = (
            _ratio(calls(EPSILON_STEP), calls("constructions.realize")),
            "count")
        lg = "counterexamples.loss_grad"
        out[f"{lg}.us_per_call"] = (
            _ratio(out[f"{lg}.s"][0] * 1e6, calls(lg)), "us")

        # a restart's accepted steps = its gradient evaluations minus the
        # initial one; trial steps are loss-only evaluations
        descend_id = self._id["counterexamples.descend"]
        spans = np.flatnonzero(name == descend_id)
        grads = np.flatnonzero((name == self._id[lg]) & nested)
        grads = grads[name[parent[grads]] == descend_id]
        per_span = np.bincount(parent[grads], minlength=n)[spans]
        accepted = np.maximum(per_span - 1, 0)
        caps = np.array([self.descend_iters[int(i)] for i in spans],
                        dtype=np.int64)
        out["counterexamples.step_accept_ratio"] = (
            _ratio(int(accepted.sum()),
                   calls("counterexamples.loss_only")), "ratio")
        out["counterexamples.restart_iters_p50"] = (
            float(np.median(accepted)) if spans.size else 0.0, "count")
        out["counterexamples.cap_hit_ratio"] = (
            _ratio(int((accepted >= caps).sum()), int(spans.size)), "ratio")
        out["trace.spans"] = (n, "count")
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: op id, op kind, layer, start,
        end, parent span index (-1 for an op's outermost span)."""
        name, parent, op, _ = self.arrays()
        kinds = self.op_kinds + ["none"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tkind\tlayer\tstart\tend\tparent\n")
            for k in range(len(name)):
                fh.write(f"{op[k]}\t{kinds[op[k]]}\t{self.layers[name[k]]}\t"
                         f"{self.start[k]!r}\t{self.end[k]!r}\t{parent[k]}\n")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0
