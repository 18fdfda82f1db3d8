"""Outside-in tracing of layeropt for the benchmark's traced runs.

Each public function of the traced modules is wrapped once. The wrapper is
installed under every module attribute that holds the original, because
callers look functions up by name in their own module (``batch`` imports
``forward``, ``sigmoid``, ``lbfgs_minimize`` and ``armijo_linesearch``), and
in ``network._ACT``, through which ``_propagate`` reaches ``sigmoid``. Every
call becomes a span kept in memory: name, start, end and the index of the
span that caused it. A span's self time is its duration minus the time its
child spans cover.

Callbacks handed to the solvers (the objective-and-gradient function of
``lbfgs_minimize`` and the line function of ``armijo_linesearch``) are
wrapped at the call, which counts evaluations and Armijo trials from
outside. Pool workers of ``harness.run_experiment`` trace their own tasks
and send the totals back on the report row.
"""

import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("network", "objective", "solvers", "batch", "minibatch", "data",
          "harness")

_ACTIVE = None  # the installed tracer; pool workers reach it through here


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _layer_of(fn):
    mod = getattr(fn, "__module__", "") or ""
    return mod.rsplit(".", 1)[-1] if mod.startswith("layeropt.") else "bench"


class Tracer:
    """Wraps layeropt's public functions and aggregates the spans they record."""

    def __init__(self):
        self._patched = []          # (module, attribute, original)
        self._act_saved = None
        self.execute_task = None    # harness._execute_task before install
        self.pid = None             # process that installed the wrappers
        self.reset()

    def reset(self):
        self.spans = []             # [name, start_ns, end_ns, parent_index]
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []            # [span_index, child_ns] of open spans

    def call(self, name, fn, args, kwargs):
        rec = [name, 0, 0, self._stack[-1][0] if self._stack else -1]
        frame = [len(self.spans), 0]
        self.spans.append(rec)
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            dur = t1 - t0
            rec[1], rec[2] = t0, t1
            self.calls[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _callback(self, fn, kind, counter):
        name = f"{_layer_of(fn)}.{kind}"

        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return self.call(name, fn, args, kwargs)
        return counted

    def _wrap(self, name, fn):
        tracer = self
        if name in ("network.forward", "network.forward_partial"):
            def wrapper(*args, **kwargs):
                weights = _arg(args, kwargs, 0, "weights")
                start = 1 if name == "network.forward" \
                    else _arg(args, kwargs, 2, "from_layer")
                tracer.counts["network.layer_forwards"] += \
                    weights.num_layers - start + 1
                return tracer.call(name, fn, args, kwargs)
        elif name == "objective.backprop_deltas":
            def wrapper(*args, **kwargs):
                weights = _arg(args, kwargs, 0, "weights")
                tracer.counts["objective.delta_steps"] += \
                    weights.num_layers - _arg(args, kwargs, 3, "down_to")
                return tracer.call(name, fn, args, kwargs)
        elif name == "solvers.lbfgs_minimize":
            def wrapper(fun_grad, *args, **kwargs):
                res = tracer.call(name, fn, (tracer._callback(
                    fun_grad, "fg", "solvers.fg_evals"),) + args, kwargs)
                tracer.counts["solvers.lbfgs_iterations"] += res.iterations
                return res
        elif name == "solvers.armijo_linesearch":
            def wrapper(phi, *args, **kwargs):
                return tracer.call(name, fn, (tracer._callback(
                    phi, "phi", "solvers.armijo_trials"),) + args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        package = {n: m for n, m in sys.modules.items()
                   if n == "layeropt" or n.startswith("layeropt.")}
        wrappers = {}               # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = package[f"layeropt.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and isinstance(obj, types.FunctionType) \
                        and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        network = package["layeropt.network"]
        act = getattr(network, "_ACT", None)
        if act is not None:
            self._act_saved = (act, dict(act))
            for key, fns in act.items():
                act[key] = tuple(wrappers.get(id(f), (f, f))[1] for f in fns)
        harness = package["layeropt.harness"]
        self.execute_task = harness._execute_task
        harness._execute_task = traced_task
        self._patched.append((harness, "_execute_task", self.execute_task))
        self.pid = os.getpid()
        _ACTIVE = self

    def uninstall(self):
        global _ACTIVE
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []
        if self._act_saved is not None:
            act, saved = self._act_saved
            act.clear()
            act.update(saved)
            self._act_saved = None
        _ACTIVE = None

    def summary(self):
        return {"calls": dict(self.calls), "total_ns": dict(self.total_ns),
                "self_ns": dict(self.self_ns), "counts": dict(self.counts)}

    def merge(self, summary):
        for key in ("calls", "total_ns", "self_ns", "counts"):
            table = getattr(self, key)
            for name, value in summary[key].items():
                table[name] += value


def traced_task(task):
    """Stands in for ``harness._execute_task``. In a pool worker it runs the
    task under a fresh set of spans and attaches their totals to the row;
    without a pool the task's spans join the caller's."""
    tracer = _ACTIVE
    if tracer is None:              # a worker that did not inherit the tracer
        tracer = Tracer()
        tracer.install()
    if tracer.pid == os.getpid() and tracer._stack:
        return tracer.call("harness._execute_task", tracer.execute_task,
                           (task,), {})
    tracer.reset()
    row = tracer.call("harness._execute_task", tracer.execute_task, (task,), {})
    row.trace = tracer.summary()    # not a dataclass field: emit ignores it
    return row


def layer_metrics(summary, workers=0):
    """Per-layer metrics from merged span totals (one traced round); pool
    busy time is set against ``run_experiment``'s wall time x workers."""
    calls, counts = summary["calls"], summary["counts"]

    def sec(table, *names):
        return sum(summary[table].get(n, 0) for n in names) / 1e9

    def layer_self(layer):
        return sum(v for n, v in summary["self_ns"].items()
                   if n.split(".", 1)[0] == layer) / 1e9

    evals = counts.get("solvers.fg_evals", 0)
    busy = sec("total_ns", "harness._execute_task")
    pool_wall = sec("total_ns", "harness.run_experiment")
    return {
        "network.forward_calls": calls.get("network.forward", 0),
        "network.forward_partial_calls": calls.get("network.forward_partial", 0),
        "network.layer_forwards": counts.get("network.layer_forwards", 0),
        "network.sigmoid_calls": calls.get("network.sigmoid", 0),
        "network.sigmoid_s": sec("total_ns", "network.sigmoid"),
        "network.forward_self_s": sec("self_ns", "network.forward",
                                      "network.forward_partial"),
        "objective.backprop_calls": calls.get("objective.backprop_deltas", 0),
        "objective.delta_steps": counts.get("objective.delta_steps", 0),
        "objective.backprop_s": sec("total_ns", "objective.backprop_deltas"),
        "objective.full_gradient_calls":
            calls.get("objective.full_gradient", 0)
            + calls.get("objective.minibatch_all_gradients", 0),
        "objective.block_gradient_calls":
            calls.get("objective.block_gradient", 0)
            + calls.get("objective.minibatch_block_gradient", 0),
        "solvers.lbfgs_iterations": counts.get("solvers.lbfgs_iterations", 0),
        "solvers.fg_evals": evals,
        "solvers.armijo_trials": counts.get("solvers.armijo_trials", 0),
        "solvers.useful_eval_ratio":
            counts.get("solvers.lbfgs_iterations", 0) / evals if evals else 0.0,
        "solvers.self_s": layer_self("solvers"),
        "batch.inner_solves": calls.get("solvers.lbfgs_minimize_block", 0),
        "batch.self_s": layer_self("batch"),
        "minibatch.steps": calls.get("minibatch.clamped_scale", 0),
        "minibatch.self_s": layer_self("minibatch"),
        "data.load_delimited_s": sec("total_ns", "data.load_delimited"),
        "data.prepare_s": sec("total_ns", "harness.prepare_dataset"),
        "harness.task_busy_s": busy,
        "harness.pool_busy_ratio":
            busy / (pool_wall * workers) if pool_wall and workers else 0.0,
        "harness.emit_report_s": sec("total_ns", "harness.emit_report"),
        "harness.load_report_s": sec("total_ns", "harness.load_report"),
    }


# Work counts: they must repeat exactly between traced rounds of one seed.
COUNT_METRICS = (
    "network.forward_calls", "network.forward_partial_calls",
    "network.layer_forwards", "network.sigmoid_calls",
    "objective.backprop_calls", "objective.delta_steps",
    "objective.full_gradient_calls", "objective.block_gradient_calls",
    "solvers.lbfgs_iterations", "solvers.fg_evals", "solvers.armijo_trials",
    "batch.inner_solves", "minibatch.steps")
