"""Spans around calls into hcl's modules, recorded from outside the package.

A :class:`Tracer` replaces public functions and methods of ``hcl.*`` with
timing wrappers, at every module that imported them, and restores them on
``uninstall``.  Each call becomes one span ``(id, name, start, end, parent,
step, phase, main_thread, context)`` kept in memory; ``dump`` writes them
out.  Tensor ops additionally wrap the ``_backward`` closure of the tensor
they return, so backward time is attributed per op kind.

Nothing here changes what the wrapped code computes.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

OP_KINDS = ("add", "multiply", "scalar_multiply", "matmul", "relu", "exp",
            "mean", "sum", "concat", "l2_normalize", "reshape", "transpose",
            "conv2d", "avg_pool2d", "softmax_cross_entropy")
RECIPES = tuple(f"{fw}.hall-{hall}" for fw in ("moco", "simclr", "simsiam")
                for hall in ("on", "off"))


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:attr`` (``attr`` may be ``Class.method``) as span ``name``.

    ``after(tracer, args, kwargs, result)`` runs after a successful call and
    may add counters or rename the span by returning a new name.
    """

    target: str
    name: str
    after: Callable | None = None
    starts_step: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.missing: list[Hook] = []
        self.step = -1
        self.step_context: dict[int, str] = {}
        self.phase = "setup"
        self.context = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []
        self._bwd_hooks: dict[str, Hook] = {}

    # ---- recording --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        self.counters[(name, self.phase)] += value

    def wrap(self, fn, hook: Hook):
        def wrapper(*args, **kwargs):
            if hook.starts_step:
                self.step += 1
                self.step_context[self.step] = self.context
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            step, phase = self.step, self.phase
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            name = hook.name
            if hook.after is not None:
                name = hook.after(self, args, kwargs, result) or name
            self.spans.append((sid, name, t0, t1, parent, step, phase,
                               threading.get_ident() == self._main,
                               self.context))
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one span of the benchmark's own code."""
        return self.wrap(fn, Hook("", name))(*args)

    # ---- patching ---------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        """Patch every hook's target; record hooks whose target is gone.

        All target modules are imported first, so every module that imports
        a target by name is loaded, and patched, before any patch is made.
        """
        for hook in hooks:
            try:
                importlib.import_module(hook.target.partition(":")[0])
            except ImportError:
                pass
        sites = [m for n, m in sys.modules.items() if n == "hcl" or n.startswith("hcl.")]
        for hook in hooks:
            mod_name, _, attr = hook.target.partition(":")
            owner = sys.modules.get(mod_name)
            owner_path, _, leaf = attr.rpartition(".")
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(hook)
                continue
            if owner_path:
                original, where = vars(owner).get(leaf), [owner]
            else:
                original, where = getattr(owner, leaf, None), sites
            if not callable(original):
                self.missing.append(hook)
                continue
            wrapped = self.wrap(original, hook)
            for site in where:
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._undo.append((site, name, value))
                        setattr(site, name, wrapped)

    def uninstall(self) -> None:
        for site, name, value in reversed(self._undo):
            setattr(site, name, value)
        self._undo.clear()

    def missing_names(self) -> set[str]:
        """Span names that no installed hook can produce."""
        out = set()
        for hook in self.missing:
            if hook.name == "tensor.op":
                out.add(f"tensor.{hook.target.split(':')[1].rstrip('_')}.fwd")
            else:
                out.add(hook.name)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id,name,start,end,parent,step,phase,main,context\n")
            for s in self.spans:
                f.write(",".join(map(str, s)) + "\n")


# ---- hooks ----------------------------------------------------------------


def _op_after(tracer: Tracer, args, kwargs, out) -> str:
    kind = out._kind
    if out._backward is not None:
        hook = tracer._bwd_hooks.get(kind)
        if hook is None:
            hook = tracer._bwd_hooks[kind] = Hook("", f"tensor.{kind}.bwd")
        out._backward = tracer.wrap(out._backward, hook)
        tracer.count("tensor.tape_nodes", 1)
    if kind == "conv2d":
        x, w = args[0], args[1]
        stride = int(kwargs.get("stride", args[3] if len(args) > 3 else 1))
        pad = int(kwargs.get("padding", args[4] if len(args) > 4 else 0))
        n, c, h, wd = x.shape
        _, _, kh, kw = w.shape
        ho = (h + 2 * pad - kh) // stride + 1
        wo = (wd + 2 * pad - kw) // stride + 1
        tracer.count("tensor.conv2d.cols_bytes", n * ho * wo * c * kh * kw * 8)
    return f"tensor.{kind}.fwd"


def _bytes_of_first_arg(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("tensor.check_finite.bytes", args[0].nbytes)


def _saved_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("checkpoint.save.bytes", os.path.getsize(args[0]))


def _records(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("data.records", len(result))


def _pairs(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("metrics.uniformity.pairs", result.n_pairs)


def step_hooks(step: str) -> list[Hook]:
    """The two probes an untraced run needs to time steps."""
    if step == "train":
        return [Hook("hcl.train:build_batch", "train.build_batch", starts_step=True),
                Hook("hcl.train:metrics_row", "train.metrics_row")]
    return [Hook("hcl.encoder:ConvEncoder.forward", "encoder.forward")]


def all_hooks() -> list[Hook]:
    hooks = [Hook(f"hcl.tensor:{'sum_' if k == 'sum' else k}", "tensor.op",
                  after=_op_after) for k in OP_KINDS]
    hooks += [
        Hook("hcl.tensor:_check_finite", "tensor.check_finite",
             after=_bytes_of_first_arg),
        Hook("hcl.tensor:Tensor.backward", "tensor.backward"),
        Hook("hcl.encoder:ConvEncoder.forward", "encoder.forward"),
        Hook("hcl.encoder:MLP.forward", "encoder.forward"),
        Hook("hcl.augment:augment_pair", "augment.pair"),
        Hook("hcl.augment:center_crop", "augment.crop"),
        Hook("hcl.augment:center_suppressed_crop", "augment.crop"),
        Hook("hcl.augment:apply_transforms", "augment.transforms"),
        Hook("hcl.train:pretrain", "train.pretrain"),
        Hook("hcl.train:build_batch", "train.build_batch", starts_step=True),
        Hook("hcl.train:metrics_row", "train.metrics_row"),
        Hook("hcl.train:SGD.step", "train.sgd_step"),
        Hook("hcl.train:SGD.zero_grad", "train.zero_grad"),
        Hook("hcl.frameworks:build_framework", "frameworks.build"),
        Hook("hcl.frameworks:infonce_loss", "frameworks.loss_head"),
        Hook("hcl.frameworks:ntxent_loss", "frameworks.loss_head"),
        Hook("hcl.frameworks:negative_cosine", "frameworks.loss_head"),
        Hook("hcl.frameworks:_FrameworkBase.after_update", "frameworks.after_update"),
        Hook("hcl.frameworks:MoCoFramework.after_update", "frameworks.after_update"),
        Hook("hcl.frameworks:FeatureQueue.entries", "frameworks.queue_entries"),
        Hook("hcl.frameworks:MoCoFramework.encode_keys", "frameworks.encode_keys"),
        Hook("hcl.hallucinator:extrapolate", "hallucinator.extrapolate"),
        Hook("hcl.hallucinator:hallucinate", "hallucinator.hallucinate"),
        Hook("hcl.frameworks:_FrameworkBase.draw_lambdas", "hallucinator.draw_lambdas"),
        Hook("hcl.checkpoint:save_checkpoint", "checkpoint.save", after=_saved_bytes),
        Hook("hcl.checkpoint:load_checkpoint", "checkpoint.load"),
        Hook("hcl.train:load_pretrained", "train.load_pretrained"),
        Hook("hcl.data:load_cifar_batch", "data.load", after=_records),
        Hook("hcl.train:extract_features", "metrics.extract_features"),
        Hook("hcl.cli:_encode_view_pairs", "metrics.encode_view_pairs"),
        Hook("hcl.metrics:uniformity", "metrics.uniformity", after=_pairs),
        Hook("hcl.metrics:project_2d", "metrics.project_2d"),
        Hook("hcl.metrics:linear_probe", "metrics.linear_probe"),
    ]
    for fw in ("MoCoFramework", "SimCLRFramework", "SimSiamFramework"):
        hooks.append(Hook(f"hcl.frameworks:{fw}.forward_loss", "train.forward_loss"))
    return hooks


# ---- step times -------------------------------------------------------------


def step_windows(spans: list[tuple]) -> dict[int, tuple[float, float, int]]:
    """Training step id -> (start, end, parent span) over the timed phase.

    A step runs from entering ``build_batch`` to leaving ``metrics_row``.
    """
    starts, ends = {}, {}
    for sid, name, t0, t1, parent, step, phase, main, _ in spans:
        if phase != "run" or not main:
            continue
        if name == "train.build_batch":
            starts[step] = (t0, parent)
        elif name == "train.metrics_row":
            ends[step] = t1
    return {s: (starts[s][0], ends[s], starts[s][1]) for s in starts if s in ends}


def step_durations_ms(spans: list[tuple], step: str) -> list[float]:
    if step == "train":
        return [(t1 - t0) * 1e3 for t0, t1, _ in step_windows(spans).values()]
    return [(s[3] - s[2]) * 1e3 for s in spans
            if s[1] == "encoder.forward" and s[6] == "run" and s[7]]


# ---- per-layer metrics --------------------------------------------------------


class _Agg:
    """Per-span-name totals over the timed phase, with self times.

    ``total``/``self_``/``calls`` cover every thread; ``main_self`` and
    ``pool_total`` split them for the report, because pool-thread spans
    overlap the main thread's wall time instead of adding to it.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        self.by_id = {s[0]: s for s in spans}
        child = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_ = defaultdict(float)
        self.main_calls = defaultdict(int)
        self.main_self = defaultdict(float)
        self.pool_calls = defaultdict(int)
        self.pool_total = defaultdict(float)
        self.all_calls = defaultdict(int)
        self.all_total = defaultdict(float)
        for s in spans:
            name, dur = s[1], s[3] - s[2]
            self.all_calls[name] += 1
            self.all_total[name] += dur
            if s[6] != "run":
                continue
            self.calls[name] += 1
            self.total[name] += dur
            self.self_[name] += dur - child[s[0]]
            if s[7]:
                self.main_calls[name] += 1
                self.main_self[name] += dur - child[s[0]]
            else:
                self.pool_calls[name] += 1
                self.pool_total[name] += dur
        self.run_counters = defaultdict(float)
        self.all_counters = defaultdict(float)
        for (name, phase), v in tracer.counters.items():
            self.all_counters[name] += v
            if phase == "run":
                self.run_counters[name] += v

    def under(self, span: tuple, name: str) -> bool:
        parent = span[4]
        while parent >= 0:
            p = self.by_id[parent]
            if p[1] == name:
                return True
            parent = p[4]
        return False


def layer_metrics(tracer: Tracer, step: str, threads: int):
    """Per-layer metrics and the self-time report for one traced run.

    Training workloads (``step == "train"``) are normalised per training
    step, the eval workload per evaluation pass.  ``data.*`` and
    ``checkpoint.*`` are per call.  Metrics whose hook target no longer
    exists are left out, never reported as 0.
    """
    agg = _Agg(tracer)
    spans = tracer.spans
    windows = step_windows(spans) if step == "train" else {}
    units = agg.calls["bench.unit"]
    n = len(windows) if step == "train" else units
    n = max(n, 1)
    ms = lambda sec: sec * 1e3 / n  # noqa: E731
    per = lambda x: x / n  # noqa: E731

    def per_call_ms(name):
        calls = agg.all_calls[name]
        return agg.all_total[name] * 1e3 / calls if calls else 0.0

    out: dict[str, tuple[float, str]] = {}
    needs: dict[str, tuple[str, ...]] = {}

    def put(name, value, unit, *spans_needed):
        out[name] = (float(value), unit)
        needs[name] = spans_needed

    for k in OP_KINDS:
        fwd, bwd = f"tensor.{k}.fwd", f"tensor.{k}.bwd"
        put(f"tensor.{k}.fwd_ms", ms(agg.total[fwd]), "ms", fwd)
        put(f"tensor.{k}.bwd_ms", ms(agg.total[bwd]), "ms", fwd)
        put(f"tensor.{k}.calls", per(agg.calls[fwd]), "count", fwd)
    put("tensor.conv2d.cols_mb",
        per(agg.run_counters["tensor.conv2d.cols_bytes"]) / 1e6, "MB",
        "tensor.conv2d.fwd")
    put("tensor.check_finite_ms", ms(agg.total["tensor.check_finite"]), "ms",
        "tensor.check_finite")
    put("tensor.check_finite_mb",
        per(agg.run_counters["tensor.check_finite.bytes"]) / 1e6, "MB",
        "tensor.check_finite")
    put("tensor.backward_ms", ms(agg.total["tensor.backward"]), "ms", "tensor.backward")
    put("tensor.backward.self_ms", ms(agg.self_["tensor.backward"]), "ms",
        "tensor.backward")
    put("tensor.tape_nodes", per(agg.run_counters["tensor.tape_nodes"]),
        "count", *(f"tensor.{k}.fwd" for k in OP_KINDS))

    put("encoder.forward_ms", ms(agg.total["encoder.forward"]), "ms", "encoder.forward")
    put("encoder.forward.calls", per(agg.calls["encoder.forward"]), "count",
        "encoder.forward")
    put("encoder.forward.self_ms", ms(agg.self_["encoder.forward"]), "ms",
        "encoder.forward")

    put("augment.pair_ms", ms(agg.total["augment.pair"]), "ms", "augment.pair")
    put("augment.pairs", per(agg.calls["augment.pair"]), "count", "augment.pair")
    put("augment.crop_ms", ms(agg.total["augment.crop"]), "ms", "augment.crop")
    put("augment.transforms_ms", ms(agg.total["augment.transforms"]), "ms",
        "augment.transforms")

    build = agg.total["train.build_batch"]
    busy = sum(s[3] - s[2] for s in spans
               if s[1] == "augment.pair" and s[6] == "run"
               and (not s[7] or agg.under(s, "train.build_batch")))
    put("train.build_batch_ms", ms(build), "ms", "train.build_batch")
    put("train.pool_utilisation", busy / (threads * build) if build else 0.0, "ratio",
        "train.build_batch", "augment.pair")
    put("train.forward_loss_ms", ms(agg.total["train.forward_loss"]), "ms",
        "train.forward_loss")
    put("train.sgd_step_ms", ms(agg.total["train.sgd_step"]), "ms", "train.sgd_step")

    covered = defaultdict(float)
    for s in spans:
        w = windows.get(s[5])
        if w and s[7] and s[4] == w[2] and s[2] >= w[0] and s[3] <= w[1]:
            covered[s[5]] += s[3] - s[2]
    step_total = sum(t1 - t0 for t0, t1, _ in windows.values())
    unaccounted = step_total - sum(covered.values())
    put("train.unaccounted_ms", ms(unaccounted), "ms",
        "train.build_batch", "train.metrics_row")
    by_recipe = defaultdict(list)
    for s, (t0, t1, _) in windows.items():
        by_recipe[tracer.step_context.get(s, "")].append((t1 - t0) * 1e3)
    for recipe in RECIPES:
        vals = by_recipe.get(recipe, [])
        put(f"train.step_ms.{recipe}", statistics.median(vals) if vals else 0.0, "ms",
            "train.build_batch", "train.metrics_row")

    put("frameworks.loss_head_ms", ms(agg.total["frameworks.loss_head"]), "ms",
        "frameworks.loss_head")
    put("frameworks.after_update_ms", ms(agg.total["frameworks.after_update"]), "ms",
        "frameworks.after_update")
    put("frameworks.queue_entries_ms", ms(agg.total["frameworks.queue_entries"]), "ms",
        "frameworks.queue_entries")
    put("frameworks.encode_keys_ms", ms(agg.total["frameworks.encode_keys"]), "ms",
        "frameworks.encode_keys")

    for name in ("extrapolate", "hallucinate", "draw_lambdas"):
        put(f"hallucinator.{name}_ms", ms(agg.total[f"hallucinator.{name}"]), "ms",
            f"hallucinator.{name}")

    saves = agg.all_calls["checkpoint.save"]
    put("checkpoint.save_ms", per_call_ms("checkpoint.save"), "ms", "checkpoint.save")
    put("checkpoint.save_mb",
        agg.all_counters["checkpoint.save.bytes"] / 1e6 / saves if saves else 0.0, "MB",
        "checkpoint.save")
    put("checkpoint.load_ms", per_call_ms("checkpoint.load"), "ms", "checkpoint.load")
    loads = agg.all_calls["data.load"]
    put("data.load_ms", per_call_ms("data.load"), "ms", "data.load")
    put("data.records", agg.all_counters["data.records"] / loads if loads else 0.0,
        "count", "data.load")

    put("metrics.uniformity_ms", ms(agg.total["metrics.uniformity"]), "ms",
        "metrics.uniformity")
    put("metrics.uniformity.pairs",
        per(agg.run_counters["metrics.uniformity.pairs"]), "count",
        "metrics.uniformity")
    put("metrics.linear_probe_ms", ms(agg.total["metrics.linear_probe"]), "ms",
        "metrics.linear_probe")
    probe_steps = sum(1 for s in spans if s[1] == "tensor.backward" and s[6] == "run"
                      and agg.under(s, "metrics.linear_probe"))
    put("metrics.probe.steps", per(probe_steps), "count",
        "metrics.linear_probe", "tensor.backward")
    put("metrics.extract_features_ms", ms(agg.total["metrics.extract_features"]), "ms",
        "metrics.extract_features")

    gone = tracer.missing_names()
    absent = sorted(m for m, req in needs.items() if gone.intersection(req))
    metrics = {m: v for m, v in out.items() if m not in absent}
    return metrics, absent, _report(agg, n, step, step_total, unaccounted, gone)


def _report(agg: _Agg, n: int, step: str, step_total: float, unaccounted: float,
            gone: set[str]) -> str:
    unit = "step" if step == "train" else "pass"
    main = agg.main_self
    lines = [f"self time per {unit}, mean over {n} ({unit}s) in the timed phase, main thread",
             f"{'span':34s} {'calls':>9s} {'incl ms':>11s} {'self ms':>11s}"]
    for name in sorted(main, key=main.get, reverse=True):
        lines.append(f"{name:34s} {agg.main_calls[name] / n:9.2f} "
                     f"{agg.total[name] * 1e3 / n:11.3f} {main[name] * 1e3 / n:11.3f}")
    lines.append(f"{'sum of self times':34s} {'':9s} {'':11s} "
                 f"{sum(main.values()) * 1e3 / n:11.3f}"
                 f"  (bench.unit wall {agg.total['bench.unit'] * 1e3 / n:.3f})")
    if step == "train":
        lines.append(f"step wall {step_total * 1e3 / n:.3f} ms = spans inside the step "
                     f"{(step_total - unaccounted) * 1e3 / n:.3f} ms + "
                     f"train.unaccounted {unaccounted * 1e3 / n:.3f} ms")
    if agg.pool_total:
        lines.append("pool threads (overlapping the main thread's train.build_batch):")
        for name in sorted(agg.pool_total, key=agg.pool_total.get, reverse=True):
            lines.append(f"{name:34s} {agg.pool_calls[name] / n:9.2f} "
                         f"{agg.pool_total[name] * 1e3 / n:11.3f}")
    lines.append("absent hooks: " + (", ".join(sorted(gone)) if gone else "none"))
    return "\n".join(lines)
