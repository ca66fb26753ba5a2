"""Outside-in layer tracer.

Wraps the public functions each layer exposes, at the attribute the
caller resolves: a method is replaced on its class, a module function in
its defining module *and* in every loaded ``repro`` module that imported
it by name. Each wrapped call records a span ``[name, start, end,
parent, child_time, tag]`` in memory; a span's self time is its duration
minus the time of its direct child spans (same thread). ``restore()``
puts every original function back.

The tracer never edits the program: it sees only calls into the layers'
public functions, which is what the benchmark means by a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from common import percentile

# (span name, module, qualified attribute). A span name may cover several
# functions (both AOS controllers, both refit entry points).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("lang.compile", "repro.lang.compiler", "compile_source"),
    ("xicl.fvector", "repro.xicl.translator", "XICLTranslator.build_fvector"),
    ("xicl.translator.new", "repro.core.application", "Application.make_translator"),
    ("xicl.split", "repro.core.application", "Application.split_cmdline"),
    ("vm.run", "repro.vm.interpreter", "Interpreter.run"),
    ("vm.resume", "repro.vm.interpreter", "Interpreter.resume"),
    ("vm.resolve", "repro.vm.closures", "resolve_compiled"),
    ("vm.compiled", "repro.vm.closures", "run_compiled"),
    ("vm.fast", "repro.vm.fastpath", "run_fast"),
    ("jit.compile", "repro.vm.opt.jit", "JITCompiler.compile"),
    ("jit.pipeline", "repro.vm.opt.pipeline", "run_pipeline"),
    ("jit.closure", "repro.vm.closures", "ensure_closure"),
    ("aos.controller", "repro.aos.controller", "AdaptiveController.on_sample"),
    ("aos.controller", "repro.aos.controller", "PairPlanController.on_sample"),
    ("aos.rep.strategy", "repro.aos.repository", "ProfileRepository.strategy"),
    ("aos.rep.record", "repro.aos.repository", "ProfileRepository.record_run"),
    ("aos.ideal", "repro.aos.cost_benefit", "CostBenefitModel.ideal_strategy"),
    ("core.predict", "repro.core.predictor", "StrategyPredictor.maybe_predict"),
    ("core.observe", "repro.core.model_builder", "ModelBuilder.observe_run"),
    ("core.refit", "repro.core.model_builder", "ModelBuilder.refit_all"),
    ("core.refit", "repro.core.model_builder", "ModelBuilder.refit_methods"),
    ("core.drift", "repro.core.confidence", "DriftMonitor.observe"),
    ("core.confidence", "repro.core.confidence", "ConfidenceTracker.update"),
    ("learning.tree", "repro.learning.incremental", "IncrementalClassifier.refit"),
    ("learning.predict_all", "repro.learning.flat", "FlatForest.predict_all"),
    ("learning.predict_batch", "repro.learning.flat", "FlatForest.predict_batch"),
    ("forge.label", "repro.learning.forge.labeler", "label_forked"),
    ("forge.generate", "repro.testing.generator", "generate"),
    ("forge.shard", "repro.learning.forge.shards", "ShardWriter.add"),
    ("forge.shard", "repro.learning.forge.shards", "ShardWriter.close"),
    ("forge.train", "repro.learning.forge.prior", "CrossProgramPrior.fit_from_store"),
    ("serving.submit", "repro.serving.server", "FleetServer.submit_nowait"),
    ("serving.run", "repro.serving.tenant", "Tenant.run"),
    ("serving.predict", "repro.serving.tenant", "Tenant.predict"),
    ("serving.predict_batch", "repro.serving.tenant", "Tenant.predict_batch"),
    ("serving.swap", "repro.serving.tenant", "Tenant.swap"),
    ("resilience.write", "repro.resilience.envelope", "write_envelope"),
    ("resilience.read", "repro.resilience.envelope", "read_envelope"),
    ("resilience.atomic", "repro.resilience.envelope", "FileSystem.write_bytes_atomic"),
)

# Span record slots.
NAME, START, END, PARENT, CHILD, TAG = range(6)


def _tag(name: str, args: tuple, result, exc) -> object:
    """Per-call facts the layer metrics need, read from the call itself."""
    if name == "vm.run":
        profile = getattr(args[0], "profile", None)
        return getattr(profile, "instructions_executed", 0)
    if name == "vm.resolve":
        return result is None  # refused
    if name == "vm.compiled":
        return exc is not None and type(exc).__name__ == "_Bailout"
    if name == "core.predict":
        return bool(result) and result[0] is not None  # applied
    if name == "core.drift":
        return bool(result)  # fired
    if name == "learning.predict_batch":
        return len(args[1])
    if name in ("serving.run", "serving.predict", "serving.swap"):
        return (args[0].name, 1)
    if name == "serving.predict_batch":
        return (args[0].name, len(args[1]))
    if name == "serving.submit":
        request = args[1] if len(args) > 1 else None
        app = request.get("app") if isinstance(request, dict) else None
        if result is not None and result.done():
            return (app, result.result().get("status"))
        return (app, None)  # queued
    if name == "resilience.atomic":
        return len(args[2])
    return None


class Tracer:
    """In-memory span recorder over :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, 0.0, None]
        stack.append(span)
        return span

    def end(self, span: list, tag=None) -> None:
        span[END] = time.perf_counter()
        span[TAG] = tag
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD] += span[END] - span[START]
        self.spans.append(span)

    @contextmanager
    def region(self, name: str):
        """A benchmark-side span (e.g. one protocol program)."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- installation --------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                tracer.end(span, _tag(name, args, result, exc))

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for name, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attr, wrapper)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def dump_spans(spans: list[list], path) -> None:
    """Write every span as one JSON line (ids are list positions)."""
    ids = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as out:
        for i, span in enumerate(spans):
            parent = span[PARENT]
            tag = span[TAG]
            out.write(json.dumps({
                "id": i,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": ids.get(id(parent)) if parent is not None else None,
                "tag": list(tag) if isinstance(tag, tuple) else tag,
            }) + "\n")


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, tags."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0, "tags": []}
    )
    for span in spans:
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - span[CHILD]
        if span[TAG] is not None:
            entry["tags"].append(span[TAG])
    return out


def share_within(spans: list[list], root_name: str, names: set[str]) -> float:
    """Self time of spans named in *names* under roots named *root_name*,
    over those roots' duration."""
    roots = {id(s) for s in spans if s[NAME] == root_name}
    if not roots:
        return 0.0
    root_time = sum(s[END] - s[START] for s in spans if s[NAME] == root_name)
    busy = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        node = span[PARENT]
        while node is not None and id(node) not in roots:
            node = node[PARENT]
        if node is not None:
            busy += span[END] - span[START] - span[CHILD]
    return busy / root_time if root_time else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Programs of the protocol workload; each gets a benchmark-side region
#: span ``protocol.<name>`` so shares can be taken per program.
PROTOCOL_PROGRAMS = ("Search", "Compress", "Mtrt", "Euler")

#: (metric, unit, better). Counts and seconds are per workload op: one VM
#: run (protocol), one labeled row (forge) or one request (serving).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("lang.compile.calls", "1/op", "lower"),
    ("lang.compile.s", "s/op", "lower"),
    ("xicl.fvector.calls", "1/op", "lower"),
    ("xicl.fvector.s", "s/op", "lower"),
    ("xicl.translator.new", "1/op", "lower"),
    ("xicl.split.s", "s/op", "lower"),
    ("vm.run.calls", "1/op", "lower"),
    ("vm.run.s", "s/op", "lower"),
    ("vm.instructions", "1/op", "lower"),
    ("vm.ips", "1/s", "higher"),
    ("vm.engine.compiled", "1/op", "higher"),
    ("vm.engine.fast", "1/op", "higher"),
    ("vm.engine.reference", "1/op", "lower"),
    ("vm.compiled.attempts", "1/op", "higher"),
    ("vm.compiled.refused", "1/op", "lower"),
    ("vm.compiled.bailouts", "1/op", "lower"),
    ("vm.resume.calls", "1/op", "lower"),
    ("vm.resume.s", "s/op", "lower"),
    ("jit.compile.calls", "1/op", "lower"),
    ("jit.pipeline.calls", "1/op", "lower"),
    ("jit.pipeline.s", "s/op", "lower"),
    ("jit.closure.builds", "1/op", "lower"),
    ("jit.closure.s", "s/op", "lower"),
    ("aos.samples", "1/op", "lower"),
    ("aos.controller.s", "s/op", "lower"),
    ("aos.rep.strategy.calls", "1/op", "lower"),
    ("aos.rep.strategy.s", "s/op", "lower"),
    ("aos.rep.record.s", "s/op", "lower"),
    ("aos.ideal.s", "s/op", "lower"),
    ("core.predict.calls", "1/op", "lower"),
    ("core.predict.applied", "1/op", "higher"),
    ("core.predict.s", "s/op", "lower"),
    ("core.observe.s", "s/op", "lower"),
    ("core.refit.calls", "1/op", "lower"),
    ("core.refit.s", "s/op", "lower"),
    ("core.drift.s", "s/op", "lower"),
    ("core.drift.fired", "1/op", "lower"),
    ("core.confidence.s", "s/op", "lower"),
    ("learning.tree.fits", "1/op", "lower"),
    ("learning.tree.s", "s/op", "lower"),
    ("learning.predict_all.calls", "1/op", "lower"),
    ("learning.predict_all.s", "s/op", "lower"),
    ("learning.predict_batch.calls", "1/op", "lower"),
    ("learning.predict_batch.rows", "1/op", "lower"),
    ("learning.predict_batch.s", "s/op", "lower"),
    ("forge.label.calls", "1/op", "lower"),
    ("forge.label.s", "s/op", "lower"),
    ("forge.children", "1/call", "lower"),
    ("forge.generate.s", "s/op", "lower"),
    ("forge.shard.s", "s/op", "lower"),
    ("forge.train.s", "s/op", "lower"),
    ("serving.queue_wait_ms.p50", "ms", "lower"),
    ("serving.queue_wait_ms.p99", "ms", "lower"),
    ("serving.exec_ms.p50", "ms", "lower"),
    ("serving.hop_ms.p50", "ms", "lower"),
    ("serving.batch.mean", "req/hop", "higher"),
    ("serving.shed", "1/op", "lower"),
    ("serving.swap.calls", "1/op", "lower"),
    ("serving.swap.s", "s/op", "lower"),
    ("resilience.envelope.writes", "1/op", "lower"),
    ("resilience.envelope.bytes", "B/op", "lower"),
    ("resilience.envelope.write_s", "s/op", "lower"),
    ("resilience.envelope.reads", "1/op", "lower"),
    ("resilience.envelope.read_s", "s/op", "lower"),
    ("loadgen.lag_ms.p99", "ms", "lower"),
    ("loadgen.backlog", "req", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.ops", "op", "higher"),
) + tuple(
    (f"{prefix}.share.{program}", "frac", "lower")
    for prefix in ("vm", "aos.rep.strategy")
    for program in PROTOCOL_PROGRAMS
)

#: Span names whose self time is the ``vm`` layer's execution time.
VM_EXEC = {"vm.run", "vm.fast", "vm.compiled", "vm.resolve"}


def serving_waits(spans: list[list]) -> tuple[list[float], list[float], int]:
    """Queue waits and exec times (ms) per request, plus the shed count.

    Each tenant's worker serves its queue in admission order, so the
    k-th queued admission of a tenant is the k-th request its
    ``Tenant.run``/``predict``/``predict_batch`` calls consume.
    """
    admitted: dict[str, list[float]] = defaultdict(list)
    execs: dict[str, list[list]] = defaultdict(list)
    shed = 0
    for span in spans:
        if span[NAME] == "serving.submit" and isinstance(span[TAG], tuple):
            app, status = span[TAG]
            if status is None:
                admitted[app].append(span[START])
            elif status == 429:
                shed += 1
        elif span[NAME] in ("serving.run", "serving.predict", "serving.predict_batch"):
            execs[span[TAG][0]].append(span)
    waits: list[float] = []
    exec_ms: list[float] = []
    for app, spans_of in execs.items():
        spans_of.sort(key=lambda s: s[START])
        times = sorted(admitted.get(app, []))
        position = 0
        for span in spans_of:
            for _ in range(span[TAG][1]):
                if position < len(times):
                    waits.append((span[START] - times[position]) * 1000.0)
                    position += 1
                exec_ms.append((span[END] - span[START]) * 1000.0)
    return waits, exec_ms, shed


def layer_metrics(spans: list[list], ops: int, extra: dict | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans."""
    agg = aggregate(spans)
    per_op = 1.0 / max(1, ops)

    def calls(*names: str) -> int:
        return sum(agg[n]["calls"] for n in names if n in agg)

    def self_s(*names: str) -> float:
        return sum(agg[n]["self"] for n in names if n in agg)

    def tags(name: str) -> list:
        return agg[name]["tags"] if name in agg else []

    runs = calls("vm.run")
    compiled_ok = sum(1 for bailed in tags("vm.compiled") if not bailed)
    bailouts = sum(1 for bailed in tags("vm.compiled") if bailed)
    fast = calls("vm.fast")
    instructions = sum(tags("vm.run"))
    vm_s = self_s(*VM_EXEC)
    labels = calls("forge.label")
    resumes_in_labels = 0
    for span in spans:
        if span[NAME] == "vm.resume":
            node = span[PARENT]
            while node is not None and node[NAME] != "forge.label":
                node = node[PARENT]
            resumes_in_labels += node is not None
    batch_sizes = [tag[1] for tag in tags("serving.predict")] + [
        tag[1] for tag in tags("serving.predict_batch")
    ]
    waits, exec_ms, shed = serving_waits(spans)
    values = {
        "lang.compile.calls": calls("lang.compile") * per_op,
        "lang.compile.s": self_s("lang.compile") * per_op,
        "xicl.fvector.calls": calls("xicl.fvector") * per_op,
        "xicl.fvector.s": self_s("xicl.fvector") * per_op,
        "xicl.translator.new": calls("xicl.translator.new") * per_op,
        "xicl.split.s": self_s("xicl.split") * per_op,
        "vm.run.calls": runs * per_op,
        "vm.run.s": vm_s * per_op,
        "vm.instructions": instructions * per_op,
        "vm.ips": instructions / vm_s if vm_s else 0.0,
        "vm.engine.compiled": compiled_ok * per_op,
        "vm.engine.fast": fast * per_op,
        "vm.engine.reference": max(0, runs - compiled_ok - bailouts - fast) * per_op,
        "vm.compiled.attempts": calls("vm.resolve") * per_op,
        "vm.compiled.refused": sum(1 for refused in tags("vm.resolve") if refused) * per_op,
        "vm.compiled.bailouts": bailouts * per_op,
        "vm.resume.calls": calls("vm.resume") * per_op,
        "vm.resume.s": self_s("vm.resume") * per_op,
        "jit.compile.calls": calls("jit.compile") * per_op,
        "jit.pipeline.calls": calls("jit.pipeline") * per_op,
        "jit.pipeline.s": self_s("jit.pipeline") * per_op,
        "jit.closure.builds": calls("jit.closure") * per_op,
        "jit.closure.s": self_s("jit.closure") * per_op,
        "aos.samples": calls("aos.controller") * per_op,
        "aos.controller.s": self_s("aos.controller") * per_op,
        "aos.rep.strategy.calls": calls("aos.rep.strategy") * per_op,
        "aos.rep.strategy.s": self_s("aos.rep.strategy") * per_op,
        "aos.rep.record.s": self_s("aos.rep.record") * per_op,
        "aos.ideal.s": self_s("aos.ideal") * per_op,
        "core.predict.calls": calls("core.predict") * per_op,
        "core.predict.applied": sum(1 for hit in tags("core.predict") if hit) * per_op,
        "core.predict.s": self_s("core.predict") * per_op,
        "core.observe.s": self_s("core.observe") * per_op,
        "core.refit.calls": calls("core.refit") * per_op,
        "core.refit.s": self_s("core.refit") * per_op,
        "core.drift.s": self_s("core.drift") * per_op,
        "core.drift.fired": sum(1 for fired in tags("core.drift") if fired) * per_op,
        "core.confidence.s": self_s("core.confidence") * per_op,
        "learning.tree.fits": calls("learning.tree") * per_op,
        "learning.tree.s": self_s("learning.tree") * per_op,
        "learning.predict_all.calls": calls("learning.predict_all") * per_op,
        "learning.predict_all.s": self_s("learning.predict_all") * per_op,
        "learning.predict_batch.calls": calls("learning.predict_batch") * per_op,
        "learning.predict_batch.rows": sum(tags("learning.predict_batch")) * per_op,
        "learning.predict_batch.s": self_s("learning.predict_batch") * per_op,
        "forge.label.calls": labels * per_op,
        "forge.label.s": self_s("forge.label") * per_op,
        "forge.children": resumes_in_labels / labels if labels else 0.0,
        "forge.generate.s": self_s("forge.generate") * per_op,
        "forge.shard.s": self_s("forge.shard") * per_op,
        "forge.train.s": self_s("forge.train") * per_op,
        "serving.queue_wait_ms.p50": percentile(waits, 50),
        "serving.queue_wait_ms.p99": percentile(waits, 99),
        "serving.exec_ms.p50": percentile(exec_ms, 50),
        "serving.hop_ms.p50": 0.0,
        "serving.batch.mean": (
            sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
        ),
        "serving.shed": shed * per_op,
        "serving.swap.calls": calls("serving.swap") * per_op,
        "serving.swap.s": self_s("serving.swap") * per_op,
        "resilience.envelope.writes": calls("resilience.atomic") * per_op,
        "resilience.envelope.bytes": sum(tags("resilience.atomic")) * per_op,
        "resilience.envelope.write_s": self_s("resilience.write", "resilience.atomic") * per_op,
        "resilience.envelope.reads": calls("resilience.read") * per_op,
        "resilience.envelope.read_s": self_s("resilience.read") * per_op,
        "loadgen.lag_ms.p99": 0.0,
        "loadgen.backlog": 0.0,
        "trace.overhead_frac": 0.0,
        "trace.ops": float(ops),
    }
    layer_of = {"vm": VM_EXEC, "aos.rep.strategy": {"aos.rep.strategy"}}
    for prefix, names in layer_of.items():
        for program in PROTOCOL_PROGRAMS:
            values[f"{prefix}.share.{program}"] = share_within(
                spans, f"protocol.{program}", names
            )
    values.update(extra or {})
    return values


def layer_report(spans: list[list], wall: float) -> str:
    """Human-readable self-time shares of the traced wall, largest first."""
    agg = aggregate(spans)
    rows = sorted(
        ((entry["self"], name, entry["calls"]) for name, entry in agg.items()
         if not name.startswith("protocol.")),
        reverse=True,
    )
    lines = [f"  {'span':<24} {'calls':>9} {'self s':>9} {'share':>7}"]
    for self_time, name, count in rows:
        share = self_time / wall if wall else 0.0
        lines.append(f"  {name:<24} {count:>9} {self_time:>9.3f} {share:>7.1%}")
    return "\n".join(lines)
