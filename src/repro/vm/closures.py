"""Closure-compiled execution tier: runtime, routing, and fallback.

The production execution engine. :mod:`repro.vm.closure_emit`
generates one Python function per :class:`~repro.vm.opt.jit.CompiledCode`
artifact; this module ``exec``-compiles that source, memoizes the
resulting closure on the artifact, dispatches cross-method calls, and
decides — per run and per method — whether the compiled tier may run at
all or must route to the reference loop.

Architecture of one compiled run:

- :func:`resolve_compiled` is the run-level capability check. It refuses
  runs a closure cannot model exactly: a sample listener without a
  ``reset()`` (a bailout could not replay it), call-depth limits beyond
  what the host's recursion stack can mirror, or any method reachable in
  the static call graph whose baseline artifact the emitter cannot
  structure.
- :func:`run_compiled` drives the entry closure. Closures call each
  other through :func:`_invoke`, which reproduces the reference CALL
  protocol exactly: depth check, lazy method materialization (charging
  compile cycles), recompile-queue drain, invocation count, CALL cost at
  the callee's speed, and a sampler check under the callee's name that
  applies any recompiles its listeners queue. Blocks whose accounting
  crosses a sampler tick replay it per instruction in :func:`_slow`
  (see rule 2 of :mod:`repro.vm.closure_emit`).
- Anything discovered mid-run that the tier cannot handle exactly —
  fuel-budget proximity, a method recompiled into an unsupported shape,
  host recursion exhaustion — raises the internal :class:`_Bailout`.
  The interpreter then resets its run state and every listener in place
  and *replays* on the reference loop from scratch (same seed, same shared
  JIT), which is per-instruction exact. Bailouts change wall-clock only,
  never observable results.

Exactness contract (enforced by ``tests/test_engine_equivalence.py``,
``tests/test_properties_compiled.py``, and ``repro fuzz --engines``):
results, prints, heap effects, virtual cycles, per-method accounts,
sample counts, and compile events are bit-identical to the reference
loop for every run, whichever engine actually executes it.

Generated functions are keyed by their source identity
(:func:`closure_source_key`: the code, not the tier's speed, which the
function reads at run time). One size-bounded process-wide map holds the
exec'd function, or the refusal reason, per key, so fresh
``JITCompiler`` instances (every protocol pass, every new serving fleet)
never re-emit or re-``compile`` a method. The source is also published
to the cross-run :class:`~repro.vm.opt.artifact_cache.JITArtifactCache`,
so sweep workers in other processes share codegen the same way they
share artifacts. The *closure objects* themselves are never pickled:
``CompiledCode.__getstate__`` strips every ``_closure*`` memo, so a hot
model swap or cache invalidation always rebuilds from (cached) source
and can never resurrect a stale function object.
"""

from __future__ import annotations

import hashlib
import re
import sys
import threading
from collections import OrderedDict

from .closure_emit import (
    CLOSURE_SCHEMA_VERSION,
    UnsupportedShape,
    closure_name,
    emit_closure_source,
    intrinsic_names,
)
from .config import BASELINE_LEVEL
from .errors import (
    ExecutionError,
    StackOverflowError,
    UnknownIntrinsicError,
    VMError,
)
from .instructions import BASE_COST, Op
from .intrinsics import lookup as lookup_intrinsic

#: Deepest ``max_call_depth`` the compiled tier will take on. Each VM call
#: costs two host stack frames (``_invoke`` + the closure); beyond this we
#: route to the reference loop rather than bump the recursion limit into
#: territory where CPython can hard-crash.
MAX_COMPILED_DEPTH = 1500

#: Host recursion frames reserved per VM call, plus slack for the driver.
_RECURSION_SLACK = 1000

#: Most generated functions (or refusals) the process-wide memo keeps.
MEMO_LIMIT = 4096

_W_CALL = BASE_COST[Op.CALL]
_INF = float("inf")

#: source key -> ``(function, source)`` or the refusal reason (a str).
_memo: OrderedDict[str, object] = OrderedDict()
_memo_lock = threading.Lock()
_recursion_lock = threading.Lock()


class _Bailout(Exception):
    """Internal: abandon the compiled run and replay on the reference loop."""


class ClosureUnsupported(Exception):
    """This artifact cannot be closure-compiled (shape or intrinsics)."""


def closure_source_key(compiled, num_params: int) -> str:
    """Cross-run cache key for an artifact's generated source.

    Self-contained: covers everything the emitter reads (schema version,
    name, level, locals/params, the exact instruction stream), so it can
    never collide across codegen-relevant changes. The speed factor is
    not part of it: generated code reads it at run time.
    """
    lines = [
        f"closure-v{CLOSURE_SCHEMA_VERSION}",
        compiled.method_name,
        str(compiled.level),
        str(compiled.num_locals),
        str(num_params),
    ]
    lines.extend(f"{int(ins.op)} {ins.arg!r}" for ins in compiled.code)
    return (
        "closure-"
        + hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    )


def _build_namespace(compiled) -> dict:
    """Exec globals for one closure: run-independent bindings only."""
    namespace = {
        "_invoke": _invoke,
        "_slow": _slow,
        "_tick": _tick,
        "_INF": _INF,
        "_BAIL": _Bailout,
        "_EE": ExecutionError,
    }
    for name in intrinsic_names(compiled.code):
        # Unknown intrinsics fall back to the reference loop, which resolves
        # them lazily at execution time exactly like the reference (the
        # INTRIN might sit on a never-taken path).
        try:
            fn = lookup_intrinsic(name)
        except UnknownIntrinsicError as exc:
            raise ClosureUnsupported(str(exc)) from exc
        namespace["_in_" + re.sub(r"[^0-9A-Za-z_]", "_", name)] = fn
    return namespace


def ensure_closure(compiled, program, artifact_cache=None):
    """The compiled closure for *compiled*, built at most once per process.

    Both outcomes are memoized on the artifact itself (outside the
    dataclass fields, stripped before pickling): ``_closure`` holds the
    function, ``_closure_unsupported`` the failure reason. A fresh
    artifact with a known source key takes both from the process-wide
    memo. Routing is therefore a pure, deterministic function of the
    artifact's code. Raises :class:`ClosureUnsupported` when this method
    must fall back.
    """
    fn = compiled.__dict__.get("_closure")
    if fn is not None:
        return fn
    reason = compiled.__dict__.get("_closure_unsupported")
    if reason is not None:
        raise ClosureUnsupported(reason)
    key = closure_source_key(
        compiled, program.method(compiled.method_name).num_params
    )
    with _memo_lock:
        built = _memo.get(key)
        if built is not None:
            _memo.move_to_end(key)
    if built is None:
        built = _build(compiled, key, program, artifact_cache)
        with _memo_lock:
            _memo[key] = built
            if len(_memo) > MEMO_LIMIT:
                _memo.popitem(last=False)
    elif artifact_cache is not None and not isinstance(built, str):
        artifact_cache.put(key, built[1])
    if isinstance(built, str):
        object.__setattr__(compiled, "_closure_unsupported", built)
        raise ClosureUnsupported(built)
    fn, src = built
    # Benign race under threads: both sides build identical functions.
    object.__setattr__(compiled, "_closure_src", src)
    object.__setattr__(compiled, "_closure", fn)
    return fn


def _build(compiled, key: str, program, artifact_cache):
    """Emit (or fetch cached source) and exec one closure: ``(fn, src)``,
    or the refusal reason."""
    src = None
    if artifact_cache is not None:
        cached = artifact_cache.get(key)
        if isinstance(cached, str):
            src = cached
    if src is None:
        try:
            src = emit_closure_source(
                compiled.method_name,
                compiled.code,
                program.method(compiled.method_name).num_params,
                compiled.num_locals,
            )
        except UnsupportedShape as exc:
            return str(exc)
        if artifact_cache is not None:
            artifact_cache.put(key, src)
    try:
        namespace = _build_namespace(compiled)
    except ClosureUnsupported as exc:
        return str(exc)
    exec(
        compile(
            src,
            f"<closure:{compiled.method_name}:L{compiled.level}>",
            "exec",
        ),
        namespace,
    )
    return namespace[closure_name(compiled.method_name)], src


class _VMContext:
    """Per-run mutable context threaded through every closure as ``vm``.

    Everything run-specific lives here (never in the generated source or
    its globals), so one closure serves every run, config, and sweep
    cell that shares the artifact.
    """

    __slots__ = (
        "interp", "ctx", "mc", "mw", "sampler", "adv", "watch", "states",
        "depth", "max_depth", "fuel",
    )

    def __init__(self, interp):
        self.interp = interp
        self.ctx = interp.intrinsic_ctx
        self.mc = interp.profile.method_cycles
        self.mw = interp.profile.method_work
        self.sampler = interp.sampler
        self.adv = interp.sampler.advance
        # With listeners attached, blocks are bounded by the next tick.
        self.watch = interp.sampler.has_listeners
        self.states = interp._states
        self.depth = 1
        self.max_depth = interp.config.max_call_depth
        self.fuel = interp.config.max_instructions


def _tick(vm, clock, name):
    """A sampler tick at a method transition: advance under *name*, then
    apply any recompiles the listeners queued. Returns the clock."""
    vm.adv(clock, name)
    interp = vm.interp
    if interp._recompile_queue:
        interp.clock = clock
        interp._apply_recompiles()
        clock = interp.clock
    return clock


def _slow(vm, state, name, clock, mcycles, mwork, executed, speed, weights):
    """One block's accounting, replayed per instruction.

    Called when the block's batched clock would reach the next sampler
    tick. Mirrors the reference epilogue instruction by instruction:
    charge ``work * speed``, and at each crossed tick flush the accounts,
    advance the sampler (listeners run), apply queued recompiles and
    re-read the speed. Returns ``(clock, mcycles, mwork, executed)``.
    """
    sampler = vm.sampler
    for work in weights:
        cost = work * speed
        clock += cost
        mcycles += cost
        mwork += work
        executed += 1
        if clock >= sampler._next_tick:
            vm.mc[name] = mcycles
            vm.mw[name] = mwork
            sampler.advance(clock, name)
            interp = vm.interp
            if interp._recompile_queue:
                interp.clock = clock
                interp._apply_recompiles()
                clock = interp.clock
                speed = state.compiled.speed_factor
    return clock, mcycles, mwork, executed


def _invoke(vm, name, args, clock, executed):
    """Cross-method call dispatcher: the reference CALL handler, hoisted.

    Performs, in the reference's exact order: depth check, callee
    materialization (compile-cycle charge + first-invocation hook +
    recompile drain), invocation count, the CALL instruction's cost at
    the *callee's* speed charged to the callee's accounts, and the
    sampler check under the callee's name (applying recompiles, so the
    callee starts at its state's speed). Returns
    ``(result, clock, executed)``.
    """
    if vm.depth >= vm.max_depth:
        raise StackOverflowError(f"call depth exceeded {vm.max_depth}")
    interp = vm.interp
    interp.clock = clock
    state = interp._states.get(name)
    if state is None:
        state = interp._ensure_state(name)
    if interp._recompile_queue:
        interp._apply_recompiles()
    clock = interp.clock
    state.invocations += 1
    compiled = state.compiled
    fn = compiled.__dict__.get("_closure")
    if fn is None:
        try:
            fn = ensure_closure(
                compiled, interp.program, interp.jit.artifact_cache
            )
        except ClosureUnsupported:
            # A shape this tier can't run (e.g. a hook recompiled the
            # method into one): abandon and replay on the reference loop.
            raise _Bailout() from None
    executed += 1
    cost = _W_CALL * compiled.speed_factor
    clock += cost
    mc = vm.mc
    mw = vm.mw
    mc[name] = mc.get(name, 0.0) + cost
    mw[name] = mw.get(name, 0.0) + _W_CALL
    if clock >= vm.sampler._next_tick:
        clock = _tick(vm, clock, name)
    vm.depth += 1
    try:
        return fn(vm, clock, executed, *args)
    finally:
        vm.depth -= 1


def _reachable_methods(program, entry: str) -> list[str]:
    """Methods reachable from *entry* through static CALL edges.

    Targets absent from the program are skipped: whether they raise
    ``UnknownMethodError`` is a runtime question (the CALL may sit on a
    dead path), answered identically by ``_invoke``.
    """
    seen = [entry]
    todo = [entry]
    while todo:
        name = todo.pop()
        for ins in program.method(name).code:
            if ins.op == Op.CALL:
                callee = ins.arg[0]
                if callee not in seen and callee in program:
                    seen.append(callee)
                    todo.append(callee)
    return seen


def resolve_compiled(interp, entry_name: str):
    """Run-level capability check; the entry closure if the run may
    execute on the compiled tier, else ``None`` (route to the reference
    loop).

    Refusals, in check order:

    - **A sample listener without** ``reset()``: a bailout replays the
      run from scratch with the same listeners, which must first return
      to their just-attached state. Checked at ``run()`` time because
      controllers attach after construction. (Listeners themselves are
      exact: blocks are bounded by the next tick.)
    - **Call depth beyond** :data:`MAX_COMPILED_DEPTH`: each VM call
      consumes host stack; past this we won't chase the recursion limit.
    - **Any statically reachable method whose baseline artifact the
      emitter can't structure** (or with unknown intrinsics): checking
      the whole call graph up front keeps repeated runs of such programs
      from paying a bailout-and-replay every time. Eager ``jit.compile``
      here is safe: it only warms the per-run memo — compile *cycles*
      are still charged at first invocation, exactly as the reference.
    """
    for listener in interp.sampler.listeners:
        if not callable(getattr(listener, "reset", None)):
            return None
    if interp.config.max_call_depth > MAX_COMPILED_DEPTH:
        return None
    cache = interp.jit.artifact_cache
    entry_fn = None
    try:
        for name in _reachable_methods(interp.program, entry_name):
            state = interp._states.get(name)
            compiled = (
                state.compiled
                if state is not None
                else interp.jit.compile(name, BASELINE_LEVEL)
            )
            fn = ensure_closure(compiled, interp.program, cache)
            if name == entry_name:
                entry_fn = fn
    except (ClosureUnsupported, VMError):
        # VMError: a statically referenced but never-invoked method can be
        # uncompilable; the reference loop only fails if it actually runs.
        return None
    return entry_fn


def _ensure_recursion_limit(need: int) -> None:
    """Raise the process-wide recursion limit to at least *need*.

    Monotonic and never lowered: compiled runs execute on several
    threads at once (serving executors), and a save/restore pair around
    each run would let one thread lower the limit under another's deep
    recursion.
    """
    if sys.getrecursionlimit() >= need:
        return
    with _recursion_lock:
        if sys.getrecursionlimit() < need:
            sys.setrecursionlimit(need)


def run_compiled(interp, state, args: tuple):
    """Execute one run on the compiled tier.

    Entry contract mirrors the reference loop's: the entry state exists, its
    invocation is counted, ``interp.clock`` is live. Raises
    :class:`_Bailout` when the run must replay on the reference loop.
    """
    fn = state.compiled.__dict__.get("_closure")
    if fn is None:  # pragma: no cover - resolve_compiled builds it
        fn = ensure_closure(state.compiled, interp.program,
                            interp.jit.artifact_cache)
    vm = _VMContext(interp)
    _ensure_recursion_limit(_RECURSION_SLACK + 3 * vm.max_depth)
    try:
        result, clock, executed = fn(vm, interp.clock, 0, *args)
    except RecursionError as exc:
        # Host stack exhausted before the VM depth check fired (possible
        # when the driver itself sits deep in a host stack): replay.
        raise _Bailout() from exc
    interp.clock = clock
    interp.profile.instructions_executed = executed
    sampler = interp.sampler
    # The reference's final advance after the outermost RET runs under
    # the popped (entry) frame's name.
    if clock >= sampler._next_tick:
        sampler.advance(clock, state.name)
    return result
