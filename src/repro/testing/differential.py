"""Differential execution: one program, every compilation configuration.

The oracle behind the fuzzing harness (in the spirit of compilation-
forking): run the same program

- through the plain interpreter (every method stays at the baseline
  level — the reference semantics),
- through the JIT pipeline forced to each optimization level, and
- through the level-2 pipeline restricted to each single pass,

and require that every configuration observes the identical **result**,
**output trace** (``print`` lines), and **heap-effect summary**
(allocation volume/count, GC count and pause cycles, peak live bytes).
Cycle counts legitimately differ between levels — that is the entire
point of tiered compilation — so they are excluded from the comparison.

Resource-limit outcomes (fuel, stack depth) in the *reference* make a
program incomparable and are reported as skipped: tail-call elimination
legitimately turns stack-overflow programs into loops. Programs from
:mod:`repro.testing.generator` never hit either limit by construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..lang import ast
from ..lang.compiler import compile_source
from ..lang.errors import LangError
from ..vm.config import VMConfig
from ..vm.errors import (
    ExecutionError,
    FuelExhaustedError,
    StackOverflowError,
    VerificationError,
)
from ..vm.interpreter import Interpreter
from ..vm.opt.jit import JITCompiler
from ..vm.opt.passes import (
    constant_folding,
    dead_code_elimination,
    eliminate_tail_calls,
    inline_calls,
    jump_threading,
    peephole,
)
from ..vm.program import Program
from .render import render_module

#: Every optimization pass, by the short name variants are labeled with.
PASS_REGISTRY: tuple[tuple[str, object], ...] = (
    ("constant_folding", constant_folding),
    ("peephole", peephole),
    ("dce", dead_code_elimination),
    ("jump_threading", jump_threading),
    ("inline", inline_calls),
    ("tail_call", eliminate_tail_calls),
)

#: VM configuration for fuzz runs: the default cost model with a tighter
#: fuel guard (generated programs run in thousands of instructions, so a
#: runaway case fails fast instead of burning the default 200M budget).
FUZZ_CONFIG = VMConfig(max_instructions=2_000_000)


@dataclass(frozen=True)
class Variant:
    """One compilation configuration of the differential matrix.

    ``level`` None means the plain interpreter (all methods baseline);
    ``tier_passes`` overrides the pass pipelines (single-pass variants).
    """

    name: str
    level: int | None = None
    tier_passes: dict[int, tuple] | None = None


def default_variants() -> tuple[Variant, ...]:
    """The full matrix: every opt level plus every single-pass config."""
    variants = [Variant("L0", 0), Variant("L1", 1), Variant("L2", 2)]
    for name, fn in PASS_REGISTRY:
        variants.append(Variant(f"pass:{name}", 2, {2: (fn,)}))
    return tuple(variants)


REFERENCE = Variant("interp", None, None)


@dataclass(frozen=True)
class Outcome:
    """What one execution observed, reduced to the level-invariant parts.

    ``kind`` is ``ok`` (ran to completion), ``error`` (a program fault —
    must reproduce identically in every configuration), or ``resource``
    (fuel/stack limit — makes the program incomparable).
    """

    kind: str
    value: str = ""
    error: str = ""
    output: tuple[str, ...] = ()
    heap: tuple = ()

    def describe(self) -> str:
        if self.kind == "ok":
            return f"result={self.value} output={len(self.output)} lines"
        return f"{self.kind}:{self.error}"


@dataclass(frozen=True)
class Divergence:
    """A variant that observed different semantics than the reference."""

    variant: str
    reference: Outcome
    observed: Outcome

    def describe(self) -> str:
        return (
            f"{self.variant}: expected {self.reference.describe()}, "
            f"got {self.observed.describe()}"
        )


@dataclass
class DifferentialReport:
    """Outcome matrix of one program under every variant."""

    reference: Outcome
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    skipped: bool = False  # reference hit a resource limit


def _heap_summary(interp: Interpreter) -> tuple:
    heap = interp.intrinsic_ctx.heap
    stats = heap.stats
    return (
        heap.policy,
        stats.allocation_count,
        stats.allocated_bytes,
        stats.gc_count,
        stats.gc_pause_cycles,
        stats.peak_live_bytes,
    )


def execute_variant(
    program: Program,
    args: tuple,
    variant: Variant,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> Outcome:
    """Run *program* under one compilation configuration."""
    jit = JITCompiler(program, config, tier_passes=variant.tier_passes)
    level = variant.level
    hook = None if level is None else (lambda name: level)
    interp = Interpreter(
        program,
        config=config,
        rng_seed=rng_seed,
        jit=jit,
        first_invocation_hook=hook,
        # The reference loop is the cheapest engine for the pass/level
        # matrix: the compiled tier would pay closure codegen for every
        # variant of every program, most of them run once. Cross-engine
        # semantics are checked by compare_engines (``--engines``).
        engine="reference",
    )
    try:
        interp.run(args)
    except (FuelExhaustedError, StackOverflowError) as exc:
        return Outcome(
            kind="resource",
            error=type(exc).__name__,
            output=tuple(interp.output),
            heap=_heap_summary(interp),
        )
    except ExecutionError as exc:
        # Compare faults by type: the message may embed configuration-
        # dependent detail (pcs shift under optimization), but whether and
        # how a program faults must not change.
        return Outcome(
            kind="error",
            error=type(exc).__name__,
            output=tuple(interp.output),
            heap=_heap_summary(interp),
        )
    return Outcome(
        kind="ok",
        value=repr(interp.result),
        output=tuple(interp.output),
        heap=_heap_summary(interp),
    )


def run_differential(
    program: Program,
    args: tuple,
    variants: tuple[Variant, ...] | None = None,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> DifferentialReport:
    """Run the full differential matrix for one program."""
    if variants is None:
        variants = default_variants()
    reference = execute_variant(program, args, REFERENCE, config, rng_seed)
    report = DifferentialReport(reference=reference)
    if reference.kind == "resource":
        report.skipped = True
        return report
    for variant in variants:
        observed = execute_variant(program, args, variant, config, rng_seed)
        report.outcomes[variant.name] = observed
        if observed != reference:
            report.divergences.append(
                Divergence(
                    variant=variant.name, reference=reference, observed=observed
                )
            )
    return report


# ---------------------------------------------------------------------------
# Engine-equivalence mode: reference loop vs. the closure-compiled tier
# ---------------------------------------------------------------------------

#: Levels the engine comparison forces via the first-invocation hook
#: (None = everything stays at baseline).
ENGINE_LEVELS: tuple[int | None, ...] = (None, 0, 1, 2)

#: The engine pair compared: the oracle, then the engine diffed against
#: it. ``auto`` runs on the compiled tier when it accepts the run and on
#: the reference loop otherwise; each observation records which engine
#: actually executed (``engine_used``).
ENGINE_SET: tuple[str, ...] = ("reference", "auto")


@dataclass(frozen=True)
class EngineObservation:
    """Everything one engine observed — *including* the virtual clocks.

    The ordinary differential matrix excludes cycle counts (levels differ
    by design); between two dispatch engines at the *same* level they
    must match bit-for-bit, so this observation captures total cycles,
    compile cycles, instruction count, per-method samples and cycle
    accounts, and the full compile-event sequence. For ``error`` and
    ``resource`` outcomes only the fault type, output, and heap summary
    are compared: the engines batch sampler bookkeeping differently, so
    mid-fault bookkeeping is only loosely defined (a tick crossed by the
    instruction that faults may or may not have been registered yet).
    ``engine_used`` (the engine that finished the run) is recorded but
    never compared.
    """

    kind: str
    value: str = ""
    error: str = ""
    output: tuple[str, ...] = ()
    heap: tuple = ()
    total_cycles: float = 0.0
    compile_cycles: float = 0.0
    instructions: int = 0
    samples: tuple = ()
    method_cycles: tuple = ()
    method_work: tuple = ()
    final_levels: tuple = ()
    compile_events: tuple = ()
    engine_used: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class EngineDivergence:
    """One field where the ``auto`` engine disagreed with the oracle."""

    level: int | None
    field: str
    reference: str
    observed: str

    def describe(self) -> str:
        label = "base" if self.level is None else f"L{self.level}"
        return (
            f"engines@{label}: {self.field} "
            f"expected {self.reference}, got {self.observed}"
        )


@dataclass
class EngineReport:
    """Engine-equivalence matrix of one program across opt levels.

    ``observations[level]`` maps engine name → what it observed.
    """

    observations: dict[object, dict[str, EngineObservation]] = field(
        default_factory=dict
    )
    divergences: list[EngineDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def routing(self) -> Counter:
        """How many ``auto`` runs finished on each engine
        (``engine_used`` → count)."""
        return Counter(
            observed[ENGINE_SET[1]].engine_used
            for observed in self.observations.values()
        )


def execute_engine(
    program: Program,
    args: tuple,
    engine: str,
    level: int | None,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> EngineObservation:
    """Run *program* on one engine with every method forced to *level*."""
    hook = None if level is None else (lambda name: level)
    interp = Interpreter(
        program,
        config=config,
        rng_seed=rng_seed,
        first_invocation_hook=hook,
        engine=engine,
    )
    try:
        interp.run(args)
    except (FuelExhaustedError, StackOverflowError) as exc:
        return EngineObservation(
            kind="resource",
            error=type(exc).__name__,
            output=tuple(interp.output),
            heap=_heap_summary(interp),
            engine_used=interp.engine_used,
        )
    except ExecutionError as exc:
        return EngineObservation(
            kind="error",
            error=type(exc).__name__,
            output=tuple(interp.output),
            heap=_heap_summary(interp),
            engine_used=interp.engine_used,
        )
    profile = interp.profile
    return EngineObservation(
        kind="ok",
        value=repr(interp.result),
        output=tuple(interp.output),
        heap=_heap_summary(interp),
        total_cycles=profile.total_cycles,
        compile_cycles=profile.compile_cycles,
        instructions=profile.instructions_executed,
        samples=tuple(sorted(profile.samples.items())),
        method_cycles=tuple(sorted(profile.method_cycles.items())),
        method_work=tuple(sorted(profile.method_work.items())),
        final_levels=tuple(sorted(profile.final_levels.items())),
        compile_events=tuple(
            (e.method, e.level, e.cycles, e.at_clock)
            for e in profile.compile_events
        ),
        engine_used=interp.engine_used,
    )


#: Fields compared per outcome kind. ``ok`` compares everything.
_ENGINE_FAULT_FIELDS = ("kind", "error", "output", "heap")


def compare_engines(
    program: Program,
    args: tuple,
    levels: tuple[int | None, ...] = ENGINE_LEVELS,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> EngineReport:
    """Run the reference loop and ``auto`` side by side at every level.

    ``auto`` is diffed against the reference oracle field by field,
    appending one :class:`EngineDivergence` per mismatch — the acceptance
    oracle for the compiled tier (zero divergences over the corpus and
    the fuzz stream). :meth:`EngineReport.routing` says how many of the
    compared runs the compiled tier actually executed.
    """
    report = EngineReport()
    oracle, candidate = ENGINE_SET
    for level in levels:
        ref = execute_engine(program, args, oracle, level, config, rng_seed)
        obs = execute_engine(program, args, candidate, level, config, rng_seed)
        report.observations[level] = {oracle: ref, candidate: obs}
        if ref.kind == "ok" and obs.kind == "ok":
            fields = [
                f.name for f in ref.__dataclass_fields__.values() if f.compare
            ]
        else:
            fields = list(_ENGINE_FAULT_FIELDS)
        for name in fields:
            a = getattr(ref, name)
            b = getattr(obs, name)
            if a != b:
                report.divergences.append(
                    EngineDivergence(
                        level=level,
                        field=name,
                        reference=repr(a),
                        observed=repr(b),
                    )
                )
    return report


def compile_module(module: ast.Module) -> Program:
    """Compile an AST module through the full front end (render + parse),
    so exactly what a corpus file replays is what gets checked."""
    return compile_source(render_module(module), name="fuzz")


def module_diverges(
    module: ast.Module,
    args: tuple,
    variants: tuple[Variant, ...] | None = None,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> bool:
    """True when *module* compiles and shows at least one divergence.

    Invalid candidates (the minimizer produces plenty) count as
    non-diverging rather than erroring out.
    """
    try:
        program = compile_module(module)
    except (LangError, VerificationError):
        return False
    report = run_differential(program, args, variants, config, rng_seed)
    return bool(report.divergences)


def module_engine_diverges(
    module: ast.Module,
    args: tuple,
    config: VMConfig = FUZZ_CONFIG,
    rng_seed: int = 0,
) -> bool:
    """Minimization predicate for engine-equivalence findings."""
    try:
        program = compile_module(module)
    except (LangError, VerificationError):
        return False
    return not compare_engines(program, args, config=config, rng_seed=rng_seed).ok
