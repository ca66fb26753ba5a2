"""Fuzz driver: generate → differential-check → minimize → store.

Ties the subsystem together. Iterations are deterministic in the fuzz
seed (iteration *i* is exactly ``generate(seed, i)``), sliced into
fixed-size chunks and fanned out through the experiment engine's
:func:`~repro.experiments.parallel.map_parallel` — the same process-pool
(with inline fallback) that powers parallel sweeps. Workers only report
*which* iterations diverged; the parent regenerates those programs,
delta-debugs them down to minimal reproducers, and (optionally) writes
them to the regression corpus.

A finding is reproducible from ``(seed, index)`` alone, so a report
line is enough to replay any failure locally.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from ..experiments.parallel import map_parallel
from ..lang.compiler import compile_source
from ..vm.config import VMConfig
from .corpus import save_reproducer
from .differential import (
    FUZZ_CONFIG,
    Variant,
    compare_engines,
    compile_module,
    module_diverges,
    module_engine_diverges,
    run_differential,
)
from .generator import generate
from .minimize import minimize
from .render import render_module

#: Iterations per worker chunk. Fixed (not derived from the job count) so
#: the set of programs checked is independent of ``--jobs``.
CHUNK = 25


@dataclass(frozen=True)
class FuzzFinding:
    """One diverging program, after minimization."""

    seed: int
    index: int
    args: tuple
    divergent: tuple[str, ...]
    source: str
    instructions: int
    reproducer: str | None = None

    def describe(self) -> str:
        return (
            f"seed={self.seed} index={self.index} "
            f"variants={','.join(self.divergent)} "
            f"minimized to {self.instructions} instruction(s)"
        )


@dataclass
class FuzzReport:
    """What one fuzz campaign checked and what it found."""

    seed: int
    iterations: int
    checked: int = 0
    skipped: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)
    wall_s: float = 0.0
    parallel: bool = False
    #: Engine mode only: engine that finished each ``auto`` run
    #: (``"compiled"`` or ``"reference"``, the fallback) → run count.
    routing: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        mode = "parallel" if self.parallel else "inline"
        text = (
            f"{self.checked}/{self.iterations} program(s) checked ({mode}), "
            f"{self.skipped} skipped, {len(self.findings)} divergence(s), "
            f"{self.wall_s:.2f}s wall"
        )
        if self.routing:
            compiled = self.routing["compiled"]
            fallback = self.routing.total() - compiled
            text += f"; {compiled} run(s) compiled, {fallback} fell back"
        return text


def _fuzz_chunk(spec: tuple) -> tuple[int, int, list, Counter]:
    """Worker: check one iteration range, report diverging indices.

    Picklable top-level function; the payload stays tiny (counts,
    ``(index, variant-names)`` pairs, and the engine-mode routing
    counts) so chunk results are cheap to ship back from pool workers.
    """
    seed, start, stop, deadline, config, engine_check = spec
    checked = 0
    skipped = 0
    hits: list[tuple[int, tuple[str, ...]]] = []
    routing: Counter = Counter()
    for index in range(start, stop):
        if deadline is not None and time.time() >= deadline:
            break
        case = generate(seed, index)
        program = compile_source(case.source, name=f"fuzz_s{seed}_i{index}")
        if engine_check:
            # Engine mode: reference loop vs the compiled tier at every
            # level, strict comparison (clocks, samples, compile events).
            engine_report = compare_engines(program, case.args, config=config)
            checked += 1
            routing.update(engine_report.routing())
            if engine_report.divergences:
                labels = tuple(
                    dict.fromkeys(
                        f"{'base' if d.level is None else f'L{d.level}'}"
                        f":{d.field}"
                        for d in engine_report.divergences
                    )
                )
                hits.append((index, labels))
            continue
        report = run_differential(program, case.args, config=config)
        checked += 1
        if report.skipped:
            skipped += 1
        if report.divergences:
            hits.append((index, tuple(d.variant for d in report.divergences)))
    return checked, skipped, hits, routing


def run_fuzz(
    seed: int = 0,
    iterations: int = 200,
    *,
    time_budget: float | None = None,
    jobs: int = 1,
    corpus_dir: str | None = None,
    minimize_findings: bool = True,
    variants: tuple[Variant, ...] | None = None,
    config: VMConfig = FUZZ_CONFIG,
    engine_check: bool = False,
) -> FuzzReport:
    """Run a fuzz campaign; returns a report whose ``ok`` means no findings.

    ``time_budget`` (seconds) caps wall-clock: chunks past the deadline
    stop checking, so ``checked`` may fall short of ``iterations``.
    ``variants`` narrows the matrix for the minimization predicate and
    the stored sidecar; workers always check the full default matrix.
    ``engine_check`` switches the oracle from the pass matrix to the
    two-way reference-vs-compiled engine comparison (strict: clocks,
    samples, and compile events must match bit-for-bit at every opt
    level; finding labels name the level and field), and fills
    ``report.routing`` with how many runs the compiled tier executed.
    """
    clock = time.perf_counter()
    deadline = time.time() + time_budget if time_budget is not None else None
    chunks = [
        (seed, start, min(start + CHUNK, iterations), deadline, config,
         engine_check)
        for start in range(0, iterations, CHUNK)
    ]
    results, parallel = map_parallel(_fuzz_chunk, chunks, max(1, jobs))
    report = FuzzReport(seed=seed, iterations=iterations, parallel=parallel)
    hits: list[tuple[int, tuple[str, ...]]] = []
    for checked, skipped, chunk_hits, routing in results:
        report.checked += checked
        report.skipped += skipped
        hits.extend(chunk_hits)
        report.routing.update(routing)

    for index, divergent in sorted(hits):
        case = generate(seed, index)
        module = case.module
        if minimize_findings:
            if engine_check:
                predicate = lambda m: module_engine_diverges(  # noqa: E731
                    m, case.args, config=config
                )
            else:
                predicate = lambda m: module_diverges(  # noqa: E731
                    m, case.args, variants=variants, config=config
                )
            module = minimize(module, predicate)
        source = render_module(module)
        instructions = compile_module(module).total_size()
        reproducer = None
        if corpus_dir is not None:
            reproducer = str(
                save_reproducer(
                    corpus_dir,
                    source,
                    seed=seed,
                    index=index,
                    args=case.args,
                    divergent=divergent,
                )
            )
        report.findings.append(
            FuzzFinding(
                seed=seed,
                index=index,
                args=case.args,
                divergent=divergent,
                source=source,
                instructions=instructions,
                reproducer=reproducer,
            )
        )
    report.wall_s = time.perf_counter() - clock
    return report
