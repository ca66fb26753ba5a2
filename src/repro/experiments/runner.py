"""Scenario runner: executes one benchmark under any subset of the four
scenarios — Default, Rep, Evolve, and the phase-based comparator.

The protocol follows §V-B: each experiment is a sequence of runs (30, or 70
for programs with many inputs), every run using one input picked uniformly
at random from the program's input population. The same input sequence and
per-run RNG seeds are used for all scenarios, so per-run comparisons are
apples-to-apples; the default run of each input doubles as the speedup
baseline.

This module is the serial reference implementation; ``jobs > 1`` hands the
same protocol to the parallel engine (:mod:`.parallel`), which produces
bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from ..bench.base import BenchInput, Benchmark
from ..core.application import Application
from ..aos.phase import PhaseAdaptiveController
from ..core.evolvable import EvolvableVM, RepVM, RunOutcome, run_default
from ..scenarios.drift import DriftSpec, drift_sequence
from ..vm.interpreter import Interpreter
from ..xicl.features import FeatureVector
from ..learning.tree import TreeParams
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..vm.opt.jit import JITCompiler


@dataclass
class ExperimentResult:
    """All observations from one benchmark's experiment: one outcome list
    per executed scenario (Default, Rep, Evolve, and optionally the
    phase-based comparator).

    ``evolve_vm`` holds the live evolve-scenario VM when the serial
    runner produced the result; the parallel engine leaves it ``None``
    (it stays in a worker process) and fills ``evolve_summary`` —
    the pickle-safe model snapshot — instead. The serial runner populates
    ``evolve_summary`` too, so reports can rely on it either way.
    """

    benchmark: str
    app: Application
    inputs: list[BenchInput]
    sequence: list[int]
    default: list[RunOutcome] = field(default_factory=list)
    rep: list[RunOutcome] = field(default_factory=list)
    evolve: list[RunOutcome] = field(default_factory=list)
    phase: list[RunOutcome] = field(default_factory=list)
    evolve_vm: EvolvableVM | None = None
    evolve_summary: dict | None = None
    #: The non-stationary input schedule the sequence was drawn from,
    #: when the experiment ran under drift (``None`` = the paper's
    #: stationary i.i.d. protocol).
    drift_spec: DriftSpec | None = None

    # -- derived series -----------------------------------------------------
    def speedups(self, scenario: str) -> list[float]:
        """Per-run speedups of *scenario* over the default runs."""
        series = {
            "rep": self.rep,
            "evolve": self.evolve,
            "phase": self.phase,
        }[scenario]
        return [
            base.total_cycles / run.total_cycles
            for base, run in zip(self.default, series)
        ]

    def accuracies(self) -> list[float]:
        return [
            out.accuracy for out in self.evolve if out.accuracy is not None
        ]

    def confidences(self) -> list[float]:
        return [
            out.confidence_after
            for out in self.evolve
            if out.confidence_after is not None
        ]

    def default_times(self) -> list[float]:
        return [out.total_cycles for out in self.default]


def run_experiment(
    bench: Benchmark,
    seed: int = 0,
    runs: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
    gamma: float | None = None,
    threshold: float | None = None,
    tree_params: TreeParams | None = None,
    scenarios: tuple[str, ...] = ("default", "rep", "evolve"),
    sequence: list[int] | None = None,
    drift: DriftSpec | None = None,
    jobs: int = 1,
    engine: str = "auto",
) -> ExperimentResult:
    """Run the full §V-B protocol for one benchmark.

    *sequence* overrides the random input order (used by the
    input-order-sensitivity study); otherwise inputs are drawn uniformly
    with a deterministic RNG derived from *seed* — unless *drift* names
    a non-stationary schedule, in which case the sequence comes from
    :func:`~repro.scenarios.drift.drift_sequence` (same determinism
    contract, shifting distribution).

    *jobs* > 1 delegates to the parallel engine: scenarios (and run
    ranges of the stateless ones) execute as independent worker cells,
    with bit-identical outcomes. *engine* picks the interpreter engine of
    every run (see :class:`~repro.vm.interpreter.Interpreter`); outcomes
    are bit-identical across engines.
    """
    if sequence is not None and drift is not None:
        raise ValueError("pass either an explicit sequence or a drift spec")
    if jobs > 1 and sequence is None:
        from .parallel import run_experiment_parallel

        return run_experiment_parallel(
            bench,
            jobs=jobs,
            seed=seed,
            runs=runs,
            config=config,
            scenarios=tuple(scenarios),
            gamma=gamma,
            threshold=threshold,
            tree_params=tree_params,
            drift=drift,
            engine=engine,
        )
    app, inputs = bench.build(seed=seed)
    n_runs = runs if runs is not None else bench.runs
    if sequence is not None:
        sequence = list(sequence)
    elif drift is not None:
        sequence = drift_sequence(drift, len(inputs), n_runs, seed)
    else:
        rng = Random(seed * 7919 + 17)
        sequence = [rng.randrange(len(inputs)) for _ in range(n_runs)]

    jit = JITCompiler(app.program, config)
    result = ExperimentResult(
        benchmark=bench.name,
        app=app,
        inputs=inputs,
        sequence=sequence,
        drift_spec=drift,
    )

    evolve_kwargs: dict = {"config": config, "jit": jit, "engine": engine}
    if gamma is not None:
        evolve_kwargs["gamma"] = gamma
    if threshold is not None:
        evolve_kwargs["threshold"] = threshold
    if tree_params is not None:
        evolve_kwargs["tree_params"] = tree_params
    evolve_vm = EvolvableVM(app, **evolve_kwargs)
    rep_machine = RepVM(app, config=config, jit=jit, engine=engine)
    result.evolve_vm = evolve_vm

    for run_index, input_index in enumerate(sequence):
        cmdline = inputs[input_index].cmdline
        if "default" in scenarios:
            result.default.append(
                run_default(
                    app, cmdline, config=config, jit=jit,
                    rng_seed=run_index, engine=engine,
                )
            )
        if "rep" in scenarios:
            result.rep.append(rep_machine.run(cmdline, rng_seed=run_index))
        if "evolve" in scenarios:
            result.evolve.append(evolve_vm.run(cmdline, rng_seed=run_index))
        if "phase" in scenarios:
            result.phase.append(
                _run_phase(
                    app, cmdline, config, jit, rng_seed=run_index,
                    engine=engine,
                )
            )
    if "evolve" in scenarios:
        result.evolve_summary = dict(evolve_vm.models.summary())
        result.evolve_summary["final_confidence"] = evolve_vm.confidence.value
    return result


def _run_phase(
    app, cmdline, config, jit, rng_seed: int, engine: str
) -> RunOutcome:
    """One run under the phase-based adaptive comparator."""
    tokens = app.split_cmdline(cmdline)
    cmd_str = cmdline if isinstance(cmdline, str) else " ".join(cmdline)
    translator = app.make_translator()
    fvector = (
        translator.build_fvector(tokens)
        if translator is not None
        else FeatureVector()
    )
    interp = Interpreter(
        app.program, config=config, rng_seed=rng_seed, jit=jit, engine=engine
    )
    PhaseAdaptiveController(interp)
    profile = interp.run(app.entry_args(tokens, fvector))
    return RunOutcome(
        scenario="phase",
        cmdline=cmd_str,
        result=interp.result,
        profile=profile,
        fvector=fvector,
    )


@dataclass(frozen=True)
class BoxStats:
    """Five-number summary used by the Figure 10 boxplots."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def of(cls, values: list[float]) -> "BoxStats":
        if not values:
            raise ValueError("no values")
        ordered = sorted(values)

        def quantile(q: float) -> float:
            if len(ordered) == 1:
                return ordered[0]
            pos = q * (len(ordered) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(ordered) - 1)
            frac = pos - lo
            return ordered[lo] * (1 - frac) + ordered[hi] * frac

        return cls(
            minimum=ordered[0],
            q1=quantile(0.25),
            median=quantile(0.5),
            q3=quantile(0.75),
            maximum=ordered[-1],
        )
