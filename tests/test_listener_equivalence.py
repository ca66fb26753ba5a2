"""Listener-attached runs: compiled tier vs reference loop.

Every protocol and serving run has a sampling controller attached, with
recompiles applied at sample ticks and mid-frame (OSR-lite) speed
changes. The closure-compiled tier runs these tick-exactly: a block
commits its batched accounting only when it cannot reach the next tick,
and otherwise replays it per instruction. These tests hold both
engines to bit-identical clocks, accounts, samples, compile events and
controller decisions in that configuration, and check that the compiled
tier really executed the run (``Interpreter.engine_used``).
"""

import sys
import threading
import time

import pytest

from repro.aos.controller import AdaptiveController, PairPlanController
from repro.aos.phase import PhaseAdaptiveController
from repro.aos.strategy import PairStrategy, RecompilePair
from repro.bench.suite import get_benchmark
from repro.experiments.runner import run_experiment
from repro.lang import compile_source
from repro.vm import Interpreter, JITCompiler, VMConfig
from repro.vm.closures import ensure_closure
from repro.vm.config import DEFAULT_CONFIG
from repro.vm.errors import ExecutionError

ENGINES = ("reference", "auto")

LOOP_SRC = """
fn main(n) {
  var total = 0;
  var i = 0;
  while (i < n) {
    total = total + helper(i) * 2 - (i % 5);
    i = i + 1;
  }
  print(total);
  return total;
}
fn helper(x) {
  var acc = 0;
  var j = 0;
  while (j < 12) {
    acc = acc + x * j;
    j = j + 1;
  }
  return acc;
}
"""

BURN_SRC = """
fn main(n) {
  var i = 0;
  var s = 0;
  while (i < n) {
    burn(1000 + i * 37);
    alloc(4096 + i * 512);
    s = s + work(i);
    i = i + 1;
  }
  print(s);
  return s;
}
fn work(x) {
  var j = 0;
  var a = 0;
  while (j < 20) {
    a = a + x * j;
    if (j % 7 == 3) { alloc(2048); }
    j = j + 1;
  }
  return a;
}
"""

FIB_SRC = """
fn main(n) {
  var i = 0;
  var s = 0;
  while (i < n) {
    s = s + fib(11 + i % 3);
    i = i + 1;
  }
  return s;
}
fn fib(k) {
  if (k < 2) { return k; }
  return fib(k - 1) + fib(k - 2);
}
"""

#: A Rep-shaped plan: recompile ``helper`` twice, ``main`` once.
PLAN = PairStrategy(
    {
        "helper": (RecompilePair(2, 0), RecompilePair(5, 2)),
        "main": (RecompilePair(3, 1),),
    }
)


def _adaptive(interp):
    return [AdaptiveController(interp)]


def _pair_plan(interp):
    # The Rep arm: the plan for its methods, reactive control elsewhere.
    return [
        PairPlanController(interp, PLAN),
        AdaptiveController(interp, exclude=frozenset(PLAN.plans)),
    ]


def _phase(interp):
    return [PhaseAdaptiveController(interp, window_samples=4)]


CONTROLLERS = {"adaptive": _adaptive, "pair-plan": _pair_plan, "phase": _phase}
INTERVALS = (37, 333, 4000, DEFAULT_CONFIG.sample_interval)


def _observe(program, args, engine, attach, config, rng_seed=3):
    """Run once; return ``(engine_used, observation)``."""
    interp = Interpreter(program, config=config, rng_seed=rng_seed, engine=engine)
    controllers = attach(interp)
    try:
        interp.run(args)
        outcome = ("ok", repr(interp.result))
    except ExecutionError as exc:
        outcome = (type(exc).__name__, str(exc))
    profile = interp.profile
    observation = (
        outcome,
        tuple(interp.output),
        interp.clock,
        profile.compile_cycles,
        tuple(sorted(interp.sampler.counts.items())),
        tuple(sorted(profile.method_cycles.items())),
        tuple(sorted(profile.method_work.items())),
        tuple(
            (e.method, e.level, e.cycles, e.at_clock)
            for e in profile.compile_events
        ),
        tuple(
            tuple(getattr(c, "decisions", ())) for c in controllers
        ),
    )
    if outcome[0] == "ok":
        observation += (
            profile.total_cycles,
            profile.instructions_executed,
            tuple(sorted(profile.final_levels.items())),
        )
    return interp.engine_used, observation


def _assert_all_engines_agree(
    program, args, attach, config, auto_finishes_on="compiled"
):
    observed = {
        engine: _observe(program, args, engine, attach, config)
        for engine in ENGINES
    }
    used = {engine: pair[0] for engine, pair in observed.items()}
    assert used == {"reference": "reference", "auto": auto_finishes_on}
    ref = observed["reference"][1]
    assert observed["auto"][1] == ref
    return ref


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_controllers_identical_across_engines(controller, interval):
    program = compile_source(LOOP_SRC)
    config = VMConfig(sample_interval=interval)
    ref = _assert_all_engines_agree(
        program, (300,), CONTROLLERS[controller], config
    )
    # The run must actually have recompiled something.
    assert any(level > -1 for _, level, _, _ in ref[7])


@pytest.mark.parametrize("interval", (37, 333))
def test_burn_crossing_several_ticks(interval):
    # One burn() spans several sample intervals; GC pauses fold into the
    # INTRIN's work at the speed current when it runs.
    program = compile_source(BURN_SRC)
    config = VMConfig(sample_interval=interval)
    ref = _assert_all_engines_agree(program, (60,), _adaptive, config)
    assert sum(count for _, count in ref[4]) > 2 * 60


@pytest.mark.parametrize("fuel", (1_000, 7_777, 20_000))
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
def test_fuel_exhaustion_replays_controller_decisions(controller, fuel):
    # The compiled tier bails out near the budget and replays on the
    # reference loop after resetting every listener in place; the
    # controllers' decisions, samples and compile events must match the
    # reference's.
    program = compile_source(LOOP_SRC)
    config = VMConfig(sample_interval=333, max_instructions=fuel)
    ref = _assert_all_engines_agree(
        program, (300,), CONTROLLERS[controller], config,
        auto_finishes_on="reference",
    )
    assert ref[0][0] == "FuelExhaustedError"
    if controller != "pair-plan" and fuel > 1_000:
        assert ref[8][0], "no controller decisions before the fault"


@pytest.mark.parametrize("interval", (37, 333, 4000))
def test_recursion_while_active_method_recompiled(interval):
    # fib is recompiled while many of its frames are live: every active
    # frame must continue at the new tier's speed (OSR-lite).
    program = compile_source(FIB_SRC)
    config = VMConfig(sample_interval=interval)
    ref = _assert_all_engines_agree(program, (12,), _adaptive, config)
    assert any(m == "fib" and level > -1 for m, level, _, _ in ref[7])


def _experiment_digest(result):
    rows = []
    for outcome in result.default + result.rep + result.evolve:
        profile = outcome.profile
        predicted = (
            sorted(outcome.predicted.levels.items())
            if outcome.predicted is not None
            else None
        )
        rows.append(
            (
                outcome.scenario,
                repr(outcome.result),
                repr(outcome.total_cycles),
                tuple(sorted(profile.samples.items())),
                tuple(sorted(profile.method_cycles.items())),
                tuple(sorted(profile.final_levels.items())),
                tuple((e.method, e.level, e.at_clock) for e in profile.compile_events),
                predicted,
                repr(outcome.accuracy),
                repr(outcome.confidence_after),
                outcome.applied_prediction,
            )
        )
    return rows


@pytest.mark.parametrize("name", ("Search", "Euler"))
def test_protocol_digest_reference_vs_auto(name):
    reference = run_experiment(
        get_benchmark(name), seed=5, runs=6, engine="reference"
    )
    auto = run_experiment(get_benchmark(name), seed=5, runs=6, engine="auto")
    assert _experiment_digest(auto) == _experiment_digest(reference)
    # The parallel engine (--jobs N) must match the serial one too.
    fanned = run_experiment(
        get_benchmark(name), seed=5, runs=6, engine="auto", jobs=2
    )
    assert _experiment_digest(fanned) == _experiment_digest(reference)


def test_deep_compiled_runs_in_two_threads_never_bail():
    # The recursion limit is raised once per process and never lowered:
    # a thread finishing its run must not pull the limit out from under
    # another thread's deep run (a RecursionError there would bail out to
    # the reference loop, or worse, crash the process).
    program = compile_source(
        """
        fn main(n) { return down(n); }
        fn down(k) {
          if (k == 0) { return 0; }
          var t = spin(40);
          return down(k - 1) + t;
        }
        fn spin(n) {
          var i = 0;
          var s = 0;
          while (i < n) { s = s + i % 3; i = i + 1; }
          return s;
        }
        """
    )
    config = VMConfig(max_call_depth=1_450)

    def expected(depth):
        interp = Interpreter(program, config=config, engine="reference")
        interp.run((depth,))
        return ("compiled", interp.result, interp.profile.total_cycles)

    limit_before = sys.getrecursionlimit()
    outcomes: list = []

    def worker(depth):
        for _ in range(3):
            interp = Interpreter(program, config=config, engine="auto")
            interp.run((depth,))
            outcomes.append(
                (depth, interp.engine_used, interp.result,
                 interp.profile.total_cycles)
            )
            # Idle between runs, as serving executor threads do, so the
            # other threads run on while this one is between runs.
            time.sleep(0.001)

    depths = (1_400, 1_300, 1_200)  # more threads than cores
    threads = [
        threading.Thread(target=worker, args=(depth,)) for depth in depths
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    want = [(depth,) + expected(depth) for depth in depths]
    assert sorted(outcomes) == sorted(want * 3)
    assert sys.getrecursionlimit() >= limit_before


def test_fresh_jit_reuses_process_wide_closure():
    program = compile_source(LOOP_SRC)
    first = JITCompiler(program, DEFAULT_CONFIG).compile("helper", 1)
    second = JITCompiler(program, DEFAULT_CONFIG).compile("helper", 1)
    assert first is not second
    assert ensure_closure(second, program) is ensure_closure(first, program)
