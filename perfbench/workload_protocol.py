"""Workload ``protocol``: the paper's §V-B protocol, serial and stationary.

One iteration runs Default, Rep and Evolve over a fixed half of each
program's Table I input population (Search, Compress, Mtrt, Euler), in an
order and with per-run RNG seeds drawn from the workload seed, on fresh
VMs — the loop of ``repro.experiments.runner.run_experiment`` with
``jobs=1``. Every iteration must reproduce the reference-engine outputs
exactly. Metrics: VM runs per second and per-run latency in steady state,
the first iterations' wall time, and as set-up a fresh interpreter that
imports the suite and builds the four apps.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from random import Random

from common import digest, fresh_interpreter_s, median, peak_rss_mb, percentile, warmup_class
from tracer import PROTOCOL_PROGRAMS

#: Population seed: the input population is the canonical one; the
#: workload seed only picks order and per-run RNG seeds, so every seed
#: does the same amount of work.
POPULATION_SEED = 0
SETUPS = 3
#: ``first_iter_s`` is the median of this many first iterations, each on
#: fresh VMs (the first also pays the process's lazy imports).
FIRSTS = 3


def build_apps():
    """Compile each program and synthesize its population (the set-up)."""
    from repro.bench.suite import get_benchmark

    apps = []
    for name in PROTOCOL_PROGRAMS:
        app, inputs = get_benchmark(name).build(seed=POPULATION_SEED)
        apps.append((name, app, inputs))
    return apps


def plan(apps, seed: int) -> list[list[int]]:
    """Per program: the input indices one iteration runs, in order (run
    *i* of a program uses RNG seed *i*, as ``run_experiment`` does)."""
    rng = Random(seed * 7919 + 17)
    out = []
    for _, _, inputs in apps:
        chosen = list(range(0, len(inputs), 2))
        rng.shuffle(chosen)
        out.append(chosen)
    return out


def outcome_record(outcome) -> list:
    """The deterministic slice of one run that the checker compares."""
    predicted = (
        sorted((m, int(level)) for m, level in outcome.predicted.levels.items())
        if outcome.predicted is not None
        else None
    )
    return [
        outcome.scenario,
        repr(outcome.result),
        repr(outcome.total_cycles),
        sorted(outcome.profile.final_levels.items()),
        predicted,
        repr(outcome.accuracy),
        repr(outcome.confidence_after),
        outcome.applied_prediction,
    ]


def run_pass(apps, sequences, engine: str = "auto", latencies=None, region=None):
    """One protocol iteration; returns its per-run records."""
    from repro.core.evolvable import EvolvableVM, RepVM, run_default
    from repro.vm.config import DEFAULT_CONFIG
    from repro.vm.opt.jit import JITCompiler

    records = []
    for (name, app, inputs), sequence in zip(apps, sequences):
        with region(f"protocol.{name}") if region else nullcontext():
            jit = JITCompiler(app.program, DEFAULT_CONFIG)
            evolve = EvolvableVM(app, config=DEFAULT_CONFIG, jit=jit, engine=engine)
            rep = RepVM(app, config=DEFAULT_CONFIG, jit=jit, engine=engine)
            for rng_seed, input_index in enumerate(sequence):
                cmdline = inputs[input_index].cmdline
                for step in (
                    lambda: run_default(app, cmdline, config=DEFAULT_CONFIG, jit=jit,
                                        rng_seed=rng_seed, engine=engine),
                    lambda: rep.run(cmdline, rng_seed=rng_seed),
                    lambda: evolve.run(cmdline, rng_seed=rng_seed),
                ):
                    start = time.perf_counter()
                    outcome = step()
                    if latencies is not None:
                        latencies.append((time.perf_counter() - start) * 1000.0)
                    records.append(outcome_record(outcome))
    return records


def protocol_records(seed: int) -> list:
    """The same iteration through ``run_experiment`` itself (engine
    ``auto``), which the benchmark's own loop must reproduce."""
    from repro.bench.suite import get_benchmark
    from repro.experiments.runner import run_experiment

    records = []
    for name, sequence in zip(PROTOCOL_PROGRAMS, plan(build_apps(), seed)):
        result = run_experiment(get_benchmark(name), seed=POPULATION_SEED,
                                sequence=sequence, jobs=1)
        for runs in zip(result.default, result.rep, result.evolve):
            records.extend(outcome_record(outcome) for outcome in runs)
    return records


def reference(seed: int, seconds: float) -> dict:
    """Expected outputs: one iteration on the reference engine, which
    ``run_experiment`` must also produce."""
    apps = build_apps()
    expected = digest(run_pass(apps, plan(apps, seed), engine="reference"))
    if digest(protocol_records(seed)) != expected:
        raise RuntimeError("run_experiment differs from the reference-engine protocol")
    return {"pass": expected}


def run(seed: int, seconds: float, tracer, expected: dict | None) -> dict:
    setups = [
        fresh_interpreter_s("import workload_protocol; workload_protocol.build_apps()")
        for _ in range(SETUPS)
    ]
    apps = build_apps()
    sequences = plan(apps, seed)
    runs_per_pass = 3 * sum(len(seq) for seq in sequences)

    walls, traced_walls, untraced_walls = [], [], []
    latencies_by_pass: list[list[float]] = []
    digests = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < FIRSTS or time.perf_counter() < deadline:
        # Traced runs alternate untraced and traced iterations (first
        # iteration untraced) to measure the tracer's own overhead.
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        latencies: list[float] = []
        start = time.perf_counter()
        records = run_pass(apps, sequences, latencies=latencies,
                           region=tracer.region if traced else None)
        wall = time.perf_counter() - start
        if traced:
            tracer.restore()
            traced_walls.append(wall)
        elif index > 0:
            untraced_walls.append(wall)
        walls.append(wall)
        latencies_by_pass.append(latencies)
        digests.append(digest(records))
        index += 1
    rss = peak_rss_mb()

    if expected is None:
        expected = reference(seed, seconds)
    failed_passes = sum(1 for d in digests if d != expected["pass"])
    kind, steady = warmup_class(walls)
    # Steady state is every iteration after the first; the warmup class
    # (reported, never gated on) says whether the series agrees.
    tail = slice(1, None)
    steady_walls = walls[tail]
    steady_lat = [x for lat in latencies_by_pass[tail] for x in lat]
    rates = [runs_per_pass / w for w in steady_walls]
    out = {
        "attempted": runs_per_pass * len(walls),
        "failed": runs_per_pass * failed_passes,
        "problems": [f"{failed_passes} of {len(walls)} iteration(s) differ from the reference"]
        if failed_passes else [],
        "e2e": {
            "setup_s": median(setups),
            "first_iter_s": median(walls[:FIRSTS]),
            "ops_per_s": median(rates),
            "p50_ms": percentile(steady_lat, 50),
            "p90_ms": percentile(steady_lat, 90),
            "p99_ms": percentile(steady_lat, 99),
            "peak_rss_mb": rss,
        },
        "notes": [
            f"runs_per_s {median(rates):.2f} 1/s (VM runs, {len(steady_walls)} steady iteration(s) "
            f"of {runs_per_pass} runs)",
            f"latency samples {len(steady_lat)}",
            f"iteration walls s: {' '.join(f'{w:.3f}' for w in walls)}",
            f"warmup class: {kind} (steady from iteration {steady})",
        ],
        "ops": 0,
    }
    if tracer is not None:
        out["ops"] = runs_per_pass * len(traced_walls)
        out["overhead"] = median(traced_walls) / median(untraced_walls) - 1.0
        out["traced_wall"] = sum(traced_walls)
    return out
