"""Figure 9 reproduction: speedup vs. default running time (Mtrt, Compress).

Protocol (§V-B.1.a): run a long random-input sequence; for Rep, use the
strategy derived from the histogram of *all* runs (avoiding warm-up
effects); exclude Evolve's initial no-prediction runs; sort the remaining
runs by their default running time and report (time, Evolve speedup,
Rep speedup) triples — the paper's two curve pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bench.suite import get_benchmark
from ..core.evolvable import RepVM
from ..vm.config import DEFAULT_CONFIG, VMConfig
from .report import format_table
from .runner import run_experiment

#: The two programs the paper examines, with their run counts.
FIGURE9_PROGRAMS = {"Mtrt": 92, "Compress": 70}


@dataclass
class Figure9Point:
    default_seconds: float
    evolve_speedup: float
    rep_speedup: float


@dataclass
class Figure9Curve:
    program: str
    points: list[Figure9Point]  # sorted by default running time

    def correlation_buckets(self, buckets: int = 4) -> list[tuple[float, float, float]]:
        """(mean time, mean Evolve speedup, mean Rep speedup) per bucket."""
        out = []
        n = len(self.points)
        for b in range(buckets):
            chunk = self.points[b * n // buckets : (b + 1) * n // buckets]
            if not chunk:
                continue
            out.append(
                (
                    sum(p.default_seconds for p in chunk) / len(chunk),
                    sum(p.evolve_speedup for p in chunk) / len(chunk),
                    sum(p.rep_speedup for p in chunk) / len(chunk),
                )
            )
        return out


def run_figure9(
    program: str,
    seed: int = 0,
    runs: int | None = None,
    config: VMConfig = DEFAULT_CONFIG,
) -> Figure9Curve:
    bench = get_benchmark(program)
    n_runs = runs if runs is not None else FIGURE9_PROGRAMS.get(program, 70)
    result = run_experiment(
        bench, seed=seed, runs=n_runs, config=config, scenarios=("default", "evolve")
    )

    # Rep from the histogram of all runs (no warm-up): replay the same
    # sequence against the frozen, fully-informed repository strategy.
    rep_machine = RepVM(result.app, config=config)
    for outcome in result.default:
        rep_machine.repository.record_run(outcome.profile)
    rep_machine.frozen_strategy = rep_machine.repository.strategy()
    rep_outcomes = [
        rep_machine.run(result.inputs[input_index].cmdline, rng_seed=run_index)
        for run_index, input_index in enumerate(result.sequence)
    ]

    # Exclude Evolve's initial non-predicting runs, as the paper does.
    points: list[Figure9Point] = []
    for default_out, evolve_out, rep_out in zip(
        result.default, result.evolve, rep_outcomes
    ):
        if not evolve_out.applied_prediction:
            continue
        points.append(
            Figure9Point(
                default_seconds=config.seconds(default_out.total_cycles),
                evolve_speedup=default_out.total_cycles / evolve_out.total_cycles,
                rep_speedup=default_out.total_cycles / rep_out.total_cycles,
            )
        )
    points.sort(key=lambda p: p.default_seconds)
    return Figure9Curve(program=program, points=points)


def render(curve: Figure9Curve) -> str:
    rows = [
        [f"{p.default_seconds:.2f}", f"{p.evolve_speedup:.3f}", f"{p.rep_speedup:.3f}"]
        for p in curve.points
    ]
    table = format_table(["default time (s)", "evolve", "rep"], rows)
    bucket_rows = [
        [f"{t:.2f}", f"{ev:.3f}", f"{rp:.3f}"]
        for t, ev, rp in curve.correlation_buckets()
    ]
    buckets = format_table(["bucket mean t (s)", "evolve", "rep"], bucket_rows)
    return (
        f"Figure 9 — {curve.program} (runs sorted by default time)\n"
        f"{table}\n\nQuartile means:\n{buckets}"
    )


def main(seed: int = 0, runs: int | None = None) -> str:
    outputs = []
    for program in FIGURE9_PROGRAMS:
        outputs.append(render(run_figure9(program, seed=seed, runs=runs)))
    output = "\n\n".join(outputs)
    print(output)
    return output


if __name__ == "__main__":  # pragma: no cover
    main()
