"""The repository's end-to-end benchmark of record.

Run one workload and print its metrics; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` installs the outside-in layer tracer (``tracer.py``) and
prints the per-layer metrics instead, leaving the raw spans in
``.perfbench_out/``. Outputs are checked against reference-engine
expectations: recorded ones in ``expected.json`` when the seed and
duration match, otherwise computed in the run after the measured window.

    python3 perfbench/run.py --regen [--workload NAME]  # re-record expected.json

The benchmark builds nothing: it imports ``repro`` from the checkout's
``src`` directory and exits non-zero without a result when there is none.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common
from common import SetupError, emit

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
#: The duration BENCHMARK.json runs with; expectations are recorded for it.
RUN_SECONDS = 20
#: Later performance claims are re-checked on this seed; no tuning uses it.
HELD_OUT_SEED = 9173
#: Seeds whose reference outputs ``--regen`` records.
RECORDED_SEEDS = tuple(range(16)) + (HELD_OUT_SEED,)

E2E: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("first_iter_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Printed with the end-to-end metrics but not in the result object.
#: serve-run's low-rate p90 reads 4.6 or 9 ms for the same code, about one
#: CPython GIL switch interval (5 ms) apart (spread 0.36 over ten seeds on
#: a shared 2-core host), and its p99 swings several-fold.
PRINTED_ONLY: tuple[tuple[str, str], ...] = (("p90_ms", "ms"), ("p99_ms", "ms"))


def workloads() -> dict:
    import workload_forge
    import workload_protocol
    import workload_serve_run

    return {
        "protocol": workload_protocol,
        "serve-run": workload_serve_run,
        "forge": workload_forge,
    }


def load_expected(workload: str, seed: int, seconds: float) -> dict | None:
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text())
    if table.get("run_seconds") != seconds:
        return None
    return table.get("workloads", {}).get(workload, {}).get(str(seed))


def regen(seeds: list[int], only: str | None = None) -> int:
    """Record reference-engine expectations for *seeds* at RUN_SECONDS,
    for every workload or just *only* (keeping the others' records)."""
    table = {"run_seconds": RUN_SECONDS, "workloads": {}}
    if only is not None and EXPECTED.is_file():
        table = json.loads(EXPECTED.read_text())
    for name, module in workloads().items():
        if only is not None and name != only:
            continue
        table["workloads"][name] = {}
        for seed in seeds:
            start = time.perf_counter()
            table["workloads"][name][str(seed)] = module.reference(
                seed, RUN_SECONDS
            )
            print(f"{name} seed {seed}: {time.perf_counter() - start:.1f}s", file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("protocol", "serve-run", "forge"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen", action="store_true",
                        help="re-record expected.json from the reference engine "
                        "(all workloads, or the one --workload names)")
    options = parser.parse_args(argv)
    try:
        common.use_source_tree()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if options.regen:
        return regen(list(RECORDED_SEEDS), options.workload)
    if options.workload is None:
        parser.error("--workload is required")

    from tracer import PER_LAYER, Tracer, dump_spans, layer_metrics, layer_report

    module = workloads()[options.workload]
    tracer = Tracer() if options.trace else None
    expected = load_expected(options.workload, options.seed, options.seconds)
    try:
        out = module.run(options.seed, options.seconds, tracer, expected)
    finally:
        common.clean_work()

    failed = out["failed"]
    attempted = out["attempted"]
    print(f"workload {options.workload} seed {options.seed} seconds {options.seconds:g} "
          f"trace {options.trace} expected {'recorded' if expected else 'computed'}")
    for problem in out["problems"]:
        print(f"MISMATCH {problem}")
    for note in out["notes"]:
        print(f"  {note}")
    print(f"  fail_frac {failed / attempted:.6f} ({failed} of {attempted})")
    if tracer is None:
        for name, unit in E2E + PRINTED_ONLY:
            print(f"  {name} {out['e2e'][name]:.6g} {unit}")
        metrics = {name: (out["e2e"][name], unit) for name, unit in E2E}
    else:
        spans = tracer.spans
        extra = dict(out.get("layers", {}))
        extra["trace.overhead_frac"] = out["overhead"]
        values = layer_metrics(spans, out["ops"], extra)
        common.TRACE_OUT.mkdir(exist_ok=True)
        span_file = common.TRACE_OUT / f"spans-{options.workload}-{options.seed}.jsonl"
        dump_spans(spans, span_file)
        print(f"  spans {len(spans)} -> {span_file}")
        print(layer_report(spans, out["traced_wall"]))
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
    emit(not out["problems"] and failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
