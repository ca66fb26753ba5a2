"""Wall-clock benchmarks for the VM's two execution engines.

pytest-benchmark twin of ``repro bench``: times the reference loop and
the closure-compiled tier (``engine="auto"``) on the suite's workloads
and checks the compiled tier's speedup target. Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_vm.py -q
"""

import pytest

from repro.bench.vmbench import (
    WORKLOADS,
    bench_report,
    bench_workloads,
    compare_to_baseline,
    validate_bench_report,
)
from repro.lang import compile_source
from repro.vm import Interpreter

pytestmark = pytest.mark.bench

#: Loop trip count for the per-engine pytest-benchmark timings.
N = 30_000


@pytest.mark.parametrize("engine", ["reference", "auto"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_throughput(benchmark, workload, engine):
    program = compile_source(WORKLOADS[workload])

    def run():
        interp = Interpreter(program, engine=engine)
        interp.run((N,))
        return interp.profile.instructions_executed

    instructions = benchmark(run)
    assert instructions > N


def test_compiled_tier_speedup_target():
    """The acceptance bar: >=3x over the reference interpreter."""
    rows = bench_workloads(quick=True, repeats=3)
    speedups = [row["speedup_compiled"] for row in rows]
    best = max(speedups)
    assert best >= 3.0, f"compiled tier best speedup {best:.2f}x < 3x target"


def test_bench_report_schema_and_baseline(tmp_path):
    report = bench_report(quick=True)
    validate_bench_report(report)
    # A report is always within tolerance of itself.
    assert compare_to_baseline(report, report) == []
