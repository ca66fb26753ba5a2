"""Shared plumbing: locating the source tree, statistics, digests, output."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: Scratch space for registries, forge outputs and child-server state;
#: removed at the end of every run.
WORK = Path.cwd() / ".perfbench_work"
#: Where traced runs leave their spans (one JSON line per span).
TRACE_OUT = Path.cwd() / ".perfbench_out"


class SetupError(RuntimeError):
    """The checkout holds no source tree to benchmark."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src``; refuse to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no source tree at {SRC}: nothing to benchmark")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> int:
    """Keep this process, and every thread and child it starts later, on
    one CPU (the last it may use); returns that CPU.

    The serving fleet's event loop and executor threads hand the GIL to
    each other thousands of times a pass. Spread over two CPUs, each
    handoff is a cross-CPU wake-up whose cost follows the shared host's
    load; on one CPU it is a plain switch.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)


def fresh_interpreter_s(code: str) -> float:
    """Wall time of a fresh interpreter running *code*, with ``repro`` and
    the benchmark's modules importable: start-up plus imports plus *code*,
    what every command-line invocation pays before its work."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(round(q / 100.0 * len(ordered) + 0.5)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj) -> str:
    """Stable digest of a JSON-representable value (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def warmup_class(series: list[float]) -> tuple[str, int]:
    """Classify a per-iteration wall series after "Virtual Machine Warmup
    Blows Hot and Cold": ``flat``, ``warmup`` (steady after getting
    faster), ``slowdown`` (steady after getting slower) or
    ``no-steady-state``. Returns (class, steady-state start index)."""
    from repro.experiments.report import detect_changepoints, steady_state_start

    points = detect_changepoints(series)
    start = steady_state_start(series)
    if not points:
        return "flat", 0
    if start >= len(series) - 1:
        return "no-steady-state", start
    head = series[:start]
    tail = series[start:]
    before = sum(head) / len(head) if head else tail[0]
    after = sum(tail) / len(tail)
    return ("warmup" if after < before else "slowdown"), start


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
