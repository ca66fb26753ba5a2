"""Run telemetry and the on-disk result cache for experiment sweeps.

Two concerns live here, both in service of making large sweeps observable
and cheap to re-run:

1. **Telemetry** — every executed run emits one structured JSONL event
   (benchmark, scenario, run index, input id, RNG seed, wall time, methods
   compiled per level, predictor confidence, prediction hit/miss, …).
   Cache hits and cell completions emit their own event kinds, and the
   serving layer (``docs/serving.md``) adds ``serve_*`` kinds for fleet
   boot, answered requests, sheds, hot swaps, and startup degradations.
   The schema is versioned and documented in ``docs/experiments.md``;
   :func:`validate_event` enforces it (tests validate every line the
   engine writes).

2. **Result cache** — completed scenario×run cells are pickled to disk
   keyed by ``(benchmark, scenario, run range, seed, config digest)``.
   The digest folds in every knob that can change outcomes (run count,
   input sequence, VM config, γ, TH_c, tree parameters), so a sweep
   re-run only executes cells whose inputs changed. Determinism of the
   underlying VM (see ``docs/architecture.md``) is what makes caching
   sound: same key → bit-identical outcomes.

Both are crash-safe (``docs/robustness.md``): cache entries live inside
the checksummed atomic envelope, so a torn write or silent bit flip is a
*miss* (with the corrupt entry quarantined), never a wrong result; the
JSONL log validates per line on read, skipping partial trailing lines,
and degrades to dropping events on I/O errors rather than failing runs.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..resilience.degradation import DegradationReport
from ..resilience.envelope import (
    REAL_FS,
    EnvelopeError,
    FileSystem,
    encode_envelope,
    decode_envelope,
)
from ..resilience.quarantine import quarantine_file

#: Bumped whenever an event's required fields change.
TELEMETRY_SCHEMA_VERSION = 1

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Envelope kind tag for result-cache cell entries.
RESULT_KIND = "result-cell"


# ---------------------------------------------------------------------------
# Event construction
# ---------------------------------------------------------------------------

def run_event(
    benchmark: str,
    scenario: str,
    run_index: int,
    input_index: int,
    cmdline: str,
    rng_seed: int,
    outcome,
    wall_s: float | None = None,
) -> dict:
    """The per-run telemetry event for one :class:`RunOutcome`."""
    profile = outcome.profile
    per_level = {
        str(level): count
        for level, count in sorted(profile.levels_compiled().items())
    }
    event = {
        "event": "run",
        "v": TELEMETRY_SCHEMA_VERSION,
        "benchmark": benchmark,
        "scenario": scenario,
        "run": run_index,
        "input": input_index,
        "cmdline": cmdline,
        "seed": rng_seed,
        "wall_s": wall_s,
        "total_cycles": outcome.total_cycles,
        "compile_cycles": profile.compile_cycles,
        "overhead_cycles": outcome.overhead_cycles,
        "methods_per_level": per_level,
        "confidence": outcome.confidence_after,
        "accuracy": outcome.accuracy,
        "applied": bool(outcome.applied_prediction),
    }
    return event


def cell_event(
    kind: str,
    benchmark: str,
    scenario: str,
    start: int,
    stop: int,
    *,
    wall_s: float | None = None,
    cached: bool = False,
) -> dict:
    """A cell-level event: ``kind`` is ``"cell"`` or ``"cache_hit"``."""
    return {
        "event": kind,
        "v": TELEMETRY_SCHEMA_VERSION,
        "benchmark": benchmark,
        "scenario": scenario,
        "start": start,
        "stop": stop,
        "wall_s": wall_s,
        "cached": cached,
    }


def cell_failed_event(
    benchmark: str,
    scenario: str,
    start: int,
    stop: int,
    *,
    reason: str,
    detail: str = "",
    attempts: int = 1,
) -> dict:
    """A cell that exhausted its retries (failed-but-reported, not
    sweep-fatal); ``reason`` is ``"exception"``/``"timeout"``/…"""
    return {
        "event": "cell_failed",
        "v": TELEMETRY_SCHEMA_VERSION,
        "benchmark": benchmark,
        "scenario": scenario,
        "start": start,
        "stop": stop,
        "reason": reason,
        "detail": detail,
        "attempts": attempts,
    }


def drift_event(
    benchmark: str,
    scenario: str,
    run_index: int,
    methods: tuple[str, ...] | list[str],
    confidence: float | None,
) -> dict:
    """A changepoint detection: the per-method Page–Hinkley detectors
    named *methods* as drifted on this run (``docs/robustness.md``,
    "Drift and rollback"). Machine-readable on purpose — the chaos
    harness, the drift study, and serving watchdogs all key off it."""
    return {
        "event": "drift_detected",
        "v": TELEMETRY_SCHEMA_VERSION,
        "benchmark": benchmark,
        "scenario": scenario,
        "run": run_index,
        "methods": sorted(methods),
        "confidence": confidence,
    }


def serve_event(kind: str, **fields) -> dict:
    """A serving-layer event (see ``docs/serving.md``).

    Kinds: ``serve_start`` (fleet boot summary), ``serve_request`` (one
    answered request), ``serve_shed`` (admission control refused a
    request), ``serve_batch`` (one worker hop answered a drained predict
    batch through the batched kernel; ``size`` is the hop's batch size),
    ``serve_swap`` (hot model swap), ``serve_rollback`` (post-swap
    probation failed; the tenant restored its last-good generation —
    ``watchdog`` marks a forced re-train), and ``serve_degradation`` (one
    registry :class:`DegradationEvent` mirrored at startup).
    """
    event = {"event": kind, "v": TELEMETRY_SCHEMA_VERSION}
    event.update(fields)
    return event


#: Required fields per event kind, with the types a valid value may take.
#: ``type(None)`` marks a field as nullable.
_RUN_FIELDS: dict[str, tuple[type, ...]] = {
    "event": (str,),
    "v": (int,),
    "benchmark": (str,),
    "scenario": (str,),
    "run": (int,),
    "input": (int,),
    "cmdline": (str,),
    "seed": (int,),
    "wall_s": (int, float, type(None)),
    "total_cycles": (int, float),
    "compile_cycles": (int, float),
    "overhead_cycles": (int, float),
    "methods_per_level": (dict,),
    "confidence": (int, float, type(None)),
    "accuracy": (int, float, type(None)),
    "applied": (bool,),
}

_CELL_FIELDS: dict[str, tuple[type, ...]] = {
    "event": (str,),
    "v": (int,),
    "benchmark": (str,),
    "scenario": (str,),
    "start": (int,),
    "stop": (int,),
    "wall_s": (int, float, type(None)),
    "cached": (bool,),
}

_CELL_FAILED_FIELDS: dict[str, tuple[type, ...]] = {
    "event": (str,),
    "v": (int,),
    "benchmark": (str,),
    "scenario": (str,),
    "start": (int,),
    "stop": (int,),
    "reason": (str,),
    "detail": (str,),
    "attempts": (int,),
}

_DRIFT_FIELDS: dict[str, tuple[type, ...]] = {
    "event": (str,),
    "v": (int,),
    "benchmark": (str,),
    "scenario": (str,),
    "run": (int,),
    "methods": (list,),
    "confidence": (int, float, type(None)),
}

#: Serving-layer event schemas (``docs/serving.md``).
_SERVE_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "serve_start": {
        "event": (str,),
        "v": (int,),
        "tenants": (int,),
        "restored": (int,),
        "cold_started": (int,),
        "quarantined": (int,),
        "degraded": (bool,),
    },
    "serve_request": {
        "event": (str,),
        "v": (int,),
        "app": (str,),
        "op": (str,),
        "status": (int,),
        "wall_ms": (int, float, type(None)),
        "batched": (int,),
    },
    "serve_shed": {
        "event": (str,),
        "v": (int,),
        "app": (str,),
        "op": (str,),
        "queue_depth": (int,),
        "queue_bound": (int,),
    },
    "serve_batch": {
        "event": (str,),
        "v": (int,),
        "app": (str,),
        "size": (int,),
        "queue_depth": (int,),
    },
    "serve_swap": {
        "event": (str,),
        "v": (int,),
        "app": (str,),
        "generation": (int,),
        "runs": (int,),
        "wall_s": (int, float, type(None)),
    },
    "serve_rollback": {
        "event": (str,),
        "v": (int,),
        "app": (str,),
        "from_generation": (int,),
        "to_generation": (int, type(None)),
        "watchdog": (bool,),
    },
    "serve_degradation": {
        "event": (str,),
        "v": (int,),
        "component": (str,),
        "action": (str,),
        "reason": (str,),
        "detail": (str,),
        "path": (str, type(None)),
    },
}


def validate_event(event: dict) -> list[str]:
    """Schema check for one telemetry event; returns a list of problems
    (empty when the event is valid)."""
    problems: list[str] = []
    kind = event.get("event")
    if kind == "run":
        fields = _RUN_FIELDS
    elif kind in ("cell", "cache_hit"):
        fields = _CELL_FIELDS
    elif kind == "cell_failed":
        fields = _CELL_FAILED_FIELDS
    elif kind == "drift_detected":
        fields = _DRIFT_FIELDS
    elif kind in _SERVE_FIELDS:
        fields = _SERVE_FIELDS[kind]
    else:
        return [f"unknown event kind {kind!r}"]
    for name, types in fields.items():
        if name not in event:
            problems.append(f"missing field {name!r}")
        elif not isinstance(event[name], types):
            problems.append(
                f"field {name!r} has type {type(event[name]).__name__}"
            )
    if event.get("v") != TELEMETRY_SCHEMA_VERSION:
        problems.append(f"schema version {event.get('v')!r}")
    if kind == "run":
        for level, count in event.get("methods_per_level", {}).items():
            if not isinstance(level, str) or not isinstance(count, int):
                problems.append("methods_per_level must map str -> int")
                break
    if kind == "drift_detected":
        methods = event.get("methods", [])
        if not methods or not all(isinstance(m, str) for m in methods):
            problems.append("methods must be a non-empty list of str")
    return problems


# ---------------------------------------------------------------------------
# JSONL log
# ---------------------------------------------------------------------------

class TelemetryLog:
    """Append-only JSONL telemetry sink (one event per line).

    Opened lazily on first write so constructing a log never touches the
    filesystem; usable as a context manager. The engine funnels worker
    events through the parent process, so a log has a single writer.

    Writes are best-effort: an I/O failure (full disk) drops the event
    — counted in :attr:`events_dropped` and recorded in *report* —
    rather than aborting the run that produced it. Telemetry is
    observability, never a single point of failure.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        self.path = Path(path)
        self.fs = fs
        self.report = report
        self.events_written = 0
        self.events_dropped = 0

    def append(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True) + "\n"
        try:
            self.fs.append_text(self.path, line)
        except OSError as exc:
            self.events_dropped += 1
            if self.report is not None:
                self.report.record(
                    "telemetry", "drop-event", type(exc).__name__,
                    detail=str(exc), path=str(self.path),
                )
            return
        self.events_written += 1

    def extend(self, events: Iterable[dict]) -> None:
        for event in events:
            self.append(event)

    def close(self) -> None:
        """Kept for API compatibility; appends close their own handles."""

    def __enter__(self) -> "TelemetryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(
    path: str | Path,
    *,
    strict: bool = False,
    report: DegradationReport | None = None,
) -> list[dict]:
    """Load every valid event from a telemetry JSONL file.

    A line that fails to parse — most commonly the *partial trailing
    line* a crashed or out-of-disk writer leaves behind — is skipped
    with a warning (and recorded in *report*) instead of poisoning the
    whole log. Pass ``strict=True`` to re-raise instead.
    """
    events = []
    skipped = 0
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if strict:
                    raise
                skipped += 1
                if report is not None:
                    report.record(
                        "telemetry", "skip-line", "invalid-json",
                        detail=f"line {lineno}: {exc}", path=str(path),
                    )
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} unparseable telemetry line(s) "
            "(partial trailing write?)",
            RuntimeWarning,
            stacklevel=2,
        )
    return events


# ---------------------------------------------------------------------------
# Config digest + result cache
# ---------------------------------------------------------------------------

def config_digest(**parts) -> str:
    """Stable hex digest of everything that can change a cell's outcomes.

    Values are rendered with ``repr`` (all knobs are plain data:
    dataclasses of numbers/dicts, tuples, None), keyed and sorted so the
    digest is insensitive to call-site ordering.
    """
    canonical = ";".join(
        f"{name}={parts[name]!r}" for name in sorted(parts)
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class CacheKey:
    """Identity of one scenario×run-range cell of a sweep."""

    benchmark: str
    scenario: str
    start: int
    stop: int
    seed: int
    digest: str

    def filename(self) -> str:
        tag = hashlib.sha256(
            f"{self.benchmark}|{self.scenario}|{self.start}|{self.stop}"
            f"|{self.seed}|{self.digest}".encode("utf-8")
        ).hexdigest()[:32]
        return f"{self.benchmark}-{self.scenario}-{self.start}-{self.stop}-{tag}.pkl"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    store_failures: int = 0

    def describe(self) -> str:
        extra = ""
        if self.quarantined:
            extra += f", {self.quarantined} quarantined"
        if self.store_failures:
            extra += f", {self.store_failures} store failure(s)"
        return f"{self.hits} hit(s), {self.misses} miss(es){extra}"


class ResultCache:
    """Pickle-per-cell result cache under one root directory.

    Entries are immutable: a key fully determines its outcomes, so a hit
    is always safe to reuse. Entries live inside the crash-safe envelope
    (atomic publish + checksum), so a torn write, bit flip, or stale
    partial file can never surface as a wrong payload: any entry that
    fails verification is quarantined and reported as a **miss** — the
    cell simply re-executes. Store failures (full disk) are likewise
    non-fatal: the sweep continues uncached.
    """

    def __init__(
        self,
        root: str | Path = DEFAULT_CACHE_DIR,
        *,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        self.root = Path(root)
        self.fs = fs
        self.report = report
        self.stats = CacheStats()

    def _path(self, key: CacheKey) -> Path:
        return self.root / key.filename()

    def get(self, key: CacheKey) -> dict | None:
        """The cached cell payload, or None on a miss."""
        path = self._path(key)
        try:
            blob = self.fs.read_bytes(path)
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(decode_envelope(blob, RESULT_KIND))
        except (
            EnvelopeError,
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
        ) as exc:
            reason = getattr(exc, "reason", type(exc).__name__)
            quarantine_file(
                path, reason, str(exc),
                component="result-cache", fs=self.fs, report=self.report,
            )
            if self.report is not None:
                self.report.record(
                    "result-cache", "cache-miss", reason, path=str(path)
                )
            self.stats.quarantined += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: CacheKey, payload: dict) -> None:
        path = self._path(key)
        blob = encode_envelope(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            RESULT_KIND,
        )
        try:
            self.fs.write_bytes_atomic(path, blob)
        except OSError as exc:
            self.stats.store_failures += 1
            if self.report is not None:
                self.report.record(
                    "result-cache", "store-failed", type(exc).__name__,
                    detail=str(exc), path=str(path),
                )
            return
        self.stats.stores += 1
