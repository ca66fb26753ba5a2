"""The per-application model registry behind the serving fleet.

Each tenant's learned state (per-method training data + confidence) is
persisted through the crash-safe resilience envelope — the same
``vm-state`` artifacts :mod:`repro.core.records` writes for batch runs —
one file per application under one registry root:

    <registry>/<app>.state

Loading is quarantine-aware and never fatal: a missing, torn, or
corrupted state file cold-starts that tenant with empty records (the
paper's low-confidence path) while the file is moved to ``.quarantine/``
with a machine-readable reason sidecar. Every such decision lands in the
registry's :class:`~repro.resilience.degradation.DegradationReport`, and
:meth:`ModelRegistry.startup_summary` condenses it so the server can
refuse to boot *silently* degraded — ``repro serve`` prints the summary
on stderr and emits it as a ``serve_degradation`` telemetry event.

The registry also tracks the **model generation** per tenant: a counter
bumped by every hot swap (offline ``refit_all`` + atomic forest-pointer
flip). Responses carry the generation that served them, so operators can
correlate behavior changes with swaps. Generations persist beside the
state file in a per-tenant ``<app>.gen`` sidecar (atomic write, lenient
read), one file per tenant so a swap publishes only its own tenant's
counters and a torn sidecar resets one tenant, never the fleet. A
restarted server (a fresh registry over the same root) restores both the
model *and* the generation counter its responses must keep reporting.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from ..core.evolvable import EvolvableVM
from ..core.records import load_state_file, save_state
from ..resilience.degradation import DegradationReport
from ..resilience.envelope import REAL_FS, FileSystem

#: Filename suffix for per-tenant state artifacts.
STATE_SUFFIX = ".state"

#: Filename suffix for per-tenant generation sidecars.
GENERATION_SUFFIX = ".gen"


def _safe_name(app_name: str) -> str:
    """Filesystem-safe rendering of a tenant name (collision-tolerant:
    tenants are validated unique upstream by the fleet)."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", app_name)


class ModelRegistry:
    """Crash-safe persistence + generation tracking for a tenant fleet."""

    def __init__(
        self,
        root: str | Path | None,
        *,
        fs: FileSystem = REAL_FS,
        report: DegradationReport | None = None,
    ):
        #: ``None`` root = ephemeral registry (nothing persists; every
        #: tenant cold-starts and saves are no-ops). Used by tests and
        #: by studies that must not touch the working directory.
        self.root = Path(root) if root is not None else None
        self.fs = fs
        self.report = report if report is not None else DegradationReport()
        self.generations: dict[str, int] = {}
        self.restored: list[str] = []
        self.cold_started: list[str] = []
        #: Automatic rollbacks performed per tenant (``docs/robustness.md``,
        #: "Drift and rollback").
        self.rollbacks: dict[str, int] = {}

    def state_path(self, app_name: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{_safe_name(app_name)}{STATE_SUFFIX}"

    def generation_path(self, app_name: str) -> Path | None:
        if self.root is None:
            return None
        return self.root / f"{_safe_name(app_name)}{GENERATION_SUFFIX}"

    # -- generation persistence ----------------------------------------------
    def _load_generation(self, app_name: str) -> None:
        """Adopt the persisted generation counter, if any (never raises).

        A missing sidecar is the normal cold start (counter 0); a torn
        or unparseable one degrades to 0 with the decision recorded —
        the model itself still restores, only the counter restarts.
        """
        path = self.generation_path(app_name)
        if path is None or not self.fs.exists(path):
            return
        try:
            payload = json.loads(self.fs.read_bytes(path).decode("utf-8"))
            generation = int(payload["generation"])
            rollbacks = int(payload.get("rollbacks", 0))
        except Exception as exc:
            self.report.record(
                "registry", "generation-reset", "unreadable-sidecar",
                detail=f"tenant {app_name}: {type(exc).__name__}: {exc}; "
                "generation counter restarts at 0",
                path=str(path),
            )
            return
        self.generations[app_name] = generation
        if rollbacks:
            self.rollbacks[app_name] = rollbacks

    def _persist_generation(self, app_name: str) -> None:
        """Atomically publish the tenant's counters (I/O failures degrade,
        they never take a swap down)."""
        path = self.generation_path(app_name)
        if path is None:
            return
        payload = {
            "generation": self.generations.get(app_name, 0),
            "rollbacks": self.rollbacks.get(app_name, 0),
        }
        try:
            self.fs.write_bytes_atomic(
                path, json.dumps(payload, sort_keys=True).encode("utf-8")
            )
        except OSError as exc:
            self.report.record(
                "registry", "generation-unsaved", "io-error",
                detail=f"tenant {app_name}: {type(exc).__name__}: {exc}",
                path=str(path),
            )

    # -- startup ------------------------------------------------------------
    def load_into(self, vm: EvolvableVM) -> bool:
        """Restore *vm* from its tenant's state file (never raises).

        Returns ``True`` when state was fully restored; any failure
        cold-starts the tenant, quarantines the artifact, and records
        the decision in :attr:`report`.
        """
        name = vm.app.name
        self.generations.setdefault(name, 0)
        self._load_generation(name)
        path = self.state_path(name)
        if path is None:
            self.cold_started.append(name)
            return False
        restored = load_state_file(
            vm, str(path), fs=self.fs, report=self.report
        )
        (self.restored if restored else self.cold_started).append(name)
        return restored

    # -- swap + persistence --------------------------------------------------
    def note_swap(self, app_name: str) -> int:
        """Bump, persist, and return the tenant's model generation."""
        self.generations[app_name] = self.generations.get(app_name, 0) + 1
        self._persist_generation(app_name)
        return self.generations[app_name]

    def note_rollback(self, app_name: str) -> int:
        """Record an automatic rollback; returns the new generation.

        A rollback *deploys* the restored last-good model, so it bumps
        the generation like any swap — responses never claim an old
        generation number for what is operationally a new deployment
        (the monotone counter is what lets operators correlate behavior
        changes with model flips).
        """
        self.rollbacks[app_name] = self.rollbacks.get(app_name, 0) + 1
        return self.note_swap(app_name)

    def save(self, vm: EvolvableVM) -> bool:
        """Persist *vm*'s learned state; I/O failures degrade (recorded),
        they never take the serving loop down."""
        path = self.state_path(vm.app.name)
        if path is None:
            return False
        return save_state(vm, str(path), fs=self.fs, report=self.report)

    # -- observability -------------------------------------------------------
    def startup_summary(self) -> dict:
        """Machine-readable account of how the registry came up.

        ``degraded`` is True whenever any tenant failed to restore for a
        reason other than a simply-missing file (quarantine, I/O error) —
        the condition ``repro serve`` must surface, never swallow.
        """
        quarantines = self.report.count(action="quarantine")
        return {
            "registry": str(self.root) if self.root is not None else None,
            "tenants": sorted(self.generations),
            "restored": sorted(self.restored),
            "cold_started": sorted(self.cold_started),
            "quarantined": quarantines,
            "degradations": len(self.report),
            "degraded": quarantines > 0
            or any(
                event.action == "cold-start" and event.reason != "missing"
                for event in self.report.events
            ),
        }

    def describe_startup(self) -> str:
        """Human-readable startup summary (the stderr surface)."""
        summary = self.startup_summary()
        lines = [
            f"model registry: {summary['registry'] or '(ephemeral)'} — "
            f"{len(summary['restored'])} tenant(s) restored, "
            f"{len(summary['cold_started'])} cold-started, "
            f"{summary['quarantined']} quarantined"
        ]
        if summary["degraded"]:
            lines.append(
                "WARNING: registry degraded on startup "
                f"({self.report.describe()}); affected tenants boot with "
                "empty records (reactive optimizer, low confidence)"
            )
            for event in self.report.events:
                lines.append(f"  - {event.describe()}")
        return "\n".join(lines)
