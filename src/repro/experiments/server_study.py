"""Server studies: request-specific optimization and fleet serving (§V).

The paper notes that for long-running servers "different requests often
trigger different behaviors… the concept of Evolve may yield proactive,
request-specific optimizations". Two studies model that, at two scales:

1. **The classic single-tenant study** (:func:`run_server_study`): a
   server handles a stream of requests, each request being one execution
   of the handler program on a *shared, warm* VM (one JIT code cache and
   one evolvable learner across the whole stream — exactly how
   `EvolvableVM` shares state across runs). Request "command lines"
   carry the request's type and payload size; the learner predicts
   per-request optimization strategies. Reported: per-request *virtual*
   latency percentiles (p50/p95/p99) under the default reactive scheme
   vs. request-specific Evolve, plus tail-latency improvement.
   Expected shape: the heavy-request tail (p99, mean) improves strongly
   — proactive compilation removes the reactive ramp-up every heavy
   request pays — while the smallest requests give a few percent back to
   per-request prediction cost (the §V-B.2 small-input effect).

2. **The fleet-serving study** (:func:`run_fleet_study`): the driving
   scenario for ``repro serve`` (``docs/serving.md``). A
   :class:`~repro.serving.server.FleetServer` keeps several tenant
   applications resident and handles a sustained concurrent mixed-tenant
   stream of run/predict requests — thousands of requests — through
   bounded queues, predict batching, periodic hot model swaps, and a
   crash-safe model registry. Reported: *wall-clock* request latency
   percentiles (p50/p95/p99), throughput, shed/swap counts, and the
   load-bearing invariant that every tenant's outcome stream is
   bit-identical to replaying its requests serially. The bench suite's
   ``serving`` section (``docs/benchmarks.md``) wraps this study.

Both studies are deterministic given their seed. The fleet study drives
the serving layer end to end, including a deliberate admission-control
overload burst (sheds counted, accepted traffic unaffected).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from random import Random

from ..core.application import Application
from ..core.evolvable import EvolvableVM, run_default
from ..lang.compiler import compile_source
from ..vm.opt.jit import JITCompiler
from ..vm.config import DEFAULT_CONFIG, VMConfig
from ..xicl.parser import parse_spec
from .report import format_table

#: The request handler: three endpoint kernels with different profiles.
SERVER_SOURCE = """
fn parse_request(size) {
  burn(220 + size / 40);
  return size;
}

fn endpoint_search(size) {
  var hits = 0;
  var pos = 0;
  while (pos < size) {
    burn(560);
    hits = hits + 1;
    pos = pos + 256;
  }
  return hits;
}

fn endpoint_render(size) {
  var rows = 0;
  var pos = 0;
  while (pos < size) {
    burn(1400);
    rows = rows + 1;
    pos = pos + 512;
  }
  return rows;
}

fn endpoint_stats(size) {
  burn(300 + size * 2);
  return size;
}

fn format_response(units) {
  burn(90 + units * 3);
  return units;
}

fn main(kind, size) {
  parse_request(size);
  var units = 0;
  if (kind == 0) { units = endpoint_search(size); }
  if (kind == 1) { units = endpoint_render(size); }
  if (kind == 2) { units = endpoint_stats(size); }
  format_response(units);
  return units;
}
"""

SERVER_SPEC = """
option {name=-e:--endpoint; type=STR; attr=VAL; default=search; has_arg=y}
option {name=-b:--bytes; type=NUM; attr=VAL; default=4096; has_arg=y}
"""

_ENDPOINTS = ("search", "render", "stats")


def build_server_app() -> Application:
    program = compile_source(SERVER_SOURCE, name="server")
    spec = parse_spec(SERVER_SPEC)

    def launcher(tokens, fvector, fs):
        return (
            _ENDPOINTS.index(str(fvector.get("-e.VAL", "search"))),
            int(fvector["-b.VAL"]),
        )

    return Application(
        name="server", program=program, spec=spec, launcher=launcher
    )


def generate_request_stream(rng: Random, count: int) -> list[str]:
    """A skewed request mix (search-heavy) with bursty payload sizes."""
    requests = []
    for __ in range(count):
        endpoint = rng.choices(_ENDPOINTS, weights=(5, 2, 3))[0]
        size = rng.choice([512, 2048, 8192, 32768, 131072])
        requests.append(f"-e {endpoint} -b {size}")
    return requests


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@dataclass
class ServerStudyResult:
    requests: int
    default_latency: dict[str, float]   # p50/p95/p99/mean, virtual ms
    evolve_latency: dict[str, float]
    tail_improvement: float             # p95 speedup
    applied_fraction: float


def run_server_study(
    seed: int = 0, requests: int = 120, config: VMConfig = DEFAULT_CONFIG
) -> ServerStudyResult:
    app = build_server_app()
    stream = generate_request_stream(Random(seed * 13 + 7), requests)

    # Default server: reactive optimizer, warm shared code cache.
    default_jit = JITCompiler(app.program, config)
    default_latencies = [
        run_default(app, request, config=config, jit=default_jit, rng_seed=i)
        .total_cycles
        for i, request in enumerate(stream)
    ]

    # Evolve server: shared learner + code cache across the stream.
    vm = EvolvableVM(app, config=config, cache_translations=True)
    evolve_latencies = []
    applied = 0
    for i, request in enumerate(stream):
        outcome = vm.run(request, rng_seed=i)
        evolve_latencies.append(outcome.total_cycles)
        applied += 1 if outcome.applied_prediction else 0

    def summarize(latencies: list[float]) -> dict[str, float]:
        to_ms = 1000.0 / config.cycles_per_second
        return {
            "p50": _percentile(latencies, 0.50) * to_ms,
            "p95": _percentile(latencies, 0.95) * to_ms,
            "p99": _percentile(latencies, 0.99) * to_ms,
            "mean": sum(latencies) / len(latencies) * to_ms,
        }

    default_summary = summarize(default_latencies)
    evolve_summary = summarize(evolve_latencies)
    return ServerStudyResult(
        requests=requests,
        default_latency=default_summary,
        evolve_latency=evolve_summary,
        tail_improvement=default_summary["p95"] / evolve_summary["p95"],
        applied_fraction=applied / requests,
    )


def render(result: ServerStudyResult) -> str:
    rows = [
        [
            metric,
            f"{result.default_latency[metric]:.2f}",
            f"{result.evolve_latency[metric]:.2f}",
            f"{result.default_latency[metric] / result.evolve_latency[metric]:.3f}",
        ]
        for metric in ("p50", "p95", "p99", "mean")
    ]
    table = format_table(
        ["latency", "default (ms)", "evolve (ms)", "speedup"], rows
    )
    return (
        f"Request-specific optimization study ({result.requests} requests)\n"
        f"{table}\n"
        f"prediction applied on {result.applied_fraction:.0%} of requests; "
        f"p95 tail improved {result.tail_improvement:.3f}x"
    )


def main(seed: int = 0, requests: int = 120) -> str:
    output = render(run_server_study(seed=seed, requests=requests))
    print(output)
    return output


# ---------------------------------------------------------------------------
# The fleet-serving study (the `repro serve` driving scenario)
# ---------------------------------------------------------------------------

#: Tenant profiles: (name, endpoint-mix weights). Same handler program,
#: different traffic shapes — so every tenant learns a *different*
#: input→strategy mapping while sharing the fleet's JIT artifact cache.
TENANT_PROFILES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("search-svc", (8, 1, 1)),
    ("render-svc", (1, 7, 2)),
    ("stats-svc", (2, 2, 6)),
    ("mixed-svc", (4, 3, 3)),
)

#: Fraction of fleet requests that are predict-only (no execution).
PREDICT_FRACTION = 0.2


def build_tenant_apps(count: int = 4) -> list[Application]:
    """Distinct tenant applications over the shared server handler."""
    count = max(1, min(count, len(TENANT_PROFILES)))
    program = compile_source(SERVER_SOURCE, name="server")
    apps = []
    for name, _ in TENANT_PROFILES[:count]:
        spec = parse_spec(SERVER_SPEC)

        def launcher(tokens, fvector, fs):
            return (
                _ENDPOINTS.index(str(fvector.get("-e.VAL", "search"))),
                int(fvector["-b.VAL"]),
            )

        apps.append(
            Application(name=name, program=program, spec=spec, launcher=launcher)
        )
    return apps


def generate_fleet_requests(
    seed: int, count: int, tenants: int = 4
) -> list[dict]:
    """A deterministic interleaved mixed-tenant request stream.

    ~80% ``run`` / ~20% ``predict`` ops; each tenant's endpoint mix
    follows its profile weights; run seeds are the tenant's running
    request index (what the serial replay uses too).
    """
    profiles = TENANT_PROFILES[: max(1, min(tenants, len(TENANT_PROFILES)))]
    rng = Random(seed * 9176 + 11)
    run_counters = {name: 0 for name, _ in profiles}
    requests: list[dict] = []
    for i in range(count):
        name, weights = profiles[rng.randrange(len(profiles))]
        endpoint = rng.choices(_ENDPOINTS, weights=weights)[0]
        size = rng.choice([512, 2048, 8192, 32768, 131072])
        op = "predict" if rng.random() < PREDICT_FRACTION else "run"
        request = {
            "op": op,
            "app": name,
            "cmdline": f"-e {endpoint} -b {size}",
            "id": i,
        }
        if op == "run":
            request["seed"] = run_counters[name]
            run_counters[name] += 1
        requests.append(request)
    return requests


def _build_study_fleet(
    tenants: int,
    registry_dir: str | None,
    refit_interval: int,
    config: VMConfig,
):
    from ..serving.registry import ModelRegistry
    from ..serving.tenant import build_fleet

    registry = ModelRegistry(registry_dir)
    fleet = build_fleet(
        build_tenant_apps(tenants),
        registry=registry,
        config=config,
        refit_interval=refit_interval,
    )
    return fleet, registry


def run_requests_serial(
    requests: list[dict],
    *,
    tenants: int = 4,
    refit_interval: int = 20,
    config: VMConfig = DEFAULT_CONFIG,
) -> dict[str, list[dict]]:
    """The per-tenant serial baseline the concurrent server must match.

    Replays each tenant's subsequence of *requests* in order on a fresh
    fleet, applying the same auto-swap policy the server applies (swap
    after ``refit_interval`` runs, inside the tenant's op stream).
    Returns each tenant's ordered deterministic response payloads.
    """
    fleet, _ = _build_study_fleet(tenants, None, refit_interval, config)
    by_name = {tenant.name: tenant for tenant in fleet}
    outcomes: dict[str, list[dict]] = {tenant.name: [] for tenant in fleet}
    for request in requests:
        tenant = by_name[request["app"]]
        if request["op"] == "run":
            payload = tenant.run(request["cmdline"], request.get("seed"))
            outcomes[tenant.name].append(payload)
            if tenant.due_for_swap():
                tenant.swap()
        else:
            outcomes[tenant.name].append(tenant.predict(request["cmdline"]))
    return outcomes


@dataclass
class FleetStudyResult:
    """What one fleet-serving study produced (see ``docs/serving.md``)."""

    requests: int
    tenants: int
    wall_s: float
    serial_wall_s: float
    rps: float
    latency_ms: dict[str, float]          # p50/p95/p99/mean, host wall
    swaps: int
    batches: int
    batched_predicts: int
    sheds: int                            # from the overload burst
    burst_accepted: int
    burst_submitted: int
    identical_to_serial: bool
    mismatches: list[str] = field(default_factory=list)
    startup: dict = field(default_factory=dict)

    @property
    def overhead_ratio(self) -> float:
        """Concurrent serving wall over serial replay wall for the same
        work — the machine-independent ratio the bench gate tracks."""
        return self.wall_s / self.serial_wall_s if self.serial_wall_s else 0.0


async def _serve_requests(
    fleet,
    registry,
    requests: list[dict],
    *,
    queue_bound: int,
    workers: int | None,
    telemetry=None,
    pace: int = 8,
) -> tuple[dict[str, list[dict]], "object"]:
    """Drive *requests* through a :class:`FleetServer` concurrently.

    Submission order is the stream order (per-tenant arrival order is
    deterministic); every *pace* submissions the driver yields to the
    event loop so workers interleave with admission, like live traffic.
    """
    from ..serving.server import FleetServer

    server = FleetServer(
        fleet,
        registry,
        queue_bound=queue_bound,
        workers=workers,
        telemetry=telemetry,
    )
    await server.start()
    futures = []
    for i, request in enumerate(requests):
        futures.append(server.submit_nowait(request))
        if pace and (i + 1) % pace == 0:
            await asyncio.sleep(0)
    responses = await asyncio.gather(*futures)
    await server.stop(persist=registry.root is not None)
    by_tenant: dict[str, list[dict]] = {t.name: [] for t in fleet}
    for request, response in zip(requests, responses):
        if response["status"] != 200:
            continue
        payload = {
            k: v
            for k, v in response.items()
            if k not in ("status", "op", "id", "app", "wall_ms")
        }
        by_tenant[request["app"]].append(payload)
    return by_tenant, server


async def _overload_burst(
    tenants: int,
    refit_interval: int,
    config: VMConfig,
    *,
    queue_bound: int = 4,
    per_tenant: int = 16,
) -> tuple[int, int, int]:
    """Flood tiny bounded queues without yielding: admission control must
    shed the overflow deterministically (submissions outrun the workers,
    which only run at await points). Returns (submitted, accepted, shed).
    """
    from ..serving.server import FleetServer

    fleet, registry = _build_study_fleet(
        tenants, None, refit_interval, config
    )
    server = FleetServer(fleet, registry, queue_bound=queue_bound, workers=2)
    await server.start()
    futures = []
    for tenant in fleet:
        for i in range(per_tenant):
            futures.append(
                server.submit_nowait(
                    {
                        "op": "run",
                        "app": tenant.name,
                        "cmdline": "-e search -b 512",
                        "seed": i,
                    }
                )
            )
    responses = await asyncio.gather(*futures)
    await server.stop(persist=False)
    shed = sum(1 for r in responses if r["status"] == 429)
    accepted = sum(1 for r in responses if r["status"] == 200)
    return len(futures), accepted, shed


def _compare_outcomes(
    serial: dict[str, list[dict]], served: dict[str, list[dict]]
) -> list[str]:
    """Bit-exact per-tenant comparison; returns mismatch descriptions."""
    mismatches: list[str] = []
    for name in sorted(serial):
        a, b = serial[name], served.get(name, [])
        if len(a) != len(b):
            mismatches.append(
                f"{name}: {len(b)} served response(s) vs {len(a)} serial"
            )
            continue
        for i, (left, right) in enumerate(zip(a, b)):
            if left != right:
                mismatches.append(
                    f"{name}[{i}]: served {right!r} != serial {left!r}"
                )
                break
    return mismatches


def run_fleet_study(
    seed: int = 0,
    requests: int = 1000,
    tenants: int = 4,
    *,
    refit_interval: int = 20,
    queue_bound: int | None = None,
    workers: int | None = None,
    registry_dir: str | None = None,
    telemetry=None,
    config: VMConfig = DEFAULT_CONFIG,
) -> FleetStudyResult:
    """The serving layer's driving scenario, end to end.

    Phases: (1) serial per-tenant baseline replay; (2) the same stream
    through the concurrent :class:`~repro.serving.server.FleetServer`
    (ample queues: nothing sheds, so results must match the baseline
    bit-for-bit); (3) a deliberate overload burst against tiny queues to
    exercise admission control. Hot swaps run throughout (every
    *refit_interval* runs per tenant). A fresh throwaway registry
    directory is used when *registry_dir* is ``None``, so the crash-safe
    persistence path (state saves at swap points, cold-start summary) is
    exercised without making results depend on prior invocations.
    """
    stream = generate_fleet_requests(seed, requests, tenants)

    serial_clock = time.perf_counter()
    serial = run_requests_serial(
        stream,
        tenants=tenants,
        refit_interval=refit_interval,
        config=config,
    )
    serial_wall = time.perf_counter() - serial_clock

    scratch: str | None = None
    if registry_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-fleet-registry-")
        registry_dir = scratch
    try:
        fleet, registry = _build_study_fleet(
            tenants, registry_dir, refit_interval, config
        )
        startup = registry.startup_summary()
        bound = queue_bound if queue_bound is not None else max(64, requests)
        serve_clock = time.perf_counter()
        served, server = asyncio.run(
            _serve_requests(
                fleet,
                registry,
                stream,
                queue_bound=bound,
                workers=workers,
                telemetry=telemetry,
            )
        )
        wall = time.perf_counter() - serve_clock
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    submitted, accepted, shed = asyncio.run(
        _overload_burst(tenants, refit_interval, config)
    )

    mismatches = _compare_outcomes(serial, served)
    latencies = server.stats.latencies_ms
    summary = {
        "p50": _percentile(latencies, 0.50),
        "p95": _percentile(latencies, 0.95),
        "p99": _percentile(latencies, 0.99),
        "mean": sum(latencies) / len(latencies),
    }
    return FleetStudyResult(
        requests=requests,
        tenants=len({r["app"] for r in stream}),
        wall_s=wall,
        serial_wall_s=serial_wall,
        rps=requests / wall if wall else 0.0,
        latency_ms=summary,
        swaps=server.stats.swaps,
        batches=server.stats.batches,
        batched_predicts=server.stats.batched_predicts,
        sheds=shed,
        burst_accepted=accepted,
        burst_submitted=submitted,
        identical_to_serial=not mismatches,
        mismatches=mismatches,
        startup=startup,
    )


def render_fleet(result: FleetStudyResult) -> str:
    rows = [
        [metric, f"{result.latency_ms[metric]:.2f}"]
        for metric in ("p50", "p95", "p99", "mean")
    ]
    table = format_table(["latency", "wall (ms)"], rows)
    verdict = (
        "bit-identical to serial replay"
        if result.identical_to_serial
        else f"MISMATCH: {result.mismatches[:3]}"
    )
    return (
        f"Fleet serving study: {result.requests} request(s) across "
        f"{result.tenants} tenant(s)\n"
        f"{table}\n"
        f"throughput {result.rps:.0f} req/s "
        f"({result.wall_s:.2f}s concurrent vs {result.serial_wall_s:.2f}s "
        f"serial, overhead ratio {result.overhead_ratio:.2f})\n"
        f"{result.swaps} hot swap(s); {result.batches} predict batch(es) "
        f"covering {result.batched_predicts} request(s)\n"
        f"overload burst: {result.sheds} shed / {result.burst_submitted} "
        f"submitted (queue bound respected)\n"
        f"per-tenant results: {verdict}"
    )


def fleet_main(seed: int = 0, requests: int = 1000, tenants: int = 4) -> int:
    """CLI driver for ``repro serve --study``; exit 1 on any invariant
    violation (result divergence, no sheds under overload, no swaps)."""
    result = run_fleet_study(seed=seed, requests=requests, tenants=tenants)
    print(render_fleet(result))
    ok = (
        result.identical_to_serial
        and result.sheds > 0
        and result.swaps > 0
    )
    if not ok:
        print("FLEET STUDY INVARIANT VIOLATION", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    main()
