"""Workload ``serve-run``: an open loop into the in-process fleet.

The shipped single-process fleet (4 tenants, ``queue_bound`` 128,
``refit_interval`` 25, default executor) is driven through
``FleetServer.submit_nowait`` with the study mix of
``generate_fleet_requests`` (~80% ``run``, ~20% ``predict``, payloads of
512 to 131072 bytes, auto swaps) in seeded order (see :func:`stream`).
Requests are sent on a fixed schedule regardless of completions — an
open loop — by a generator on the server's own event loop (no threads of
its own), and every latency is timed from the request's *due* time, so
a stall charges every request it delays. The public socket holds one
request in flight per connection, which is why this loop runs
in-process.

Every pass builds a fresh fleet and replays the same prefix of
``30 * seconds`` requests, so rates differ only in rate (a swap refits
over the tenant's whole history, so later requests cost more) and every
pass must reproduce one reference replay.

The run makes :data:`ROUNDS` rounds of ``warm``, ``low`` and
``capacity`` passes, so every metric samples the host at several points
of the run (a shared host's speed drifts over seconds), then the
``high`` and ``ladder`` passes:

- ``warm``: :data:`WARM_PASSES` closed-loop passes on a cold fleet
  (``first_iter_s``, the median of all of them);
- ``low``: a pass at :data:`LOW_RPS` (``p50_ms`` and ``p90_ms``, the
  median over rounds of each pass's percentile, so one stalled pass does
  not move them; ``p99_ms`` over all low requests, printed);
- ``capacity``: :data:`CAPACITY_PASSES` passes with every request due
  at once, so the generator keeps the in-flight window full (below);
  ``ops_per_s`` is the median of their completion rates, the rate the
  fleet sustains when it never waits for work (a single pass's rate
  swings with thread scheduling, hence several);
- ``high``: one pass at :data:`HIGH_RPS`, near the knee;
- ``ladder``: a bisection over the fixed rates :data:`LADDER_RPS` for the
  highest one that passes (``sustained_rps``, printed). A pass passes
  when every request is answered 200, its p99 is within
  :data:`P99_LIMIT_MS`, the generator's p99 lag is within
  :data:`LAG_LIMIT_MS` and the backlog did not grow across it (outputs
  are checked against the reference after the window; a wrong one fails
  the run). It is printed, not gated on: each step is one pass of under
  a second, so on a shared host a single stall fails a step and moves
  the result by whole grid steps (to the ``low`` rate when every step
  fails), which the capacity median does not.

The generator never lets more than three quarters of a tenant's queue
bound be in flight over the whole fleet: past the knee it waits for
room instead of driving the server into shedding, so every request of
every pass is served and checked, and the wait shows as lag and
latency (timed from due times) that fail the pass.

The process runs on one CPU (:func:`common.pin_to_one_cpu`), so the
fleet's threads hand over on one core instead of waking each other
across two.

The rates and the limit are absolute, set once on a 2-core host; they
are never rescaled per commit.
"""

from __future__ import annotations

import asyncio
import gc
import time
from random import Random

import servecheck
from common import fresh_dir, median, peak_rss_mb, percentile, pin_to_one_cpu

#: Requests per block of the stream, and the study-mix draw every block
#: shuffles (a fixed draw: per-request cost is heavy-tailed in payload
#: size, so a mix drawn from the workload seed would move the tail).
BLOCK = 100
MIX_SEED = 0
ROUNDS = 4
WARM_PASSES = 2
CAPACITY_PASSES = 2
LOW_RPS = 150
HIGH_RPS = 500
#: A x1.05 geometric grid of absolute rates, 400 to 1011 req/s; the knee
#: sits between 650 and 850 req/s on a 2-core host.
LADDER_RPS = tuple(round(400 * 1.05 ** k) for k in range(20))
P99_LIMIT_MS = 250.0
#: A generator later than this at p99 no longer sends on schedule.
LAG_LIMIT_MS = 50.0
#: Seconds to wait for a pass's stragglers before counting them failed.
DRAIN_TIMEOUT = 30.0


def prefix_length(seconds: float) -> int:
    return BLOCK * max(1, round(30 * seconds / BLOCK))


def stream(seed: int, seconds: float) -> list[dict]:
    """Blocks of the study mix, each a seeded shuffle of the same
    :data:`BLOCK` requests of ``generate_fleet_requests``, so every pass
    sees the same mix and the seed sets the order. Run seeds are each
    tenant's running run index, as in the study.
    """
    from repro.experiments.server_study import generate_fleet_requests

    mix = generate_fleet_requests(MIX_SEED, BLOCK)
    rng = Random(seed * 7561 + 29)
    requests: list[dict] = []
    runs: dict[str, int] = {}
    while len(requests) < prefix_length(seconds):
        block = [dict(request) for request in mix]
        rng.shuffle(block)
        for request in block:
            request["id"] = len(requests)
            if request["op"] == "run":
                request["seed"] = runs.get(request["app"], 0)
                runs[request["app"]] = request["seed"] + 1
            requests.append(request)
    return requests


def reference(seed: int, seconds: float) -> dict:
    served = servecheck.replay(stream(seed, seconds), fresh_dir("serve-run-reference"))
    return {"tenants": servecheck.tenant_digests(served)}


async def start_fleet(tag: str):
    """Build and start a fresh shipped fleet; returns (server, set-up s)."""
    from repro.experiments.server_study import build_tenant_apps
    from repro.serving import FleetServer, ModelRegistry, build_fleet

    start = time.perf_counter()
    registry = ModelRegistry(fresh_dir(tag))
    server = FleetServer(build_fleet(build_tenant_apps(4), registry=registry), registry)
    await server.start()
    reply = await server.submit_nowait({"op": "stats"})
    if reply["status"] != 200:
        raise RuntimeError(f"fleet stats reply {reply['status']}")
    return server, time.perf_counter() - start


async def closed_loop(server, requests: list[dict]) -> dict:
    responses = []
    start = time.perf_counter()
    for request in requests:
        responses.append(await server.submit_nowait(request))
    return {"wall": time.perf_counter() - start, "responses": responses}


async def open_loop(server, requests: list[dict], rate: float) -> dict:
    """Send *requests* at *rate* on a fixed schedule; time from due times."""
    n = len(requests)
    done_at = [0.0] * n
    futures = []
    lags = []
    backlog_mid = 0
    # Below every tenant's queue bound, so no request is ever shed.
    max_in_flight = server.queue_bound * 3 // 4
    in_flight = 0
    throttled = False
    room = asyncio.Event()

    def finished(index, _future):
        nonlocal in_flight
        done_at[index] = time.perf_counter()
        in_flight -= 1
        room.set()

    start = time.perf_counter()
    i = 0
    while i < n:
        now = time.perf_counter()
        while i < n and in_flight < max_in_flight and start + i / rate <= now:
            lags.append((now - (start + i / rate)) * 1000.0)
            future = server.submit_nowait(requests[i])
            in_flight += 1
            future.add_done_callback(lambda f, index=i: finished(index, f))
            futures.append(future)
            i += 1
            if i == n // 2:
                backlog_mid = sum(1 for f in futures if not f.done())
        if i == n:
            break
        if in_flight >= max_in_flight:
            throttled = True
            room.clear()
            await room.wait()
        else:
            await asyncio.sleep(max(0.0, start + i / rate - time.perf_counter()))
    backlog_end = sum(1 for f in futures if not f.done())
    await asyncio.wait(futures, timeout=DRAIN_TIMEOUT)
    responses = [
        f.result() if f.done() else {"status": 504, "app": r["app"]}
        for f, r in zip(futures, requests)
    ]
    latencies = [
        (done_at[k] - (start + k / rate)) * 1000.0 if futures[k].done() else float("inf")
        for k in range(n)
    ]
    hops = [
        latencies[k] - lags[k] - response["wall_ms"]
        for k, response in enumerate(responses) if "wall_ms" in response
    ]
    last = max(done_at) if all(done_at) else time.perf_counter()
    return {"wall": last - start, "responses": responses, "latencies": latencies,
            "lags": lags, "backlog_mid": backlog_mid, "backlog_end": backlog_end,
            "throttled": throttled, "hops": hops, "rate": n / (last - start)}


def check(requests: list[dict], responses: list[dict], expected: dict[str, str]) -> tuple[int, list[str]]:
    """Failed-op count and problems of one pass against the reference."""
    failed = sum(1 for r in responses if r.get("status") != 200)
    per_tenant: dict[str, list[dict]] = {}
    for request, response in zip(requests, responses):
        per_tenant.setdefault(request["app"], []).append(servecheck.payload(response))
    got = servecheck.tenant_digests(per_tenant)
    problems = []
    for name, want in expected.items():
        if got.get(name) != want:
            problems.append(f"tenant {name} outputs differ from the reference")
            if not failed:
                failed = len(per_tenant.get(name, [])) or 1
    return failed, problems


def passes(result: dict, rate: float) -> bool:
    # Growing: over the pass's second half, more than 50 ms of arrivals piled up.
    grew = result["backlog_end"] - result["backlog_mid"] > rate * 0.05
    answered = all(r.get("status") == 200 for r in result["responses"])
    return (answered and not grew and not result["throttled"]
            and percentile(result["latencies"], 99) <= P99_LIMIT_MS
            and percentile(result["lags"], 99) <= LAG_LIMIT_MS)


def describe(name: str, rate: float, result: dict, ok: bool) -> str:
    return (
        f"{name:<12} rate {rate:>4} done/s {result['rate']:8.2f} "
        f"p50 {percentile(result['latencies'], 50):8.2f} ms "
        f"p99 {percentile(result['latencies'], 99):8.2f} ms "
        f"lag p99 {percentile(result['lags'], 99):6.2f} ms "
        f"backlog {result['backlog_mid']}->{result['backlog_end']}"
        f"{' throttled' if result['throttled'] else ''} "
        f"{'pass' if ok else 'FAIL'}"
    )


async def drive(requests: list[dict], tracer) -> dict:
    setups, notes, passes_run = [], [], []

    async def one_pass(name: str, rate: float) -> dict:
        # The last pass's fleet is garbage now; collect it outside the window.
        gc.collect()
        server, setup = await start_fleet(f"serve-run-{name}")
        setups.append(setup)
        begin = time.perf_counter()
        if rate:
            result = await open_loop(server, requests, rate)
        else:
            result = await closed_loop(server, requests)
        result["window"] = (begin, time.perf_counter())
        await server.stop(persist=False)
        passes_run.append(result)
        return result

    overhead = 0.0
    if tracer is not None:
        # An untraced warm pass before the traced ones: the tracer's overhead.
        untraced = (await one_pass("calibrate", 0.0))["wall"]
        passes_run.clear()
        tracer.install()
    sustained = 0.0
    warms, lows, capacity = [], [], []
    for k in range(ROUNDS):
        for j in range(WARM_PASSES):
            warms.append((await one_pass(f"warm-{k}-{j}", 0.0))["wall"])
        if tracer is not None and k == 0:
            overhead = warms[0] / untraced - 1.0
        result = await one_pass(f"low-{k}", LOW_RPS)
        ok = passes(result, LOW_RPS)
        notes.append(describe(f"low-{k}", LOW_RPS, result, ok))
        lows.append(result)
        if ok:
            sustained = max(sustained, result["rate"])
        for j in range(CAPACITY_PASSES):
            capacity.append((await one_pass(f"capacity-{k}-{j}", float("inf")))["rate"])
    high = await one_pass("high", HIGH_RPS)
    notes.append(describe("high", HIGH_RPS, high, passes(high, HIGH_RPS)))

    below, above = -1, len(LADDER_RPS)  # highest passing, lowest failing index
    while above - below > 1:
        index = (below + above) // 2
        rate = LADDER_RPS[index]
        result = await one_pass(f"ladder-{rate}", rate)
        ok = passes(result, rate)
        notes.append(describe(f"ladder-{rate}", rate, result, ok))
        if ok:
            below = index
            sustained = max(sustained, result["rate"])
        else:
            above = index

    low_latencies = [x for result in lows for x in result["latencies"]]
    return {
        "passes": passes_run,
        "high": high,
        "overhead": overhead,
        "traced_wall": sum(r["window"][1] - r["window"][0] for r in passes_run),
        "e2e": {
            "setup_s": median(setups),
            "first_iter_s": median(warms),
            "ops_per_s": median(capacity),
            "p50_ms": median([percentile(r["latencies"], 50) for r in lows]),
            "p90_ms": median([percentile(r["latencies"], 90) for r in lows]),
            "p99_ms": percentile(low_latencies, 99),
            "peak_rss_mb": peak_rss_mb(),
        },
        "notes": notes + [
            f"closed-loop pass walls s: {' '.join(f'{w:.3f}' for w in warms)}",
            f"capacity 1/s: {' '.join(f'{r:.1f}' for r in capacity)}",
            f"sustained_rps {sustained:.2f} 1/s (limit p99 {P99_LIMIT_MS:g} ms)",
            f"p50_ms.high {percentile(high['latencies'], 50):.3f} ms "
            f"p99_ms.high {percentile(high['latencies'], 99):.3f} ms "
            f"({len(high['latencies'])} samples)",
            f"low samples {len(low_latencies)}, {len(requests)} requests per pass",
        ],
    }


def run(seed: int, seconds: float, tracer, expected: dict | None) -> dict:
    from tracer import serving_waits

    requests = stream(seed, seconds)
    # Six alternating pinned/free pairs of runs on a 2-core host: spreads
    # of p50_ms, p90_ms and ops_per_s 0.07, 0.15 and 0.10 pinned against
    # 0.12, 0.32 and 0.15 free, and every median faster pinned.
    cpu = pin_to_one_cpu()
    try:
        out = asyncio.run(drive(requests, tracer))
    finally:
        if tracer is not None:
            tracer.restore()
    out["notes"].append(f"pinned to CPU {cpu}")
    if expected is None:
        expected = reference(seed, seconds)
    out["attempted"] = out["failed"] = 0
    out["problems"] = []
    for result in out.pop("passes"):
        bad, why = check(requests, result["responses"], expected["tenants"])
        out["attempted"] += len(requests)
        out["failed"] += bad
        out["problems"] += why
    high = out.pop("high")
    if tracer is not None:
        lo, hi = high["window"]
        waits, exec_ms, _ = serving_waits([s for s in tracer.spans if lo <= s[1] <= hi])
        out["ops"] = out["attempted"]
        out["layers"] = {
            "serving.queue_wait_ms.p50": percentile(waits, 50),
            "serving.queue_wait_ms.p99": percentile(waits, 99),
            "serving.exec_ms.p50": percentile(exec_ms, 50),
            "serving.hop_ms.p50": percentile(high["hops"], 50),
            "loadgen.lag_ms.p99": percentile(high["lags"], 99),
            "loadgen.backlog": float(high["backlog_end"]),
        }
    return out
