"""Serving-surface tests: wire schema, registry, startup surfacing, caches.

The contracts under test (docs/serving.md):

- the request/response schema is machine-checkable and every response
  carries an HTTP-flavored ``status``;
- the model registry persists learned state through the crash-safe
  envelope: corruption quarantines and cold-starts, never crashes, and
  ``repro serve`` surfaces a degraded registry loudly (stderr +
  ``serve_degradation`` telemetry) instead of booting silently empty;
- a restart restores each tenant's model generation from its ``.gen``
  sidecar, and an unreadable sidecar resets only that counter, recorded;
- the shared predict-result cache is content-addressed by model
  fingerprint, so a hot swap can never serve a stale generation's answer
  while a restart of the *same* model keeps its entries warm;
- the TCP transport round-trips requests as JSON lines;
- admission control sheds a flooded predict queue deterministically, by
  submission order.
"""

import asyncio
import io
import json

import pytest

from repro.core import EvolvableVM
from repro.experiments.telemetry import (
    ResultCache,
    TelemetryLog,
    serve_event,
    validate_event,
)
from repro.serving import (
    FleetServer,
    ModelRegistry,
    Tenant,
    build_fleet,
    serve_tcp,
)
from repro.serving.protocol import (
    bad_request_response,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    shed_response,
    unknown_tenant_response,
    validate_request,
)

TRAIN = ["-m 1 -n 50", "-m 2 -n 1200", "-m 1 -n 1200", "-m 2 -n 50",
         "-m 1 -n 50", "-m 2 -n 1200"]


class TestProtocol:
    def test_valid_requests(self):
        assert validate_request(
            {"op": "run", "app": "a", "cmdline": "-n 1"}) == []
        assert validate_request(
            {"op": "predict", "app": "a", "cmdline": "-n 1"}) == []
        assert validate_request({"op": "swap", "app": "a"}) == []
        assert validate_request({"op": "stats"}) == []

    def test_rejects_garbage(self):
        assert validate_request("not a dict")
        assert validate_request({"op": "explode"})
        assert validate_request({"op": "run", "cmdline": "-n 1"})  # no app
        assert validate_request({"op": "run", "app": "a"})  # no cmdline
        assert validate_request(
            {"op": "run", "app": "a", "cmdline": "x", "seed": "zero"})

    def test_response_statuses_and_echo(self):
        request = {"op": "run", "app": "a", "id": 7}
        assert ok_response(request, result=1)["status"] == 200
        assert ok_response(request, result=1)["id"] == 7
        assert bad_request_response(request, ["x"])["status"] == 400
        assert unknown_tenant_response(request, ["b"])["status"] == 404
        shed = shed_response(request, 4, 4)
        assert shed["status"] == 429
        assert shed["queue_depth"] == 4 and shed["queue_bound"] == 4
        assert error_response(request, ValueError("boom"))["status"] == 500

    def test_jsonl_round_trip(self):
        obj = {"op": "stats", "id": "x"}
        assert decode_line(encode_line(obj)) == obj
        assert decode_line(b"") is None
        assert decode_line(b"not json\n") is None
        assert decode_line(b"[1, 2]\n") is None  # non-object


@pytest.fixture
def trained(toy_app):
    vm = EvolvableVM(toy_app)
    for i, cmd in enumerate(TRAIN):
        vm.run(cmd, rng_seed=i)
    return vm


class TestModelRegistry:
    def test_ephemeral_registry_cold_starts_and_never_saves(self, toy_app):
        registry = ModelRegistry(None)
        vm = EvolvableVM(toy_app)
        assert registry.load_into(vm) is False
        assert registry.save(vm) is False
        summary = registry.startup_summary()
        assert summary["degraded"] is False
        assert summary["cold_started"] == ["toy"]

    def test_round_trip_restores_learning(self, toy_app, trained, tmp_path):
        registry = ModelRegistry(tmp_path)
        assert registry.save(trained)
        fresh = EvolvableVM(toy_app)
        assert registry.load_into(fresh) is True
        assert fresh.run_count == trained.run_count
        assert registry.startup_summary()["restored"] == ["toy"]
        assert registry.startup_summary()["degraded"] is False

    def test_generation_tracking(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.load_into(EvolvableVM(toy_app))
        assert registry.generations["toy"] == 0
        assert registry.note_swap("toy") == 1
        assert registry.note_swap("toy") == 2

    def test_generation_restored_by_fresh_registry(self, toy_app, tmp_path):
        """A restarted server (fresh registry over the same root) keeps
        reporting the generation its last swap published."""
        registry = ModelRegistry(tmp_path)
        registry.load_into(EvolvableVM(toy_app))
        registry.note_swap("toy")
        registry.note_swap("toy")
        restarted = ModelRegistry(tmp_path)
        restarted.load_into(EvolvableVM(toy_app))
        assert restarted.generations["toy"] == 2
        assert restarted.note_swap("toy") == 3
        assert restarted.report.count(action="generation-reset") == 0

    def test_unreadable_generation_sidecar_resets_to_zero(
        self, toy_app, tmp_path
    ):
        registry = ModelRegistry(tmp_path)
        registry.load_into(EvolvableVM(toy_app))
        registry.note_swap("toy")
        registry.generation_path("toy").write_bytes(b"{torn")
        restarted = ModelRegistry(tmp_path)
        restarted.load_into(EvolvableVM(toy_app))
        assert restarted.generations["toy"] == 0
        (event,) = [
            event for event in restarted.report.events
            if event.action == "generation-reset"
        ]
        assert event.reason == "unreadable-sidecar"
        assert "toy" in event.detail

    def test_missing_state_is_a_quiet_cold_start(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "never_written")
        registry.load_into(EvolvableVM(toy_app))
        summary = registry.startup_summary()
        assert summary["cold_started"] == ["toy"]
        assert summary["degraded"] is False  # missing file is normal

    def test_corrupt_state_quarantines_and_degrades(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path)
        path = registry.state_path("toy")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00garbage that is not an envelope")
        vm = EvolvableVM(toy_app)
        assert registry.load_into(vm) is False
        assert not path.exists()  # moved aside, not left to re-fail
        summary = registry.startup_summary()
        assert summary["quarantined"] == 1
        assert summary["degraded"] is True
        assert vm.run_count == 0  # cold boot, still serviceable


class TestStartupSurfacing:
    """The satellite fix: a quarantined registry must be loud at boot."""

    def _degraded_server(self, toy_app, tmp_path, telemetry=None):
        registry = ModelRegistry(tmp_path / "reg")
        path = registry.state_path("toy")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00torn")
        tenants = [Tenant(toy_app, registry=registry)]
        return FleetServer(tenants, registry, telemetry=telemetry)

    def test_degradation_printed_to_stream(self, toy_app, tmp_path):
        server = self._degraded_server(toy_app, tmp_path)
        stream = io.StringIO()
        summary = server.surface_startup(stream=stream)
        text = stream.getvalue()
        assert summary["degraded"] is True
        assert "WARNING" in text
        assert "quarantine" in text
        assert "toy" in text

    def test_degradation_mirrored_to_telemetry(self, toy_app, tmp_path):
        log = TelemetryLog(tmp_path / "serve.jsonl")
        server = self._degraded_server(toy_app, tmp_path, telemetry=log)
        server.surface_startup(stream=io.StringIO())
        log.close()
        events = [
            json.loads(line)
            for line in (tmp_path / "serve.jsonl").read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert "serve_degradation" in kinds
        for event in events:
            assert validate_event(event) == [], event

    def test_healthy_startup_is_not_degraded(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        server = FleetServer(
            [Tenant(toy_app, registry=registry)], registry
        )
        stream = io.StringIO()
        summary = server.surface_startup(stream=stream)
        assert summary["degraded"] is False
        assert "WARNING" not in stream.getvalue()


class TestServeTelemetrySchema:
    def test_all_serve_events_validate(self):
        events = [
            serve_event("serve_start", tenants=2, restored=1,
                        cold_started=1, quarantined=0, degraded=False),
            serve_event("serve_request", app="a", op="run", status=200,
                        wall_ms=1.5, batched=1),
            serve_event("serve_shed", app="a", op="predict",
                        queue_depth=4, queue_bound=4),
            serve_event("serve_swap", app="a", generation=3, runs=25,
                        wall_s=0.01),
            serve_event("serve_degradation", component="state",
                        action="quarantine", reason="checksum",
                        detail="x", path="/tmp/x"),
        ]
        for event in events:
            assert validate_event(event) == [], event

    def test_serve_batch_event_validates(self):
        event = serve_event(
            "serve_batch", app="search-svc", size=7, queue_depth=3
        )
        assert validate_event(event) == []

    def test_missing_fields_rejected(self):
        assert validate_event(serve_event("serve_shed", app="a"))
        assert validate_event({"event": "serve_nonsense", "v": 1})


class TestPredictCacheFingerprinting:
    def test_hits_within_generation_miss_across_swap(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        cache = ResultCache(tmp_path / "cache")
        tenant = Tenant(toy_app, registry=registry, predict_cache=cache,
                        refit_interval=None)
        first = tenant.predict(TRAIN[0])
        again = tenant.predict(TRAIN[0])
        assert again["levels"] == first["levels"]
        assert tenant.predict_cache_hits == 1
        for i, cmd in enumerate(TRAIN):
            tenant.run(cmd, seed=i)
        tenant.swap()  # new fingerprint: old entries must not serve
        tenant.predict(TRAIN[0])
        assert tenant.predict_cache_hits == 1  # miss after the swap
        tenant.predict(TRAIN[0])
        assert tenant.predict_cache_hits == 2  # warm again within gen

    def test_cache_survives_restart_of_same_model(self, toy_app, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        cache = ResultCache(tmp_path / "cache")
        tenant = Tenant(toy_app, registry=registry, predict_cache=cache,
                        refit_interval=None)
        for i, cmd in enumerate(TRAIN):
            tenant.run(cmd, seed=i)
        tenant.swap()  # persists state + fingerprints the model
        warmed = tenant.predict(TRAIN[1])
        # "Restart": a fresh process would rebuild the tenant from disk.
        reborn = Tenant(toy_app, registry=ModelRegistry(tmp_path / "reg"),
                        predict_cache=cache, refit_interval=None)
        answer = reborn.predict(TRAIN[1])
        assert reborn.predict_cache_hits == 1  # same model → warm start
        assert answer["levels"] == warmed["levels"]


class TestTcpTransport:
    def test_json_lines_round_trip(self, toy_app, tmp_path):
        async def scenario():
            registry = ModelRegistry(tmp_path / "reg")
            server = FleetServer(
                build_fleet([toy_app], registry=registry,
                            refit_interval=None),
                registry,
            )
            await server.start()
            tcp = await serve_tcp(server, "127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": 1, "op": "run", "app": "toy",
                 "cmdline": TRAIN[0], "seed": 0},
                {"id": 2, "op": "predict", "app": "toy",
                 "cmdline": TRAIN[0]},
                {"id": 3, "op": "stats"},
                {"id": 4, "op": "run", "app": "ghost", "cmdline": "-n 1"},
            ]
            for request in requests:
                writer.write(encode_line(request))
            writer.write(b"this is not json\n")
            await writer.drain()
            responses = []
            for _ in range(len(requests) + 1):
                responses.append(json.loads(await reader.readline()))
            writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            return responses

        responses = asyncio.run(scenario())
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == 200 and "result" in by_id[1]
        assert by_id[2]["status"] == 200 and "levels" in by_id[2]
        assert by_id[3]["status"] == 200
        assert by_id[3]["server"]["served"] >= 2
        assert by_id[4]["status"] == 404
        assert by_id[None]["status"] == 400  # the unparseable line


@pytest.mark.serve
class TestDeterministic429Ordering:
    def test_flooded_predicts_shed_by_submission_order(self, toy_app):
        """Satellite contract: under a full queue the batched predict
        path sheds deterministically — admission is exactly the first
        ``queue_bound`` submissions, in order, every time."""
        bound, flood = 3, 12

        def flood_once():
            async def scenario():
                registry = ModelRegistry(None)
                server = FleetServer(
                    build_fleet([toy_app], registry=registry,
                                refit_interval=None),
                    registry,
                    queue_bound=bound,
                )
                await server.start()
                # Train enough that predicts exercise real models.
                for i in range(4):
                    await server.submit({
                        "op": "run", "app": "toy",
                        "cmdline": f"-m {1 + i % 2} -n {50 + 1150 * (i % 2)}",
                        "seed": i,
                    })
                futures = [
                    server.submit_nowait({
                        "op": "predict", "app": "toy",
                        "cmdline": f"-m 1 -n {100 + i}", "id": i,
                    })
                    for i in range(flood)
                ]
                responses = await asyncio.gather(*futures)
                await server.stop(persist=False)
                return server, responses

            return asyncio.run(scenario())

        server, first = flood_once()
        _, second = flood_once()
        statuses = [response["status"] for response in first]
        # Order is deterministic: the first `bound` submissions are the
        # accepted ones; everything after sheds. No interleaving.
        assert statuses == [200] * bound + [429] * (flood - bound)
        assert [r["status"] for r in second] == statuses
        assert [r["id"] for r in first] == list(range(flood))
        # The accepted run drained as one batched kernel hop.
        assert server.stats.shed == flood - bound
        assert server.stats.batch_hops >= 1
        assert server.stats.batch_size_max <= server.batch_max
        dist = server.stats.to_dict()["batch_sizes"]
        assert dist["count"] == server.stats.batch_hops
        assert dist["max"] == server.stats.batch_size_max
        assert dist["mean"] > 0
