"""Reference outputs for the serve-run workload.

The reference is a serial replay of the request stream on a fleet built
with ``engine="reference"``, applying the server's auto-swap policy
inside each tenant's op stream — what the concurrent server must match
tenant by tenant, request by request.
"""

from __future__ import annotations

from common import digest

#: Response fields that describe the hop, not the tenant's answer.
HOP_FIELDS = ("status", "op", "id", "app", "wall_ms")


def payload(response: dict) -> dict:
    return {k: v for k, v in response.items() if k not in HOP_FIELDS}


def replay(requests: list[dict], registry_dir, engine: str = "reference") -> dict[str, list[dict]]:
    """Per-tenant response payloads of a serial replay of *requests*."""
    from repro.experiments.server_study import build_tenant_apps
    from repro.serving import ModelRegistry, build_fleet

    tenants = {
        tenant.name: tenant
        for tenant in build_fleet(
            build_tenant_apps(4), registry=ModelRegistry(registry_dir), engine=engine
        )
    }
    out: dict[str, list[dict]] = {name: [] for name in tenants}
    for request in requests:
        tenant = tenants[request["app"]]
        if request["op"] == "run":
            out[tenant.name].append(tenant.run(request["cmdline"], request.get("seed")))
            if tenant.due_for_swap():
                tenant.swap()
        else:
            out[tenant.name].append(tenant.predict(request["cmdline"]))
    return out


def tenant_digests(per_tenant: dict[str, list[dict]]) -> dict[str, str]:
    """Digest of each tenant's payloads, in order."""
    return {name: digest(items) for name, items in sorted(per_tenant.items())}
