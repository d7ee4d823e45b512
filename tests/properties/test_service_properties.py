"""Property sweep: API-driven control churn on a live service.

ISSUE 7 satellite: overlapping HTTP install/update/remove requests must
serialize through the 2PC control plane while the ingest loop ticks —
after ANY seeded interleaving of concurrent CRUD waves and window
ticks, no packet has observed a mixed rule epoch, the rule banks sit on
exactly one committed epoch with zero staged/retired residue, and no
query is lost: the controller's installed set matches exactly what the
HTTP responses (in completion order) imply.  Swept over 200 seeds.
"""

import asyncio
import json
import random

from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.service import GeneratorSource, NewtonService, ServiceConfig
from repro.service.http import dispatch
from tests.verify.fleet.oracle import AuditOracle

N_SEEDS = 200
N_SWITCHES = 2

#: The op pool: (op-kind, qid).  Updates use a threshold override so a
#: committed update really restages rules.
OPS = [
    ("install", "Q1"), ("install", "Q4"),
    ("update", "Q1"), ("update", "Q4"),
    ("remove", "Q1"), ("remove", "Q4"),
]


def make_service(seed):
    # A plain deployment (no resilience plane) keeps the 200-seed sweep
    # fast; the control-plane invariants under test are identical.
    deployment = build_deployment(
        linear(N_SWITCHES), array_size=1 << 13, engine="vector",
    )
    # Every committed install/update: the gate's scoped audit against
    # the whole-fleet walk (tests/verify/fleet/oracle.py).
    deployment.controller.listeners.append(AuditOracle(deployment))
    return NewtonService(
        GeneratorSource(pps=400, seed=seed),
        ServiceConfig(switches=N_SWITCHES),
        deployment=deployment,
    )


def request_for(kind, qid):
    if kind == "install":
        return ("POST", "/queries", json.dumps({"query": qid}).encode())
    if kind == "update":
        body = json.dumps(
            {"query": qid, "thresholds": {"new_tcp_conns": 60}
             if qid == "Q1" else {"port_scan": 60}}
        ).encode()
        return ("PUT", f"/queries/{qid}", body)
    return ("DELETE", f"/queries/{qid}", b"")


def apply_effect(expected, kind, qid, status):
    """Fold one completed request into the expected installed set."""
    if status >= 400:
        return
    if kind in ("install", "update"):
        expected.add(qid)
    else:
        expected.discard(qid)


async def drive(service, rng):
    """Random waves of concurrent CRUD requests between window ticks."""
    expected = set()
    statuses = []
    for _ in range(rng.randint(2, 4)):
        for _ in range(rng.randint(0, 2)):
            service.tick()
        wave = [rng.choice(OPS) for _ in range(rng.randint(1, 3))]
        responses = await asyncio.gather(*[
            dispatch(service, method, path, {}, body)
            for method, path, body in (request_for(k, q) for k, q in wave)
        ])
        # gather preserves task order, and the single-threaded loop runs
        # the (synchronous) handlers in exactly that order — folding the
        # responses in sequence reconstructs the serialized history.
        for (kind, qid), response in zip(wave, responses):
            statuses.append(response.status)
            apply_effect(expected, kind, qid, response.status)
    service.tick()
    return expected, statuses


def run_seed(seed):
    rng = random.Random(seed)
    service = make_service(seed)
    expected, statuses = asyncio.run(drive(service, rng))
    summary = service.drain()
    return service, summary, expected, statuses


class TestApiChurnSerializes:
    def test_200_seeded_api_interleavings(self):
        succeeded = rejected = 0
        for seed in range(N_SEEDS):
            service, summary, expected, statuses = run_seed(seed)
            label = f"seed {seed}"
            # No lost queries: the control plane holds exactly the set
            # the serialized HTTP history says it should.
            assert set(service.deployment.controller.installed) == expected, (
                f"{label}: installed set diverged from the API history"
            )
            # No packet ever saw a half-applied operation.
            assert summary["mixed_epoch_packets"] == 0, label
            assert summary["staged_residue"] == 0, label
            assert summary["retired_residue"] == 0, label
            assert summary["rule_epochs"] == [summary["committed_epoch"]], (
                f"{label}: rule banks off the committed epoch"
            )
            # Per-request sanity: only the statuses the API defines.
            assert all(s in (200, 201, 404, 409) for s in statuses), (
                f"{label}: unexpected statuses {statuses}"
            )
            succeeded += sum(1 for s in statuses if s < 400)
            rejected += sum(1 for s in statuses if s >= 400)
        # The sweep must exercise both outcomes to mean anything.
        assert succeeded > 0, "no API operation ever committed"
        assert rejected > 0, "no API operation was ever rejected"
