"""The dynamic-planner surface of the service plane.

``POST /plan`` hands a query to the :class:`DynamicPlanner` instead of
installing it statically; ``GET /plan`` exposes the planner's state and
step journal; planning rounds run between windows and publish
``plan_changed`` events on the SSE feed.  Driven at the dispatch layer
(no sockets), same as the other API tests.
"""

import asyncio
import json

import pytest

from repro.service import GeneratorSource, NewtonService, ServiceConfig
from repro.service.http import dispatch
from repro.service.service import ladder_from_spec, ServiceError
from tests.service.refusal import error_codes, refused_before_commit


@pytest.fixture
def service():
    return NewtonService(
        GeneratorSource(pps=2000, seed=11), ServiceConfig(switches=2)
    )


def call(service, method, path, query=None, body=b""):
    return asyncio.run(dispatch(service, method, path, query or {}, body))


def decode(response):
    return json.loads(response.body.decode())


def plan_body(**extra):
    spec = {
        "qid": "hh",
        "pipeline": [
            {"op": "map", "keys": ["dip"]},
            {"op": "reduce", "keys": ["dip"]},
            {"op": "where", "ge": 1},
        ],
    }
    spec.update(extra)
    return json.dumps(spec).encode()


class TestLadderFromSpec:
    def test_absent_is_none(self):
        assert ladder_from_spec({"qid": "q"}) is None

    def test_ipv4_shorthand(self):
        ladder = ladder_from_spec({"ladder": {"field": "dip"}})
        assert ladder.field == "dip"
        assert ladder.max_rung == 3  # /8 /16 /24 /32

    def test_explicit_rungs(self):
        ladder = ladder_from_spec({
            "ladder": {"field": "dip",
                       "rungs": [0xFF000000, 0xFFFF0000, None]},
        })
        assert ladder.mask_at(2) == 0xFFFFFFFF

    def test_bad_ladder_400(self):
        with pytest.raises(ServiceError) as err:
            ladder_from_spec({"ladder": {"field": "dip", "rungs": [1]}})
        assert err.value.status == 400


class TestPlanEndpoints:
    def test_plan_manage_created(self, service):
        response = call(service, "POST", "/plan", body=plan_body(
            ladder={"field": "dip"},
        ))
        assert response.status == 201
        payload = decode(response)
        assert payload["step"]["kind"] == "install"
        assert payload["step"]["trigger"] == "bootstrap"
        assert payload["step"]["status"] == "committed"
        assert payload["plan"]["rung"] == 0
        # The coarse variant is what actually got installed.
        assert "hh" in decode(call(service, "GET", "/queries"))["queries"]

    def test_plan_state_lists_managed(self, service):
        call(service, "POST", "/plan", body=plan_body(
            ladder={"field": "dip"},
        ))
        state = decode(call(service, "GET", "/plan"))
        assert state["managed"] == 1
        assert [q["qid"] for q in state["queries"]] == ["hh"]

    def test_wrong_method_405(self, service):
        response = call(service, "DELETE", "/plan")
        assert response.status == 405
        assert decode(response)["allowed"] == "GET, POST"

    def test_duplicate_manage_409(self, service):
        call(service, "POST", "/plan", body=plan_body())
        assert call(service, "POST", "/plan",
                    body=plan_body()).status == 409

    def test_refused_plan_leaves_nothing_installed_or_managed(self):
        # 1,500 declared flows make a 1024-wide sketch an NV703 error:
        # the bootstrap install is refused before commit, and the 422
        # carries the verifier's diagnostics through the PlanError.
        service = NewtonService(
            GeneratorSource(pps=2000, seed=11),
            ServiceConfig(switches=2, expected_flows=1500),
        )
        narrow = plan_body(params={"reduce_registers": 1024})
        with refused_before_commit(service) as exc:
            service.plan_manage(json.loads(narrow))
        assert "NV703" in error_codes(exc.value)
        response = call(service, "POST", "/plan", body=narrow)
        assert response.status == 422
        assert "NV703" in {
            d["code"] for d in decode(response)["diagnostics"]
        }
        assert decode(call(service, "GET", "/queries"))["queries"] == {}
        assert decode(call(service, "GET", "/plan"))["managed"] == 0
        assert service.deployment.controller.rule_count() == 0
        # Released for real: the same qid can be planned acceptably.
        wide = plan_body(params={"reduce_registers": 4096})
        assert call(service, "POST", "/plan", body=wide).status == 201
        assert decode(call(service, "GET", "/plan"))["managed"] == 1

    def test_bad_ladder_field_400(self, service):
        response = call(service, "POST", "/plan", body=plan_body(
            ladder={"field": "nonesuch"},
        ))
        assert response.status == 400

    def test_index_lists_plan_endpoints(self, service):
        endpoints = decode(call(service, "GET", "/"))["endpoints"]
        assert "GET /plan" in endpoints
        assert "POST /plan" in endpoints


class TestReplanLoop:
    def test_ticks_refine_and_publish_plan_changed(self, service):
        call(service, "POST", "/plan", body=plan_body(
            ladder={"field": "dip"},
        ))
        sub = service.feed.subscribe(max_queue=256)
        for _ in range(6):
            service.tick()
        events = list(sub._queue)
        sub.unsubscribe()
        plan_events = [e for e in events if e["type"] == "plan_changed"]
        assert plan_events, "planning rounds must publish plan_changed"
        steps = [s for e in plan_events for s in e["steps"]]
        assert any(s["trigger"] == "refine" and s["status"] == "committed"
                   for s in steps)
        state = decode(call(service, "GET", "/plan"))
        children = state["queries"][_root_index(state)]["children"]
        assert children, "hot coarse buckets must have been zoomed into"
        # Children are real installed queries, visible over /queries.
        installed = decode(call(service, "GET", "/queries"))["queries"]
        for child in children:
            assert child in installed

    def test_no_planner_rounds_without_managed_queries(self, service):
        call(service, "POST", "/queries", body=json.dumps(
            {"query": "Q1"}
        ).encode())
        for _ in range(2):
            service.tick()
        assert decode(call(service, "GET", "/plan"))["history"] == []


def _root_index(state):
    return next(i for i, q in enumerate(state["queries"])
                if q["parent"] is None)
