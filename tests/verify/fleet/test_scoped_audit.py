"""The per-operation audit against the whole-fleet walk, op by op.

(The planner and API 200-seed sweeps under ``tests/properties`` carry
the same :class:`~tests.verify.fleet.oracle.AuditOracle` on their
deployments; this file holds the cases where the audit has something to
say: colliding neighbours, a multi-switch fat tree, composite queries,
and a gate that rejects.)
"""

import random

import pytest

from repro.core.compiler import QueryParams
from repro.core.library import all_queries
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear
from repro.service import (
    GeneratorSource,
    NewtonService,
    ServiceConfig,
    ServiceError,
)
from repro.verify import VerifierConfig
from repro.verify.fleet import FleetConfig, analyze_fleet, analyze_op
from tests.verify.fleet.oracle import AuditOracle

PARAMS = QueryParams(cm_depth=2, reduce_registers=512,
                     distinct_registers=512)
#: 1,500 declared flows: 512- and 1024-wide sketches are NV703 errors.
DECLARED = FleetConfig(verifier=VerifierConfig(expected_flows=1500))


def counter(qid, key="dip", threshold=10, **eq):
    query = Query(qid)
    if eq:
        query = query.filter(**eq)
    return query.map(key).reduce(key).where(ge=threshold)


class TestScopedEqualsFull:
    def test_every_op_of_a_colliding_fat_tree_fleet(self):
        dep = build_deployment(fat_tree(4), num_stages=12,
                               table_capacity=512, array_size=1 << 16)
        oracle = AuditOracle(dep)
        dep.controller.listeners.append(oracle)
        where = {"topology": dep.topology}
        queries = list(all_queries().values()) + [
            counter("a.dst"), counter("a.tcp", proto=6),
            counter("a.syn", proto=6, tcp_flags=2),
            counter("a.udp", proto=17), counter("a.src", key="sip"),
        ]
        for query in queries:
            dep.controller.install_query(query, PARAMS, **where)
        for threshold in (20, 30):
            dep.controller.update_query(
                counter("a.tcp", threshold=threshold, proto=6),
                PARAMS, **where)
        dep.controller.remove_query("a.dst")
        dep.controller.update_query(
            counter("a.syn", threshold=7, proto=6, tcp_flags=2),
            PARAMS, **where)
        assert oracle.checked == len(queries) + 3
        # The audit had findings to agree on, on more than one switch.
        report = analyze_op(dep, "a.syn")
        assert {"NV304", "NV402"} <= set(report.codes())
        assert len({d.location.switch for d in report.diagnostics
                    if d.location.switch is not None}) >= 2

    def test_the_audit_walks_only_the_switches_that_host_the_query(self):
        dep = build_deployment(linear(3), array_size=1 << 13)
        dep.controller.install_query(counter("a.dst"), PARAMS, path=["s0"])
        dep.controller.install_query(counter("a.tcp", proto=6), PARAMS,
                                     path=["s0"])
        dep.controller.install_query(counter("b.dst"), PARAMS, path=["s2"])
        scoped = analyze_op(dep, "b.dst")
        assert {d.location.switch for d in scoped.diagnostics} <= {None, "s2"}
        # Nothing about a.dst's own standing is re-reported.
        assert all(d.location.qid in (None, "b.dst")
                   for d in scoped.diagnostics)
        assert len(scoped.diagnostics) < len(analyze_fleet(dep).diagnostics)

    def test_a_declared_population_rejects_in_both(self):
        dep = build_deployment(linear(2), array_size=1 << 13)
        config = DECLARED
        oracle = AuditOracle(dep, config)
        dep.controller.listeners.append(oracle)
        wide = QueryParams(cm_depth=2, reduce_registers=2048)
        dep.controller.install_query(counter("a.dst"), wide, path=["s0"])
        assert oracle.rejections == 0
        dep.controller.install_query(counter("b.dst", key="sip"),
                                     PARAMS, path=["s0"])
        assert oracle.rejections == 1 and not oracle.clean
        assert "NV703" in analyze_op(dep, "b.dst", config).codes()
        assert "NV703" not in analyze_op(dep, "a.dst", config).codes()


#: Sketch widths an API client asks for; with 1500 declared flows the
#: two narrow ones are under-provisioned (NV703) and must be refused.
WIDTHS = (512, 1024, 2048, 4096)
N_SEEDS = 40


def gated_service():
    service = NewtonService(
        GeneratorSource(pps=400, seed=3),
        ServiceConfig(switches=2, expected_flows=1500),
        deployment=build_deployment(linear(2), array_size=1 << 15,
                                    engine="vector"),
    )
    oracle = AuditOracle(service.deployment, DECLARED)
    service.deployment.controller.listeners.append(oracle)
    return service, oracle


class TestAGateThatRejects:
    def test_seeded_api_histories_keep_the_fleet_clean(self):
        """Installs, updates and removes at random widths: the service
        refuses (422) before commit, so a refusal never reaches the
        oracle — no committed op is one the whole walk rejects — and
        after every request the walk is clean and a refused query still
        runs the definition it had."""
        refused = accepted = 0
        for seed in range(N_SEEDS):
            rng = random.Random(seed)
            service, oracle = gated_service()
            controller = service.deployment.controller
            widths = {}
            for _ in range(rng.randint(4, 8)):
                qid = rng.choice(["Q1", "Q4", "Q5"])
                width = rng.choice(WIDTHS)
                spec = {"query": qid,
                        "params": {"reduce_registers": width,
                                   "distinct_registers": 4096}}
                epoch = controller.txn.epoch
                try:
                    if qid not in widths:
                        service.install(spec)
                    elif rng.random() < 0.2:
                        service.remove(qid)
                        widths.pop(qid)
                        continue
                    else:
                        service.update(qid, spec)
                    widths[qid] = width
                    accepted += 1
                except ServiceError as exc:
                    assert exc.status == 422, exc.payload
                    assert controller.txn.epoch == epoch
                    refused += 1
                assert oracle.rejections == 0
                assert oracle.clean, f"seed {seed}: errors left resident"
                assert {
                    q: record.params.reduce_registers
                    for q, record in controller.installed.items()
                } == widths
                if rng.random() < 0.3:
                    service.tick()
            assert service.drain()["staged_residue"] == 0
        assert refused > N_SEEDS and accepted > N_SEEDS


@pytest.mark.parametrize("anchors", [None, frozenset({"a.tcp"})])
def test_per_switch_passes_agree_with_and_without_anchors(anchors):
    """The anchored form of each per-switch pass is the unanchored one
    filtered — checked directly, pass by pass, with a staged bank and
    retired residue resident."""
    from repro.verify.fleet.epochs import (
        check_epoch_hygiene,
        check_prospective_staging,
        check_staged_bank_layout,
    )
    from repro.verify.fleet.interference import (
        check_dispatch_starvation,
        check_hash_unit_sharing,
    )
    from repro.verify.fleet.model import SwitchView
    from repro.verify.program import PipelineModel

    # Room for what is resident (four banks and one staged copy) but
    # not for one more 512-register row: every re-stage would not fit.
    dep = build_deployment(linear(1), array_size=2600)
    for query in (counter("a.dst"), counter("a.tcp", proto=6),
                  counter("a.syn", proto=6, tcp_flags=2),
                  counter("a.web", proto=6, dport=80)):
        dep.controller.install_query(query, PARAMS, path=["s0"])
    switch = dep.switch("s0")
    # Uncollected retired residue, then a stranded staged bank.
    switch.retire_query("a.syn", switch.rule_epoch + 1)
    switch.commit_epoch(switch.rule_epoch + 1)
    record = dep.controller.installed["a.tcp"]
    switch.stage_slice(record.slices["a.tcp"][0], switch.rule_epoch + 1)
    view = SwitchView.of_switch(switch)
    model = PipelineModel.of_switch(switch)
    assert {bank.status for bank in view.banks} == {
        "active", "staged", "retired"}
    elsewhere = set()
    for check in (
        lambda a: check_hash_unit_sharing(view, a),
        lambda a: check_dispatch_starvation(view, a),
        lambda a: check_prospective_staging(view, model, a),
        lambda a: check_epoch_hygiene(view, switch.rule_epoch + 1, a),
    ):
        everything = check(None)
        elsewhere |= {d.code for d in everything
                      if d.location.qid not in (None, "a.tcp")}
        expected = [
            d for d in everything
            if anchors is None or d.location.qid is None
            or d.location.qid in anchors
        ]
        assert expected, "nothing located at the anchored query"
        assert check(anchors) == expected
    assert elsewhere == {"NV402", "NV403", "NV601"}  # there to filter out
    assert check_staged_bank_layout(view, anchors) == []
