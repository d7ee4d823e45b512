"""The vector engine runs one program per query, not per (query, switch).

A query installed on every ingress edge switch compiles to the same ops
on each — only the S ops' register arrays differ — so
:func:`repro.engine.program.execute_program` takes all the switches'
programs of one query and one shape at once.  These tests hold that to
the scalar reference on a multi-ingress fabric, force the groups to
split every way they can (another version of a query on one switch,
another dispatch order, an outage, a shard filter), compare one fused
call with the per-member calls it replaces, and pin the rule by which
compiled programs survive a rule-state change.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.engine.program as program_module
import repro.engine.vector as vector_module
from repro.core.compiler import QueryParams, compile_query, slice_compiled
from repro.core.library import QueryThresholds, all_queries
from repro.core.packet import Proto, TcpFlags
from repro.core.query import Query
from repro.core.rules import HashMode, HConfig
from repro.dataplane.module_types import ModuleType
from repro.dataplane.registers import RegisterArray
from repro.engine.program import (
    ProgramRun,
    compile_switch_programs,
    execute_program,
)
from repro.fabric.merge import record_reports
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree
from repro.runtime.sanitizer import Sanitizer
from repro.traffic.columnar import ColumnarTrace
from repro.traffic.generators import (
    assign_hosts,
    caida_like,
    port_scan,
    syn_flood,
)
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=512,
                     distinct_registers=512)
#: Cross-pod host pairs of ``fat_tree(4)``: four ingress edge switches,
#: four equal-cost paths each.
PAIRS = (("hp0e0n0", "hp2e0n0"), ("hp1e0n0", "hp3e0n0"),
         ("hp0e1n0", "hp3e1n0"), ("hp2e1n0", "hp1e1n0"))
INGRESS = ("p0e0", "p0e1", "p1e0", "p2e1")
#: Scaled to windows of a few hundred packets, so reports flow.
THRESHOLDS = QueryThresholds(
    new_tcp_conns=4, ssh_brute=2, superspreader=4, port_scan=3, udp_ddos=3,
    syn_flood=1, syn_flood_sub=3, completed_conns=3, slowloris_conns=4,
    slowloris_bytes=4000, slowloris_ratio=1200, dns_tcp=2, dns_sub=2,
    dns_tcp_conns=3,
)


def dstbytes(threshold=4000):
    return (Query("A2.dstbytes").map("dip")
            .reduce("dip", func="sum").where(ge=threshold))


def fleet():
    """The paper's nine queries plus eight auxiliary aggregations."""
    return list(all_queries(THRESHOLDS).values()) + [
        Query("A1.flowpairs").map("sip", "dip")
        .reduce("sip", "dip").where(ge=6),
        dstbytes(),
        Query("A3.dnsamp").filter(proto=Proto.UDP, sport=53)
        .map("dip").reduce("dip", func="sum").where(ge=500),
        Query("A4.victimfan").filter(proto=Proto.TCP)
        .map("dip", "sport").distinct("dip", "sport")
        .map("dip").reduce("dip").where(ge=4),
        Query("A5.flows").map("sip", "dip", "sport", "dport")
        .distinct("sip", "dip", "sport", "dport")
        .map("sip").reduce("sip").where(ge=3),
        Query("A6.syntargets").filter(proto=Proto.TCP,
                                      tcp_flags=TcpFlags.SYN)
        .map("dip", "dport").reduce("dip", "dport").where(ge=3),
        Query("A7.srcbytes").map("sip")
        .reduce("sip", func="sum").where(ge=4000),
        Query("A8.udpfan").filter(proto=Proto.UDP)
        .map("dport", "sip").distinct("dport", "sip")
        .map("dport").reduce("dport").where(ge=3),
    ]


def workload(seed, n_packets=700, duration_s=0.3):
    trace = merge_traces([
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=n_packets // 6, duration_s=duration_s,
                  seed=seed + 1),
        port_scan(n_ports=80, duration_s=duration_s, seed=seed + 2),
    ])
    return assign_hosts(trace, list(PAIRS), seed=seed)


def deploy(engine, queries=None, **deploy_kw):
    deployment = build_deployment(
        fat_tree(4), table_capacity=512, array_size=1 << 14, engine=engine,
        **deploy_kw,
    )
    for query in fleet() if queries is None else queries:
        deployment.controller.install_query(
            query, PARAMS, topology=deployment.topology
        )
    return deployment


def observe(engine, trace, mutate=None, **deploy_kw):
    """Everything observable of one run: stats, the report stream in
    emission order, register dumps, sanitizer findings."""
    deployment = deploy(engine, **deploy_kw)
    if mutate is not None:
        mutate(deployment)
    recorded = record_reports(deployment.collector)
    stats = deployment.simulator.run(trace)
    findings = (None if deployment.sanitizer is None
                else dict(deployment.sanitizer.counts))
    return {
        "stats": (
            stats.packets, stats.delivered, stats.dropped,
            dict(stats.reports_by_switch), stats.deferred,
            stats.stale_deferred, stats.sp_bytes, stats.payload_bytes,
            stats.epochs, stats.mixed_rule_epoch_packets,
            dict(stats.initiated_by_query),
        ),
        "reports": recorded,
        "registers": deployment.register_dumps(),
        "sanitizer": findings,
    }


@pytest.fixture
def program_runs(monkeypatch):
    """``(qid, member switch ids)`` of every run of every stack
    ``execute_program`` was handed."""
    calls = []
    inner = vector_module.execute_program

    def spy(runs, *args, **kw):
        calls.extend((run.programs[0].qid, tuple(run.switch_ids))
                     for run in runs)
        return inner(runs, *args, **kw)

    monkeypatch.setattr(vector_module, "execute_program", spy)
    return calls


class TestFleetOnFatTree:
    @pytest.mark.parametrize("seed,sanitize", [(3, False), (11, True)])
    def test_equals_the_scalar_engine(self, seed, sanitize, program_runs):
        trace = workload(seed)
        vector = observe("vector", trace, sanitize=sanitize)
        scalar = observe("scalar", trace, sanitize=sanitize)
        assert vector == scalar
        assert len(vector["reports"]) > 20
        assert {sid for sid, *_ in vector["reports"]} == set(INGRESS)
        # Every switch holds the same version of every query: a query's
        # programs fall into one group, however many switches saw it.
        assert max(len(sids) for _, sids in program_runs) == len(INGRESS)
        members = sum(len(sids) for _, sids in program_runs)
        assert members > 3 * len(program_runs)
        if sanitize:
            assert vector["sanitizer"]["hash-collision"] > 0


def mixed(deployment):
    """Four ingress switches, four reasons a group may not form."""
    switches = deployment.switches
    # p0e0 serves another threshold of A2.dstbytes, staged and committed
    # on that switch alone: same qid, different R table.
    pipeline = switches["p0e0"].pipeline
    epoch = pipeline.rule_epoch + 1
    pipeline.retire_query("A2.dstbytes", epoch)
    pipeline.stage_slice(
        slice_compiled(compile_query(dstbytes(9000), PARAMS), 12)[0], epoch
    )
    pipeline.commit_epoch(epoch)
    pipeline.gc_retired()
    # p1e0 hosts the first-dispatched query last: its ranks differ.
    pipeline = switches["p1e0"].pipeline
    first = pipeline.newton_init.entries()[0].rule.action
    query_slice = pipeline.version_for(first, 0).query_slice
    epoch = pipeline.rule_epoch + 1
    pipeline.retire_query(first, epoch)
    pipeline.commit_epoch(epoch)
    pipeline.gc_retired()
    pipeline.stage_slice(query_slice, epoch + 1)
    pipeline.commit_epoch(epoch + 1)
    # p0e1 is down for part of the second window.
    switches["p0e1"].reboot_base_s = 0.04
    switches["p0e1"].reboot(0.13, 0)
    # p2e1 executes half of the sub-queries only, as a fabric shard does.
    pipeline = switches["p2e1"].pipeline
    pipeline.query_filter = frozenset(sorted(pipeline.installed_qids())[::2])


class TestMixedShapes:
    @pytest.mark.parametrize("sanitize", [False, True])
    def test_groups_split_where_they_must(self, sanitize, program_runs):
        trace = workload(seed=29)
        vector = observe("vector", trace, mutate=mixed, sanitize=sanitize)
        runs = list(program_runs)
        scalar = observe("scalar", trace, mutate=mixed, sanitize=sanitize)
        assert vector == scalar
        assert vector["stats"][2] > 0                     # the outage dropped
        assert len(vector["reports"]) > 20
        # The other version never shares a run; the rest of its query does.
        dst = [sids for qid, sids in runs if qid == "A2.dstbytes"]
        assert ("p0e0",) in dst
        assert all(sids == ("p0e0",) or "p0e0" not in sids for sids in dst)
        assert any(len(sids) > 1 for sids in dst)
        # A different dispatch order is no reason to split.
        reordered = {qid for qid, sids in runs
                     if "p1e0" in sids and len(sids) > 1}
        deployment = deploy("vector")
        mixed(deployment)
        moved = deployment.switches["p1e0"].pipeline.newton_init.entries()
        assert moved[-1].rule.action in reordered
        assert (
            compile_switch_programs(
                deployment.switches["p1e0"].pipeline).entries
            != compile_switch_programs(
                deployment.switches["p2e1"].pipeline).entries
        )
        # The shard filter keeps its switch out of the filtered queries.
        owned = deployment.switches["p2e1"].pipeline.query_filter
        on_filtered = {qid for qid, sids in runs if "p2e1" in sids}
        assert on_filtered and on_filtered <= owned


def direct_into_stateful(qid, field="sport"):
    """A deployment mutation: ``qid``'s first HASH-mode H rule becomes a
    DIRECT read of ``field`` on every switch.  Source ports overrun the
    512-register slice, so its S op indexes outside the slice — what the
    sanitizer's ``register-oob`` check exists for."""
    def mutate(deployment):
        for switch in deployment.switches.values():
            pipeline = switch.pipeline
            for versions in pipeline._slices.values():
                for i, installed in enumerate(versions):
                    if installed.query_slice.qid != qid:
                        continue
                    placed, doctored = [], False
                    for stage, spec, key in installed.placed:
                        if (not doctored and spec.module_type
                                is ModuleType.HASH_CALCULATION
                                and spec.config.mode == HashMode.HASH):
                            spec = replace(spec, config=HConfig(
                                mode=HashMode.DIRECT, direct_field=field,
                                range_size=spec.config.range_size,
                            ))
                            doctored = True
                        placed.append((stage, spec, key))
                    versions[i] = replace(installed, placed=tuple(placed))
            pipeline.mutation_seq += 1
    return mutate


class TestFusedStateBank:
    """The S op of a fused run is one ``execute_many`` call over every
    member's rows; the sanitizer still sees each member's rows alone."""

    def test_register_oob_is_counted_per_member(self, monkeypatch,
                                                program_runs):
        oob = Counter()
        record = Sanitizer.record

        def counting(self, check, message, **where):
            if check == "register-oob":
                oob[where["switch"], where["qid"]] += where.get("count", 1)
            record(self, check, message, **where)

        monkeypatch.setattr(Sanitizer, "record", counting)
        trace = workload(seed=17)
        doctor = direct_into_stateful("A7.srcbytes")
        vector = observe("vector", trace, mutate=doctor, sanitize=True)
        by_member = dict(oob)
        oob.clear()
        scalar = observe("scalar", trace, mutate=doctor, sanitize=True)
        assert vector == scalar
        assert by_member == dict(oob)
        assert {qid for _sid, qid in by_member} == {"A7.srcbytes"}
        assert len(by_member) == len(INGRESS)
        assert any(qid == "A7.srcbytes" and len(sids) == len(INGRESS)
                   for qid, sids in program_runs)

    def test_at_most_one_alu_call_per_round_and_alu_op(self, monkeypatch,
                                                       program_runs):
        """A round's S calls of one ALU op are one ``execute_many``,
        naming every member of every call — however many switches and
        queries — and the fleet stays bit-identical."""
        rounds = []
        serve = program_module._serve
        inner = RegisterArray.execute_many

        def spy_serve(calls):
            rounds.append((calls, []))
            return serve(calls)

        def spy(self, owner, indices, op, operands, then=()):
            rounds[-1][1].append((op, 1 + len(then)))
            return inner(self, owner, indices, op, operands, then)

        monkeypatch.setattr(program_module, "_serve", spy_serve)
        monkeypatch.setattr(RegisterArray, "execute_many", spy)
        trace = workload(seed=23)
        vector = observe("vector", trace, sanitize=True)
        monkeypatch.setattr(RegisterArray, "execute_many", inner)
        assert vector == observe("scalar", trace, sanitize=True)
        members = []
        for calls, alu in rounds:
            stateful = [call for call in calls
                        if isinstance(call, program_module._SCall)]
            ops = [op for op, _ in alu]
            assert len(ops) == len(set(ops))
            assert set(ops) == {call.op for call in stateful}
            assert sum(m for _, m in alu) == sum(
                len(call.banks) for call in stateful)
            members += [m for _, m in alu]
        # Calls span switches and, stacked, queries: fewer calls than
        # runs, where one run alone makes one per S op it reaches.
        assert max(members) > len(INGRESS)
        assert len(members) < len(program_runs)


def columns_of(trace):
    batch = ColumnarTrace.from_packets(list(trace))
    return batch.columns, batch.ts


class TestOneCallOrMany:
    def test_stacked_fused_runs_equal_single_member_runs(self):
        """One ``execute_program`` over a stack of five fused runs, k
        members each, is the 5k single-member runs one at a time: same
        reports, same registers, same dirty banks."""
        columns, ts = columns_of(workload(seed=5, n_packets=900))
        rng = np.random.default_rng(5)
        owner = rng.integers(0, len(INGRESS), size=len(ts))
        fused, single = deploy("vector"), deploy("vector")
        members = [np.flatnonzero(owner == j) for j in range(len(INGRESS))]
        rows = np.concatenate(members)
        bounds = np.concatenate(
            [[0], np.cumsum([len(m) for m in members])]).tolist()

        def programs(deployment, qid):
            return [
                compile_switch_programs(
                    deployment.switches[sid].pipeline).programs[qid]
                for sid in INGRESS
            ]

        def cols(selection, program):
            return {name: columns[name][selection]
                    for name in program.fields_needed}

        stack = []
        apart = {}
        for qid in ("Q1", "Q4", "A2.dstbytes", "A5.flows", "A7.srcbytes"):
            group = programs(fused, qid)
            assert len({program.shape for program in group}) == 1
            stack.append(ProgramRun(group, bounds, cols(rows, group[0]),
                                    ts[rows], [7] * len(INGRESS),
                                    list(INGRESS)))
            apart[qid] = []
            for j, program in enumerate(programs(single, qid)):
                run = ProgramRun([program], [0, len(members[j])],
                                 cols(members[j], program), ts[members[j]],
                                 [7], [INGRESS[j]])
                execute_program([run])
                apart[qid].extend((bounds[j] + row, report)
                                  for row, report in run.reports)
        execute_program(stack)
        for run in stack:
            together = run.reports
            assert sorted(together, key=lambda item: item[0]) == sorted(
                apart[run.programs[0].qid], key=lambda item: item[0])
            assert together
            assert {report.switch_id for _, report in together} > {"p0e0"}
        assert fused.register_dumps() == single.register_dumps()
        for sid in fused.switches:
            assert [
                bank.dirty for bank in _banks(fused.switches[sid])
            ] == [bank.dirty for bank in _banks(single.switches[sid])]
        assert any(bank.dirty for bank in _banks(fused.switches["p2e1"]))


def _banks(switch):
    layout = switch.pipeline.layout
    return [
        layout.module_at(stage, ModuleType.STATE_BANK).array
        for stage in range(layout.num_stages)
        if layout.module_at(stage, ModuleType.STATE_BANK) is not None
    ]


class TestProgramReuse:
    def test_an_update_recompiles_only_the_replaced_version(self):
        deployment = deploy("vector")
        pipeline = deployment.switches["p0e0"].pipeline
        before = compile_switch_programs(pipeline)
        deployment.controller.update_query(
            dstbytes(9000), PARAMS, topology=deployment.topology
        )
        after = compile_switch_programs(pipeline, before)
        assert set(after.programs) == set(before.programs)
        for qid, program in after.programs.items():
            if qid == "A2.dstbytes":
                assert program is not before.programs[qid]
                assert program.shape != before.programs[qid].shape
            else:
                assert program is before.programs[qid]
        # Without a previous bundle everything is compiled afresh — to
        # equal shapes, which is what lets switches share a run.
        fresh = compile_switch_programs(pipeline)
        assert all(fresh.programs[qid] is not after.programs[qid]
                   and fresh.programs[qid].shape == after.programs[qid].shape
                   for qid in after.programs)

    def test_nothing_stale_survives_a_wipe(self):
        deployment = deploy("vector", queries=[dstbytes(),
                                              all_queries(THRESHOLDS)["Q1"]])
        pipeline = deployment.switches["p0e0"].pipeline
        before = compile_switch_programs(pipeline)
        slices = [pipeline.version_for(qid, 0).query_slice
                  for qid in before.programs]
        pipeline.wipe()
        assert compile_switch_programs(pipeline, before).programs == {}
        epoch = pipeline.rule_epoch + 1
        for query_slice in slices:
            pipeline.stage_slice(query_slice, epoch)
        pipeline.commit_epoch(epoch)
        after = compile_switch_programs(pipeline, before)
        assert set(after.programs) == set(before.programs)
        for qid, program in after.programs.items():
            assert program is not before.programs[qid]
            assert program.shape == before.programs[qid].shape
            assert program.epoch_from == epoch

    def test_the_engine_forgets_switches_that_left(self):
        deployment = deploy("vector", queries=[dstbytes()])
        sim = deployment.simulator
        sim.run(workload(seed=2, n_packets=60, duration_s=0.05))
        engine = sim.engine
        assert set(INGRESS) <= set(engine._programs) <= set(sim.switches)
        gone = sim.switches.pop("p2e1")
        try:
            sim.run([])
            assert "p2e1" not in engine._programs
            assert set(engine._programs) <= set(sim.switches)
        finally:
            sim.switches["p2e1"] = gone
