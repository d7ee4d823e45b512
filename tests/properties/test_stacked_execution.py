"""Stacked execution equals one run at a time.

The vector engine advances a sub-batch's program runs in lockstep: each
round, the S calls of one ALU op are one ``execute_many`` and the seeded
H calls share one key group per key byte width and one digest pass per
(group, seed, memo).  None of that may show.  Over ``linear(1-3)`` and
``fat_tree(4)`` with ECMP, sliced and unsliced installs, with the
sanitizer on, the registers, report streams, stats and sanitizer counts
equal the scalar engine's, and at every window roll each hash memo's
``(hits, misses, len)`` equals a run with ``_STACK_ROWS`` at 0 — every
run a stack of its own, one kernel call per request.
"""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.program as program_module
import repro.engine.vector as vector_module
from repro.core.compiler import QueryParams
from repro.core.library import QUERY_NAMES, build_query
from repro.dataplane.hashing import HashMemo
from repro.dataplane.registers import RegisterArray
from repro.engine.program import (
    ProgramRun,
    compile_switch_programs,
    execute_program,
)
from repro.experiments.common import evaluation_thresholds
from repro.fabric.merge import record_reports
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear
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
FAT_PAIRS = (("hp0e0n0", "hp2e0n0"), ("hp1e0n0", "hp3e0n0"),
             ("hp0e1n0", "hp3e1n0"), ("hp2e1n0", "hp1e1n0"))


def thresholds():
    """Low enough that the small test traces actually produce reports."""
    return replace(evaluation_thresholds(), new_tcp_conns=3, port_scan=4)


def traffic(seed, pairs, n_packets=500, duration_s=0.25):
    return assign_hosts(merge_traces([
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=n_packets // 5, duration_s=duration_s,
                  seed=seed + 1),
        port_scan(n_ports=60, duration_s=duration_s, seed=seed + 2),
    ]), list(pairs), seed=seed)


@st.composite
def scenarios(draw):
    """A fabric, two to five library queries, at most one of them sliced
    (stages per switch) where the path has room, and a trace seed."""
    switches = draw(st.sampled_from([1, 2, 3, "fat_tree"]))
    queries = draw(st.lists(st.sampled_from(QUERY_NAMES), min_size=2,
                            max_size=5, unique=True))
    sliced = None
    if switches != 1 and draw(st.booleans()):
        sliced = (draw(st.sampled_from(queries)),
                  draw(st.sampled_from([2, 3, 4])))
    return switches, queries, sliced, draw(st.integers(0, 10_000))


@contextmanager
def counted():
    """Every memo's ``(hits, misses, len)`` at each roll, in roll order,
    and the number of ``execute_many`` calls."""
    rolls, alu = [], []
    roll, execute_many = HashMemo.roll, RegisterArray.execute_many

    def recording_roll(memo):
        rolls.append((memo.hits, memo.misses, len(memo)))
        roll(memo)

    def counting(self, *args, **kwargs):
        alu.append(1)
        return execute_many(self, *args, **kwargs)

    with mock.patch.object(HashMemo, "roll", recording_roll), \
            mock.patch.object(RegisterArray, "execute_many", counting):
        yield rolls, alu


@contextmanager
def branches():
    """Per :func:`execute_program` call, which way each run bound its S
    and seeded H answers: ``{qid: {"dense", "sparse"}}`` per stack."""
    stacks, current = [], []
    steps, bind = program_module._steps, program_module._bind
    execute = vector_module.execute_program

    def spying_steps(run, sanitizer):
        inner, answer = steps(run, sanitizer), None
        while True:
            current.append(run.programs[0].qid)
            try:
                call = inner.send(answer)
            except StopIteration as done:
                return done.value
            finally:
                current.pop()
            answer = yield call

    def spying_bind(values, rows, k):
        stacks[-1][current[-1]].add("dense" if rows is None else "sparse")
        return bind(values, rows, k)

    def spying_execute(runs, *args, **kwargs):
        stacks.append({run.programs[0].qid: set() for run in runs})
        return execute(runs, *args, **kwargs)

    with mock.patch.object(program_module, "_steps", spying_steps), \
            mock.patch.object(program_module, "_bind", spying_bind), \
            mock.patch.object(vector_module, "execute_program",
                              spying_execute):
        yield stacks


def observe(engine, scenario):
    """Everything observable of one run of ``scenario``."""
    switches, queries, sliced, seed = scenario
    fat = switches == "fat_tree"
    topology = fat_tree(4) if fat else linear(switches)
    deployment = build_deployment(topology, table_capacity=512,
                                  array_size=1 << 14, engine=engine,
                                  sanitize=True)
    where = ({"topology": deployment.topology} if fat
             else {"path": [f"s{i}" for i in range(switches)]})
    for name in queries:
        extra = ({"stages_per_switch": sliced[1]}
                 if sliced is not None and name == sliced[0] else {})
        deployment.controller.install_query(
            build_query(name, thresholds()), PARAMS, **where, **extra)
    recorded = record_reports(deployment.collector)
    stats = deployment.simulator.run(
        traffic(seed, FAT_PAIRS if fat else [("h_src0", "h_dst0")]))
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
        "sanitizer": dict(deployment.sanitizer.counts),
    }


class TestStackedExecution:
    @given(scenarios())
    @settings(max_examples=12, deadline=None)
    def test_stacked_equals_one_run_at_a_time(self, scenario):
        scalar = observe("scalar", scenario)
        with counted() as (stacked_rolls, stacked_alu):
            stacked = observe("vector", scenario)
        with counted() as (alone_rolls, alone_alu), \
                mock.patch.object(vector_module, "_STACK_ROWS", 0):
            alone = observe("vector", scenario)
        assert stacked == scalar
        assert alone == scalar
        assert stacked_rolls == alone_rolls
        assert len(stacked_alu) <= len(alone_alu)

    def test_the_fleet_stacks(self):
        """Not vacuous: on the fat tree the stack shares calls."""
        scenario = ("fat_tree", ["Q1", "Q3", "Q4", "Q5", "Q6"], None, 3)
        with counted() as (stacked_rolls, stacked_alu):
            stacked = observe("vector", scenario)
        with counted() as (alone_rolls, alone_alu), \
                mock.patch.object(vector_module, "_STACK_ROWS", 0):
            alone = observe("vector", scenario)
        assert stacked == alone
        assert stacked_rolls == alone_rolls
        assert any(hits for hits, _misses, _len in stacked_rolls)
        assert 2 * len(stacked_alu) < len(alone_alu)

    def test_one_stack_runs_the_dense_and_the_sparse_branch(self):
        """Q3's distinct step stops the repeats of a key before the H
        and S of its reduce, which then gather the live rows and scatter
        their answers; Q1 stops rows only at its last op, so it binds
        every kernel answer whole.  One stack holds both runs, and the
        result is bit-identical to scalar."""
        scenario = (1, ["Q1", "Q3"], None, 7)
        scalar = observe("scalar", scenario)
        with branches() as stacks:
            vector = observe("vector", scenario)
        assert vector == scalar
        assert {"Q1": {"dense"}, "Q3": {"dense", "sparse"}} in stacks

    def test_a_stack_naming_one_bank_twice_raises(self):
        """Should catch: two runs of one program on one switch would put
        one ``(array, owner)`` twice into a round's ``execute_many``."""
        deployment = build_deployment(linear(1), array_size=1 << 13,
                                      engine="vector")
        deployment.controller.install_query(
            build_query("Q1", thresholds()), PARAMS, path=["s0"])
        program = compile_switch_programs(
            deployment.switch("s0").pipeline).programs["Q1"]
        batch = ColumnarTrace.from_packets(list(
            traffic(5, [("h_src0", "h_dst0")])))

        def run():
            return ProgramRun([program], [0, len(batch)],
                              {name: batch.columns[name]
                               for name in program.fields_needed},
                              batch.ts, [0], ["s0"])

        execute_program([run()])
        with pytest.raises(ValueError, match="twice"):
            execute_program([run(), run()])
