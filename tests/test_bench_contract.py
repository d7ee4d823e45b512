"""The benchmark's tracer wraps entry points of ``repro`` by name.

``bench/tracing.installed()`` looks up some thirty attributes with
``owner.__dict__[name]`` and swaps timing wrappers in; ``python -m pytest
bench/`` checks that in full but is not tier-1, so a rename under
``src/`` would pass here and only kill the next traced benchmark run.
This keeps the contract in tier-1: every name still resolves, everything
is put back, and the vector engine still reaches ``execute_program`` /
``compile_switch_programs`` through its module globals (a ``from``-import
into a local or a default argument would run untraced) — on the sliced
(CQE) workload too, where no packet may reach ``ScalarEngine.step``.
"""

import os
import sys
import types
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import repro.engine.vector as vector_module  # noqa: E402
from bench import harness, tracing  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402
from repro.dataplane.hashing import HashMemo  # noqa: E402
from repro.dataplane.registers import RegisterArray  # noqa: E402
from repro.engine.program import _SOp  # noqa: E402


def _entry_points():
    """``(owner, name) -> object`` for every function a module of
    ``repro`` or a class defined in one holds."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                found[(module, name)] = value
            elif (isinstance(value, type)
                  and value.__module__ == module_name):
                for attribute, member in vars(value).items():
                    if isinstance(member, types.FunctionType):
                        found[(value, attribute)] = member
    return found


def test_the_tracer_finds_its_names_and_puts_them_back():
    with tracing.installed():
        pass                       # first entry imports what it wraps
    before = _entry_points()
    with tracing.installed():
        during = _entry_points()
    after = _entry_points()
    wrapped = {key for key, value in during.items()
               if before.get(key) is not value}
    assert len(wrapped) >= 30
    assert all(during[key].__wrapped__ is before[key] for key in wrapped)
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in before)


def test_a_traced_window_sees_the_engine_call_its_kernels():
    workload = WORKLOADS["fleet17-fattree-churn"]
    cycle = workload.make_cycle(5, per_window=40)
    with tracing.installed() as tracer:
        driver = harness._Driver(workload, harness._deploy(workload),
                                 cycle, tracer)
        driver.step(trace=True)
    assert driver.result.failures == {}
    names = [span[0] for span in tracer.spans if span is not None]
    for name in ("engine.walk", "engine.dispatch", "engine.program",
                 "engine.compile", "dataplane.hash", "dataplane.alu"):
        assert names.count(name) >= 1, name
    # Programs run inside the one dispatch span of their sub-batch.
    parents = {tracer.spans[span[4]][0] for span in tracer.spans
               if span is not None and span[0] == "engine.program"}
    assert parents == {"engine.dispatch"}
    assert tracer.counts["dataplane.alu_rows"] > 0


def test_a_traced_cqe_window_stays_on_the_batch_path():
    """Q1 sliced across the path: its downstream slices run inside the
    dispatch span, and no packet reaches the scalar engine."""
    workload = WORKLOADS["eval9-linear-cqe"]
    cycle = workload.make_cycle(5, per_window=60)
    with tracing.installed() as tracer:
        driver = harness._Driver(workload, harness._deploy(workload),
                                 cycle, tracer)
        driver.step(trace=True)
    assert driver.result.failures == {}
    assert tracer.total("engine.scalar")[2] == 0
    assert tracer.total("dataplane.pipeline")[2] == 0
    programs = [span for span in tracer.spans
                if span is not None and span[0] == "engine.program"]
    assert programs
    assert {tracer.spans[span[4]][0] for span in programs} == {
        "engine.dispatch"}
    assert tracer.counts["core.sp_bytes"] > 0


def test_a_traced_churn_window_counts_what_the_kernels_did(monkeypatch):
    """On the fused, stacked fleet: ``dataplane.alu_rows`` is every row
    that reached a stateful S op (the scalar engine's per-packet S calls
    on the same window), a stack makes at most one ``dataplane.alu`` span
    per S op of its runs — fewer where its runs share a round — and the
    memos grew by exactly the misses they counted inside
    ``dataplane.hash``."""
    workload = WORKLOADS["fleet17-fattree-churn"]
    cycle = workload.make_cycle(5, per_window=120)

    scalar_calls = []
    execute = RegisterArray.execute

    def counting_execute(array, *args):
        scalar_calls.append(1)
        return execute(array, *args)

    monkeypatch.setattr(RegisterArray, "execute", counting_execute)
    scalar = workload.build(engine="scalar")
    workload.install(scalar)
    harness._Driver(workload, scalar, cycle).step()
    monkeypatch.setattr(RegisterArray, "execute", execute)

    stacks = []
    inner = vector_module.execute_program

    def spy(runs, *args, **kwargs):
        stacks.append([sum(isinstance(op, _SOp) and not op.passthrough
                           for op in run.programs[0].ops) for run in runs])
        return inner(runs, *args, **kwargs)

    monkeypatch.setattr(vector_module, "execute_program", spy)
    counted = []
    roll = HashMemo.roll

    def counting_roll(memo):
        counted.append(memo.misses)
        roll(memo)

    monkeypatch.setattr(HashMemo, "roll", counting_roll)
    with tracing.installed() as tracer:
        driver = harness._Driver(workload, harness._deploy(workload),
                                 cycle, tracer)
        driver.step(trace=True)
    assert driver.result.failures == {}

    assert tracer.counts["dataplane.alu_rows"] == len(scalar_calls) > 0
    spans = tracer.spans
    programs = [i for i, span in enumerate(spans)
                if span is not None and span[0] == "engine.program"]
    under = Counter(span[4] for span in spans
                    if span is not None and span[0] == "dataplane.alu")
    assert len(programs) == len(stacks)
    assert set(under) <= set(programs)
    for index, stateful in zip(programs, stacks):
        assert under[index] <= sum(stateful)
    assert any(len(stateful) > 1 and 0 < under[index] < sum(stateful)
               for index, stateful in zip(programs, stacks))
    # The first window carries nothing into its roll, so no memo is
    # cleared: they hold exactly what the window missed.
    grown = tracer.counts["dataplane.hash_miss"]
    assert grown == sum(counted) == sum(tracer.memo_sizes.values()) > 0
