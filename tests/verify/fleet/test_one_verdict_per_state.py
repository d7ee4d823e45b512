"""What one control op pays for: its distinct switch states, not its
switches.

Algorithm 2 places a network-wide query at every monitored edge, so an
``update_query`` on ``fat_tree(4)`` stages the same slice on eight edge
switches that usually hold one identical occupancy state.  Spies on the
17-query fleet check that such an update

* judges the demand once in the controller's gate and runs the staging
  gate's ``fit`` once — not once per switch;
* runs the Figure-4 dependency pass once, shared by NV1xx and NV602;
* reads the staged-rule count of no switch it did not touch;

that a second occupancy state costs a second verdict and no more, and
that the staged-rules gauge still reads the fleet's true total when
switches change behind the transaction manager's back.

The placement search is shared the same way: one transaction plans a
slice once per distinct switch state (a bank's free runs and the
outgoing version's extents in it), so the update runs one search for its
eight edges, an edge fragmented apart — or wiped between prepare and
commit — plans on its own, and every lease equals what a search on each
switch alone gives.
"""

import random

import pytest

from repro.core import controller as core_controller
from repro.core.query import Query
from repro.ctrlplane import (
    FaultyControlChannel,
    TransactionAborted,
    TransactionManager,
    TxnConfig,
)
from repro.dataplane.pipeline import NewtonPipeline
from repro.experiments.exp_control_scaling import (
    PARAMS,
    TARGET,
    _target_spec,
    resident_specs,
)
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree
from repro.resilience import FaultPlan, control_faults
from repro.service.service import query_from_spec
from repro.verify import VerificationError, verifier
from repro.verify.fleet import analyzer, epochs
from repro.verify.program import PipelineModel


def fleet():
    dep = build_deployment(fat_tree(4), num_stages=12, table_capacity=512,
                           array_size=1 << 16)
    for spec in resident_specs(17):
        dep.controller.install_query(query_from_spec(spec), PARAMS,
                                     topology=dep.topology)
    assert TARGET in dep.controller.installed
    return dep


class Spy:
    """Counts calls of module-level functions and methods by name."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}

    def wrap(self, owner, name, label=None, record=None):
        label = label or name
        real = getattr(owner, name)
        self.calls.setdefault(label, [])

        def spy(*args, **kwargs):
            self.calls[label].append(record(*args) if record else args)
            return real(*args, **kwargs)

        self.monkeypatch.setattr(owner, name, spy)

    def count(self, label):
        return len(self.calls[label])


@pytest.fixture
def spy(monkeypatch):
    spy = Spy(monkeypatch)
    spy.wrap(verifier, "check_demand")
    spy.wrap(analyzer, "check_staging_plan_view")
    spy.wrap(PipelineModel, "fit")
    for module in (core_controller, verifier, epochs):
        spy.wrap(module, "check_dependencies")
    staged = NewtonPipeline.staged_rule_count
    reads = spy.calls.setdefault("staged_rule_count", [])
    monkeypatch.setattr(
        NewtonPipeline, "staged_rule_count",
        property(lambda self: reads.append(self.switch_id)
                 or staged.fget(self)),
    )
    return spy


def update(dep, threshold):
    return dep.controller.update_query(
        query_from_spec(_target_spec(threshold)), PARAMS,
        topology=dep.topology,
    )


def test_an_update_pays_for_one_switch_state_not_eight(spy):
    dep = fleet()
    before = set(dep.controller.installed[TARGET].by_switch)
    for calls in spy.calls.values():
        calls.clear()
    update(dep, 30_000)
    after = set(dep.controller.installed[TARGET].by_switch)
    assert len(after) == 8, "Algorithm 2 places the query at every edge"
    states = {PipelineModel.of_switch(dep.switch(sid)).state()
              for sid in after}
    assert len(states) == 1, "the eight edges hold one occupancy state"

    assert spy.count("check_demand") == 1
    assert spy.count("check_staging_plan_view") == 1
    assert spy.count("fit") == 2  # NV203's and the staging window's
    assert spy.count("check_dependencies") == 1
    touched = before | after
    read = spy.calls["staged_rule_count"]
    assert read and set(read) <= touched, set(read) - touched


def test_a_second_state_costs_a_second_verdict(spy):
    dep = fleet()
    # A query of its own on one edge sets that edge apart.
    dep.controller.install_query(
        Query("pinned").filter(dport=7).map("dip").reduce("dip").where(ge=3),
        PARAMS, path=["p0e0"],
    )
    for calls in spy.calls.values():
        calls.clear()
    update(dep, 30_000)
    assert spy.count("check_demand") == 2
    assert spy.count("check_staging_plan_view") == 2
    assert spy.count("check_dependencies") == 1


def test_the_staged_gauge_reads_the_fleet_total():
    """Ops under control-channel faults, with crashes and stray staged
    banks planted behind the transaction manager's back: after every
    committed op the gauge equals the sum over every switch."""
    dep = fleet()
    txn = dep.controller.txn
    txn.channel = FaultyControlChannel(FaultPlan(events=(control_faults(
        loss=0.15, timeout=0.1, reboot_rate=0.05),), seed=3))
    txn.config = TxnConfig(max_attempts=2)
    gauge = txn.registry.gauge("txn_staged_rules")
    rng = random.Random(3)
    sids = sorted(dep.switches, key=str)
    stray = dep.controller.installed[TARGET].slices[TARGET][0]
    planted = crashed = aborted = 0
    for step in range(24):
        roll = rng.random()
        if roll < 0.2:
            sid = rng.choice(sids)
            dep.switch(sid).pipeline.stage_slice(stray, txn.epoch + 50)
            planted += 1
        elif roll < 0.3:
            dep.switch(rng.choice(sids)).crash(at=0.0, down_for=0.0)
            crashed += 1
        try:
            update(dep, rng.choice((20_000, 25_000, 30_000)))
        except (TransactionAborted, VerificationError):
            aborted += 1  # an aborted op leaves the gauge as it was
            continue
        assert gauge.value() == sum(
            switch.staged_rule_count for switch in dep.switches.values()
        ), f"step {step}"
    assert planted and crashed and aborted
    assert gauge.value() > 0, "the planted banks are still staged"


def leases(dep):
    """Every switch's register leases and free runs, bank by bank."""
    return {
        sid: [(sorted((a.owner, a.offset, a.size)
                      for a in bank.array.allocations()),
               bank.array.free_runs())
              for bank in dep.switch(sid).pipeline.layout.state_banks()]
        for sid in dep.switches
    }


def searches(monkeypatch):
    """Spy on the placement search: the switch each search ran on."""
    spy = Spy(monkeypatch)
    spy.wrap(NewtonPipeline, "_plan", record=lambda pipeline, *_: (
        pipeline.switch_id))
    return spy.calls["_plan"]


def each_switch_alone(monkeypatch):
    """Stage without the transaction's plan memo: every switch searches
    for itself, as before plans were shared."""
    place = NewtonPipeline._place
    monkeypatch.setattr(NewtonPipeline, "_place",
                        lambda self, query_slice, epoch, plans=None:
                        place(self, query_slice, epoch))


def fragment_one_edge(dep):
    """Lease one register in the bank the target's S rule uses on one
    edge, ahead of its free space: that edge's state differs."""
    sid = sorted(dep.controller.installed[TARGET].by_switch, key=str)[0]
    pipeline = dep.switch(sid).pipeline
    stage = min(pipeline.version_for(TARGET, 0).extents)
    pipeline.layout.bank_at[stage].array.allocate(("fragment",), 1)
    return sid


def test_an_update_searches_once_for_its_eight_edges(monkeypatch):
    dep = fleet()
    ran = searches(monkeypatch)
    update(dep, 30_000)
    assert len(dep.controller.installed[TARGET].by_switch) == 8
    assert len(ran) == 1


def test_a_fragmented_edge_gets_a_search_of_its_own(monkeypatch):
    shared, alone = fleet(), fleet()
    sid = fragment_one_edge(shared)
    assert fragment_one_edge(alone) == sid
    with monkeypatch.context() as patch:
        ran = searches(patch)
        update(shared, 30_000)
        assert len(ran) == 2 and sid in ran
    with monkeypatch.context() as patch:
        each_switch_alone(patch)
        ran = searches(patch)
        update(alone, 30_000)
        assert len(ran) == 8
    assert leases(shared) == leases(alone)


def test_a_switch_wiped_before_its_commit_plans_from_its_own_state(
        monkeypatch):
    runs = []
    for share in (True, False):
        dep = fleet()
        victim = sorted(dep.controller.installed[TARGET].by_switch,
                        key=str)[-1]
        commit = TransactionManager._commit_one

        def wipe_first(self, switch, ops, target, plans, victim=victim):
            if switch.switch_id == victim and switch.rule_epoch:
                switch.crash(at=0.0, down_for=0.0)
            return commit(self, switch, ops, target, plans)

        with monkeypatch.context() as patch:
            patch.setattr(TransactionManager, "_commit_one", wipe_first)
            if not share:
                each_switch_alone(patch)
            ran = searches(patch)
            update(dep, 30_000)
        runs.append((leases(dep), ran))
        if share:
            # One search before the wipe, one from the wiped state.
            assert ran == [ran[0], victim] and ran[0] != victim
            assert dep.switch(victim).pipeline.hosts_slice(TARGET, 0)
    assert runs[0][0] == runs[1][0]
