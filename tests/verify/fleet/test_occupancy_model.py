"""One occupancy model: the physical counters equal the bank walk.

``PipelineModel.of_switch`` reads table lengths and register leases; the
fleet analyzer's ``SwitchView`` walks every resident bank.  Every fit
verdict rests on the two describing the same switch — also in the middle
of a transaction, when staged and retired banks are resident — so this
sweep checks the equality at every epoch flip, every GC, after aborted
transactions and across a crash and its recovery, and then that the
three consumers of the model give one answer.
"""

import random
from collections import Counter

import pytest

from repro.core.admission import AdmissionPlanner
from repro.core.compiler import QueryParams, compile_query, slice_compiled
from repro.core.library import QueryThresholds, build_query
from repro.core.placement import PlacementError
from repro.core.query import Query, flatten
from repro.core.rules import SConfig
from repro.ctrlplane import TransactionAborted, TxnConfig
from repro.dataplane.module_types import ModuleType
from repro.dataplane.switch import Switch
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear
from repro.resilience import FaultPlan, control_faults
from repro.verify import VerificationError
from repro.verify.fleet import check_staging_plan
from repro.verify.fleet.model import RETIRED, STAGED, SwitchView
from repro.verify.program import PipelineModel

FAULTS = control_faults(loss=0.15, timeout=0.1, reboot_rate=0.05)
SIZES = (128, 256, 512)


def reduce_query(qid, threshold, **predicates):
    return (
        Query(qid)
        .filter(**(predicates or {"proto": 6, "tcp_flags": 2}))
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def candidate(rng, name):
    """A random definition of query ``name`` (rules and sizes vary)."""
    threshold = rng.randint(2, 9)
    params = QueryParams(cm_depth=rng.choice((1, 2)), bf_hashes=2,
                         reduce_registers=rng.choice(SIZES),
                         distinct_registers=rng.choice(SIZES))
    if name in ("Q4", "Q6"):
        return build_query(name, QueryThresholds()), params
    proto = {"occ.tcp": 6, "occ.udp": 17}.get(name)
    predicates = {"proto": proto} if proto else {}
    return reduce_query(name, threshold, **predicates), params


def walk(switch):
    """Occupancy the slow way: sum every resident bank and dispatch row."""
    view = SwitchView.of_switch(switch)
    rules, registers = Counter(), Counter()
    for bank in view.banks:
        for rule in bank.rules:
            rules[(rule.stage, rule.module_type)] += 1
            config = rule.spec.config
            if (rule.module_type is ModuleType.STATE_BANK
                    and isinstance(config, SConfig)
                    and not config.passthrough):
                registers[rule.stage] += config.slice_size
    return view, (dict(rules), dict(registers), len(view.dispatch))


class Probe:
    """Compares the two derivations and remembers what it saw resident."""

    def __init__(self):
        self.points = self.staged = self.retired = 0

    def __call__(self, switch, label):
        view, walked = walk(switch)
        model = PipelineModel.of_switch(switch)
        counters = (model.rules_used, model.registers_used, model.init_used)
        assert counters == walked, f"{label}: switch {view.switch_id}"
        self.points += 1
        self.staged += bool(view.banks_with_status(STAGED))
        self.retired += bool(view.banks_with_status(RETIRED))


@pytest.fixture
def probe(monkeypatch):
    """Hooked before and after every epoch flip and every GC."""
    probe = Probe()
    for name in ("commit_epoch", "gc_retired"):
        real = getattr(Switch, name)

        def hooked(self, *args, _real=real, _name=name):
            probe(self, f"before {_name}")
            result = _real(self, *args)
            probe(self, f"after {_name}")
            return result

        monkeypatch.setattr(Switch, name, hooked)
    return probe


def churn(dep, rng, where, probe, ops=10):
    """Random install / update / remove / replace / crash sequence."""
    names = ["occ.syn", "occ.tcp", "occ.udp", "Q4", "Q6"]
    sids = sorted(dep.switches, key=str)
    for step in range(ops):
        installed = sorted(dep.controller.installed)
        kind = rng.choice(("install", "update", "update", "remove",
                           "replace", "crash"))
        try:
            if kind == "install" or not installed:
                name = rng.choice(names)
                if name not in installed:
                    dep.controller.install_query(
                        *candidate(rng, name), **where
                    )
            elif kind == "update":
                dep.controller.update_query(
                    *candidate(rng, rng.choice(installed)), **where
                )
            elif kind == "remove":
                dep.controller.remove_query(rng.choice(installed))
            elif kind == "replace":
                dep.controller.replace_query(
                    rng.choice(installed), exclude=[rng.choice(sids)]
                )
            else:
                sid = rng.choice(sids)
                dep.switches[sid].crash(at=0.0, down_for=0.0)
                probe(dep.switches[sid], f"step {step}: after crash")
                dep.controller.recover_switch(sid)
        except (TransactionAborted, VerificationError, PlacementError):
            pass  # refused or rolled back: the probe below still holds
        for switch in dep.switches.values():
            probe(switch, f"step {step}: after {kind}")


@pytest.mark.parametrize("topology, where, seeds", [
    (lambda: linear(3), lambda dep: {"path": ["s0", "s1", "s2"]}, 12),
    (lambda: fat_tree(4), lambda dep: {"topology": dep.topology}, 4),
])
def test_counters_equal_the_bank_walk_at_every_probe(topology, where, seeds,
                                                     probe):
    aborted = 0
    for seed in range(seeds):
        rng = random.Random(seed)
        dep = build_deployment(
            topology(), array_size=2048,
            faults=FaultPlan(events=(FAULTS,), seed=seed),
            txn_config=TxnConfig(max_attempts=3),
        )
        churn(dep, rng, where(dep), probe)
        aborted += sum(entry.state == "aborted"
                       for entry in dep.controller.txn.journal.entries())
    # Not vacuous: aborts happened, and staged / retired banks were
    # resident at many of the comparison points.
    assert aborted and probe.points > 500, (aborted, vars(probe))
    assert probe.staged > 50 and probe.retired > 50, vars(probe)


def test_three_consumers_one_answer():
    """``AdmissionPlanner.check`` is empty <=> ``check_staging_plan`` is
    clean <=> ``install_query(verify=False)`` commits — so a passing
    check never dies at the allocator."""
    fitted = refused = 0
    for seed in range(40):
        rng = random.Random(seed)
        dep = build_deployment(linear(1), array_size=1024)
        for name in ("occ.syn", "occ.tcp"):  # a partly filled switch
            dep.controller.install_query(*candidate(rng, name), path=["s0"])
        query, params = candidate(rng, rng.choice(("occ.udp", "Q4", "Q6")))
        switch = dep.switch("s0")
        stages = switch.pipeline.layout.num_stages
        slices = [
            query_slice
            for sub in flatten(query)
            for query_slice in slice_compiled(compile_query(
                sub, params, hash_family=switch.pipeline.hash_family,
            ), stages)
        ]

        fits = AdmissionPlanner(switch).check(query, params) == []
        staging = check_staging_plan(dep.switches, {"s0": slices},
                                     dep.controller.txn.epoch + 1)
        assert staging.ok is fits, f"seed {seed}: {staging.render()}"
        try:
            dep.controller.install_query(query, params, path=["s0"],
                                         verify=False)
        except VerificationError as exc:
            assert set(exc.report.codes()) == {"NV601"}
            assert not fits, f"seed {seed}: the gate refused a fitting query"
            refused += 1
        else:
            assert fits, f"seed {seed}: the gate let an unfitting query in"
            fitted += 1
    assert fitted > 5 and refused > 5, (fitted, refused)


def test_one_snapshot_per_target_switch_per_transaction(monkeypatch):
    """An ``update_query`` snapshots each switch it stages on once —
    shared by the verification gate and the staging gate — and never
    walks the banks."""
    dep = build_deployment(fat_tree(4), array_size=1 << 14)
    rng = random.Random(7)
    for name in ("occ.syn", "occ.tcp", "occ.udp", "Q4", "Q6"):
        dep.controller.install_query(*candidate(rng, name),
                                     topology=dep.topology)
    targets = sorted(dep.controller.installed["occ.tcp"].by_switch, key=str)
    assert len(targets) > 1

    snapshots = []
    real = PipelineModel.of_switch
    monkeypatch.setattr(
        PipelineModel, "of_switch",
        staticmethod(lambda switch: snapshots.append(switch.switch_id)
                     or real(switch)),
    )
    monkeypatch.setattr(
        SwitchView, "of_switch",
        staticmethod(lambda switch: pytest.fail("bank walk on the op path")),
    )
    dep.controller.update_query(*candidate(rng, "occ.tcp"),
                                topology=dep.topology)
    assert sorted(snapshots, key=str) == targets
