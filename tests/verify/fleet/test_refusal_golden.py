"""Refusals on a partly filled ``fat_tree(4)``, pinned byte for byte.

Every NV201 / NV203 / NV601 / NV602 diagnostic a refused operation
raises — severity, code, message, location and the order they come in —
is compared with ``golden/refusals.json``.  The edges are filled so that
one of the eight (``p0e0``) holds more than the others: a refusal then
meets two distinct occupancy states, and the gates' per-state verdict
sharing must still name every switch that does not fit, in switch order,
with its own label.  Regenerate on purpose with::

    PYTHONPATH=src python tests/verify/fleet/test_refusal_golden.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.compiler import QueryParams, compile_query, slice_compiled
from repro.core.query import Query
from repro.ctrlplane import SwitchOps, TxnPlan
from repro.dataplane.module_types import ModuleType
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree
from repro.verify import VerificationError

GOLDEN = Path(__file__).parent / "golden" / "refusals.json"
CODES = ("NV201", "NV203", "NV601", "NV602")
SMALL = QueryParams(cm_depth=1, reduce_registers=128, distinct_registers=128)


def reduce_query(qid, threshold, **predicates):
    return (Query(qid).filter(**predicates).map("dip").reduce("dip")
            .where(ge=threshold))


def sized(registers):
    return QueryParams(cm_depth=1, reduce_registers=registers,
                       distinct_registers=registers)


def deployment():
    """Two queries on every edge, two more pinned to ``p0e0``: its
    state-bank slot at stage 2 holds 4 rules (the table's capacity) and
    384 of 1024 registers, every other edge's 2 rules and 256."""
    dep = build_deployment(fat_tree(4), array_size=1024, table_capacity=4)
    controller = dep.controller
    controller.install_query(reduce_query("g.tcp", 3, proto=6), SMALL,
                             topology=dep.topology)
    controller.install_query(reduce_query("g.udp", 4, proto=17), SMALL,
                             topology=dep.topology)
    controller.install_query(reduce_query("g.ssh", 5, dport=22),
                             sized(64), path=["p0e0"])
    controller.install_query(reduce_query("g.web", 5, dport=443),
                             sized(64), path=["p0e0"])
    return dep


def misordered(qid):
    """One slice whose S rule shares the stage of the H rule it reads
    (NV101 in the compiled form, NV602 once staged)."""
    compiled = compile_query(reduce_query(qid, 2, dport=25), SMALL)
    hash_stage = next(spec.stage for spec in compiled.specs
                      if spec.module_type is ModuleType.HASH_CALCULATION)
    specs = tuple(
        dataclasses.replace(spec, stage=hash_stage)
        if spec.module_type is ModuleType.STATE_BANK else spec
        for spec in compiled.specs
    )
    (query_slice,) = slice_compiled(dataclasses.replace(compiled, specs=specs),
                                    12)
    return query_slice


def refusal_install_one_edge(dep):
    """The controller gate: fits seven edges, not ``p0e0``."""
    dep.controller.install_query(reduce_query("g.mid", 2, dport=80),
                                 sized(700), topology=dep.topology)


def refusal_install_every_edge(dep):
    """The controller gate: fits no edge's free registers."""
    dep.controller.install_query(reduce_query("g.big", 2, dport=80),
                                 sized(1024), topology=dep.topology)


def refusal_staging_every_edge(dep):
    """The staging gate alone (the controller gate skipped)."""
    dep.controller.install_query(reduce_query("g.big", 2, dport=80),
                                 sized(1024), topology=dep.topology,
                                 verify=False)


def refusal_update_grows(dep):
    """Make-before-break: the new bank must fit beside the old one."""
    dep.controller.update_query(reduce_query("g.tcp", 3, proto=6),
                                sized(400), topology=dep.topology)


def refusal_misordered_slice(dep):
    """A hand-built plan: the staged slice breaks Figure-4 layout, and on
    ``p0e0`` its dispatch row finds ``newton_init`` full."""
    query_slice = misordered("g.bad")
    dep.controller.txn.execute(TxnPlan(
        op="install", qid="g.bad",
        ops={sid: SwitchOps(stage=(query_slice,))
             for sid in ("p0e0", "p1e0", "p2e1")},
    ))


REFUSALS = [
    refusal_install_one_edge,
    refusal_install_every_edge,
    refusal_staging_every_edge,
    refusal_update_grows,
    refusal_misordered_slice,
]


def record(refusal):
    dep = deployment()
    with pytest.raises(VerificationError) as caught:
        refusal(dep)
    return [
        {"severity": d.severity.value, "code": d.code, "message": d.message,
         "qid": d.location.qid, "step": d.location.step,
         "stage": d.location.stage, "switch": d.location.switch}
        for d in caught.value.report.diagnostics if d.code in CODES
    ]


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda r: r.__name__)
def test_refusal_matches_the_golden(refusal):
    golden = json.loads(GOLDEN.read_text())
    assert record(refusal) == golden[refusal.__name__]


def test_golden_covers_every_code_and_both_states():
    golden = json.loads(GOLDEN.read_text())
    codes = {d["code"] for found in golden.values() for d in found}
    assert codes == set(CODES)
    one_edge = golden["refusal_install_one_edge"]
    assert one_edge and {d["switch"] for d in one_edge} == {"p0e0"}
    assert len({d["switch"] for d in golden["refusal_install_every_edge"]}) \
        == 8


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {refusal.__name__: record(refusal) for refusal in REFUSALS},
        indent=1,
    ) + "\n")
