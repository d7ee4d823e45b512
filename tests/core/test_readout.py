"""Register readout tests: exact window aggregates via the control plane."""

import random

import pytest

from repro.core.compiler import QueryParams, compile_query
from repro.core.packet import Packet
from repro.core.query import Query
from repro.core.readout import reduce_probe_rows
from repro.dataplane.module_types import ModuleType
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear

PARAMS = QueryParams(cm_depth=3, reduce_registers=1 << 12,
                     distinct_registers=1 << 12)


def q(qid="ro.q", threshold=100):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def syn(sip, dip, ts=0.0):
    return Packet(sip=sip, dip=dip, proto=6, tcp_flags=2, ts=ts,
                  src_host="h_src0", dst_host="h_dst0")


class TestProbeRows:
    def test_one_row_per_sketch_row(self):
        compiled = compile_query(q(), PARAMS)
        rows = reduce_probe_rows(compiled)
        assert len(rows) == 3
        assert len({r.hash_config.seed_index for r in rows}) == 3

    def test_masks_recovered_through_opt2(self):
        """The reduce's K was deduplicated away; masks still resolve."""
        compiled = compile_query(q(), PARAMS)
        for row in reduce_probe_rows(compiled):
            assert dict(row.masks) == {"dip": 0xFFFFFFFF}

    def test_final_reduce_selected(self):
        query = (
            Query("ro.two")
            .map("sip", "dip")
            .distinct("sip", "dip")
            .map("sip")
            .reduce("sip")
            .where(ge=5)
        )
        compiled = compile_query(query, PARAMS)
        for row in reduce_probe_rows(compiled):
            assert dict(row.masks) == {"sip": 0xFFFFFFFF}

    def test_no_reduce_yields_nothing(self):
        compiled = compile_query(Query("ro.map").map("dip"), PARAMS)
        assert reduce_probe_rows(compiled) == []

    def test_flag_suite_not_probed(self):
        """A byte-sum threshold's OR flag suite must not masquerade as a
        sketch row."""
        query = (
            Query("ro.sum").filter(proto=6).map("dip")
            .reduce("dip", func="sum").where(ge=5000)
        )
        compiled = compile_query(query, PARAMS)
        rows = reduce_probe_rows(compiled)
        assert len(rows) == PARAMS.cm_depth


class TestEstimateCount:
    def test_exact_on_single_switch(self):
        deployment = build_deployment(linear(1), array_size=1 << 13)
        deployment.controller.install_query(q(), PARAMS, path=["s0"])
        for i in range(7):
            deployment.simulator.run([syn(i + 1, dip=9, ts=i * 1e-4)])
        assert deployment.controller.estimate_count("ro.q", {"dip": 9}) == 7
        assert deployment.controller.estimate_count("ro.q", {"dip": 8}) == 0

    def test_exact_across_cqe_slices(self):
        deployment = build_deployment(linear(3), num_stages=4,
                                      array_size=1 << 13)
        deployment.controller.install_query(
            q(), PARAMS, path=["s0", "s1", "s2"], stages_per_switch=4
        )
        deployment.simulator.run(
            [syn(i + 1, dip=9, ts=i * 1e-4) for i in range(5)]
        )
        assert deployment.controller.estimate_count("ro.q", {"dip": 9}) == 5

    def test_window_reset_clears_estimate(self):
        deployment = build_deployment(linear(1), array_size=1 << 13)
        deployment.controller.install_query(q(), PARAMS, path=["s0"])
        deployment.simulator.run([syn(1, dip=9)])
        deployment.controller.advance_window()
        assert deployment.controller.estimate_count("ro.q", {"dip": 9}) == 0

    def test_unknown_query_rejected(self):
        deployment = build_deployment(linear(1))
        with pytest.raises(KeyError):
            deployment.controller.estimate_count("ghost", {"dip": 1})

    def test_sharpens_clipped_report(self):
        """The workflow the readout exists for: a crossing report says
        'count reached 10'; the readout recovers the true total."""
        deployment = build_deployment(linear(1), array_size=1 << 13)
        deployment.controller.install_query(q(threshold=10), PARAMS,
                                            path=["s0"])
        deployment.simulator.run(
            [syn(i + 1, dip=9, ts=i * 1e-4) for i in range(25)]
        )
        reported = deployment.analyzer.results("ro.q")[0][(9,)]
        assert reported == 10  # clipped at the crossing
        exact = deployment.controller.estimate_count("ro.q", {"dip": 9})
        assert exact == 25


def _read_everything_occupancy(controller, sub_qid):
    """``sketch_occupancy`` as it was before it skipped clean banks:
    copy and sum the slice of every hosting switch, touched or not."""
    record = controller.installed[controller._sub_owner[sub_qid]]
    slices = record.slices[sub_qid]
    rows = reduce_probe_rows(record.compiled[sub_qid])
    if not slices or not rows:
        return None
    stages_per_switch = slices[0].num_stages
    worst = None
    for row in rows:
        slice_index, local_stage = divmod(row.stage, stages_per_switch)
        summed = None
        for sid, entries in record.by_switch.items():
            if (sub_qid, slice_index) not in entries:
                continue
            pipeline = controller.switches[sid].pipeline
            module = pipeline.layout.module_at(local_stage,
                                               ModuleType.STATE_BANK)
            key = pipeline.state_storage_key(sub_qid, slice_index,
                                             row.state_key)
            if module is None or key is None:
                continue
            cells = module.array.read_slice(key)
            summed = cells if summed is None else summed + cells
        if summed is None:
            continue
        load = float((summed != 0).sum()) / float(len(summed))
        worst = load if worst is None else max(worst, load)
    return worst


def _walk_every_bank(controller, sub_qid):
    """``sketch_occupancy`` as the walk it replaced: every (probe row x
    hosting switch) resolves its module, storage key and allocation
    before the bank's ``dirty`` flag is tested; a written bank's slice
    is copied and summed."""
    record = controller.installed[controller._sub_owner[sub_qid]]
    slices = record.slices[sub_qid]
    rows = reduce_probe_rows(record.compiled[sub_qid])
    if not slices or not rows:
        return None
    stages_per_switch = slices[0].num_stages
    worst = None
    for row in rows:
        slice_index, local_stage = divmod(row.stage, stages_per_switch)
        length = 0
        summed = None
        for sid, entries in record.by_switch.items():
            if (sub_qid, slice_index) not in entries:
                continue
            pipeline = controller.switches[sid].pipeline
            query_filter = pipeline.query_filter
            if query_filter is not None and sub_qid not in query_filter:
                return None
            module = pipeline.layout.module_at(local_stage,
                                               ModuleType.STATE_BANK)
            if module is None:
                continue
            key = pipeline.state_storage_key(sub_qid, slice_index,
                                             row.state_key)
            if key is None or module.array.allocation(key) is None:
                continue
            length = module.array.allocation(key).size
            if not module.array.dirty:
                continue
            cells = module.array.read_slice(key)
            summed = cells if summed is None else summed + cells
        if not length:
            continue
        nonzero = 0 if summed is None else int((summed != 0).sum())
        load = float(nonzero) / float(length)
        worst = load if worst is None else max(worst, load)
    return worst


class TestOccupancyUnderChurn:
    """Window close reads only the banks written since their reset; the
    planner's occupancy signals must not notice, through updates that
    re-place and resize a sketch between and inside windows."""

    PAIRS = (("hp0e0n0", "hp2e0n0"), ("hp1e0n0", "hp3e0n0"),
             ("hp0e1n0", "hp3e1n0"), ("hp2e1n0", "hp1e1n0"))

    def test_signals_equal_the_full_walk_window_after_window(self,
                                                             monkeypatch):
        rng = random.Random(77)
        deployment = build_deployment(fat_tree(4), array_size=1 << 16,
                                      engine="vector")
        controller = deployment.controller
        topology = deployment.topology
        controller.install_query(q("ro.syn"), PARAMS, topology=topology)
        controller.install_query(
            Query("ro.udp").filter(proto=17).map("dip").reduce("dip")
            .where(ge=3), PARAMS, topology=topology)
        controller.install_query(
            Query("ro.bytes").map("sip").reduce("sip", func="sum")
            .where(ge=5000), PARAMS, topology=topology)
        controller.install_query(Query("ro.map").map("dip"), PARAMS,
                                 topology=topology)
        variants = (
            (q("ro.syn", threshold=50), PARAMS),
            (q("ro.syn", threshold=100), QueryParams(
                cm_depth=3, reduce_registers=1 << 11,
                distinct_registers=1 << 11)),
        )
        answers = []
        probe = controller.sketch_occupancy

        def checked(sub_qid):
            got = probe(sub_qid)
            answers.append((sub_qid, got))
            assert got == _walk_every_bank(controller, sub_qid), sub_qid
            return got

        monkeypatch.setattr(controller, "sketch_occupancy", checked)
        sim = deployment.simulator
        updates = 0
        loaded = set()
        for window in range(16):
            if window % 3 == 1:
                updates += 1
                query, params = variants[updates % 2]
                if window % 2:
                    controller.update_query(query, params,
                                            topology=topology)
                else:   # lands inside the window's traffic
                    sim.at((window + 0.5) * sim.window_s,
                           lambda query=query, params=params:
                           controller.update_query(query, params,
                                                   topology=topology))
            senders = rng.sample(self.PAIRS, rng.randint(0, 3))
            packets = sorted((
                Packet(sip=rng.randrange(1, 80), dip=rng.randrange(1, 12),
                       proto=rng.choice((6, 6, 17)), tcp_flags=2,
                       len=rng.randrange(60, 1500),
                       ts=(window + rng.random()) * sim.window_s,
                       src_host=src, dst_host=dst)
                for src, dst in senders for _ in range(rng.randint(1, 60))
            ), key=lambda packet: packet.ts)
            answers.clear()
            sim.run(packets)            # ends by closing the window
            closed = sim.roll_window()
            signals = deployment.collector.window_signals(closed)
            got = {entry.sub_qid: entry.occupancy
                   for entry in signals.queries}
            assert got == {sub: value for sub, value in answers
                           if sub in got}
            if not packets:
                assert got["ro.syn"] == got["ro.udp"] == 0.0
            loaded.update(sub for sub, value in got.items() if value)
        assert updates >= 5
        assert loaded == {"ro.syn", "ro.udp", "ro.bytes"}


class TestSketchOccupancy:
    """The window-close readout skips banks no packet wrote
    (``RegisterArray.dirty``); every value it returns must equal the
    read-everything readout, ``0.0`` for an idle installed row included
    (``None`` would make the collector drop the sub-query)."""

    PAIRS = (("hp0e0n0", "hp2e0n0"), ("hp1e0n0", "hp3e0n0"),
             ("hp0e1n0", "hp3e1n0"))

    def test_equals_the_full_readout_after_every_window(self):
        rng = random.Random(2024)
        deployment = build_deployment(fat_tree(4), array_size=1 << 13,
                                      engine="vector")
        controller = deployment.controller
        subs = ["ro.syn", "ro.udp", "ro.map"]
        controller.install_query(q("ro.syn"), PARAMS,
                                 topology=deployment.topology)
        # Installed everywhere, matched by no packet below: idle rows.
        controller.install_query(
            Query("ro.udp").filter(proto=17).map("dip").reduce("dip")
            .where(ge=3), PARAMS, topology=deployment.topology)
        # No data-plane reduce: None on both sides.
        controller.install_query(Query("ro.map").map("dip"), PARAMS,
                                 topology=deployment.topology)
        hosting = {
            sid for sid, entries in
            controller.installed["ro.syn"].by_switch.items() if entries
        }
        assert len(hosting) > 1
        seen_dirty = set()
        sim = deployment.simulator
        for window in range(12):
            # Window 0 is idle; then one pair, then a seeded mix.
            senders = ((), self.PAIRS[:1])[window] if window < 2 else (
                rng.sample(self.PAIRS, rng.randint(0, len(self.PAIRS))))
            packets = sorted((
                Packet(sip=rng.randrange(1, 50), dip=rng.randrange(1, 9),
                       proto=6, tcp_flags=2,
                       ts=(window + rng.random()) * sim.window_s,
                       src_host=src, dst_host=dst)
                for src, dst in senders for _ in range(rng.randint(1, 40))
            ), key=lambda packet: packet.ts)
            sim.run(packets)
            dirty = sum(
                any(bank.array.dirty for bank in
                    controller.switches[sid].pipeline.layout.state_banks())
                for sid in hosting
            )
            seen_dirty.add(min(dirty, 2))
            for sub in subs:
                got = controller.sketch_occupancy(sub)
                assert got == _read_everything_occupancy(controller, sub), (
                    window, sub)
            assert controller.sketch_occupancy("ro.map") is None
            assert controller.sketch_occupancy("ro.udp") == 0.0
            if not packets:
                assert controller.sketch_occupancy("ro.syn") == 0.0
            sim.roll_window()
        # Idle, single-switch and multi-switch windows all occurred.
        assert seen_dirty == {0, 1, 2}
