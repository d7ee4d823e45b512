"""Controller tests: install/remove/update, placement modes, timing."""

import pytest

from repro.core.compiler import QueryParams
from repro.core.controller import NewtonController
from repro.core.library import QueryThresholds, build_query
from repro.core.packet import Packet
from repro.core.query import Query
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree, linear
from repro.runtime.channel import ControlChannel

PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=128, distinct_registers=128)


def q(qid="ctl.q", threshold=3):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


class TestPathMode:
    def test_install_and_remove(self):
        dep = build_deployment(linear(1))
        result = dep.controller.install_query(q(), PARAMS, path=["s0"])
        assert result.rules_staged > 0
        assert result.delay_s > 0
        assert dep.switch("s0").rule_count == result.rules_staged
        removal = dep.controller.remove_query("ctl.q")
        assert dep.switch("s0").rule_count == 0
        assert removal.delay_s > 0

    def test_double_install_rejected(self):
        dep = build_deployment(linear(1))
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        with pytest.raises(ValueError):
            dep.controller.install_query(q(), PARAMS, path=["s0"])

    def test_remove_unknown_rejected(self):
        dep = build_deployment(linear(1))
        with pytest.raises(KeyError):
            dep.controller.remove_query("ghost")

    def test_update_is_remove_plus_install(self):
        dep = build_deployment(linear(1))
        dep.controller.install_query(q(threshold=3), PARAMS, path=["s0"])
        result = dep.controller.update_query(q(threshold=9), PARAMS,
                                             path=["s0"])
        assert result.delay_s > 0
        assert "ctl.q" in dep.controller.installed

    def test_multi_switch_path_slices(self):
        dep = build_deployment(linear(3), num_stages=3, array_size=256)
        result = dep.controller.install_query(
            q(), PARAMS, path=["s0", "s1", "s2"], stages_per_switch=3
        )
        assert result.slices_per_sub["ctl.q"] >= 2
        assert dep.switch("s0").rule_count > 0
        assert dep.switch("s1").rule_count > 0

    def test_short_path_defers_remainder(self):
        dep = build_deployment(linear(1), num_stages=2, array_size=256)
        dep.controller.install_query(
            q(), PARAMS, path=["s0"], stages_per_switch=2
        )
        # Slices beyond the path are not installed anywhere.
        assert dep.controller.total_slices("ctl.q") > 1
        assert dep.controller.cpu_start_for("ctl.q", 1) < 4

    def test_rollback_on_failure(self):
        dep = build_deployment(linear(1), array_size=64)
        big = QueryParams(cm_depth=2, reduce_registers=4096)
        with pytest.raises(Exception):
            dep.controller.install_query(q(), big, path=["s0"])
        assert dep.switch("s0").rule_count == 0
        assert "ctl.q" not in dep.controller.installed

    def test_remove_reports_rules_removed(self):
        dep = build_deployment(linear(1))
        install = dep.controller.install_query(q(), PARAMS, path=["s0"])
        removal = dep.controller.remove_query("ctl.q")
        assert removal.rules_removed == install.rules_staged

    def test_update_reports_both_directions(self):
        dep = build_deployment(linear(1))
        dep.controller.install_query(q(threshold=3), PARAMS, path=["s0"])
        result = dep.controller.update_query(q(threshold=9), PARAMS,
                                             path=["s0"])
        assert result.rules_staged > 0
        assert result.rules_removed > 0

    def test_failed_update_leaves_query_installed(self):
        """Regression: update_query used to run remove-then-install, so a
        failing install left the query gone entirely.  Now the swap is one
        transaction — a rejected update must leave the old version
        serving untouched."""
        dep = build_deployment(linear(1), array_size=1024)
        tight = QueryParams(cm_depth=2, reduce_registers=768)
        dep.controller.install_query(q(threshold=3), tight, path=["s0"])
        rules_before = dep.switch("s0").rule_count
        with pytest.raises(Exception):
            dep.controller.update_query(q(threshold=9), tight, path=["s0"])
        assert "ctl.q" in dep.controller.installed
        assert dep.switch("s0").rule_count == rules_before
        # The surviving version still processes traffic.
        reports = []
        for i in range(4):
            res = dep.switch("s0").process(
                Packet(sip=i + 1, dip=9, proto=6, tcp_flags=2, ts=0.0),
                snapshot=None,
            )
            reports.extend(res.reports)
        assert len(reports) == 1

    def test_unknown_switch_rejected(self):
        dep = build_deployment(linear(1))
        with pytest.raises(KeyError):
            dep.controller.install_query(q(), PARAMS, path=["s9"])

    def test_needs_exactly_one_mode(self):
        dep = build_deployment(linear(1))
        with pytest.raises(ValueError):
            dep.controller.install_query(q(), PARAMS)
        with pytest.raises(ValueError):
            dep.controller.install_query(
                q(), PARAMS, path=["s0"], topology=dep.topology
            )


class TestNetworkMode:
    def test_placement_covers_edges(self):
        topo = fat_tree(4)
        dep = build_deployment(topo, num_stages=4, array_size=256)
        result = dep.controller.install_query(
            q(), PARAMS, topology=topo, stages_per_switch=4
        )
        placement = result.placements["ctl.q"]
        for edge in topo.edge_switches:
            assert 0 in placement.slices_at(edge)

    def test_composite_installs_all_subs(self):
        topo = linear(2)
        dep = build_deployment(topo, num_stages=12, array_size=4096)
        q7 = build_query("Q7", QueryThresholds(completed_conns=2))
        result = dep.controller.install_query(
            q7, QueryParams(cm_depth=2, reduce_registers=512),
            topology=topo,
        )
        assert set(result.slices_per_sub) == {"Q7.syn", "Q7.fin"}
        removal = dep.controller.remove_query("Q7")
        assert dep.controller.rule_count() == 0
        assert removal.rules_removed > 0

    def test_advance_window_touches_all_switches(self):
        topo = linear(3)
        dep = build_deployment(topo)
        assert dep.simulator.roll_window() == 0
        assert all(
            s.pipeline.epoch == 1 for s in dep.switches.values()
        )


class TestTiming:
    def test_delay_scales_with_rules(self):
        dep = build_deployment(linear(1), array_size=1 << 14)
        small = dep.controller.install_query(
            Query("small").map("dip").reduce("dip").where(ge=2),
            PARAMS, path=["s0"],
        )
        big = dep.controller.install_query(
            build_query("Q4", QueryThresholds()),
            QueryParams(cm_depth=2, bf_hashes=3, reduce_registers=64,
                        distinct_registers=64),
            path=["s0"],
        )
        assert big.delay_s > small.delay_s

    def test_channel_log_records_operations(self):
        class Recording(ControlChannel):
            def transact(self, operation, rules, overhead_s=None):
                ops.append(operation)
                return super().transact(operation, rules, overhead_s)

        ops = []
        dep = build_deployment(linear(1), channel=Recording())
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        dep.controller.remove_query("ctl.q")
        assert "install" in ops and "remove" in ops
