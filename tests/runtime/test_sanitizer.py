"""Runtime invariant sanitizer: observe-only checks in both engines.

The sanitizer (``--sanitize`` / ``NEWTON_SANITIZE=1``) compiles the
static analyzer's assumptions into runtime checks.  These tests pin the
two halves of its contract:

* **Bit-identity** — a sanitized run produces exactly the same stats,
  report stream, and register dumps as an unsanitized one; violations
  accumulate on the :class:`~repro.runtime.sanitizer.Sanitizer` object
  only, never on :class:`SimulationStats`.
* **Engine parity** — when an invariant *is* violated, the scalar and
  vectorized engines count the same number of trips.

Violations are seeded by doctoring installed rule banks (the compiler
never emits a program that trips — the analyzer proves that), so each
check's detection path is exercised end to end.
"""

from dataclasses import replace as dc_replace

import pytest

from repro.core.compiler import QueryParams
from repro.core.packet import Packet
from repro.core.query import Query
from repro.core.rules import HConfig, HashMode, ModuleType
from repro.network.deployment import build_deployment, sanitize_enabled
from repro.network.simulator import SimulationStats
from repro.network.topology import linear
from repro.runtime.sanitizer import CHECKS, Sanitizer, SanitizerViolation
from repro.traffic.generators import assign_hosts, caida_like, syn_flood
from repro.traffic.traces import merge_traces

PARAMS = QueryParams(cm_depth=2, reduce_registers=2048,
                     distinct_registers=2048)
SMALL = QueryParams(cm_depth=2, reduce_registers=128,
                    distinct_registers=128)


def syn_query(qid="san.q", threshold=3):
    return (
        Query(qid)
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def workload(n_packets=2000, duration_s=0.3, seed=11):
    trace = merge_traces([
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=max(n_packets // 5, 100),
                  duration_s=duration_s, seed=seed + 1),
    ])
    return assign_hosts(trace, [("h_src0", "h_dst0")])


def deploy(engine, *, sanitize, queries=(syn_query,), params=PARAMS,
           switches=3, array_size=1 << 13, doctor=None):
    dep = build_deployment(linear(switches), array_size=array_size,
                           engine=engine, sanitize=sanitize)
    path = [f"s{i}" for i in range(switches)]
    for make in queries:
        dep.controller.install_query(make(), params, path=path)
    if doctor is not None:
        doctor(dep)
    return dep


def run(dep, trace):
    stats = dep.simulator.run(trace)
    return stats


class TestCleanRuns:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_admitted_deployment_trips_nothing(self, engine):
        dep = deploy(engine, sanitize=True)
        run(dep, workload())
        assert dep.sanitizer is not None
        assert dep.sanitizer.summary() == {check: 0 for check in CHECKS}
        assert dep.sanitizer.clean

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_sanitize_on_is_bit_identical_to_off(self, engine):
        trace = workload()

        def observe(sanitize):
            dep = deploy(engine, sanitize=sanitize)
            stats = run(dep, trace)
            regs = dep.register_dumps()
            sig = (
                stats.packets, stats.delivered, stats.dropped,
                dict(stats.reports_by_switch), stats.deferred,
                stats.sp_bytes, stats.payload_bytes, stats.epochs,
                stats.mixed_rule_epoch_packets,
                dict(stats.initiated_by_query),
            )
            return sig, regs

        assert observe(True) == observe(False)

    def test_deployment_off_by_default(self, monkeypatch):
        monkeypatch.delenv("NEWTON_SANITIZE", raising=False)
        assert not sanitize_enabled()
        dep = build_deployment(linear(1))
        assert dep.sanitizer is None
        assert dep.simulator.sanitizer is None

    def test_env_var_switches_it_on(self, monkeypatch):
        monkeypatch.setenv("NEWTON_SANITIZE", "1")
        assert sanitize_enabled()
        dep = build_deployment(linear(1))
        assert dep.sanitizer is not None
        assert dep.switch("s0").pipeline.sanitizer is dep.sanitizer
        monkeypatch.setenv("NEWTON_SANITIZE", "off")
        assert not sanitize_enabled()


def doctor_h_direct(dep, qid="san.q", field="sport"):
    """Rewrite one HASH-mode H rule of ``qid`` into DIRECT mode.

    The compiler only pairs DIRECT H with a passthrough S, so a DIRECT
    H feeding a stateful S is exactly the malformed program the
    register-OOB check exists for: source ports exceed the 128-entry
    slice and the array silently wraps.
    """
    for sw in dep.switches.values():
        pipeline = sw.pipeline
        for versions in pipeline._slices.values():
            for i, inst in enumerate(versions):
                if inst.query_slice.qid != qid:
                    continue
                placed, doctored = [], False
                for stage, spec, skey in inst.placed:
                    if (not doctored
                            and spec.module_type
                            == ModuleType.HASH_CALCULATION
                            and spec.config.mode == HashMode.HASH):
                        spec = dc_replace(spec, config=HConfig(
                            mode=HashMode.DIRECT, direct_field=field,
                            range_size=spec.config.range_size,
                        ))
                        doctored = True
                    placed.append((stage, spec, skey))
                versions[i] = dc_replace(inst, placed=tuple(placed))
        # Invalidate the vectorized engine's compiled-program cache.
        pipeline.mutation_seq += 1


class TestRegisterOob:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_direct_h_into_stateful_s_trips(self, engine):
        dep = deploy(engine, sanitize=True, params=SMALL,
                     array_size=4096, switches=1, doctor=doctor_h_direct)
        run(dep, workload())
        assert dep.sanitizer.counts["register-oob"] > 0
        v = dep.sanitizer.violations[0]
        assert v.check == "register-oob"
        assert "slice" in v.message

    def test_scalar_and_vector_count_identically(self):
        trace = workload()
        counts = {}
        for engine in ("scalar", "vector"):
            dep = deploy(engine, sanitize=True, params=SMALL,
                         array_size=4096, switches=1,
                         doctor=doctor_h_direct)
            run(dep, trace)
            counts[engine] = dep.sanitizer.counts["register-oob"]
        assert counts["scalar"] == counts["vector"] > 0


class TestHashCollision:
    """Two same-shape queries land on one physical HashUnit with the
    same key bytes — the NV402 hazard, observed at execution time."""

    QUERIES = (
        lambda: syn_query("san.a"),
        lambda: syn_query("san.b", threshold=4),
    )

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_shared_unit_same_keys_trips(self, engine):
        dep = deploy(engine, sanitize=True, queries=self.QUERIES,
                     switches=1)
        run(dep, workload())
        assert dep.sanitizer.counts["hash-collision"] > 0
        v = next(x for x in dep.sanitizer.violations
                 if x.check == "hash-collision")
        assert "seed" in v.message

    def test_scalar_and_vector_count_identically(self):
        trace = workload()
        counts = {}
        for engine in ("scalar", "vector"):
            dep = deploy(engine, sanitize=True, queries=self.QUERIES,
                         switches=1)
            run(dep, trace)
            counts[engine] = dep.sanitizer.counts["hash-collision"]
        assert counts["scalar"] == counts["vector"] > 0

    def test_distinct_geometries_do_not_trip(self):
        # Different register budgets -> different range_size -> distinct
        # physical units: the analyzer admits this pair and the
        # sanitizer agrees.
        queries = (
            lambda: syn_query("san.a"),
            lambda: syn_query("san.b"),
        )
        dep = build_deployment(linear(1), array_size=1 << 13,
                               sanitize=True)
        dep.controller.install_query(queries[0](), PARAMS, path=["s0"])
        dep.controller.install_query(
            queries[1](),
            QueryParams(cm_depth=2, reduce_registers=1024,
                        distinct_registers=1024),
            path=["s0"],
        )
        run(dep, workload())
        assert dep.sanitizer.counts["hash-collision"] == 0


class TestMixedEpoch:
    """One packet crosses two switches at the same rule epoch; ``s1``
    serves a version of ``san.q`` staged under that epoch, ``s0`` the
    one it flipped to it with, unless ``restage`` is off."""

    @staticmethod
    def _deployment(restage):
        dep = build_deployment(linear(2), num_stages=3,
                               array_size=1 << 13, sanitize=True)
        dep.controller.install_query(syn_query(threshold=1), SMALL,
                                     path=["s0", "s1"], stages_per_switch=3)
        s0, s1 = dep.switch("s0"), dep.switch("s1")
        epoch = s1.rule_epoch + 1
        if restage:
            query_slice = s1.pipeline.version_for("san.q", 1).query_slice
            s1.retire_query("san.q", epoch)
            s1.stage_slice(query_slice, epoch)
        for switch in (s0, s1):
            switch.commit_epoch(epoch)
        return dep

    @staticmethod
    def _syn():
        return [Packet(sip=1, dip=9, proto=6, tcp_flags=2, ts=0.0,
                       src_host="h_src0", dst_host="h_dst0")]

    def test_divergent_epochs_along_path_trip(self):
        dep = self._deployment(restage=True)
        stats = dep.simulator.run(self._syn())
        assert stats.mixed_rule_epoch_packets == 1
        assert dep.sanitizer.counts["mixed-epoch"] == 1
        assert "epochs" in dep.sanitizer.violations[0].message

    def test_consistent_epochs_do_not_trip(self):
        dep = self._deployment(restage=False)
        stats = dep.simulator.run(self._syn())
        assert stats.reports_total == 1
        assert stats.mixed_rule_epoch_packets == 0
        assert dep.sanitizer.total == 0


class TestCoverage:
    def test_accounting_hole_trips(self):
        sanitizer = Sanitizer()
        stats = SimulationStats(packets=10, delivered=7, dropped=2)
        sanitizer.check_coverage(stats)
        assert sanitizer.counts["coverage"] == 1
        assert not sanitizer.clean

    def test_balanced_accounting_is_clean(self):
        sanitizer = Sanitizer()
        stats = SimulationStats(packets=10, delivered=8, dropped=2)
        sanitizer.check_coverage(stats)
        assert sanitizer.total == 0


class TestSanitizerObject:
    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            Sanitizer().record("not-a-check", "nope")

    def test_detail_limit_bounds_records_not_counts(self):
        sanitizer = Sanitizer()
        for i in range(200):
            sanitizer.record("register-oob", f"trip {i}")
        assert sanitizer.counts["register-oob"] == 200
        assert len(sanitizer.violations) <= 64

    def test_render_and_summary(self):
        sanitizer = Sanitizer()
        sanitizer.record("coverage", "1 packet unaccounted for")
        assert "coverage" in sanitizer.render()
        assert set(sanitizer.summary()) == set(CHECKS)

    def test_violation_render_carries_context(self):
        v = SanitizerViolation("register-oob", "index out of range",
                              switch="s0", qid="q1", count=3)
        text = v.render()
        assert "s0" in text and "q1" in text and "register-oob" in text
