"""Anchored == quadratic: the cross-query passes visit (candidate, other)
pairs only, and report exactly what the all-pairs walk reported there.

The all-pairs bodies ``check_hash_seed_collisions`` and
``check_init_shadowing`` had before they were anchored live on here as
reference functions; a hypothesis sweep over subsets of the nine library
queries and aggregation-shaped variants (shared and distinct seed
indices, overlapping and disjoint filters, composite queries, one to
three candidates) holds the anchored output equal to the reference's
candidate-filtered output, order included.

Two count tests — calls, not clocks — hold the cost model: adding
queries that share no hash signature with the one being updated adds no
``ternary_intersects`` call and no signature derivation to its update,
and a slice set staged on many switches is tallied (``demand``) once per
operation, not once per switch.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompiledQuery, QueryParams, compile_query
from repro.core.library import all_queries
from repro.core.query import Query, flatten
from repro.core.rules import HashMode, HConfig, KConfig
from repro.dataplane.module_types import ModuleType
from repro.network.deployment import build_deployment
from repro.network.topology import fat_tree
from repro.verify import verify_queries
from repro.verify import program as verify_program
from repro.verify import sketch as verify_sketch
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.program import init_entries_of
from repro.verify.shadowing import (
    _describe,
    check_init_shadowing,
    ternary_contains,
    ternary_intersects,
)
from repro.verify.sketch import check_hash_seed_collisions

PARAMS = QueryParams(cm_depth=2, reduce_registers=512,
                     distinct_registers=512)


# --------------------------------------------------------------------- #
# The all-pairs walks, as they stood                                     #
# --------------------------------------------------------------------- #

def derive_hash_signatures(comp):
    signatures = []
    specs = sorted(comp.specs, key=lambda s: s.step)
    for index, spec in enumerate(specs):
        if spec.module_type is not ModuleType.HASH_CALCULATION:
            continue
        config = spec.config
        if not isinstance(config, HConfig) or config.mode != HashMode.HASH:
            continue
        masks = None
        for prior in reversed(specs[:index]):
            if (prior.module_type is ModuleType.KEY_SELECTION
                    and prior.set_id == spec.set_id
                    and isinstance(prior.config, KConfig)):
                masks = prior.config.masks
                break
        if masks is None:
            continue
        signatures.append(
            (spec.step, (config.seed_index, config.range_size, masks))
        )
    return signatures


def all_pairs_hash_seed_collisions(compiled):
    out = []
    for i, a in enumerate(compiled):
        for b in compiled[i + 1:]:
            if a.qid == b.qid:
                continue
            overlap = any(
                ternary_intersects(ea.match, eb.match)
                for ea in a.init_entries for eb in b.init_entries
            )
            if not overlap:
                continue
            b_sigs = {sig: step for step, sig in derive_hash_signatures(b)}
            for step, sig in derive_hash_signatures(a):
                other_step = b_sigs.get(sig)
                if other_step is None:
                    continue
                seed, range_size, masks = sig
                keys = ",".join(name for name, _ in masks)
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV304",
                    message=(
                        f"hash rule (step {step}) and query {b.qid!r} "
                        f"(step {other_step}) use the same seed {seed} "
                        f"over the same keys [{keys}] and range "
                        f"{range_size} while their dispatch entries "
                        f"overlap; their sketch errors are correlated — "
                        f"use a different seed_index"
                    ),
                    location=Location(qid=a.qid, step=step),
                ))
    return out


def all_pairs_init_shadowing(entries):
    out = []
    for i, entry in enumerate(entries):
        for j, other in enumerate(entries):
            if i == j:
                continue
            if not ternary_contains(other.match, entry.match):
                continue
            if other.qid == entry.qid:
                if not ternary_contains(entry.match, other.match) or j < i:
                    out.append(Diagnostic(
                        severity=Severity.ERROR,
                        code="NV001",
                        message=(
                            f"newton_init entry {_describe(entry)} is fully "
                            f"shadowed by entry {_describe(other)} of the "
                            f"same query; it can never dispatch a packet"
                        ),
                        location=Location(qid=entry.qid),
                    ))
                    break
            elif other.priority > entry.priority:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV002",
                    message=(
                        f"newton_init entry {_describe(entry)} is fully "
                        f"contained in higher-priority entry "
                        f"{_describe(other)} of query {other.qid!r}; "
                        f"single-match TCAM dispatch would starve "
                        f"{entry.qid!r}"
                    ),
                    location=Location(qid=entry.qid),
                ))
                break
    return out


def all_pairs_then_filter(candidates, context):
    """What ``verify_queries`` did: walk candidates + context jointly,
    keep the findings located at a candidate."""
    qids = {comp.qid for comp in candidates}
    everything = list(candidates) + [
        comp for comp in context if comp.qid not in qids
    ]
    shadowing = all_pairs_init_shadowing(init_entries_of(everything))
    collisions = all_pairs_hash_seed_collisions(everything)
    return (
        [d for d in shadowing if d.location.qid in qids],
        [d for d in collisions if d.location.qid in qids],
    )


# --------------------------------------------------------------------- #
# The pool the sweep draws from                                          #
# --------------------------------------------------------------------- #

def reseeded(comp: CompiledQuery, offset: int) -> CompiledQuery:
    """``comp`` on its own hash algorithms: every seed index shifted."""
    return replace(comp, specs=tuple(
        replace(spec, config=replace(
            spec.config, seed_index=spec.config.seed_index + offset))
        if isinstance(spec.config, HConfig) else spec
        for spec in comp.specs
    ))


def prioritised(comp: CompiledQuery, priority: int) -> CompiledQuery:
    return replace(comp, init_entries=tuple(
        replace(entry, priority=priority) for entry in comp.init_entries
    ))


def aggregations():
    """Aggregation shapes over overlapping (none / TCP / TCP+SYN) and
    disjoint (UDP, one service port) slices of the traffic."""
    scopes = {
        "all": {}, "tcp": {"proto": 6}, "syn": {"proto": 6, "tcp_flags": 2},
        "udp": {"proto": 17}, "dns": {"proto": 17, "sport": 53},
    }
    for scope, eq in scopes.items():
        def scoped(qid):
            query = Query(qid)
            return query.filter(**eq) if eq else query
        yield (scoped(f"v.{scope}.dstbytes").map("dip")
               .reduce("dip", func="sum").where(ge=1000))
        yield (scoped(f"v.{scope}.dstcount").map("dip")
               .reduce("dip").where(ge=10))
        yield (scoped(f"v.{scope}.fan").map("dip", "sport")
               .distinct("dip", "sport").map("dip").reduce("dip")
               .where(ge=6))


def build_pool():
    """qid -> the variants one draw may pick one of."""
    plain = [
        compile_query(sub, PARAMS)
        for query in all_queries().values() for sub in flatten(query)
    ] + [compile_query(query, PARAMS) for query in aggregations()]
    return {
        comp.qid: (comp, reseeded(comp, 100), prioritised(comp, 5),
                   prioritised(reseeded(comp, 100), 5))
        for comp in plain
    }


POOL = build_pool()
QIDS = sorted(POOL)

#: A draw: which qids take part (and as which variant), in what order,
#: and how many of the first are candidates.
draws = st.tuples(
    st.lists(st.sampled_from([None, 0, 1, 2, 3]),
             min_size=len(QIDS), max_size=len(QIDS)),
    st.permutations(range(len(QIDS))),
    st.integers(1, 3),
)


def chosen(draw):
    variants, order, n_candidates = draw
    picked = [
        POOL[QIDS[index]][variants[index]]
        for index in order if variants[index] is not None
    ]
    return picked[:n_candidates], picked[n_candidates:]


class TestAnchoredEqualsAllPairs:
    def test_pool_covers_the_cases_that_matter(self):
        composite = [q for q in all_queries().values()
                     if len(flatten(q)) > 1]
        assert composite, "no composite query in the library"
        everything = [variants[0] for variants in POOL.values()]
        assert all_pairs_hash_seed_collisions(everything)
        assert all_pairs_init_shadowing(init_entries_of(
            [POOL["v.all.dstbytes"][2], POOL["v.tcp.dstbytes"][0]]
        ))
        # Shared seeds collide, reseeded variants do not.
        a, b = POOL["v.all.dstbytes"][0], POOL["v.tcp.dstbytes"]
        assert a.signature_steps.keys() & b[0].signature_steps.keys()
        assert not a.signature_steps.keys() & b[1].signature_steps.keys()

    @given(draws)
    @settings(max_examples=200, deadline=None)
    def test_each_pass_reports_what_the_joint_walk_reported(self, draw):
        candidates, context = chosen(draw)
        if not candidates:
            return
        shadowing, collisions = all_pairs_then_filter(candidates, context)
        assert check_init_shadowing(
            init_entries_of(candidates), init_entries_of(context)
        ) == shadowing
        assert check_hash_seed_collisions(candidates, context) == collisions

    @given(draws)
    @settings(max_examples=60, deadline=None)
    def test_verify_queries_reports_them_in_that_order(self, draw):
        candidates, context = chosen(draw)
        if not candidates:
            return
        shadowing, collisions = all_pairs_then_filter(candidates, context)
        found = [
            d for d in verify_queries(candidates, context=context).diagnostics
            if d.code in ("NV001", "NV002", "NV304")
        ]
        assert found == shadowing + collisions

    def test_cached_signatures_are_the_derived_ones(self):
        for variants in POOL.values():
            for comp in variants:
                assert list(comp.hash_signatures) == \
                    derive_hash_signatures(comp)


# --------------------------------------------------------------------- #
# Counts                                                                 #
# --------------------------------------------------------------------- #

class Calls:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def dstbytes(threshold):
    return (Query("t.dstbytes").map("dip")
            .reduce("dip", func="sum").where(ge=threshold))


def counted_update(monkeypatch, deployment, threshold):
    """``(ternary_intersects calls, signature derivations, demand
    calls)`` of one ``update_query`` of ``t.dstbytes``."""
    intersects = Calls(ternary_intersects)
    derive = Calls(CompiledQuery.hash_signatures.func)
    tally = Calls(verify_program.demand)
    monkeypatch.setattr(verify_sketch, "ternary_intersects", intersects)
    monkeypatch.setattr(CompiledQuery.hash_signatures, "func", derive)
    monkeypatch.setattr(verify_program, "demand", tally)
    deployment.controller.update_query(
        dstbytes(threshold), PARAMS, topology=deployment.topology
    )
    monkeypatch.undo()
    return intersects.calls, derive.calls, tally.calls


class TestAnUpdateCostsWhatItTouches:
    def fleet(self):
        deployment = build_deployment(
            fat_tree(4), num_stages=12, table_capacity=512,
            array_size=1 << 16,
        )
        controller = deployment.controller
        where = {"topology": deployment.topology}
        controller.install_query(dstbytes(1000), PARAMS, **where)
        # Neighbours that do collide with it: same key, same range.
        for query in list(aggregations())[:3]:
            controller.install_query(query, PARAMS, **where)
        return deployment

    def test_unrelated_queries_add_no_probe_to_an_update(self, monkeypatch):
        deployment = self.fleet()
        controller = deployment.controller
        before = counted_update(monkeypatch, deployment, 2000)
        assert before[0] > 0, "the fleet exercises no dispatch test"
        assert before[1] == 1, "only the new artefact derives signatures"

        # Eight queries on their own sketch widths: no signature shared.
        wide = QueryParams(cm_depth=2, reduce_registers=1024,
                           distinct_registers=1024)
        unrelated = [
            query for query in aggregations()
            if query.qid.split(".")[1] in ("udp", "dns", "syn")
        ][:8]
        assert len(unrelated) == 8
        target = controller.installed["t.dstbytes"].compiled["t.dstbytes"]
        for query in unrelated:
            controller.install_query(query, wide,
                                     topology=deployment.topology)
            other = controller.installed[query.qid].compiled[query.qid]
            assert target.signature_steps.keys().isdisjoint(
                other.signature_steps)

        after = counted_update(monkeypatch, deployment, 3000)
        assert after[:2] == before[:2]

    def test_a_slice_set_is_tallied_once_per_gate(self, monkeypatch):
        deployment = self.fleet()
        _, _, tallies = counted_update(monkeypatch, deployment, 2000)
        record = deployment.controller.installed["t.dstbytes"]
        hosted = {tuple(entries) for entries in record.by_switch.values()}
        assert len(record.by_switch) >= 8, "placement is not redundant"
        # Once per distinct slice set, shared by the controller's gate
        # and the staging gate — not once per switch, nor per gate.
        assert tallies == len(hosted)
