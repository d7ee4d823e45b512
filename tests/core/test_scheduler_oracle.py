"""The stage scheduler against the all-pairs scheduler it replaced.

``reference_schedule`` is the compiler's earlier ``_schedule``, kept
verbatim with its own container derivation: stage by stage, each
unplaced module (in logical order) intersects its read and write
containers with those of every earlier module.  The compiler now derives
each module's stage in one pass from the latest stage that wrote and the
latest that read each container.  Both must place every module in the
same stage, on every library and auxiliary sub-query under every
optimisation mix, and on thousands of seeded random module sequences.
``reference_signatures`` likewise keeps the earlier backward search
behind ``CompiledQuery.hash_signatures``, which is now one forward pass.
"""

import os
import random
import sys
from dataclasses import replace
from itertools import product
from typing import FrozenSet, List, Tuple

import pytest

from repro.core import compiler
from repro.core.compiler import (
    CompilationError,
    Optimizations,
    QueryParams,
    compile_query,
)
from repro.core.library import QueryThresholds, all_queries
from repro.core.query import flatten
from repro.core.rules import HashMode, HConfig, KConfig
from repro.dataplane.hashing import HashFamily
from repro.dataplane.module_types import ModuleType

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.workloads import aux8  # noqa: E402

#: Every on/off mix of Algorithm 1's three optimisations: a superset of
#: ``Optimizations.all()`` / ``none()`` (the ablations) and of the
#: cumulative ``upto(level)`` ladder of Figure 15.
MIXES = [Optimizations(*flags) for flags in product((False, True), repeat=3)]
PARAMS = (
    QueryParams(),
    QueryParams(cm_depth=1, bf_hashes=1),
    QueryParams(cm_depth=4, bf_hashes=5, reduce_registers=512,
                distinct_registers=256),
)
FAMILY = HashFamily()
SEQUENCES = 5000
MAX_LENGTH = 40


# --------------------------------------------------------------------------- #
# The reference: the earlier all-pairs scheduler, verbatim                    #
# --------------------------------------------------------------------------- #

_KEYS, _HASH, _STATE, _GLOBAL = "keys", "hash", "state", "global"


def reference_containers(mod) -> Tuple[FrozenSet, FrozenSet]:
    """(reads, writes) in terms of PHV containers, for dependency checks."""
    sid = mod.set_id
    if mod.mtype is ModuleType.KEY_SELECTION:
        return frozenset(), frozenset({(_KEYS, sid)})
    if mod.mtype is ModuleType.HASH_CALCULATION:
        config = mod.config
        reads = frozenset() if config.mode == HashMode.DIRECT else frozenset(
            {(_KEYS, sid)}
        )
        return reads, frozenset({(_HASH, sid)})
    if mod.mtype is ModuleType.STATE_BANK:
        return frozenset({(_HASH, sid)}), frozenset({(_STATE, sid)})
    # R reads its set's state result and the global result, writes global.
    return (
        frozenset({(_STATE, sid), (_GLOBAL,)}),
        frozenset({(_GLOBAL,)}),
    )


def reference_schedule(mods, compact: bool) -> int:
    """Assign stages; return the stage count.

    ``compact=False`` reproduces the naive composition: one module per
    stage in logical order.
    """
    if not compact:
        for stage, mod in enumerate(mods):
            mod.stage = stage
        return len(mods)

    deps = [reference_containers(mod) for mod in mods]
    unassigned = set(range(len(mods)))
    stage = 0
    while unassigned:
        used_types: set = set()
        placed_now: List[int] = []
        for i in range(len(mods)):
            if i not in unassigned:
                continue
            mod = mods[i]
            if mod.mtype in used_types:
                continue
            reads_i, writes_i = deps[i]
            ok = True
            for j in range(i):
                reads_j, writes_j = deps[j]
                true_dep = writes_j & reads_i
                anti_dep = reads_j & writes_i
                out_dep = writes_j & writes_i
                if not (true_dep or anti_dep or out_dep):
                    continue
                if j in unassigned:
                    ok = False  # ordering not yet realisable
                    break
                sj = mods[j].stage
                if (true_dep or out_dep) and not sj < stage:
                    ok = False
                    break
                if anti_dep and not sj <= stage:
                    ok = False
                    break
            if not ok:
                continue
            # Also respect modules placed in this very stage.
            for j in placed_now:
                if j >= i:
                    continue
                reads_j, writes_j = deps[j]
                if (writes_j & reads_i) or (writes_j & writes_i):
                    ok = False
                    break
            if not ok:
                continue
            mod.stage = stage
            used_types.add(mod.mtype)
            placed_now.append(i)
            unassigned.discard(i)
        stage += 1
        if stage > 4 * len(mods) + 4:  # pragma: no cover - safety net
            raise CompilationError("scheduler failed to converge")
    return max((m.stage for m in mods), default=-1) + 1


def reference_signatures(compiled):
    """The earlier ``CompiledQuery.hash_signatures``: each HASH-mode H
    rule searches back for the latest K rule of its metadata set."""
    signatures = []
    specs = sorted(compiled.specs, key=lambda s: s.step)
    for index, spec in enumerate(specs):
        if spec.module_type is not ModuleType.HASH_CALCULATION:
            continue
        config = spec.config
        if not isinstance(config, HConfig) or config.mode != HashMode.HASH:
            continue
        for prior in reversed(specs[:index]):
            if (prior.module_type is ModuleType.KEY_SELECTION
                    and prior.set_id == spec.set_id
                    and isinstance(prior.config, KConfig)):
                signatures.append((spec.step, (
                    config.seed_index, config.range_size,
                    prior.config.masks,
                )))
                break
    return tuple(signatures)


# --------------------------------------------------------------------------- #
# Inputs                                                                      #
# --------------------------------------------------------------------------- #


def sub_queries():
    """The 22 library sub-queries and the eight auxiliary aggregations."""
    queries = list(all_queries(QueryThresholds()).values()) + aux8()
    return [sub for query in queries for sub in flatten(query)]


def lowered(query, params, opts):
    """The modules ``compile_query`` hands the scheduler, set ids fixed."""
    prims, _ = compiler._lower(query, params, opts, FAMILY)
    return compiler._apply_opt2_and_sets(prims, opts)


def both(mods, compact):
    """``(stages, count)`` from the reference and from the compiler, each
    scheduling its own copies of ``mods``."""
    outcomes = []
    for schedule in (reference_schedule, compiler._schedule):
        copies = [replace(mod, stage=-1) for mod in mods]
        count = schedule(copies, compact)
        outcomes.append(([mod.stage for mod in copies], count))
    return outcomes


CASES = [
    pytest.param(sub, params, opts,
                 id=f"{sub.qid}-p{p}-o{int(opts.opt1_fold_front_filter)}"
                    f"{int(opts.opt2_remove_modules)}"
                    f"{int(opts.opt3_vertical_composition)}")
    for sub in sub_queries()
    for p, params in enumerate(PARAMS)
    for opts in MIXES
]


@pytest.mark.parametrize("sub, params, opts", CASES)
def test_same_stages_on_every_library_and_aux_sub_query(sub, params, opts):
    mods = lowered(sub, params, opts)
    reference, ours = both(mods, opts.opt3_vertical_composition)
    assert ours == reference
    compiled = compile_query(sub, params, opts, hash_family=FAMILY)
    assert [spec.stage for spec in compiled.specs] == reference[0]
    assert compiled.num_stages == reference[1]
    assert compiled.hash_signatures == reference_signatures(compiled)


def module_pool():
    """Every lowered module of the sub-queries under every mix."""
    pool = []
    for sub in sub_queries():
        for opts in MIXES:
            pool.extend(lowered(sub, QueryParams(), opts))
    return pool


def test_same_stages_on_seeded_random_module_sequences():
    pool = module_pool()
    assert {mod.mtype for mod in pool} == set(ModuleType)
    assert {mod.config.mode for mod in pool
            if mod.mtype is ModuleType.HASH_CALCULATION} == {
        HashMode.HASH, HashMode.DIRECT}
    for seed in range(SEQUENCES):
        rng = random.Random(seed)
        mods = [replace(mod, set_id=rng.randrange(2))
                for mod in rng.choices(pool, k=rng.randint(1, MAX_LENGTH))]
        reference, ours = both(mods, compact=True)
        assert ours == reference, f"seed {seed}"


def test_same_signatures_on_seeded_hand_built_artefacts():
    """Artefacts need not come from the compiler (the staging gate builds
    its own): an H rule may precede its set's K, or have none."""
    compiled = [compile_query(sub, QueryParams(), opts, hash_family=FAMILY)
                for sub in sub_queries() for opts in MIXES]
    for seed in range(500):
        rng = random.Random(seed)
        source = rng.choice(compiled)
        specs = [replace(spec, set_id=rng.randrange(2))
                 for spec in source.specs if rng.random() < 0.7]
        rng.shuffle(specs)
        built = replace(source, specs=tuple(
            replace(spec, step=step) for step, spec in enumerate(specs)))
        assert built.hash_signatures == reference_signatures(built), seed


@pytest.mark.parametrize("length", [0, 1, 7, MAX_LENGTH])
def test_naive_composition_is_one_module_per_stage(length):
    mods = module_pool()[:length]
    reference, ours = both(mods, compact=False)
    assert ours == reference == (list(range(length)), length)


def test_an_empty_sequence_takes_no_stage():
    assert both([], compact=True) == [([], 0), ([], 0)]
