"""Query compiler: primitives → module rules (paper §4.1, §4.3).

Compilation runs in three phases:

1. **Lowering** — each primitive becomes one or more *module suites*
   (K/H/S/R configurations).  Stateful primitives expand into one suite per
   sketch row: Count-Min rows for ``reduce``, Bloom-filter hash functions
   for ``distinct`` (Figure 3's "several module suites").
2. **Algorithm 1** — the paper's module-composition optimisations:

   * *Opt.1* folds a leading five-tuple/TCP-flag filter into the query's
     ``newton_init`` dispatch entry;
   * *Opt.2* removes unused modules (e.g. ``map`` keeps only K) and
     redundant K modules whose selection equals the live one;
   * *Opt.3* alternates the two metadata sets between contiguous
     primitives so their modules can pack *vertically* into shared stages.

3. **Stage scheduling** — a greedy list scheduler places modules into
   stages under container-level dependency constraints (the machine-checked
   version of Figure 4): a true dependency forces a strictly later stage, an
   anti-dependency forbids an earlier one, and each stage offers one slot
   per module type (the compact layout).

Without Opt.3 the schedule degenerates to one module per stage — exactly
the naive composition used as the baseline in Table 3 and Figure 15.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.ast import (
    CmpOp,
    Distinct,
    FieldPredicate,
    Filter,
    KeyExpr,
    Map,
    Primitive,
    Reduce,
    ResultFilter,
)
from repro.core.fields import GLOBAL_FIELDS
from repro.core.query import Query
from repro.core.rules import (
    ALL_STATE_RESULTS,
    HashMode,
    HConfig,
    KConfig,
    MatchSource,
    ModuleRuleSpec,
    NewtonInitEntry,
    QuerySlice,
    RAction,
    RConfig,
    RMatchEntry,
    SConfig,
    OperandSource,
)
from repro.dataplane.alu import ResultOp, StatefulOp
from repro.dataplane.hashing import HashFamily
from repro.dataplane.module_types import MODULE_ORDER, ModuleType

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.readout import ProbeRow

__all__ = [
    "QueryParams",
    "Optimizations",
    "CompiledQuery",
    "compile_query",
    "refine_query",
    "slice_compiled",
    "CompilationError",
]

#: R-match range for "hash equals this constant" filter entries.
_FILTER_HASH_RANGE = 1 << 32

#: Largest per-packet increment of a byte-sum reduce (the link MTU).
_MTU = 1500

#: Module types by local name: ``ModuleType.X`` is an ``Enum`` class
#: attribute, an order of magnitude slower to look up than a global.
_K, _H, _S, _R = MODULE_ORDER


class CompilationError(ValueError):
    """Raised when a query cannot be lowered to the data plane."""


@dataclass(frozen=True)
class QueryParams:
    """Per-query sketch and sizing parameters.

    Defaults mirror the paper's Table 3 amortisation (``reduce`` spans two
    suites, ``distinct`` three); the CQE experiments override row counts
    and register sizes.
    """

    cm_depth: int = 2
    bf_hashes: int = 3
    reduce_registers: int = 4096
    distinct_registers: int = 4096

    def __post_init__(self) -> None:
        if self.cm_depth < 1 or self.bf_hashes < 1:
            raise ValueError("sketch row counts must be >= 1")
        if self.reduce_registers < 1 or self.distinct_registers < 1:
            raise ValueError("register slice sizes must be >= 1")


@dataclass(frozen=True)
class Optimizations:
    """Which of Algorithm 1's optimisations to apply."""

    opt1_fold_front_filter: bool = True
    opt2_remove_modules: bool = True
    opt3_vertical_composition: bool = True

    @staticmethod
    def none() -> "Optimizations":
        return Optimizations(False, False, False)

    @staticmethod
    def all() -> "Optimizations":
        return Optimizations(True, True, True)

    @staticmethod
    def upto(level: int) -> "Optimizations":
        """Cumulative levels used by Figure 15: 0=baseline … 3=+Opt.3."""
        return Optimizations(level >= 1, level >= 2, level >= 3)


# --------------------------------------------------------------------------- #
# Lowered representation                                                      #
# --------------------------------------------------------------------------- #


@dataclass
class _Mod:
    """One lowered module before placement."""

    mtype: ModuleType
    config: object
    primitive_index: int
    suite_index: int
    essential: bool = True
    set_id: int = 0
    stage: int = -1


#: Field -> mask pairs of one K selection, sorted by field.
KeyMasks = Tuple[Tuple[str, int], ...]


@dataclass
class _Suite:
    modules: List[_Mod]
    #: K masks of this suite (None for R-only suites).
    key_masks: Optional[KeyMasks]


@dataclass
class _LoweredPrimitive:
    primitive: Primitive
    index: int
    suites: List[_Suite]
    #: Opt.1 absorbed this primitive into newton_init.
    absorbed: bool = False


#: What decides a HASH rule's sketch index: ``(seed_index, range_size,
#: key masks)``.
HashSignature = Tuple[int, int, Tuple[Tuple[str, int], ...]]


@dataclass(frozen=True)
class CompiledQuery:
    """Result of compiling one query for the data plane."""

    qid: str
    specs: Tuple[ModuleRuleSpec, ...]
    init_entries: Tuple[NewtonInitEntry, ...]
    num_stages: int
    num_primitives: int
    params: QueryParams
    optimizations: Optimizations
    absorbed_front_filter: bool = False

    @property
    def num_modules(self) -> int:
        return len(self.specs)

    @property
    def rule_count(self) -> int:
        """Total table entries (module rules + newton_init entries)."""
        return len(self.specs) + len(self.init_entries)

    @property
    def register_demand(self) -> int:
        """Registers leased across all state-bank rules."""
        total = 0
        for spec in self.specs:
            if spec.module_type is _S:
                config = spec.config
                if isinstance(config, SConfig) and not config.passthrough:
                    total += config.slice_size
        return total

    @cached_property
    def hash_signatures(self) -> Tuple[Tuple[int, HashSignature], ...]:
        """``(step, (seed, range, key masks))`` of every HASH-mode H rule.

        The key masks come from the most recent K rule of the same
        metadata set, mirroring the dataplane's read path.  Two queries
        with a signature in common index their sketches identically
        (NV304).  Derived once per artefact: a resident query is probed
        by every later install and update.
        """
        signatures = []
        keys: Dict[int, KConfig] = {}  # set id -> its latest K selection
        for spec in sorted(self.specs, key=lambda s: s.step):
            config = spec.config
            if spec.module_type is _K and isinstance(config, KConfig):
                keys[spec.set_id] = config
            elif (spec.module_type is _H and isinstance(config, HConfig)
                    and config.mode == HashMode.HASH
                    and spec.set_id in keys):
                signatures.append((spec.step, (
                    config.seed_index, config.range_size,
                    keys[spec.set_id].masks,
                )))
        return tuple(signatures)

    @cached_property
    def signature_steps(self) -> Dict[HashSignature, int]:
        """:attr:`hash_signatures` as a probe: signature -> (last) step."""
        return {sig: step for step, sig in self.hash_signatures}

    @cached_property
    def probe_rows(self) -> Tuple[ProbeRow, ...]:
        """:func:`~repro.core.readout.reduce_probe_rows` of this artefact,
        derived once: the register readout asks at every window close."""
        from repro.core.readout import reduce_probe_rows

        return tuple(reduce_probe_rows(self))


# --------------------------------------------------------------------------- #
# Phase 1: lowering                                                           #
# --------------------------------------------------------------------------- #


def _continue_if(value_ranges: Sequence[Tuple[int, int]]) -> RConfig:
    """R config: continue when the state result falls in any range."""
    entries = tuple(
        RMatchEntry(lo=lo, hi=hi, action=RAction()) for lo, hi in value_ranges
    )
    return RConfig(
        source=MatchSource.STATE, entries=entries, default=RAction(stop=True)
    )


def _fold(op: ResultOp) -> RConfig:
    """R config of a sketch row: fold the state result into the global."""
    return RConfig(source=MatchSource.STATE, entries=(),
                   default=RAction(result_op=op))


# The configs are frozen, so suites share the ones that never vary.
#: The modules Opt.2 removes as unused (map's H/S/R, a threshold's K/H/S).
_PAD_K, _PAD_H, _PAD_R = KConfig(masks=()), HConfig(), RConfig()
#: S handing the hash result on as the state result (Figure 3's filter).
_PASSTHROUGH = SConfig(passthrough=True)
#: R of a sketch's first row and of every later one (min over rows).
_FIRST_ROW, _LATER_ROW = _fold(ResultOp.PASS), _fold(ResultOp.MIN)
#: R of a single-row Bloom filter: the old bit alone decides membership.
_FIRST_SEEN = _continue_if([(0, 0)])
#: Finalizer R of a Bloom filter: key is new iff min over the old bits is 0.
_BLOOM_FINALIZER = RConfig(
    source=MatchSource.GLOBAL,
    entries=(RMatchEntry(0, 0, RAction()),),
    default=RAction(stop=True),
)


def _suite(index: int, row: int, key_masks: Optional[KeyMasks], k: object,
           h: object, s: object, r: object,
           padding: Tuple[ModuleType, ...] = ()) -> _Suite:
    """The K/H/S/R suite ``row`` of primitive ``index``; ``padding`` names
    the modules Opt.2 removes as unused."""
    return _Suite(
        modules=[
            _Mod(_K, k, index, row, _K not in padding),
            _Mod(_H, h, index, row, _H not in padding),
            _Mod(_S, s, index, row, _S not in padding),
            _Mod(_R, r, index, row, _R not in padding),
        ],
        key_masks=key_masks,
    )


def _r_only(index: int, row: int, r: RConfig) -> _Suite:
    """A suite of one R module on the global result (a threshold gate or
    a Bloom finalizer)."""
    return _Suite(modules=[_Mod(_R, r, index, row)], key_masks=None)


def _sorted_masks(prim: Primitive) -> KeyMasks:
    return tuple(sorted(prim.key_masks().items()))


def _lower_filter(prim: Filter, index: int, seed_alloc,
                  hash_family: HashFamily) -> List[_Suite]:
    """A packet filter: equality group via the hash trick, ranges direct."""
    suites: List[_Suite] = []
    eq_preds = [p for p in prim.predicates if p.op in (CmpOp.EQ, CmpOp.MASK_EQ)]
    range_preds = [p for p in prim.predicates if p not in eq_preds]

    if eq_preds:
        masks: Dict[str, int] = {}
        values: Dict[str, int] = {}
        for pred in eq_preds:
            value, mask = (
                pred.to_init_match()
                if pred.init_foldable
                else (pred.value, pred.mask or _field_mask(pred.field))
            )
            masks[pred.field] = masks.get(pred.field, 0) | mask
            values[pred.field] = values.get(pred.field, 0) | (value & mask)
        key_masks = tuple(sorted(masks.items()))
        if len(eq_preds) == 1 and eq_preds[0].op is CmpOp.EQ:
            # Single equality: direct mode, match the field value (Figure 3).
            pred = eq_preds[0]
            hconf = HConfig(mode=HashMode.DIRECT, direct_field=pred.field)
            rconf = _continue_if([(pred.value, pred.value)])
        else:
            # Multi-field / masked equality: hash the masked keys and match
            # the hash of the constant selection computed by the controller.
            seed = seed_alloc()
            hconf = HConfig(
                mode=HashMode.HASH, seed_index=seed, range_size=_FILTER_HASH_RANGE
            )
            expected_key = GLOBAL_FIELDS.pack(values, masks)
            expected = hash_family.unit(seed, _FILTER_HASH_RANGE)(expected_key)
            rconf = _continue_if([(expected, expected)])
        suites.append(_suite(index, 0, key_masks, KConfig(masks=key_masks),
                             hconf, _PASSTHROUGH, rconf))

    for pred in range_preds:
        max_value = _field_mask(pred.field)
        key_masks = ((pred.field, max_value),)
        suites.append(_suite(
            index, len(suites), key_masks, KConfig(masks=key_masks),
            HConfig(mode=HashMode.DIRECT, direct_field=pred.field),
            _PASSTHROUGH, _continue_if(_ranges_for(pred, max_value)),
        ))
    if not suites:
        raise CompilationError(f"filter {prim.describe()} lowered to nothing")
    return suites


def _field_mask(name: str) -> int:
    return GLOBAL_FIELDS.get(name).max_value


def _ranges_for(pred: FieldPredicate, max_value: int) -> List[Tuple[int, int]]:
    """Value ranges over which a range predicate holds."""
    if pred.op is CmpOp.GT:
        return [(pred.value + 1, max_value)]
    if pred.op is CmpOp.GE:
        return [(pred.value, max_value)]
    if pred.op is CmpOp.LT:
        return [(0, pred.value - 1)] if pred.value > 0 else []
    if pred.op is CmpOp.LE:
        return [(0, pred.value)]
    if pred.op is CmpOp.NE:
        out = []
        if pred.value > 0:
            out.append((0, pred.value - 1))
        if pred.value < max_value:
            out.append((pred.value + 1, max_value))
        return out
    raise CompilationError(f"unsupported range predicate {pred.describe()}")


def _lower_map(prim: Map, index: int) -> List[_Suite]:
    """map: only K is essential; H/S/R are the padding Opt.2 removes."""
    key_masks = _sorted_masks(prim)
    return [_suite(index, 0, key_masks, KConfig(masks=key_masks), _PAD_H,
                   _PASSTHROUGH, _PAD_R, padding=(_H, _S, _R))]


def _lower_sketch(prim, index: int, rows: int, seed_alloc, stateful: SConfig,
                  first: RConfig, later: RConfig) -> List[_Suite]:
    """Shared shape of reduce/distinct: one suite per sketch row + folds.

    Every row leases ``stateful.slice_size`` registers, which is also its
    hash range.
    """
    key_masks = _sorted_masks(prim)
    kconf = KConfig(masks=key_masks)
    registers = stateful.slice_size
    return [
        _suite(index, row, key_masks, kconf,
               HConfig(seed_index=seed_alloc(), range_size=registers),
               stateful, later if row else first)
        for row in range(rows)
    ]


def _lower_distinct(prim: Distinct, index: int, params: QueryParams,
                    seed_alloc) -> List[_Suite]:
    """distinct: Bloom filter; pass only first-seen keys per window."""
    stateful = SConfig(op=StatefulOp.OR, operand_source=OperandSource.CONST,
                       operand_const=1, output_old=True,
                       slice_size=params.distinct_registers)
    if params.bf_hashes == 1:
        return _lower_sketch(prim, index, 1, seed_alloc, stateful,
                             _FIRST_SEEN, _FIRST_SEEN)
    suites = _lower_sketch(prim, index, params.bf_hashes, seed_alloc,
                           stateful, _FIRST_ROW, _LATER_ROW)
    suites.append(_r_only(index, params.bf_hashes, _BLOOM_FINALIZER))
    return suites


def _lower_reduce(prim: Reduce, index: int, params: QueryParams,
                  seed_alloc) -> List[_Suite]:
    """reduce: Count-Min sketch; the global result carries min-over-rows."""
    if prim.operand_field is not None:
        stateful = SConfig(op=StatefulOp.ADD,
                           operand_source=OperandSource.FIELD,
                           operand_field=prim.operand_field,
                           slice_size=params.reduce_registers)
    else:
        stateful = SConfig(op=StatefulOp.ADD,
                           operand_source=OperandSource.CONST, operand_const=1,
                           slice_size=params.reduce_registers)
    return _lower_sketch(prim, index, params.cm_depth, seed_alloc, stateful,
                         _FIRST_ROW, _LATER_ROW)


def _lower_result_filter(prim: ResultFilter, index: int) -> List[_Suite]:
    """Threshold on the global result with exact-crossing reporting.

    The report fires exactly when the running count *reaches* the
    threshold, so each offending key is exported once per window — the
    accurate, low-overhead exportation behind Figure 12.
    """
    crossing = prim.crossing_value
    entries: List[RMatchEntry] = [
        RMatchEntry(crossing, crossing, RAction(report=True))
    ]
    if prim.op in (CmpOp.GE, CmpOp.GT) and crossing < ALL_STATE_RESULTS[1]:
        # Post-crossing packets still satisfy the predicate: keep them
        # flowing (without re-reporting) for any downstream primitive.
        entries.append(
            RMatchEntry(crossing + 1, ALL_STATE_RESULTS[1], RAction())
        )
    rconf = RConfig(
        source=MatchSource.GLOBAL,
        entries=tuple(entries),
        default=RAction(stop=True),
    )
    return [_suite(index, 0, None, _PAD_K, _PAD_H, _PASSTHROUGH, rconf,
                   padding=(_K, _H, _S))]


def _lower_sum_result_filter(prim: ResultFilter, index: int,
                             key_masks: KeyMasks,
                             registers: int, seed_alloc) -> List[_Suite]:
    """Threshold on a byte-sum reduce.

    A byte counter advances by up to the MTU per packet, so it can jump
    straight over any single crossing value — exact-crossing matching
    would never fire.  Instead the gate suite passes packets whose running
    sum satisfies the predicate, and a *flag suite* (a test-and-set Bloom
    bit over the same keys) reports only the first such packet per key per
    window.  Both pieces are plain K/H/S/R rules.
    """
    crossing = prim.crossing_value
    if prim.op is CmpOp.EQ:
        gate_ranges = [(crossing, min(crossing + _MTU - 1,
                                      ALL_STATE_RESULTS[1]))]
    else:
        gate_ranges = [(crossing, ALL_STATE_RESULTS[1])]
    gate = RConfig(
        source=MatchSource.GLOBAL,
        entries=tuple(
            RMatchEntry(lo, hi, RAction()) for lo, hi in gate_ranges
        ),
        default=RAction(stop=True),
    )
    flag_r = RConfig(
        source=MatchSource.STATE,
        entries=(RMatchEntry(0, 0, RAction(report=True)),),
        default=RAction(),  # already reported this window: pass silently
    )
    flag_s = SConfig(op=StatefulOp.OR, operand_source=OperandSource.CONST,
                     operand_const=1, output_old=True, slice_size=registers)
    return [
        _r_only(index, 0, gate),
        _suite(index, 1, key_masks, KConfig(masks=key_masks),
               HConfig(seed_index=seed_alloc(), range_size=registers),
               flag_s, flag_r),
    ]


def _lower(query: Query, params: QueryParams, opts: Optimizations,
           hash_family: HashFamily) -> Tuple[List[_LoweredPrimitive], Dict]:
    """Lower all primitives; apply Opt.1 to the leading filter."""
    query.validate()
    seed_counter = [0]

    def seed_alloc() -> int:
        seed_counter[0] += 1
        return seed_counter[0]

    lowered: List[_LoweredPrimitive] = []
    init_match: Dict[str, Tuple[int, int]] = {}
    for index, prim in enumerate(query.primitives):
        if (
            opts.opt1_fold_front_filter
            and index == 0
            and isinstance(prim, Filter)
            and any(p.init_foldable for p in prim.predicates)
        ):
            foldable = [p for p in prim.predicates if p.init_foldable]
            residue = [p for p in prim.predicates if not p.init_foldable]
            if len({p.field for p in foldable}) == len(foldable):
                for pred in foldable:
                    init_match[pred.field] = pred.to_init_match()
                suites = (
                    _lower_filter(Filter(tuple(residue)), index, seed_alloc,
                                  hash_family)
                    if residue else []
                )
                lowered.append(
                    _LoweredPrimitive(primitive=prim, index=index,
                                      suites=suites, absorbed=not residue)
                )
                continue
        if isinstance(prim, Filter):
            suites = _lower_filter(prim, index, seed_alloc, hash_family)
        elif isinstance(prim, Map):
            suites = _lower_map(prim, index)
        elif isinstance(prim, Distinct):
            suites = _lower_distinct(prim, index, params, seed_alloc)
        elif isinstance(prim, Reduce):
            suites = _lower_reduce(prim, index, params, seed_alloc)
        elif isinstance(prim, ResultFilter):
            last_reduce = next(
                (p for p in reversed(query.primitives[:index])
                 if isinstance(p, Reduce)), None
            )
            if last_reduce is not None and last_reduce.operand_field is not None:
                suites = _lower_sum_result_filter(
                    prim, index,
                    key_masks=_sorted_masks(last_reduce),
                    registers=params.reduce_registers,
                    seed_alloc=seed_alloc,
                )
            else:
                suites = _lower_result_filter(prim, index)
        else:
            raise CompilationError(
                f"primitive {type(prim).__name__} is beyond the data plane; "
                f"run it on the software analyzer"
            )
        lowered.append(_LoweredPrimitive(primitive=prim, index=index,
                                         suites=suites))
    return lowered, init_match


# --------------------------------------------------------------------------- #
# Phase 2: Opt.2 + Opt.3 (module removal and set assignment)                  #
# --------------------------------------------------------------------------- #


def _apply_opt2_and_sets(lowered: List[_LoweredPrimitive],
                         opts: Optimizations) -> List[_Mod]:
    """Algorithm 1 lines 1–24: prune modules, assign metadata sets.

    Returns the surviving modules in logical order with ``set_id`` fixed.
    """
    theta: Dict[int, Optional[KeyMasks]] = {0: None, 1: None}
    prev_set = 1  # first key-bearing primitive lands in set 0
    surviving: List[_Mod] = []
    remove = opts.opt2_remove_modules

    for lp in lowered:
        if lp.absorbed:
            continue
        key_masks = next(
            (s.key_masks for s in lp.suites if s.key_masks is not None), None
        )
        if key_masks is None:
            # R-only primitive (threshold / finalizer): reads the global
            # result, so any set works; stay with the current one.
            set_id = prev_set
        elif not opts.opt3_vertical_composition:
            set_id = 0
        elif remove and theta[0] == key_masks:
            set_id = 0  # reuse set 0's live selection, K becomes redundant
        elif remove and theta[1] == key_masks:
            set_id = 1
        else:
            set_id = 1 - prev_set  # alternate sets (vertical composition)

        for suite in lp.suites:
            for mod in suite.modules:
                mod.set_id = set_id
                if remove:
                    if not mod.essential:
                        continue  # unused module (Opt.2, first kind)
                    if mod.mtype is _K:
                        if suite.key_masks == theta[set_id]:
                            continue  # redundant K (Opt.2, second kind)
                        theta[set_id] = suite.key_masks
                elif mod.mtype is _K and suite.key_masks is not None:
                    theta[set_id] = suite.key_masks
                surviving.append(mod)
        prev_set = set_id
    return surviving


# --------------------------------------------------------------------------- #
# Phase 3: stage scheduling                                                   #
# --------------------------------------------------------------------------- #

_KEYS, _HASH, _STATE, _GLOBAL = "keys", "hash", "state", "global"

#: A PHV container: ``(kind, set id)``, or ``(_GLOBAL,)`` for the one
#: global result.
Container = Tuple


def _containers(mod: _Mod) -> Tuple[Tuple[Container, ...],
                                    Tuple[Container, ...]]:
    """(reads, writes) in terms of PHV containers, for dependency checks."""
    sid, mtype = mod.set_id, mod.mtype
    if mtype is _K:
        return (), ((_KEYS, sid),)
    if mtype is _H:
        config: HConfig = mod.config  # type: ignore[assignment]
        reads = () if config.mode == HashMode.DIRECT else ((_KEYS, sid),)
        return reads, ((_HASH, sid),)
    if mtype is _S:
        return ((_HASH, sid),), ((_STATE, sid),)
    # R reads its set's state result and the global result, writes global.
    return ((_STATE, sid), (_GLOBAL,)), ((_GLOBAL,),)


def _schedule(mods: List[_Mod], compact: bool) -> int:
    """Assign stages; return the stage count.

    A greedy list schedule in logical order: each module takes the first
    stage its dependencies on earlier modules allow whose slot of its
    type is still free.  A true or output dependency puts it after every
    earlier writer of a container it reads or writes, and an
    anti-dependency no earlier than every earlier reader of a container
    it writes.  So one pass keeps two numbers per container, the latest
    stage that wrote it and the latest that read it, and a module costs
    a few lookups instead of a comparison with every earlier module.

    ``compact=False`` reproduces the naive composition: one module per
    stage in logical order.
    """
    if not compact:
        for stage, mod in enumerate(mods):
            mod.stage = stage
        return len(mods)

    written: Dict[Container, int] = {}
    read: Dict[Container, int] = {}
    taken: Dict[ModuleType, set] = {mtype: set() for mtype in MODULE_ORDER}
    count = 0
    for mod in mods:
        reads, writes = _containers(mod)
        stage = 0
        for container in reads:  # true dependencies
            last = written.get(container, -1)
            if last >= stage:
                stage = last + 1
        for container in writes:  # output and anti-dependencies
            last = written.get(container, -1)
            if last >= stage:
                stage = last + 1
            last = read.get(container, 0)
            if last > stage:
                stage = last
        slots = taken[mod.mtype]
        while stage in slots:
            stage += 1
        slots.add(stage)
        mod.stage = stage
        if stage >= count:
            count = stage + 1
        for container in writes:
            written[container] = stage
        for container in reads:
            if read.get(container, 0) < stage:
                read[container] = stage
    return count


# --------------------------------------------------------------------------- #
# Entry points                                                                #
# --------------------------------------------------------------------------- #


def compile_query(
    query: Query,
    params: QueryParams = QueryParams(),
    opts: Optimizations = Optimizations.all(),
    hash_family: Optional[HashFamily] = None,
    self_check: Optional[bool] = None,
) -> CompiledQuery:
    """Compile one query into placed module rules + its dispatch entry.

    ``self_check=True`` (or the ``REPRO_COMPILER_SELFCHECK`` environment
    variable) re-validates the emitted schedule with the static verifier's
    dependency pass — an independent re-derivation of Figure 4's
    constraints — and raises :class:`CompilationError` if the scheduler
    ever violates them.
    """
    family = hash_family or HashFamily()
    lowered, init_match = _lower(query, params, opts, family)
    mods = _apply_opt2_and_sets(lowered, opts)
    if not mods:
        raise CompilationError(
            f"query {query.qid!r} compiled to zero modules; a dispatch-only "
            f"query expresses no intent"
        )
    num_stages = _schedule(mods, compact=opts.opt3_vertical_composition)
    qid = query.qid
    # Positional, in field order: keywords cost a quarter of the emission.
    specs = tuple([
        ModuleRuleSpec(qid, step, mod.mtype, mod.set_id, mod.stage,
                       mod.config, mod.suite_index, mod.primitive_index)
        for step, mod in enumerate(mods)
    ])
    init_entry = NewtonInitEntry.build(qid, init_match, priority=0)
    compiled = CompiledQuery(
        qid=qid,
        specs=specs,
        init_entries=(init_entry,),
        num_stages=num_stages,
        num_primitives=query.num_primitives,
        params=params,
        optimizations=opts,
        absorbed_front_filter=any(lp.absorbed for lp in lowered),
    )
    if self_check is None:
        self_check = bool(os.environ.get("REPRO_COMPILER_SELFCHECK"))
    if self_check:
        # Late import: repro.verify consumes this module's artifacts.
        from repro.verify.dependencies import check_dependencies

        violations = check_dependencies(compiled)
        if violations:
            raise CompilationError(
                f"scheduler post-condition failed for {query.qid!r}: "
                + "; ".join(d.render() for d in violations)
            )
    return compiled


def slice_compiled(compiled: CompiledQuery,
                   stages_per_switch: int) -> List[QuerySlice]:
    """Partition a compiled query into per-switch slices (CQE, §5.1).

    A query needing ``T`` stages on ``N``-stage switches yields
    ``M = ceil(T/N)`` slices; slice ``d`` owns global stages
    ``[d*N, (d+1)*N)``.  Only slice 0 carries the dispatch entries.
    """
    if stages_per_switch <= 0:
        raise ValueError("stages_per_switch must be positive")
    total = max(1, math.ceil(compiled.num_stages / stages_per_switch))
    slices = []
    for d in range(total):
        base = d * stages_per_switch
        specs = tuple(
            s for s in compiled.specs
            if base <= s.stage < base + stages_per_switch
        )
        slices.append(
            QuerySlice(
                qid=compiled.qid,
                slice_index=d,
                total_slices=total,
                stage_base=base,
                num_stages=stages_per_switch,
                specs=specs,
                init_entries=compiled.init_entries if d == 0 else (),
            )
        )
    return slices


def refine_query(
    query: Query,
    field: str,
    mask: Optional[int],
    *,
    qid: Optional[str] = None,
    scope: Optional[Tuple[int, int]] = None,
) -> Query:
    """Rebuild a query at a different key granularity (refinement ladder).

    Every ``map``/``distinct``/``reduce`` key on ``field`` is re-masked to
    ``mask`` (``None`` = the full field width), so the same intent can be
    compiled coarse first and progressively sharpened.  ``scope``, a
    ``(prefix, prefix_mask)`` pair, additionally restricts the query to
    one coarse bucket — the planner's "zoom into a hot key" step: the
    predicate ``field & prefix_mask == prefix`` joins the query's leading
    filter (or becomes one), keeping it ``newton_init``-foldable where the
    original filter was.

    The input query is never mutated; the rebuilt query keeps its qid
    unless ``qid`` overrides it (refinement children need fresh ids).
    """
    if not isinstance(query, Query):
        raise CompilationError(
            "refinement requires a single-pipeline query; flatten "
            "composites and refine each pipeline separately"
        )

    def remask(keys: Tuple[KeyExpr, ...]) -> Tuple[KeyExpr, ...]:
        return tuple(
            KeyExpr(field=k.field, mask=mask) if k.field == field else k
            for k in keys
        )

    primitives: List[Primitive] = []
    touched = False
    for prim in query.primitives:
        if isinstance(prim, (Map, Distinct, Reduce)) and any(
            k.field == field for k in prim.keys
        ):
            primitives.append(replace(prim, keys=remask(prim.keys)))
            touched = True
        else:
            primitives.append(prim)
    if not touched:
        raise CompilationError(
            f"query {query.qid!r} has no map/distinct/reduce key on "
            f"{field!r} to refine"
        )

    if scope is not None:
        prefix, prefix_mask = scope
        predicate = FieldPredicate(
            field, CmpOp.MASK_EQ, int(prefix), mask=int(prefix_mask)
        )
        if primitives and isinstance(primitives[0], Filter):
            primitives[0] = replace(
                primitives[0],
                predicates=primitives[0].predicates + (predicate,),
            )
        else:
            primitives.insert(0, Filter(predicates=(predicate,)))

    refined = Query(
        qid or query.qid,
        description=query.description,
        window_ms=query.window_ms,
    )
    refined.primitives = primitives
    return refined
