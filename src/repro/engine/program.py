"""Compiled rule programs for the vectorized engine.

Each installed slice-0 version is flattened once into a tensor-friendly
program (recompiled only when that version is replaced); a switch's
bundle — its dispatch entries plus the programs of the versions serving
now — is rebuilt per rule state ``(rule_epoch, mutation_seq)``:

* ``newton_init`` dispatch becomes masked equality tests over the packet
  columns, priority order preserved as the entry index;
* each query's module sequence becomes a list of op records holding the
  exact objects the scalar path would touch (register arrays, storage
  keys, hash units), so both engines mutate the *same* state;
* a K op packs its masked fields big-endian into ``uint64`` word columns
  (:func:`~repro.dataplane.hashing.pack_key_words`: one word for keys up
  to 8 bytes, two up to 16, ...), whose bytes equal ``GLOBAL_FIELDS.pack``;
* the H ops behind one K differ only in seed, so they share one
  :class:`~repro.dataplane.hashing.KeyGroup` — the distinct keys of the
  still-active rows and the row -> key inverse — built at the first H and
  rebuilt only after an R ``stop`` actually removed rows; each H then
  resolves the distinct keys through its seed's memo and gathers;
* R ternary matches become ``(lo, hi)`` range arrays evaluated per entry.

Programs the compiler cannot express with batch semantics (multi-slice
CQE queries, S executed before any H) mark the bundle unsupported; the
engine then falls back to the scalar reference path for the affected
batch, so coverage gaps cost speed, never correctness.

One structural fact makes batching sound: the only divergence between
packets inside one program is the per-packet ``stopped`` flag, and a
stopped packet never executes another op.  Every packet still active at
op *i* has therefore executed exactly ops ``0..i-1``, so whether a set's
hash/state/fields exist is a *static* property of the program position —
only their values (and the global result, which R actions set
conditionally) need per-packet arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fields import GLOBAL_FIELDS
from repro.core.rules import (
    HashMode,
    HConfig,
    KConfig,
    MatchSource,
    OperandSource,
    RConfig,
    Report,
    SConfig,
)
from repro.dataplane.alu import REGISTER_MAX, ResultOp
from repro.dataplane.hashing import HashUnit, KeyGroup, pack_key_words
from repro.dataplane.module_types import ModuleType
from repro.dataplane.pipeline import NewtonPipeline
from repro.dataplane.registers import RegisterArray

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.dataplane.pipeline import _Installed
    from repro.runtime.sanitizer import Sanitizer

__all__ = [
    "SwitchPrograms",
    "RuleProgram",
    "compile_switch_programs",
    "execute_program",
]


# --------------------------------------------------------------------- #
# Compiled op records                                                    #
# --------------------------------------------------------------------- #


@dataclass
class _KOp:
    set_id: int
    #: (field name, mask, byte width) for every selected field, in
    #: registry (packing) order — mirrors ``GLOBAL_FIELDS.pack``.
    plan: Tuple[Tuple[str, int, int], ...]
    key_width: int


@dataclass
class _HOp:
    set_id: int
    #: DIRECT mode: column to forward (None if the field is unknown,
    #: matching ``fields.get(name, 0)``).
    direct_field: Optional[str] = None
    direct: bool = False
    unit: Optional[HashUnit] = None
    cache: Optional[Dict[bytes, int]] = None


@dataclass
class _SOp:
    set_id: int
    passthrough: bool
    array: Optional[RegisterArray] = None
    storage_key: Optional[Tuple] = None
    op: object = None
    #: The operand when ``operand_field`` is None; reaches the ALU as a
    #: plain int, never as a filled column.
    operand_const: int = 0
    operand_field: Optional[str] = None
    output_old: bool = False


@dataclass
class _ROp:
    set_id: int
    source: str
    #: (lo, hi, action) per ternary entry, priority order.
    entries: Tuple[Tuple[int, int, object], ...]
    default: object = None


@dataclass
class RuleProgram:
    """One query's flattened module sequence on one switch."""

    qid: str
    epoch_from: int
    ops: Tuple[object, ...]
    #: One tuple per op, ``ops`` minus each S op's ``array`` and
    #: ``storage_key``.  Programs of one query with equal shapes — the
    #: same rules on different switches — differ only in which
    #: :class:`RegisterArray` each S op mutates, so one
    #: :func:`execute_program` run over their packets serves them all.
    shape: Tuple[Tuple, ...]
    #: Packet columns the ops read (K plans, H direct, S field operands).
    fields_needed: frozenset = frozenset()


@dataclass
class SwitchPrograms:
    """Everything the vector engine needs for one switch at one rule state."""

    #: Valid ``newton_init`` entries at the compiled epoch, table order
    #: (= descending priority, insertion order breaking ties); the entry
    #: index doubles as the dispatch rank.
    entries: Tuple[Tuple[str, Tuple[Tuple[str, int, int], ...]], ...]
    programs: Dict[str, RuleProgram] = field(default_factory=dict)
    #: qid -> the installed version ``programs[qid]`` was compiled from.
    versions: Dict[str, "_Installed"] = field(default_factory=dict)
    supported: bool = True


# --------------------------------------------------------------------- #
# Compilation                                                            #
# --------------------------------------------------------------------- #


def compile_switch_programs(
    pipeline: NewtonPipeline, previous: Optional[SwitchPrograms] = None,
) -> SwitchPrograms:
    """Flatten ``pipeline``'s active bank into batch-executable programs.

    A program is a pure function of the pipeline and the installed
    version it was compiled from (its ``placed`` rules and ``epoch_from``,
    the layout's arrays, the hash family), so a version still serving is
    not compiled again: its program is taken from ``previous``, this
    pipeline's last bundle.  ``previous`` keeps those versions alive, so
    the identity test cannot meet a recycled object — after a ``wipe`` and
    re-stage every version is a new object and nothing stale is reused.
    """
    at_epoch = pipeline.rule_epoch
    supported = True
    for _qid, _idx, installed in pipeline.resident_versions():
        if installed.query_slice.total_slices > 1:
            # Multi-slice (CQE) queries continue on downstream hops via
            # the SP header — out of the batch compiler's scope.
            supported = False
    entries = tuple(
        (entry.rule.action, entry.rule.match)
        for entry in pipeline.newton_init.entries()
        if entry.valid_at(at_epoch)
    )
    programs: Dict[str, RuleProgram] = {}
    versions: Dict[str, _Installed] = {}
    for qid in dict.fromkeys(action for action, _ in entries):
        installed = pipeline.version_for(qid, 0, at_epoch)
        if installed is None:
            continue
        if previous is not None and previous.versions.get(qid) is installed:
            program = previous.programs[qid]
        else:
            program = _compile_program(pipeline, qid, installed)
        if program is None:
            supported = False
            continue
        programs[qid] = program
        versions[qid] = installed
    return SwitchPrograms(entries=entries, programs=programs,
                          versions=versions, supported=supported)


def _compile_program(pipeline: NewtonPipeline, qid: str,
                     installed: _Installed) -> Optional[RuleProgram]:
    ops: List[object] = []
    #: One tuple per op: everything but an S op's register binding.
    shape: List[Tuple] = []
    needed: set = set()
    has_hash = [False, False]
    for local_stage, spec, storage_key in installed.placed:
        if spec.module_type is ModuleType.KEY_SELECTION:
            config: KConfig = spec.config
            plan = []
            masks = config.mask_map()
            for fld in GLOBAL_FIELDS:
                mask = masks.get(fld.name)
                if mask is None or mask == 0:
                    continue
                plan.append((fld.name, mask & fld.max_value, fld.byte_width))
                needed.add(fld.name)
            ops.append(_KOp(
                set_id=spec.set_id,
                plan=tuple(plan),
                key_width=sum(bw for _, _, bw in plan),
            ))
            shape.append(("K", spec.set_id, tuple(plan)))
        elif spec.module_type is ModuleType.HASH_CALCULATION:
            hconfig: HConfig = spec.config
            if hconfig.mode == HashMode.DIRECT:
                name = hconfig.direct_field or ""
                known = name in GLOBAL_FIELDS
                if known:
                    needed.add(name)
                direct_field = name if known else None
                ops.append(_HOp(set_id=spec.set_id, direct=True,
                                direct_field=direct_field))
                shape.append(("H", spec.set_id, direct_field))
            else:
                unit = pipeline.hash_family.unit(
                    hconfig.seed_index, hconfig.range_size
                )
                cache = pipeline.hash_family.bulk_cache(unit.seed)
                ops.append(_HOp(set_id=spec.set_id, unit=unit, cache=cache))
                # The memo stands for the family: equal units of two
                # families hash alike but fill different memos.
                shape.append(("H", spec.set_id, unit, id(cache)))
            has_hash[spec.set_id] = True
        elif spec.module_type is ModuleType.STATE_BANK:
            sconfig: SConfig = spec.config
            if sconfig.passthrough:
                ops.append(_SOp(set_id=spec.set_id, passthrough=True))
                shape.append(("S", spec.set_id))
                continue
            if not has_hash[spec.set_id]:
                # The scalar path raises at execution time; fall back so
                # the error surfaces identically.
                return None
            module = pipeline.layout.module_at(
                local_stage, ModuleType.STATE_BANK
            )
            assert module is not None
            operand_field = None
            operand_const = 0
            if sconfig.operand_source == OperandSource.CONST:
                operand_const = sconfig.operand_const
            else:
                name = sconfig.operand_field or ""
                if name in GLOBAL_FIELDS:
                    operand_field = name
                    needed.add(name)
                # An unknown field reads as the constant 0, like the
                # scalar path's ``fields.get(name, 0)``.
            ops.append(_SOp(
                set_id=spec.set_id,
                passthrough=False,
                array=module.array,
                storage_key=storage_key,
                op=sconfig.op,
                operand_const=operand_const,
                operand_field=operand_field,
                output_old=sconfig.output_old,
            ))
            shape.append(("S", spec.set_id, sconfig.op, operand_const,
                          operand_field, sconfig.output_old))
        elif spec.module_type is ModuleType.RESULT_PROCESS:
            rconfig: RConfig = spec.config
            entries = tuple(
                (entry.lo, entry.hi, entry.action)
                for entry in rconfig.entries
            )
            ops.append(_ROp(
                set_id=spec.set_id,
                source=rconfig.source,
                entries=entries,
                default=rconfig.default,
            ))
            shape.append(("R", spec.set_id, rconfig.source, entries,
                          rconfig.default))
        else:  # pragma: no cover - module set is closed
            return None
    return RuleProgram(
        qid=qid,
        epoch_from=installed.epoch_from,
        ops=tuple(ops),
        shape=tuple(shape),
        fields_needed=frozenset(needed),
    )


# --------------------------------------------------------------------- #
# Batch execution                                                        #
# --------------------------------------------------------------------- #


class _SetState:
    """Columnar mirror of one ``MetadataSet`` across the batch."""

    __slots__ = ("words", "key_width", "group", "group_rows", "fields",
                 "hash", "hash_has", "state", "state_has")

    def __init__(self, k: int) -> None:
        #: K output: (words, k) uint64 key column; before any K, the
        #: empty key (what the scalar path hashes then).
        self.words = np.empty((0, k), dtype=np.uint64)
        self.key_width = 0
        #: Distinct keys of ``words[:, group_rows]``, shared by every H on
        #: this set until K rewrites the column or an R stop shrinks the
        #: active rows (``group`` is dropped then and rebuilt on demand).
        self.group: Optional[KeyGroup] = None
        self.group_rows: Optional[np.ndarray] = None
        self.fields: Optional[List[Tuple[str, np.ndarray]]] = None
        self.hash: Optional[np.ndarray] = None      # int64
        self.hash_has = False
        self.state: Optional[np.ndarray] = None     # int64
        self.state_has = False


def execute_program(
    programs: Sequence[RuleProgram],
    bounds: Sequence[int],
    cols: Dict[str, np.ndarray],
    ts: np.ndarray,
    window_epochs: Sequence[int],
    switch_ids: Sequence[object],
    sink_reports: List[Tuple[int, Report]],
    sanitizer: Optional["Sanitizer"] = None,
    hash_trace: Optional[List[Tuple[Tuple[int, int], np.ndarray,
                                    KeyGroup]]] = None,
) -> None:
    """Run one query's equal-shape programs over their packets at once.

    ``programs`` are the compiled programs of one query on the switches
    ``switch_ids`` (all of one :attr:`RuleProgram.shape`); member ``j``
    owns rows ``bounds[j]:bounds[j + 1]`` of ``cols`` (only
    ``fields_needed`` is read) and ``ts``, in packet order.  K, the key
    group, H, R and the result fold run once over all rows; only an S op
    runs per member, on that member's register array, so every switch's
    registers see exactly its own packets, in order.  Emitted reports are
    appended to ``sink_reports`` as ``(row, report)``, carrying the switch
    id and window epoch of the member the row belongs to, in exactly the
    order the scalar loop would emit them for each packet.

    ``sanitizer`` enables observe-only invariant checks; ``hash_trace``
    (a list) additionally collects ``((seed, range), local rows, key
    group)`` per hash op so the caller can run the cross-program
    collision check over a whole batch.

    An exception in here (a missing allocation — a programming error,
    never input-driven) leaves the registers of earlier ops and earlier
    members mutated: the partial state is query-major across switches.
    """
    lead = programs[0]
    k = len(ts)
    act = np.ones(k, dtype=bool)
    global_val = np.zeros(k, dtype=np.int64)
    global_has = np.zeros(k, dtype=bool)
    sets = (_SetState(k), _SetState(k))

    for position, op in enumerate(lead.ops):
        if not act.any():
            break
        st = sets[op.set_id]
        if isinstance(op, _KOp):
            st.fields = [
                (name, cols[name] & mask) for name, mask, _bw in op.plan
            ]
            st.words = pack_key_words(
                [column for _name, column in st.fields],
                [bw for _name, _mask, bw in op.plan], k,
            )
            st.key_width = op.key_width
            st.group = None
        elif isinstance(op, _HOp):
            # Always bind a fresh array: an S passthrough may have aliased
            # the previous hash column as the state column, which must
            # keep its old values (the scalar path copies by scalar).
            if op.direct:
                if op.direct_field is None:
                    st.hash = np.zeros(k, dtype=np.int64)
                else:
                    st.hash = cols[op.direct_field].copy()
            else:
                if st.group is None:
                    st.group_rows = np.flatnonzero(act)
                    st.group = KeyGroup(st.words[:, st.group_rows],
                                        st.key_width)
                assert op.unit is not None
                values = op.unit.many(st.group, op.cache)
                if hash_trace is not None:
                    hash_trace.append((
                        (op.unit.seed, op.unit.range_size),
                        st.group_rows, st.group,
                    ))
                fresh = (np.zeros(k, dtype=np.int64) if st.hash is None
                         else st.hash.copy())
                fresh[st.group_rows] = values
                st.hash = fresh
            st.hash_has = True
        elif isinstance(op, _SOp):
            if op.passthrough:
                st.state = st.hash
                st.state_has = st.hash_has
                continue
            idx = np.flatnonzero(act)
            assert st.hash is not None
            fresh = (np.zeros(k, dtype=np.int64) if st.state is None
                     else st.state.copy())
            # The state is per switch: each member's active rows go
            # through its own register array (a member with none left is
            # skipped — its switch would have stopped at this op).
            cuts = np.searchsorted(idx, bounds).tolist()
            for j, program in enumerate(programs):
                part = idx[cuts[j]:cuts[j + 1]]
                if len(part) == 0:
                    continue
                member_op = program.ops[position]
                assert member_op.array is not None
                h = st.hash[part]
                if sanitizer is not None:
                    alloc = member_op.array.allocation(member_op.storage_key)
                    if alloc is not None:
                        bad = int(((h < 0) | (h >= alloc.size)).sum())
                        if bad:
                            sanitizer.record(
                                "register-oob",
                                (
                                    f"S index outside the {alloc.size}-"
                                    f"register slice; the array wraps it "
                                    f"by modulo"
                                ),
                                switch=switch_ids[j], qid=lead.qid,
                                count=bad,
                            )
                old, new = member_op.array.execute_many(
                    member_op.storage_key, h, op.op,
                    (op.operand_const if op.operand_field is None
                     else cols[op.operand_field][part]),
                )
                fresh[part] = old if op.output_old else new
            st.state = fresh
            st.state_has = True
        else:  # _ROp
            _execute_r(op, st, act, global_val, global_has, sets, ts,
                       bounds, window_epochs, switch_ids, lead.qid,
                       sink_reports)


def _execute_r(
    op: _ROp,
    st: _SetState,
    act: np.ndarray,
    global_val: np.ndarray,
    global_has: np.ndarray,
    sets: Tuple[_SetState, _SetState],
    ts: np.ndarray,
    bounds: Sequence[int],
    window_epochs: Sequence[int],
    switch_ids: Sequence[object],
    qid: str,
    sink_reports: List[Tuple[int, Report]],
) -> None:
    k = len(act)
    if op.source == MatchSource.STATE:
        value = st.state
        present = act if st.state_has else np.zeros(k, dtype=bool)
    else:
        value = global_val
        present = act & global_has
    # First matching entry per packet; -1 = default action.
    chosen = np.full(k, -1, dtype=np.int64)
    if value is not None:
        eligible = present
        for j, (lo, hi, _action) in enumerate(op.entries):
            match = eligible & (chosen == -1) & (value >= lo) & (value <= hi)
            chosen[match] = j
    stop_rows = np.zeros(k, dtype=bool)
    for j in range(-1, len(op.entries)):
        rows = act & (chosen == j)
        if not rows.any():
            continue
        action = op.default if j == -1 else op.entries[j][2]
        _fold(action.result_op, rows, st, global_val, global_has)
        if action.report:
            _emit_rows(rows, qid, sets, global_val, global_has, ts,
                       bounds, window_epochs, switch_ids, sink_reports)
        if action.stop:
            stop_rows |= rows
    if stop_rows.any():
        act &= ~stop_rows
        for shrunk in sets:
            shrunk.group = None


def _fold(result_op: ResultOp, rows: np.ndarray, st: _SetState,
          global_val: np.ndarray, global_has: np.ndarray) -> None:
    """Vectorized ``apply_result`` over ``rows`` (folds the state result)."""
    if result_op is ResultOp.NOP or not st.state_has:
        # apply_result returns the global unchanged when state is None —
        # for every op, PASS included.
        return
    assert st.state is not None
    state = st.state
    if result_op is ResultOp.PASS:
        global_val[rows] = state[rows]
        global_has[rows] = True
        return
    fresh = rows & ~global_has
    global_val[fresh] = state[fresh]
    both = rows & global_has
    if both.any():
        g = global_val[both]
        s = state[both]
        if result_op is ResultOp.ADD:
            out = np.minimum(g + s, REGISTER_MAX)
        elif result_op is ResultOp.SUB:
            out = np.maximum(g - s, 0)
        elif result_op is ResultOp.MIN:
            out = np.minimum(g, s)
        elif result_op is ResultOp.MAX:
            out = np.maximum(g, s)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unsupported result ALU: {result_op}")
        global_val[both] = out
    global_has[rows] = True


def _emit_rows(rows: np.ndarray, qid: str,
               sets: Tuple[_SetState, _SetState],
               global_val: np.ndarray, global_has: np.ndarray,
               ts: np.ndarray, bounds: Sequence[int],
               window_epochs: Sequence[int], switch_ids: Sequence[object],
               sink_reports: List[Tuple[int, Report]]) -> None:
    for i in np.flatnonzero(rows).tolist():
        member = bisect_right(bounds, i) - 1
        payload: Dict[str, object] = {
            "global_result": int(global_val[i]) if global_has[i] else None
        }
        for sid, st in enumerate(sets):
            payload[f"set{sid}_fields"] = (
                {name: int(col[i]) for name, col in st.fields}
                if st.fields is not None else {}
            )
            payload[f"set{sid}_hash"] = (
                int(st.hash[i]) if st.hash_has and st.hash is not None
                else None
            )
            payload[f"set{sid}_state"] = (
                int(st.state[i]) if st.state_has and st.state is not None
                else None
            )
        sink_reports.append((i, Report(
            qid=qid,
            switch_id=switch_ids[member],
            ts=float(ts[i]),
            epoch=window_epochs[member],
            payload=payload,
        )))
