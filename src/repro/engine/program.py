"""Compiled rule programs for the vectorized engine.

Each resident version of a slice — slice 0 and the downstream slices of
a cross-switch (CQE) query, active, staged or retired alike — is
flattened once into a tensor-friendly program (recompiled only when that
version is replaced); a switch's bundle — its dispatch entries, the
slice-0 programs serving now, and every resident version's program — is
rebuilt per rule state ``(rule_epoch, mutation_seq)``:

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
  live rows and the row -> key inverse — built at the first H and
  rebuilt only after an R ``stop`` actually removed rows; each H then
  resolves the distinct keys through its seed's memo of 8-byte digests
  and gathers;
* an S op of a fused run covers every member's live rows, each member's
  on its own switch's register array;
* R ternary matches become ``(lo, hi)`` ranges, assigned to the rows
  lowest priority first; an R op with no entry or nothing to match sends
  every live row to its default action.

While every row of a run is live — the median op's case on every bench
workload — S and H hand whole columns to the kernels and bind the answer
as it comes back; after an R ``stop`` they gather the live rows and
scatter the answer into a fresh column.

A program runs over a :class:`RowContext` — the columnar ``PhvContext``:
fresh at the ingress switch, carried from the previous hop's slice for a
downstream one, exactly the state the scalar path hands to the next hop
in memory.  Every module sequence compiles; an S op whose set has no hash
yet raises the scalar path's error when rows reach it.

The runs of a stack advance in lockstep (:func:`execute_program`): a run
is a generator over its ops that stops at each stateful S op and each
seeded H op with the kernel call it needs, and each *round* serves the
calls of every live run together — one
:meth:`RegisterArray.execute_many` per ALU op, one key group per key
byte width and one :func:`~repro.dataplane.hashing.hash_parts` per
(group, seed, memo) — so a window's kernel calls follow its rounds, not
its runs.  K, direct H, passthrough S, R, the fold and report emission
stay per run, in the run.

One structural fact makes batching sound: the only divergence between
packets inside one program is the per-packet ``stopped`` flag, and a
stopped packet never executes another op.  Every packet still active at
op *i* has therefore executed exactly ops ``0..i-1`` (after the slices
its context carries), so whether a set's hash/state/fields exist is a
*static* property of the carried layout and the program position — only
their values (and the global result, which R actions set
conditionally) need per-packet arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

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
from repro.dataplane.hashing import (
    HashMemo,
    HashUnit,
    KeyGroup,
    hash_parts,
    pack_key_words,
)
from repro.dataplane.module_types import ModuleType
from repro.dataplane.pipeline import NewtonPipeline
from repro.dataplane.registers import RegisterArray

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.dataplane.pipeline import _Installed
    from repro.runtime.sanitizer import Sanitizer

__all__ = [
    "RowContext",
    "SwitchPrograms",
    "RuleProgram",
    "ProgramRun",
    "compile_switch_programs",
    "concat_contexts",
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
    cache: Optional[HashMemo] = None


@dataclass
class _SOp:
    set_id: int
    passthrough: bool
    #: The rule's step (named by the S-before-H error).
    step: int = 0
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
    #: :class:`RegisterArray` each S op mutates, so one run of
    #: :func:`execute_program` over their packets serves them all.
    shape: Tuple[Tuple, ...]
    #: Packet columns the ops read (K plans, H direct, S field operands).
    fields_needed: frozenset = frozenset()
    #: Which slice of the query this is, of how many (CQE, paper §5.1).
    slice_index: int = 0
    total_slices: int = 1


#: A resident version: (qid, slice index, first rule epoch it serves).
VersionKey = Tuple[str, int, int]


@dataclass
class SwitchPrograms:
    """Everything the vector engine needs for one switch at one rule state."""

    #: Valid ``newton_init`` entries at the compiled epoch, table order
    #: (= descending priority, insertion order breaking ties); the entry
    #: index doubles as the dispatch rank.
    entries: Tuple[Tuple[str, Tuple[Tuple[str, int, int], ...]], ...]
    #: qid -> the slice-0 program dispatch starts at the compiled epoch.
    programs: Dict[str, RuleProgram] = field(default_factory=dict)
    #: Every resident version's program — active, staged and retired
    #: alike, since a packet runs the downstream slices of the rule epoch
    #: its ingress switch stamped.
    slices: Dict[VersionKey, RuleProgram] = field(default_factory=dict)
    #: The installed version each of ``slices`` was compiled from.
    versions: Dict[VersionKey, "_Installed"] = field(default_factory=dict)


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
    slices: Dict[VersionKey, RuleProgram] = {}
    versions: Dict[VersionKey, _Installed] = {}
    for qid, index, installed in pipeline.resident_versions():
        key = (qid, index, installed.epoch_from)
        if previous is not None and previous.versions.get(key) is installed:
            slices[key] = previous.slices[key]
        else:
            slices[key] = _compile_program(pipeline, qid, installed)
        versions[key] = installed
    entries = tuple(
        (entry.rule.action, entry.rule.match)
        for entry in pipeline.newton_init.entries()
        if entry.valid_at(at_epoch)
    )
    programs: Dict[str, RuleProgram] = {}
    for qid in dict.fromkeys(action for action, _ in entries):
        installed = pipeline.version_for(qid, 0, at_epoch)
        if installed is not None:
            programs[qid] = slices[(qid, 0, installed.epoch_from)]
    return SwitchPrograms(entries=entries, programs=programs,
                          slices=slices, versions=versions)


def _compile_program(pipeline: NewtonPipeline, qid: str,
                     installed: _Installed) -> RuleProgram:
    ops: List[object] = []
    #: One tuple per op: everything but an S op's register binding.
    shape: List[Tuple] = []
    needed: set = set()
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
        elif spec.module_type is ModuleType.STATE_BANK:
            sconfig: SConfig = spec.config
            if sconfig.passthrough:
                ops.append(_SOp(set_id=spec.set_id, passthrough=True))
                shape.append(("S", spec.set_id))
                continue
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
                step=spec.step,
                array=module.array,
                storage_key=storage_key,
                op=sconfig.op,
                operand_const=operand_const,
                operand_field=operand_field,
                output_old=sconfig.output_old,
            ))
            shape.append(("S", spec.set_id, spec.step, sconfig.op,
                          operand_const, operand_field, sconfig.output_old))
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
            raise ValueError(f"unknown module type {spec.module_type}")
    query_slice = installed.query_slice
    return RuleProgram(
        qid=qid,
        epoch_from=installed.epoch_from,
        ops=tuple(ops),
        shape=tuple(shape),
        fields_needed=frozenset(needed),
        slice_index=query_slice.slice_index,
        total_slices=query_slice.total_slices,
    )


# --------------------------------------------------------------------- #
# Batch execution                                                        #
# --------------------------------------------------------------------- #


class _SetState:
    """Columnar mirror of one ``MetadataSet`` across the batch."""

    __slots__ = ("words", "key_width", "group", "group_part", "group_rows",
                 "fields", "hash", "hash_has", "state", "state_has")

    def __init__(self, k: int) -> None:
        #: K output: (words, k) uint64 key column; before any K, the
        #: empty key (what the scalar path hashes then).
        self.words = np.empty((0, k), dtype=np.uint64)
        self.key_width = 0
        #: Distinct keys of ``words[:, group_rows]`` (of every row when
        #: ``group_rows`` is ``None``) — part ``group_part`` of
        #: ``group``, which a round builds over the equal-width key
        #: columns of every run that needs one — shared by every H on
        #: this set until K rewrites the column or an R stop shrinks the
        #: active rows (``group`` is dropped then and rebuilt on demand).
        self.group: Optional[KeyGroup] = None
        self.group_part = 0
        self.group_rows: Optional[np.ndarray] = None
        self.fields: Optional[List[Tuple[str, np.ndarray]]] = None
        self.hash: Optional[np.ndarray] = None      # int64
        self.hash_has = False
        self.state: Optional[np.ndarray] = None     # int64
        self.state_has = False

    def take(self, idx: np.ndarray) -> "_SetState":
        """The set of rows ``idx`` (the key group is left behind)."""
        out = _SetState(0)
        out.words = self.words[:, idx]
        out.key_width = self.key_width
        if self.fields is not None:
            out.fields = [(name, column[idx]) for name, column in self.fields]
        if self.hash is not None:
            out.hash = self.hash[idx]
        out.hash_has = self.hash_has
        if self.state is not None:
            out.state = self.state[idx]
        out.state_has = self.state_has
        return out

    def layout(self) -> Tuple:
        """What exists on this set, whatever the values."""
        return (self.key_width, len(self.words),
                None if self.fields is None
                else tuple(name for name, _ in self.fields),
                self.hash is not None, self.hash_has,
                self.state is not None, self.state_has)


@dataclass(eq=False)
class RowContext:
    """A query's in-flight execution state over a batch of rows: the
    columnar :class:`~repro.dataplane.phv.PhvContext`.

    It is what the SP header carries from one hop's slice to the next —
    whether each row is still active, the global result and its
    has-flag, and both metadata sets (operation keys, hash, state) — so
    the next hop's program continues exactly where the last one stopped.
    """

    act: np.ndarray
    global_val: np.ndarray
    global_has: np.ndarray
    sets: Tuple[_SetState, _SetState]

    @classmethod
    def fresh(cls, k: int) -> "RowContext":
        """``k`` rows entering their first slice."""
        return cls(np.ones(k, dtype=bool), np.zeros(k, dtype=np.int64),
                   np.zeros(k, dtype=bool), (_SetState(k), _SetState(k)))

    def take(self, idx: np.ndarray) -> "RowContext":
        """The context of rows ``idx``, as carried to another hop: every
        array is gathered afresh and each set's key group is dropped, so
        nothing derived from the old row order follows the rows."""
        return RowContext(self.act[idx], self.global_val[idx],
                          self.global_has[idx],
                          (self.sets[0].take(idx), self.sets[1].take(idx)))

    def layout(self) -> Tuple:
        """Equal for two contexts exactly when :func:`concat_contexts`
        can join them."""
        return (self.sets[0].layout(), self.sets[1].layout())


def concat_contexts(parts: Sequence[RowContext]) -> RowContext:
    """One context over the rows of ``parts`` (of one layout), in order."""
    if len(parts) == 1:
        return parts[0]
    joined = []
    for set_id, lead in enumerate(parts[0].sets):
        st = _SetState(0)
        members = [part.sets[set_id] for part in parts]
        st.words = np.concatenate([m.words for m in members], axis=1)
        st.key_width = lead.key_width
        if lead.fields is not None:
            st.fields = [
                (name, np.concatenate([m.fields[i][1] for m in members]))
                for i, (name, _) in enumerate(lead.fields)
            ]
        if lead.hash is not None:
            st.hash = np.concatenate([m.hash for m in members])
        st.hash_has = lead.hash_has
        if lead.state is not None:
            st.state = np.concatenate([m.state for m in members])
        st.state_has = lead.state_has
        joined.append(st)
    return RowContext(np.concatenate([part.act for part in parts]),
                      np.concatenate([part.global_val for part in parts]),
                      np.concatenate([part.global_has for part in parts]),
                      (joined[0], joined[1]))


@dataclass(eq=False)
class ProgramRun:
    """One query's equal-shape programs over their packets: what one run
    of :func:`execute_program` reads, and where its output goes.

    ``programs`` are the compiled programs of one query on the switches
    ``switch_ids`` (all of one :attr:`RuleProgram.shape`); member ``j``
    owns rows ``bounds[j]:bounds[j + 1]`` of ``cols`` (only
    ``fields_needed`` is read) and ``ts``, in packet order, and stamps
    its reports with ``window_epochs[j]``.  ``context`` is the rows'
    in-flight state from the slice an upstream hop ran
    (:meth:`RowContext.take`, aligned with ``ts``); without one every
    row starts fresh, as at the ingress switch.
    """

    programs: Sequence[RuleProgram]
    bounds: Sequence[int]
    cols: Dict[str, np.ndarray]
    ts: np.ndarray
    window_epochs: Sequence[int]
    switch_ids: Sequence[object]
    context: Optional[RowContext] = None
    #: Emitted reports as ``(row, report)``, in exactly the order the
    #: scalar loop would emit them for each packet.
    reports: List[Tuple[int, Report]] = field(default_factory=list)
    #: A list to collect ``((seed, range), local rows, distinct key
    #: bytes, each row's index into them)`` per hash op in, so the
    #: caller can run the cross-program collision check over a whole
    #: batch; ``None`` collects nothing.
    hash_trace: Optional[List[Tuple[Tuple[int, int], np.ndarray,
                                    List[bytes], np.ndarray]]] = None


class _SCall(NamedTuple):
    """What a run's stateful S op asks of its round: one ALU call."""

    op: object
    indices: np.ndarray
    operands: Union[int, np.ndarray]
    #: ``(first row, array, owner)`` of every member with rows here.
    banks: List[Tuple[int, RegisterArray, Tuple]]


class _HCall(NamedTuple):
    """What a run's seeded H op asks of its round: ``unit`` over the
    group rows of ``st``, which may have no key group yet."""

    st: _SetState
    unit: HashUnit
    memo: HashMemo


_Call = Union[_SCall, _HCall]
#: One run, op by op: yields its kernel calls, is sent their answers,
#: returns its final context.
_Steps = Generator[_Call, Any, RowContext]


def execute_program(runs: Sequence[ProgramRun],
                    sanitizer: Optional["Sanitizer"] = None,
                    ) -> List[RowContext]:
    """Run a stack of program runs in lockstep; return each one's state
    after its last op.

    Within a run, K, the key group, H, R and the result fold run once
    over all its rows, and each S op once over every member's active
    rows, each member's on its own register array, so every switch's
    registers see exactly its own packets, in order (the sanitizer's
    ``register-oob`` check still runs member by member).  Reports carry
    the switch id and window epoch of the member the row belongs to.
    The rows still active in a returned context are the ones whose next
    slice runs downstream.

    The runs advance in *rounds*: every live run steps to its next
    stateful S op or seeded H op, and the round serves those calls
    together (:func:`_serve`).  The S calls of one ALU op are one
    :meth:`RegisterArray.execute_many` with every member of every call as
    a ``then`` entry; the H calls whose set has no key group yet get one
    :class:`KeyGroup` per key byte width, and each (group, seed, memo)
    one :func:`hash_parts`.  A round with one call of a kind makes the
    call a lone run would.  No two runs of a stack share a register cell
    — owners are distinct across queries, and two runs of one query hold
    disjoint switches (``execute_many`` refuses an ``(array, owner)``
    named twice) — and a digest depends only on the key and the seed, so
    the order of the calls across runs cannot be observed.

    ``sanitizer`` enables observe-only invariant checks.  An exception
    in here (a missing allocation — a programming error, never
    input-driven) leaves the registers of the earlier rounds mutated:
    the partial state is round-major across the stack's runs.
    """
    contexts: List[Optional[RowContext]] = [None] * len(runs)
    live: List[Tuple[int, _Steps]] = [
        (index, _steps(run, sanitizer)) for index, run in enumerate(runs)
    ]
    answers: List[Any] = [None] * len(live)
    while live:
        asking: List[Tuple[int, _Steps]] = []
        calls: List[_Call] = []
        for (index, steps), answer in zip(live, answers):
            try:
                call = steps.send(answer)
            except StopIteration as done:
                contexts[index] = done.value
            else:
                asking.append((index, steps))
                calls.append(call)
        live = asking
        answers = _serve(calls)
    return cast(List[RowContext], contexts)


def _steps(run: ProgramRun, sanitizer: Optional["Sanitizer"]) -> _Steps:
    """One run, op by op: yields the kernel call of each stateful S op
    and each seeded H op and is sent its answer — ``(old, new)`` or the
    hash of the set's group rows; every other op runs in here."""
    programs, bounds, cols = run.programs, run.bounds, run.cols
    lead = programs[0]
    k = len(run.ts)
    ctx = RowContext.fresh(k) if run.context is None else run.context
    act, sets = ctx.act, ctx.sets
    idx = np.flatnonzero(act)
    dense = len(idx) == k
    for position, op in enumerate(lead.ops):
        if not len(idx):
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
            # Always bind a fresh array (a seeded H's answer is one): an S
            # passthrough may have aliased the previous hash column as the
            # state column, which must keep its old values (the scalar
            # path copies by scalar).
            if op.direct:
                st.hash = (np.zeros(k, dtype=np.int64)
                           if op.direct_field is None
                           else cols[op.direct_field].copy())
            else:
                if st.group is None:
                    st.group_rows = None if dense else idx
                assert op.unit is not None and op.cache is not None
                values = yield _HCall(st, op.unit, op.cache)
                assert st.group is not None
                if run.hash_trace is not None:
                    run.hash_trace.append((
                        (op.unit.seed, op.unit.range_size),
                        np.arange(k) if st.group_rows is None
                        else st.group_rows,
                        st.group.raw, st.group.part(st.group_part),
                    ))
                st.hash = _bind(values, st.group_rows, k)
            st.hash_has = True
        elif isinstance(op, _SOp):
            if op.passthrough:
                st.state = st.hash
                st.state_has = st.hash_has
                continue
            if not st.hash_has:
                # The scalar path's error, from the carried flag: an H
                # that ran on an upstream hop counts.
                raise RuntimeError(
                    f"S module executed before H produced a hash result "
                    f"(query {lead.qid} step {op.step})"
                )
            assert st.hash is not None
            # The state is per switch, the scan is not: one call runs
            # every member's live rows, each member's through its own
            # register array (a member with none left adds nothing — its
            # switch would have stopped at this op).
            h = st.hash if dense else st.hash[idx]
            cuts = bounds if dense else np.searchsorted(idx, bounds).tolist()
            banks = []
            for j, program in enumerate(programs):
                if cuts[j] == cuts[j + 1]:
                    continue
                member_op = program.ops[position]
                assert member_op.array is not None
                banks.append((cuts[j], member_op.array,
                              member_op.storage_key))
                if sanitizer is not None:
                    _check_oob(sanitizer, member_op,
                               h[cuts[j]:cuts[j + 1]], run.switch_ids[j],
                               lead.qid)
            operands: Union[int, np.ndarray] = op.operand_const
            if op.operand_field is not None:
                operands = cols[op.operand_field]
                if not dense:
                    operands = operands[idx]
            old, new = yield _SCall(op.op, h, operands, banks)
            st.state = _bind(old if op.output_old else new,
                             None if dense else idx, k)
            st.state_has = True
        elif _execute_r(op, st, ctx, run, lead.qid):
            # An R stop removed rows: the key groups no longer match.
            idx = np.flatnonzero(act)
            dense = False
            for shrunk in sets:
                shrunk.group = None
    return ctx


def _bind(values: np.ndarray, rows: Optional[np.ndarray],
          k: int) -> np.ndarray:
    """``values`` as the op's column if it covers every row (``rows`` is
    ``None``), else scattered to ``rows``: a stopped row never reads its
    set again, and only live rows are carried downstream."""
    if rows is None:
        return values
    fresh = np.zeros(k, dtype=np.int64)
    fresh[rows] = values
    return fresh


def _serve(calls: Sequence[_Call]) -> List[Any]:
    """One round: the answer to each of ``calls``, in order."""
    if len(calls) == 1:
        call = calls[0]
        return (_alu([call]) if isinstance(call, _SCall)
                else _hash([call]))
    answers: List[Any] = [None] * len(calls)
    by_op: Dict[object, List[Tuple[int, _SCall]]] = {}
    seeded: List[Tuple[int, _HCall]] = []
    for i, call in enumerate(calls):
        if isinstance(call, _SCall):
            by_op.setdefault(call.op, []).append((i, call))
        else:
            seeded.append((i, call))
    for asked in [*by_op.values(), seeded]:
        if asked:
            indices, of_kind = zip(*asked)
            served = (_alu(of_kind) if isinstance(of_kind[0], _SCall)
                      else _hash(of_kind))
            for i, answer in zip(indices, served):
                answers[i] = answer
    return answers


def _alu(calls: Sequence[_SCall]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One :meth:`RegisterArray.execute_many` over every member of
    ``calls`` (of one ALU op); each call's ``(old, new)``."""
    if len(calls) == 1:
        call = calls[0]
        # A run reaches an S op only with rows, so its first bank
        # starts at row 0.
        _start, array, owner = call.banks[0]
        return [array.execute_many(owner, call.indices, call.op,
                                   call.operands, call.banks[1:])]
    starts = [0]
    for call in calls:
        starts.append(starts[-1] + len(call.indices))
    # Constants stay constants, one per member: the cells of two members
    # never meet in one group, so no scan is needed for them.
    constant = not any(isinstance(call.operands, np.ndarray)
                       for call in calls)
    then: List[Tuple] = []
    for call, offset in zip(calls, starts):
        extra = (call.operands,) if constant else ()
        then.extend((offset + start, array, owner, *extra)
                    for start, array, owner in call.banks)
    operands = calls[0].operands if constant else np.concatenate([
        call.operands if isinstance(call.operands, np.ndarray)
        else np.full(len(call.indices), call.operands, dtype=np.int64)
        for call in calls
    ])
    _start, array, owner, *_constant = then[0]
    old, new = array.execute_many(
        owner, np.concatenate([call.indices for call in calls]),
        calls[0].op, operands, then[1:],
    )
    return [(old[lo:hi], new[lo:hi]) for lo, hi in zip(starts, starts[1:])]


def _hash(calls: Sequence[_HCall]) -> List[np.ndarray]:
    """Each call's hash of its set's group rows (``int64``).

    The sets without a key group get one per key byte width, over their
    rows' words side by side: equal widths are equal word counts, and a
    digest depends only on the key bytes and the seed.  Each (group,
    seed, memo) is one :func:`hash_parts`, reduced into each range once,
    on the distinct keys, then gathered call by call.
    """
    unbuilt: Dict[int, List[_SetState]] = {}
    for call in calls:
        if call.st.group is None:
            unbuilt.setdefault(call.st.key_width, []).append(call.st)
    for width, states in unbuilt.items():
        words = [st.words if st.group_rows is None
                 else st.words[:, st.group_rows] for st in states]
        group = KeyGroup(
            words[0] if len(words) == 1 else np.concatenate(words, axis=1),
            width, [column.shape[1] for column in words],
        )
        for part, st in enumerate(states):
            st.group = group
            st.group_part = part
    asks: Dict[Tuple[int, int, int], List[int]] = {}
    for i, call in enumerate(calls):
        asks.setdefault((id(call.st.group), call.unit.seed, id(call.memo)),
                        []).append(i)
    answers: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(calls)
    for members in asks.values():
        lead = calls[members[0]]
        group = cast(KeyGroup, lead.st.group)
        digests = hash_parts(group, [calls[i].st.group_part for i in members],
                             lead.unit.seed, lead.memo)
        reduced: Dict[int, np.ndarray] = {}
        for i in members:
            call = calls[i]
            size = call.unit.range_size
            if size not in reduced:
                reduced[size] = (digests % np.uint64(size)).astype(np.int64)
            answers[i] = reduced[size][group.part(call.st.group_part)]
    return answers


def _check_oob(sanitizer: "Sanitizer", op: _SOp, h: np.ndarray,
               switch_id: object, qid: str) -> None:
    """Record one member's S indices outside its slice (the array wraps
    them by modulo, so only the sanitizer sees them)."""
    assert op.array is not None
    alloc = op.array.allocation(op.storage_key)
    if alloc is None:
        return
    bad = int(((h < 0) | (h >= alloc.size)).sum())
    if bad:
        sanitizer.record(
            "register-oob",
            f"S index outside the {alloc.size}-register slice; the array "
            f"wraps it by modulo",
            switch=switch_id, qid=qid, count=bad,
        )


def _execute_r(op: _ROp, st: _SetState, ctx: RowContext, run: ProgramRun,
               qid: str) -> bool:
    """One R op over the live rows of ``ctx``: each row takes its first
    matching entry's action, or the default; returns whether a ``stop``
    removed rows."""
    act = ctx.act
    if op.source == MatchSource.STATE:
        value = st.state if st.state_has else None
        present = act
    else:
        value = ctx.global_val
        present = act & ctx.global_has
    actions = [op.default]
    chosen = None
    if op.entries and value is not None:
        actions.extend(action for _lo, _hi, action in op.entries)
        # Lowest priority first, so a row keeps its first match.
        chosen = np.full(len(act), -1, dtype=np.intp)
        for j in range(len(op.entries) - 1, -1, -1):
            lo, hi, _action = op.entries[j]
            chosen[present & (value >= lo) & (value <= hi)] = j
    stopped = False
    for j, action in enumerate(actions, start=-1):
        if (action.result_op is ResultOp.NOP and not action.report
                and not action.stop):
            continue
        if chosen is None:
            # Nothing to match: every live row takes the default.
            rows = act
        else:
            rows = act & (chosen == j)
            if not rows.any():
                continue
        _fold(action.result_op, rows, st, ctx.global_val, ctx.global_has)
        if action.report:
            _emit_rows(rows, qid, ctx, run)
        if action.stop:
            act &= ~rows
            stopped = True
    return stopped


def _fold(result_op: ResultOp, rows: np.ndarray, st: _SetState,
          global_val: np.ndarray, global_has: np.ndarray) -> None:
    """Vectorized ``apply_result`` over ``rows`` (folds the state result)."""
    if result_op is ResultOp.NOP or not st.state_has:
        # apply_result returns the global unchanged when state is None —
        # for every op, PASS included.
        return
    assert st.state is not None
    state = st.state
    load = rows
    if result_op is not ResultOp.PASS:
        # Rows holding a global result fold the state into it; the rest
        # load the state, as ``apply_result`` does for a ``None`` global.
        both = rows & global_has
        load = rows & ~global_has
        if result_op is ResultOp.ADD:
            np.minimum(global_val + state, REGISTER_MAX, out=global_val,
                       where=both)
        elif result_op is ResultOp.SUB:
            np.maximum(global_val - state, 0, out=global_val, where=both)
        elif result_op is ResultOp.MIN:
            np.minimum(global_val, state, out=global_val, where=both)
        elif result_op is ResultOp.MAX:
            np.maximum(global_val, state, out=global_val, where=both)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown result ALU: {result_op}")
    np.copyto(global_val, state, where=load)
    global_has |= load


def _emit_rows(rows: np.ndarray, qid: str, ctx: RowContext,
               run: ProgramRun) -> None:
    """A report per row of ``rows``, built from whole-column reads."""
    at = np.flatnonzero(rows)
    member = (np.searchsorted(run.bounds, at, side="right") - 1).tolist()
    payload: Dict[str, List[object]] = {"global_result": [
        value if has else None for value, has in
        zip(ctx.global_val[at].tolist(), ctx.global_has[at].tolist())
    ]}
    for sid, st in enumerate(ctx.sets):
        fields = st.fields or []
        names = [name for name, _column in fields]
        payload[f"set{sid}_fields"] = [dict(zip(names, key)) for key in zip(
            *(column[at].tolist() for _name, column in fields),
        )] if fields else [{} for _row in member]
        for part, has, column in (("hash", st.hash_has, st.hash),
                                  ("state", st.state_has, st.state)):
            payload[f"set{sid}_{part}"] = (
                column[at].tolist() if has and column is not None
                else [None] * len(at)
            )
    names = list(payload)
    epochs, switch_ids = run.window_epochs, run.switch_ids
    for i, j, ts, *values in zip(at.tolist(), member,
                                 run.ts[at].tolist(), *payload.values()):
        run.reports.append((i, Report(
            qid=qid, switch_id=switch_ids[j], ts=float(ts),
            epoch=epochs[j], payload=dict(zip(names, values)),
        )))
