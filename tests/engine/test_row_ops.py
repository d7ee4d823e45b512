"""The vector engine's R op and result fold against the scalar R module.

``program._fold`` is ``apply_result`` over a column and
``program._execute_r`` is ``ResultProcessModule.execute`` — what the
scalar pipeline runs per packet — over a batch.  Row by row, the global
result and its has-flag, whether the row stopped and the reports it
emitted (payload, switch, epoch, timestamp) must equal what the scalar
module makes of the same packet state, and rows outside the op's rows
must not move.  Cases: every ``ResultOp``, rows a strict subset of the
live rows with mixed has-flags, a set without a state result, an R op
matching on a missing value, no entry, one entry, and two overlapping
entries, with and without ``stop``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rules import (
    MatchSource,
    ModuleRuleSpec,
    RAction,
    RConfig,
    RMatchEntry,
)
from repro.dataplane.alu import REGISTER_MAX, ResultOp, apply_result
from repro.dataplane.hashing import HashFamily
from repro.dataplane.module_types import ModuleType
from repro.dataplane.modules import ExecutionEnv, ResultProcessModule
from repro.dataplane.phv import MetadataSet, PhvContext
from repro.engine.program import (
    ProgramRun,
    RowContext,
    _execute_r,
    _fold,
    _ROp,
)

#: Two members, so reports must name the right switch and epoch.
SWITCHES = ("s0", "s1")
EPOCHS = (3, 4)


def batch(seed, k, state_has=True):
    """``k`` rows of random in-flight state: about four in five live,
    half with a global result, values small enough for ranges to
    overlap and a few next to ``REGISTER_MAX`` so ADD saturates."""
    rng = np.random.default_rng(seed)

    def values():
        near_max = rng.random(k) < 0.2
        return np.where(near_max, REGISTER_MAX - rng.integers(0, 8, k),
                        rng.integers(0, 40, k)).astype(np.int64)

    ctx = RowContext.fresh(k)
    ctx.act[:] = rng.random(k) < 0.8
    ctx.global_val[:] = values()
    ctx.global_has[:] = rng.random(k) < 0.5
    first, second = ctx.sets
    first.fields = [("sip", rng.integers(0, 1 << 32, k)),
                    ("dport", rng.integers(0, 1 << 16, k))]
    first.hash = rng.integers(0, 512, k)
    first.hash_has = True
    if state_has:
        first.state = values()
        first.state_has = True
    # The second set: no K yet, a hash column but no H on this path.
    second.hash = rng.integers(0, 512, k)
    return ctx


def scalar_context(ctx, i):
    """Row ``i`` of ``ctx`` as the scalar path's ``PhvContext``."""
    sets = [MetadataSet(
        oper_fields={name: int(column[i]) for name, column in s.fields or ()},
        hash_result=int(s.hash[i]) if s.hash_has else None,
        state_result=int(s.state[i]) if s.state_has else None,
    ) for s in ctx.sets]
    return PhvContext(sets=sets, global_result=(
        int(ctx.global_val[i]) if ctx.global_has[i] else None))


def global_of(ctx, i):
    return int(ctx.global_val[i]) if ctx.global_has[i] else None


def member_of(i, bounds):
    return 0 if i < bounds[1] else 1


class TestFold:
    @given(st.sampled_from(list(ResultOp)), st.integers(0, 2**16),
           st.integers(0, 50), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_fold_is_apply_result_per_row(self, op, seed, k, state_has):
        ctx = batch(seed, k, state_has)
        rows = ctx.act & (np.random.default_rng(seed + 1).random(k) < 0.6)
        before = [scalar_context(ctx, i) for i in range(k)]
        untouched = ctx.global_val[~rows].copy()
        _fold(op, rows, ctx.sets[0], ctx.global_val, ctx.global_has)
        for i in range(k):
            expected = before[i].global_result
            if rows[i]:
                expected = apply_result(op, expected,
                                        before[i].sets[0].state_result)
            assert global_of(ctx, i) == expected
        assert np.array_equal(ctx.global_val[~rows], untouched)


def r_op(config):
    return _ROp(set_id=0, source=config.source,
                entries=tuple((e.lo, e.hi, e.action)
                              for e in config.entries),
                default=config.default)


REPORT_MIN = RAction(ResultOp.MIN, report=True)
#: (name, entries, default): no entry, one, two overlapping ones.
R_CASES = [
    ("fold-only", (), RAction(ResultOp.PASS)),
    ("default-reports", (), RAction(ResultOp.ADD, report=True)),
    ("default-stops", (), RAction(ResultOp.MAX, stop=True)),
    ("one-entry", ((10, 30, RAction(report=True)),),
     RAction(stop=True)),
    ("one-entry-stops", ((0, 20, RAction(ResultOp.SUB, report=True,
                                         stop=True)),),
     RAction(ResultOp.PASS)),
    ("two-overlapping", ((0, 20, RAction(ResultOp.ADD, report=True)),
                         (10, 30, RAction(ResultOp.MAX, report=True,
                                          stop=True))),
     RAction(stop=True)),
    ("two-overlapping-nop", ((5, 25, REPORT_MIN),
                             (0, REGISTER_MAX, RAction())),
     RAction(ResultOp.PASS, report=True, stop=True)),
]


class TestExecuteR:
    @pytest.mark.parametrize("name, entries, default", R_CASES,
                             ids=[case[0] for case in R_CASES])
    @pytest.mark.parametrize("source", [MatchSource.STATE,
                                        MatchSource.GLOBAL])
    @pytest.mark.parametrize("state_has", [True, False],
                             ids=["state", "no-state"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_scalar_module(self, name, entries, default,
                                       source, state_has, seed):
        config = RConfig(source=source, default=default, entries=tuple(
            RMatchEntry(lo, hi, action) for lo, hi, action in entries))
        k = 60
        ctx = batch(seed, k, state_has)
        ts = np.linspace(0.0, 1.0, k)
        bounds = [0, 25, k]
        run = ProgramRun([], bounds, {}, ts, EPOCHS, SWITCHES)
        live = ctx.act.copy()
        spec = ModuleRuleSpec(qid="Qr", step=3,
                              module_type=ModuleType.RESULT_PROCESS,
                              set_id=0, stage=0, config=config)
        module = ResultProcessModule(0, 0)
        expected, reports = [], []
        for i in range(k):
            phv = scalar_context(ctx, i)
            if live[i]:
                member = member_of(i, bounds)
                env = ExecutionEnv(fields={}, ts=float(ts[i]),
                                   epoch=EPOCHS[member],
                                   switch_id=SWITCHES[member],
                                   hash_family=HashFamily())
                module.execute(spec, phv, env)
                reports.extend((i, report) for report in env.reports)
            expected.append((phv.global_result, live[i] and not phv.stopped))
        stopped = _execute_r(r_op(config), ctx.sets[0], ctx, run, "Qr")
        assert [(global_of(ctx, i), bool(ctx.act[i]))
                for i in range(k)] == expected
        assert stopped == bool((live & ~ctx.act).any())
        assert sorted(run.reports, key=lambda pair: pair[0]) == reports

    def test_the_batches_stop_some_rows_and_report_some(self):
        """Not vacuous: a threshold R over ``batch(1, 60)`` stops some of
        the live rows, keeps others and reports."""
        ctx = batch(1, 60)
        run = ProgramRun([], [0, 60], {}, np.zeros(60), [0], ["s0"])
        live = ctx.act.copy()
        config = RConfig(source=MatchSource.STATE, default=RAction(stop=True),
                         entries=(RMatchEntry(10, 30,
                                              RAction(report=True)),))
        assert _execute_r(r_op(config), ctx.sets[0], ctx, run, "Qr")
        assert 0 < int(ctx.act.sum()) < int(live.sum())
        assert run.reports
