"""K/H/S/R module execution engines."""

import pytest

from repro.core.rules import (
    HashMode,
    HConfig,
    KConfig,
    MatchSource,
    ModuleRuleSpec,
    RAction,
    RConfig,
    RMatchEntry,
    SConfig,
)
from repro.dataplane.alu import ResultOp, StatefulOp
from repro.dataplane.hashing import HashFamily
from repro.dataplane.module_types import ModuleType
from repro.dataplane.modules import (
    ExecutionEnv,
    HashCalculationModule,
    KeySelectionModule,
    ResultProcessModule,
    StateBankModule,
    build_module,
)
from repro.dataplane.phv import PhvContext


def make_env(**fields):
    base = {"sip": 1, "dip": 2, "proto": 6, "sport": 10, "dport": 80,
            "tcp_flags": 2, "len": 64, "ttl": 64, "dns_ancount": 0}
    base.update(fields)
    return ExecutionEnv(fields=base, ts=0.0, epoch=0, switch_id="s0",
                        hash_family=HashFamily())


def spec_for(mtype, config, set_id=0, step=0):
    return ModuleRuleSpec(
        qid="q", step=step, module_type=mtype, set_id=set_id, stage=0,
        config=config,
    )


class TestKeySelection:
    def test_selects_masked_fields(self):
        module = KeySelectionModule(0, 0)
        spec = spec_for(ModuleType.KEY_SELECTION, KConfig.select("dip"))
        ctx = PhvContext()
        module.execute(spec, ctx, make_env(dip=0x0A000001))
        assert ctx.set(0).oper_fields == {"dip": 0x0A000001}
        assert ctx.set(0).oper_keys == (0x0A000001).to_bytes(4, "big")

    def test_prefix_mask_conceals_low_bits(self):
        module = KeySelectionModule(0, 0)
        config = KConfig(masks=(("dip", 0xFFFFFF00),))
        ctx = PhvContext()
        module.execute(spec_for(ModuleType.KEY_SELECTION, config), ctx,
                       make_env(dip=0x0A0000FF))
        assert ctx.set(0).oper_fields["dip"] == 0x0A000000

    def test_writes_only_its_set(self):
        module = KeySelectionModule(0, 0)
        spec = spec_for(ModuleType.KEY_SELECTION, KConfig.select("sip"),
                        set_id=1)
        ctx = PhvContext()
        module.execute(spec, ctx, make_env())
        assert ctx.set(0).oper_keys == b""
        assert ctx.set(1).oper_fields == {"sip": 1}

    def test_wrong_module_type_rejected(self):
        module = KeySelectionModule(0, 0)
        with pytest.raises(ValueError):
            module.install(spec_for(ModuleType.HASH_CALCULATION, HConfig()))


class TestHashCalculation:
    def test_hash_mode_in_range(self):
        module = HashCalculationModule(0, 0)
        config = HConfig(seed_index=0, range_size=128)
        ctx = PhvContext()
        ctx.set(0).oper_keys = b"abc"
        module.execute(spec_for(ModuleType.HASH_CALCULATION, config), ctx,
                       make_env())
        assert 0 <= ctx.set(0).hash_result < 128

    def test_direct_mode_forwards_field(self):
        module = HashCalculationModule(0, 0)
        config = HConfig(mode=HashMode.DIRECT, direct_field="dport")
        ctx = PhvContext()
        module.execute(spec_for(ModuleType.HASH_CALCULATION, config), ctx,
                       make_env(dport=53))
        assert ctx.set(0).hash_result == 53

    def test_same_keys_same_hash(self):
        module = HashCalculationModule(0, 0)
        config = HConfig(seed_index=3, range_size=1 << 16)
        results = []
        for _ in range(2):
            ctx = PhvContext()
            ctx.set(0).oper_keys = b"stable"
            module.execute(
                spec_for(ModuleType.HASH_CALCULATION, config), ctx, make_env()
            )
            results.append(ctx.set(0).hash_result)
        assert results[0] == results[1]


class TestStateBank:
    def test_counting(self):
        module = StateBankModule(0, 0, array_size=64)
        config = SConfig(op=StatefulOp.ADD, operand_const=1, slice_size=64)
        spec = spec_for(ModuleType.STATE_BANK, config)
        module.install(spec)
        env = make_env()
        for expected in (1, 2, 3):
            ctx = PhvContext()
            ctx.set(0).hash_result = 5
            module.execute(spec, ctx, env)
            assert ctx.set(0).state_result == expected

    def test_field_operand(self):
        module = StateBankModule(0, 0, array_size=16)
        config = SConfig(op=StatefulOp.ADD, operand_source="field",
                         operand_field="len", slice_size=16)
        spec = spec_for(ModuleType.STATE_BANK, config)
        module.install(spec)
        ctx = PhvContext()
        ctx.set(0).hash_result = 0
        module.execute(spec, ctx, make_env(len=1500))
        assert ctx.set(0).state_result == 1500

    def test_passthrough(self):
        module = StateBankModule(0, 0, array_size=16)
        spec = spec_for(ModuleType.STATE_BANK, SConfig(passthrough=True))
        module.install(spec)
        ctx = PhvContext()
        ctx.set(0).hash_result = 42
        module.execute(spec, ctx, make_env())
        assert ctx.set(0).state_result == 42

    def test_output_old_test_and_set(self):
        module = StateBankModule(0, 0, array_size=16)
        config = SConfig(op=StatefulOp.OR, operand_const=1,
                         output_old=True, slice_size=16)
        spec = spec_for(ModuleType.STATE_BANK, config)
        module.install(spec)
        results = []
        for _ in range(2):
            ctx = PhvContext()
            ctx.set(0).hash_result = 7
            module.execute(spec, ctx, make_env())
            results.append(ctx.set(0).state_result)
        assert results == [0, 1]

    def test_missing_hash_raises(self):
        module = StateBankModule(0, 0, array_size=16)
        spec = spec_for(ModuleType.STATE_BANK, SConfig(slice_size=16))
        module.install(spec)
        with pytest.raises(RuntimeError):
            module.execute(spec, PhvContext(), make_env())

    def test_window_reset(self):
        module = StateBankModule(0, 0, array_size=16)
        spec = spec_for(ModuleType.STATE_BANK, SConfig(slice_size=16))
        module.install(spec)
        ctx = PhvContext()
        ctx.set(0).hash_result = 1
        module.execute(spec, ctx, make_env())
        module.reset_window()
        ctx2 = PhvContext()
        ctx2.set(0).hash_result = 1
        module.execute(spec, ctx2, make_env())
        assert ctx2.set(0).state_result == 1

    def test_remove_releases_registers(self):
        module = StateBankModule(0, 0, array_size=16)
        spec = spec_for(ModuleType.STATE_BANK, SConfig(slice_size=16))
        module.install(spec)
        module.remove(spec.key)
        module.install(spec)  # would fail if registers leaked

    def test_failed_install_rolls_back_rule(self):
        module = StateBankModule(0, 0, array_size=8)
        big = spec_for(ModuleType.STATE_BANK, SConfig(slice_size=64))
        with pytest.raises(Exception):
            module.install(big)
        assert module.rule_count == 0


class TestResultProcess:
    def test_report_action(self):
        module = ResultProcessModule(0, 0)
        config = RConfig(
            source=MatchSource.STATE,
            entries=(RMatchEntry(5, 5, RAction(report=True)),),
            default=RAction(),
        )
        spec = spec_for(ModuleType.RESULT_PROCESS, config)
        ctx = PhvContext()
        ctx.set(0).state_result = 5
        env = make_env()
        module.execute(spec, ctx, env)
        assert len(env.reports) == 1
        assert env.reports[0].qid == "q"

    def test_stop_action(self):
        module = ResultProcessModule(0, 0)
        config = RConfig(default=RAction(stop=True))
        ctx = PhvContext()
        ctx.set(0).state_result = 1
        module.execute(spec_for(ModuleType.RESULT_PROCESS, config), ctx,
                       make_env())
        assert ctx.stopped

    def test_min_fold_into_global(self):
        module = ResultProcessModule(0, 0)
        config = RConfig(default=RAction(result_op=ResultOp.MIN))
        ctx = PhvContext()
        ctx.global_result = 9
        ctx.set(0).state_result = 4
        module.execute(spec_for(ModuleType.RESULT_PROCESS, config), ctx,
                       make_env())
        assert ctx.global_result == 4

    def test_global_source_matching(self):
        module = ResultProcessModule(0, 0)
        config = RConfig(
            source=MatchSource.GLOBAL,
            entries=(RMatchEntry(10, 10, RAction(report=True)),),
            default=RAction(stop=True),
        )
        ctx = PhvContext()
        ctx.global_result = 10
        env = make_env()
        module.execute(spec_for(ModuleType.RESULT_PROCESS, config), ctx, env)
        assert env.reports and not ctx.stopped

    def test_report_lands_in_env_reports(self):
        """The data plane hands reports to nobody: an emitted report is
        only appended to the packet's ``env.reports``."""
        module = ResultProcessModule(0, 0)
        config = RConfig(default=RAction(report=True))
        env = make_env()
        ctx = PhvContext()
        module.execute(spec_for(ModuleType.RESULT_PROCESS, config), ctx, env)
        assert len(env.reports) == 1
        assert (env.reports[0].switch_id, env.reports[0].epoch) == ("s0", 0)


class TestFactory:
    def test_build_every_type(self):
        for mtype in ModuleType:
            module = build_module(mtype, instance_id=1, stage=2)
            assert module.module_type is mtype
            assert module.stage == 2

    def test_state_bank_gets_array_size(self):
        module = build_module(ModuleType.STATE_BANK, 0, 0, array_size=99)
        assert module.array.size == 99
