"""SConfig construction validation (state-bank rule sanity)."""

import pytest

from repro.core.rules import SConfig


class TestSConfigValidation:
    def test_counting_rule_accepted(self):
        assert SConfig(operand_const=1).operand({}) == 1

    def test_zero_constant_accepted(self):
        SConfig(operand_const=0)

    def test_negative_constant_rejected(self):
        # Registers are unsigned; the batch ALU's grouped scans rely on it,
        # so the rule cannot exist rather than veto the batch engine later.
        with pytest.raises(ValueError, match="non-negative"):
            SConfig(operand_const=-1)
