"""Match-action table tests."""

import random

import pytest

from repro.dataplane.tables import (
    ExactMatchTable,
    TableFullError,
    TernaryRule,
    TernaryTable,
)


class TestExactMatchTable:
    def test_insert_lookup_remove(self):
        table = ExactMatchTable("t", capacity=4)
        table.insert(("q1", 0), "cfg")
        assert table.lookup(("q1", 0)) == "cfg"
        assert ("q1", 0) in table
        assert table.remove(("q1", 0)) == "cfg"
        assert table.lookup(("q1", 0)) is None

    def test_capacity_enforced(self):
        table = ExactMatchTable("t", capacity=2)
        table.insert(1, "a")
        table.insert(2, "b")
        with pytest.raises(TableFullError):
            table.insert(3, "c")

    def test_update_in_place_does_not_count_twice(self):
        table = ExactMatchTable("t", capacity=1)
        table.insert(1, "a")
        table.insert(1, "b")  # overwrite allowed at capacity
        assert table.lookup(1) == "b"
        assert len(table) == 1

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ExactMatchTable("t").remove("ghost")

    def test_free_counts(self):
        table = ExactMatchTable("t", capacity=3)
        table.insert(1, "a")
        assert table.free == 2


def _rule(match, priority=0, action="hit"):
    return TernaryRule.build(match, priority, action)


class TestTernaryRule:
    def test_exact_match(self):
        rule = _rule({"dport": (53, 0xFFFF)})
        assert rule.matches({"dport": 53})
        assert not rule.matches({"dport": 54})

    def test_masked_match(self):
        rule = _rule({"sip": (0x0A000000, 0xFF000000)})  # 10.0.0.0/8
        assert rule.matches({"sip": 0x0A636363})
        assert not rule.matches({"sip": 0x0B000000})

    def test_missing_field_treated_as_zero(self):
        rule = _rule({"tcp_flags": (0, 0xFF)})
        assert rule.matches({})

    def test_empty_match_is_wildcard(self):
        rule = _rule({})
        assert rule.matches({"anything": 42})


class TestTernaryTable:
    def test_priority_order(self):
        table = TernaryTable("init")
        low = _rule({"proto": (6, 0xFF)}, priority=1, action="low")
        high = _rule({"proto": (6, 0xFF)}, priority=9, action="high")
        table.insert(low)
        table.insert(high)
        hit = table.lookup({"proto": 6})
        assert hit is not None and hit.action == "high"

    def test_entries_stay_in_priority_then_insertion_order(self):
        """Each insert finds its place in the sorted entries: the order
        a full re-sort by (-priority, insertion) would give."""
        rng = random.Random(4)
        table = TernaryTable("init", capacity=400)
        for index in range(300):
            table.insert(_rule({}, priority=rng.randint(0, 5),
                               action=f"q{index}"))
            if index % 7 == 0:
                table.remove(table.entries()[rng.randrange(len(table))])
        entries = list(table.entries())
        assert entries == sorted(entries,
                                 key=lambda e: (-e.rule.priority, e.seq))

    def test_lookup_all_returns_every_match(self):
        table = TernaryTable("init")
        table.insert(_rule({"proto": (6, 0xFF)}, action="tcp"))
        table.insert(_rule({}, action="any"))
        table.insert(_rule({"proto": (17, 0xFF)}, action="udp"))
        actions = {r.action for r in table.lookup_all({"proto": 6})}
        assert actions == {"tcp", "any"}

    def test_capacity(self):
        table = TernaryTable("init", capacity=1)
        table.insert(_rule({}, action="a"))
        with pytest.raises(TableFullError):
            table.insert(_rule({}, action="b"))

    def test_remove(self):
        """``remove`` takes the entry ``insert`` returned: of two equal
        rules under one epoch tag, the one named goes."""
        table = TernaryTable("init")
        rule = _rule({"proto": (6, 0xFF)})
        first = table.insert(rule)
        second = table.insert(rule)
        table.remove(second)
        assert table.entries() == (first,)
        assert table.entries()[0] is first
        table.remove(first)
        assert table.lookup({"proto": 6}) is None

    def test_remove_missing_raises(self):
        table = TernaryTable("init")
        entry = table.insert(_rule({}))
        table.remove(entry)
        with pytest.raises(KeyError):
            table.remove(entry)

    def test_no_match_returns_none(self):
        table = TernaryTable("init")
        table.insert(_rule({"proto": (6, 0xFF)}))
        assert table.lookup({"proto": 17}) is None
