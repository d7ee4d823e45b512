"""What a refusal before commit leaves behind: nothing.

:func:`refused_before_commit` wraps one service call the static verifier
must refuse: it answers 422 with the NV diagnostics, adds exactly one
journal entry — the transaction aborted in phase 0 — and leaves the
committed epoch, the rule count and the staged/retired residue as they
were.
"""

from contextlib import contextmanager

import pytest

from repro.service import ServiceError


def error_codes(exc):
    """The codes of a refusal's error diagnostics."""
    return {d["code"] for d in exc.payload["diagnostics"]
            if d["severity"] == "error"}


@contextmanager
def refused_before_commit(service):
    controller = service.deployment.controller
    txn = controller.txn
    epoch, rules = txn.epoch, controller.rule_count()
    journaled = len(txn.journal)
    with pytest.raises(ServiceError) as exc:
        yield exc
    assert exc.value.status == 422, exc.value.payload
    assert exc.value.payload["error"] == "static verification failed"
    assert txn.epoch == epoch
    assert controller.rule_count() == rules
    assert txn.residue()["staged_residue"] == 0
    assert txn.residue()["retired_residue"] == 0
    assert [e.state for e in txn.journal.entries()[journaled:]] == [
        "aborted"]
