"""The whole-fleet walk as the oracle of the per-operation audit.

:class:`AuditOracle` is a controller commit listener: after every
install and update it holds :func:`~repro.verify.fleet.analyze_op` (what
a per-operation gate runs) against :func:`analyze_deployment` over
everything (what ``newton-repro analyze`` runs):

* **scoped == full, filtered to the op** — the walk, given the op's
  artefacts first (a cross-query finding is located at the earlier of
  its two queries, and the audit's question is "what does *this* query
  collide with"), reports at the op's sub-queries and switches exactly
  what the audit reports, in the same order;
* **scoped rejects iff full rejects**, whenever the fleet was free of
  errors before the op — which a gate that refuses ops before they
  commit keeps true.
"""

from repro.verify.fleet import (
    analyze_deployment,
    analyze_fleet,
    analyze_op,
    exit_code,
)


def full_walk_filtered_to(deployment, qid, config=None):
    """The whole walk's findings at query ``qid``'s sub-queries and (the
    switch-wide ones) at the switches hosting it."""
    controller = deployment.controller
    record = controller.installed[qid]
    artifacts = {
        sub_qid: compiled
        for owner in [qid] + [q for q in controller.installed if q != qid]
        for sub_qid, compiled in controller.installed[owner].compiled.items()
    }
    report = analyze_deployment(
        deployment.switches, compiled=artifacts,
        committed_epoch=controller.txn.epoch, config=config,
    )
    return [
        d for d in report.diagnostics
        if d.location.qid in record.compiled
        or (d.location.qid is None and d.location.switch in record.by_switch)
    ]


class AuditOracle:
    """Attach with ``controller.listeners.append(AuditOracle(dep))``."""

    def __init__(self, deployment, config=None):
        self.deployment = deployment
        self.config = config
        #: Whether the whole walk was error-free after the previous op.
        self.clean = True
        self.checked = 0
        self.rejections = 0

    def __call__(self, op, record):
        full = analyze_fleet(self.deployment, self.config)
        if record is not None:
            scoped = analyze_op(self.deployment, op.qid, self.config)
            assert scoped.diagnostics == full_walk_filtered_to(
                self.deployment, op.qid, self.config
            ), f"{op.kind} {op.qid}: scoped audit != filtered full walk"
            rejects = exit_code(scoped) >= 2
            if self.clean:
                assert rejects == (exit_code(full) >= 2), (
                    f"{op.kind} {op.qid}: scoped audit and full walk "
                    f"disagree on rejection"
                )
            self.checked += 1
            self.rejections += rejects
        self.clean = exit_code(full) < 2
