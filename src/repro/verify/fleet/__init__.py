"""Fleet-level static analysis: whole-deployment passes over live state.

Where :mod:`repro.verify` admits one compiled query at a time, this
package snapshots *everything resident on the fabric* — active, staged
and retired rule banks, the concrete ``newton_init`` TCAMs, the
controller's committed epoch — and checks the properties that only exist
jointly:

* :mod:`~repro.verify.fleet.interference` — NV401–NV403, cross-query
  interference (occupancy policy, shared hash units, dispatch
  starvation),
* :mod:`~repro.verify.fleet.epochs` — NV601–NV603, epoch-transition
  safety (2PC staging windows, staged-bank layout, epoch hygiene),

plus the per-query verifier re-run over the joint installed set (NV7xx
accuracy budgets included, at a declared expected flow cardinality).

Entry points: :func:`analyze_deployment` (the ``newton-repro analyze``
backend), :func:`analyze_op` (the same passes narrowed to what one
operation touched: the service's read-only post-commit audit),
:func:`check_staging_plan` (the transaction manager's epoch gate), and
:func:`exit_code` (the CLI's 0/1/2 contract).
"""

from repro.verify.fleet.analyzer import (
    FleetConfig,
    analyze_deployment,
    analyze_fleet,
    analyze_op,
    check_staging_plan,
    exit_code,
)
from repro.verify.fleet.epochs import (
    check_epoch_hygiene,
    check_prospective_staging,
    check_staged_bank_layout,
    check_staging_plan_view,
)
from repro.verify.fleet.interference import (
    check_dispatch_starvation,
    check_fleet_occupancy,
    check_hash_unit_sharing,
)
from repro.verify.fleet.model import (
    BankView,
    DeploymentModel,
    DispatchView,
    SwitchView,
)

__all__ = [
    "FleetConfig",
    "analyze_deployment",
    "analyze_fleet",
    "analyze_op",
    "check_staging_plan",
    "exit_code",
    "check_epoch_hygiene",
    "check_prospective_staging",
    "check_staged_bank_layout",
    "check_staging_plan_view",
    "check_dispatch_starvation",
    "check_fleet_occupancy",
    "check_hash_unit_sharing",
    "BankView",
    "DeploymentModel",
    "DispatchView",
    "SwitchView",
]
