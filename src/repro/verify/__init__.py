"""Static rule verifier: pre-install analysis of compiled module-rule
programs.

Newton pushes query compilation into table rules for pre-loaded modules;
this package analyses those rules *before* the controller touches a
switch, so ill-formed programs are rejected with structured diagnostics
instead of corrupting monitoring silently at runtime.  Six passes:

1. ternary shadowing/overlap (``NV0xx``, :mod:`repro.verify.shadowing`),
2. container-dependency and layout soundness (``NV1xx``,
   :mod:`repro.verify.dependencies`) — the machine-checked Figure 4,
3. resource admission (``NV2xx``, :mod:`repro.verify.resources`),
4. sketch-parameter sanity (``NV3xx``, :mod:`repro.verify.sketch`),
5. dead-rule elimination hints (``NV5xx``, :mod:`repro.verify.deadrules`),
6. accuracy budgeting at a declared workload (``NV7xx``,
   :mod:`repro.verify.accuracy`).

:mod:`repro.verify.fleet` extends the per-query passes to the whole
deployment: cross-query interference (``NV4xx``) and epoch-transition
safety (``NV6xx``) over every resident rule bank — the backend of
``newton-repro analyze`` and the transaction manager's staging gate.

All codes are documented in ``docs/static-analysis.md``.
"""

from repro.verify.fleet import (
    FleetConfig,
    analyze_deployment,
    analyze_fleet,
    analyze_op,
    check_staging_plan,
    exit_code,
)
from repro.verify.diagnostics import (
    Diagnostic,
    Location,
    Severity,
    VerificationError,
    VerificationReport,
)
from repro.verify.program import (
    Demand,
    PipelineModel,
    RuleView,
    demand_of_slices,
    init_entries_of,
    rules_of_compiled,
    rules_of_slices,
)
from repro.verify.verifier import (
    VerifierConfig,
    require_ok,
    verify_demand,
    verify_queries,
)

__all__ = [
    "FleetConfig",
    "analyze_deployment",
    "analyze_fleet",
    "analyze_op",
    "check_staging_plan",
    "exit_code",
    "Diagnostic",
    "Location",
    "Severity",
    "VerificationError",
    "VerificationReport",
    "Demand",
    "PipelineModel",
    "RuleView",
    "VerifierConfig",
    "demand_of_slices",
    "init_entries_of",
    "require_ok",
    "rules_of_compiled",
    "rules_of_slices",
    "verify_demand",
    "verify_queries",
]
