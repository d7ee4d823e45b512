"""Accuracy budgeting against a declared workload (codes NV701–NV703).

NV301–NV303 judge a sketch's geometry in the abstract (error *factors*,
failure probabilities).  Given an operator-declared expected flow
cardinality ``N`` for the deployment
(:attr:`~repro.verify.verifier.VerifierConfig.expected_flows`), this
artifact pass turns those factors into concrete budget verdicts — run by
:func:`~repro.verify.verifier.verify_queries` over its candidates, so an
install gate refuses an under-provisioned sketch before any rule moves:

* **NV701** — Count-Min load ``N / width`` exceeds ``CM_LOAD``:
  the average counter aggregates several flows, so threshold comparisons
  (``where ge=T``) fire on collision sums, not per-key counts.
* **NV702** — Bloom false-positive rate at the *declared* load,
  ``(1 - e^(-N/m'))^k``, exceeds ``MAX_FPR``: ``distinct`` wrongly
  suppresses first-seen keys at this workload.
* **NV703** — a Count-Min row is narrower than ``N`` itself: the sketch
  *cannot* give per-flow estimates at the declared cardinality by
  pigeonhole — an under-provisioned sketch, reported as an error.

All three recover sketch geometry from the compiled rules exactly as the
NV3xx pass does; they stay silent when no expected cardinality is
declared.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.core.compiler import CompiledQuery
from repro.core.rules import SConfig
from repro.dataplane.alu import StatefulOp
from repro.dataplane.module_types import ModuleType
from repro.verify.diagnostics import Diagnostic, Location, Severity
from repro.verify.sketch import MAX_FPR

__all__ = ["check_accuracy_budget", "CM_LOAD"]

#: Acceptable Count-Min load factor (flows per counter).
CM_LOAD = 0.5


def _sketch_geometries(
    comp: CompiledQuery,
) -> List[Tuple[int, bool, int, int]]:
    """``(first step, is_bloom, depth/k, width)`` per recovered sketch."""
    sketches: Dict[int, List[Tuple[int, SConfig]]] = defaultdict(list)
    first_step: Dict[int, int] = {}
    for spec in sorted(comp.specs, key=lambda s: s.step):
        if spec.module_type is not ModuleType.STATE_BANK:
            continue
        config = spec.config
        if not isinstance(config, SConfig) or config.passthrough:
            continue
        sketches[spec.primitive_index].append((spec.suite_index, config))
        first_step.setdefault(spec.primitive_index, spec.step)
    out: List[Tuple[int, bool, int, int]] = []
    for prim_index, suite_rows in sorted(sketches.items()):
        rows = [config for _, config in suite_rows]
        is_bloom = (
            min(index for index, _ in suite_rows) == 0
            and all(
                row.op is StatefulOp.OR and row.output_old for row in rows
            )
        )
        if not is_bloom and not all(
            row.op is StatefulOp.ADD for row in rows
        ):
            continue  # not a counting sketch (e.g. MAX register)
        width = min(row.slice_size for row in rows)
        out.append((first_step[prim_index], is_bloom, len(rows), width))
    return out


def check_accuracy_budget(
    compiled: Sequence[CompiledQuery],
    expected_flows: int,
) -> List[Diagnostic]:
    """NV701–NV703 for every sketch at the declared flow cardinality."""
    out: List[Diagnostic] = []
    if expected_flows <= 0:
        return out
    for comp in compiled:
        for step, is_bloom, depth, width in _sketch_geometries(comp):
            location = Location(qid=comp.qid, step=step)
            if is_bloom:
                fpr = (1.0 - math.exp(-expected_flows / width)) ** depth
                if fpr > MAX_FPR:
                    out.append(Diagnostic(
                        severity=Severity.WARNING,
                        code="NV702",
                        message=(
                            f"Bloom filter ({depth} hash(es), {width} "
                            f"bits/row) reaches a false-positive rate of "
                            f"{fpr:.3f} at the declared {expected_flows} "
                            f"flows (bound {MAX_FPR:g}); distinct will "
                            f"suppress first-seen keys at this workload"
                        ),
                        location=location,
                    ))
                continue
            load = expected_flows / width
            if width < expected_flows:
                out.append(Diagnostic(
                    severity=Severity.ERROR,
                    code="NV703",
                    message=(
                        f"under-provisioned sketch: Count-Min width "
                        f"{width} is below the declared {expected_flows} "
                        f"flows — every counter aggregates "
                        f"{load:.1f} flows on average and per-flow "
                        f"estimates are impossible by pigeonhole; widen "
                        f"the row or shard the query"
                    ),
                    location=location,
                ))
            elif load > CM_LOAD:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV701",
                    message=(
                        f"Count-Min load {load:.2f} flows/counter "
                        f"exceeds the budget {CM_LOAD:g} at the declared "
                        f"{expected_flows} flows (width {width}, depth "
                        f"{depth}); threshold tests will fire on "
                        f"collision sums"
                    ),
                    location=location,
                ))
    return out
