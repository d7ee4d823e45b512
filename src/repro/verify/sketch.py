"""Sketch-parameter sanity (codes NV301–NV304).

Newton's ``reduce`` lowers to a Count-Min sketch (one module suite per
row, §4.2) and ``distinct`` to a Bloom filter; both trade registers for
accuracy.  The compiler accepts any positive row/width numbers, so a
query can be *well-formed yet statistically useless* — e.g. a one-row
Count-Min whose collision probability makes every threshold comparison
noise.  This pass recovers each sketch's geometry from the placed rules
(no cooperation from the compiler) and checks it against the standard
bounds:

* **NV301** — Count-Min per-row error factor ``epsilon = e / width``
  exceeds ``MAX_EPSILON``: counts are inflated by more than
  ``epsilon * N`` in expectation.
* **NV302** — Count-Min failure probability ``delta = e^-depth`` exceeds
  ``MAX_DELTA``: too few rows for the estimate to hold with confidence.
* **NV303** — Bloom filter false-positive rate ``(1 - e^-load)^k``
  exceeds ``MAX_FPR`` at load factor ``BLOOM_LOAD``: ``distinct`` will
  wrongly suppress keys.
* **NV304** — two *overlapping* queries drive HASH rules with the same
  seed, range, and key masks: their sketch indices collide on every
  shared packet, correlating their errors (the paper's "different hash
  algorithms" knob, §4.1, left unused).  Queries whose dispatch entries
  cannot match the same packet are exempt.
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
from repro.verify.shadowing import ternary_intersects

__all__ = ["check_sketch_params", "check_hash_seed_collisions"]

#: Accuracy bounds.  Chosen so the paper's defaults (depth 2, 3 Bloom
#: hashes, 4096-register slices) pass with margin while the degenerate
#: settings (1 row, tiny slices) are flagged.
MAX_EPSILON = 0.05
MAX_DELTA = 0.25
BLOOM_LOAD = 0.5
MAX_FPR = 0.1


def check_sketch_params(
    compiled: Sequence[CompiledQuery],
) -> List[Diagnostic]:
    """NV301–NV303 over every sketch recovered from the placed rules."""
    out: List[Diagnostic] = []
    for comp in compiled:
        # Group stateful S rules into sketches: one per lowered primitive,
        # one suite per row.
        sketches: Dict[int, List[Tuple[int, SConfig]]] = defaultdict(list)
        first_step: Dict[int, int] = {}
        for spec in sorted(comp.specs, key=lambda s: s.step):
            if spec.module_type is not ModuleType.STATE_BANK:
                continue
            config = spec.config
            if not isinstance(config, SConfig) or config.passthrough:
                continue
            sketches[spec.primitive_index].append(
                (spec.suite_index, config)
            )
            first_step.setdefault(spec.primitive_index, spec.step)
        for prim_index, suite_rows in sorted(sketches.items()):
            location = Location(qid=comp.qid, step=first_step[prim_index])
            rows = [config for _, config in suite_rows]
            # A Bloom ``distinct`` lowers its OR rows as suites 0..k-1; an
            # OR row starting at a later suite is a single test-and-set
            # flag (the byte-sum result filter's report-once bit), not a
            # membership sketch.
            is_bloom = (
                min(index for index, _ in suite_rows) == 0
                and all(
                    row.op is StatefulOp.OR and row.output_old
                    for row in rows
                )
            )
            if is_bloom:
                k = len(rows)
                fpr = (1.0 - math.exp(-BLOOM_LOAD)) ** k
                if fpr > MAX_FPR:
                    out.append(Diagnostic(
                        severity=Severity.WARNING,
                        code="NV303",
                        message=(
                            f"Bloom filter with {k} hash function(s) has a "
                            f"false-positive rate of {fpr:.3f} at load "
                            f"{BLOOM_LOAD:g} (bound {MAX_FPR:g}); distinct "
                            f"will wrongly suppress first-seen keys"
                        ),
                        location=location,
                    ))
                continue
            if not all(row.op is StatefulOp.ADD for row in rows):
                continue  # not a counting sketch (e.g. MAX register)
            depth = len(rows)
            width = min(row.slice_size for row in rows)
            epsilon = math.e / width
            delta = math.exp(-depth)
            if epsilon > MAX_EPSILON:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV301",
                    message=(
                        f"Count-Min width {width} gives error factor "
                        f"epsilon = e/width = {epsilon:.3f} (bound "
                        f"{MAX_EPSILON:g}); counts overshoot by more than "
                        f"{MAX_EPSILON:g}*N in expectation"
                    ),
                    location=location,
                ))
            if delta > MAX_DELTA:
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV302",
                    message=(
                        f"Count-Min depth {depth} gives failure "
                        f"probability delta = e^-depth = {delta:.3f} "
                        f"(bound {MAX_DELTA:g}); add rows for the error "
                        f"bound to hold with confidence"
                    ),
                    location=location,
                ))
    return out


def check_hash_seed_collisions(
    candidates: Sequence[CompiledQuery],
    context: Sequence[CompiledQuery] = (),
) -> List[Diagnostic]:
    """NV304 findings anchored to ``candidates``.

    A candidate is compared with every candidate after it and with all
    of ``context`` (already-accepted queries, never reported on
    themselves): no context × context pair is visited, so the pass costs
    what the candidates touch, not what is resident.  The cheap probe —
    a signature in common, read off each artefact's cached
    :attr:`~repro.core.compiler.CompiledQuery.hash_signatures` — runs
    before the dispatch-overlap test it gates.
    """
    out: List[Diagnostic] = []
    for i, a in enumerate(candidates):
        if not a.hash_signatures:
            continue
        for b in (*candidates[i + 1:], *context):
            if a.qid == b.qid:
                continue
            b_sigs = b.signature_steps
            shared = [
                (step, sig) for step, sig in a.hash_signatures
                if sig in b_sigs
            ]
            if not shared:
                continue
            overlap = any(
                ternary_intersects(ea.match, eb.match)
                for ea in a.init_entries for eb in b.init_entries
            )
            if not overlap:
                continue
            for step, sig in shared:
                seed, range_size, masks = sig
                keys = ",".join(name for name, _ in masks)
                out.append(Diagnostic(
                    severity=Severity.WARNING,
                    code="NV304",
                    message=(
                        f"hash rule (step {step}) and query {b.qid!r} "
                        f"(step {b_sigs[sig]}) use the same seed {seed} "
                        f"over the same keys [{keys}] and range "
                        f"{range_size} while their dispatch entries "
                        f"overlap; their sketch errors are correlated — "
                        f"use a different seed_index"
                    ),
                    location=Location(qid=a.qid, step=step),
                ))
    return out
