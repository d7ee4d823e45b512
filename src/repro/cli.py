"""Command-line interface.

Everything the repository can do, reachable without writing Python::

    newton-repro list-queries              # the Table 2 query library
    newton-repro compile Q4                # rules/stages a query compiles to
    newton-repro lint --all                # static verification of the library
    newton-repro lint Q6 Q8 --joint        # cross-query checks of a set
    newton-repro analyze Q1 Q2 Q3          # fleet-level deployment analysis
    newton-repro experiment fig7           # regenerate a paper artefact
    newton-repro experiment all            # every table and figure
    newton-repro collect-stats             # collection-plane metrics run
    newton-repro txn-stats                 # control-plane transactions under faults
    newton-repro throughput                # scalar vs vectorized engine pkts/sec
    newton-repro chaos --fault-plan p.json # fault injection + recovery report
    newton-repro demo --engine vector      # quickstart end-to-end run
    newton-repro serve --port 8181         # long-running service + HTTP API
    newton-repro plan                      # dynamic-planner refinement demo
    newton-repro plan --url http://...     # inspect a live planner
    newton-repro metrics                   # Prometheus text exposition

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import os
import runpy
import sys
from typing import List, Optional, Tuple

from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.library import QUERY_DESCRIPTIONS, build_query
from repro.core.query import QueryLike, flatten
from repro.experiments.common import evaluation_thresholds, format_table

__all__ = ["main", "build_parser"]

#: Experiment registry: name -> (runner, description).  Runners return the
#: rendered artefact string.
def _run_table3() -> str:
    from repro.experiments.exp_table3 import render_table3, table3

    return render_table3(table3())


def _run_fig7() -> str:
    from repro.experiments.exp_fig7 import figure7, render_figure7

    return render_figure7(figure7())


def _run_fig10() -> str:
    from repro.experiments.exp_fig10 import (
        figure10a,
        figure10b,
        render_figure10,
    )

    return render_figure10(figure10a(), figure10b())


def _run_fig11() -> str:
    from repro.experiments.exp_fig11 import figure11, render_figure11

    return render_figure11(figure11(repetitions=100))


def _run_fig12() -> str:
    from repro.experiments.exp_fig12 import figure12, render_figure12

    return render_figure12(figure12(n_packets=20_000, duration_s=0.5))


def _run_fig13() -> str:
    from repro.experiments.exp_fig13 import figure13, render_figure13

    return render_figure13(figure13())


def _run_fig14() -> str:
    from repro.experiments.exp_fig14 import figure14, render_figure14

    return render_figure14(figure14())


def _run_fig15() -> str:
    from repro.experiments.exp_fig15 import (
        figure15,
        figure15_sonata,
        render_figure15,
    )

    return render_figure15(figure15(), figure15_sonata())


def _run_fig16() -> str:
    from repro.experiments.exp_fig16 import figure16, render_figure16

    return render_figure16(figure16())


def _run_fig17() -> str:
    from repro.experiments.exp_fig17 import (
        figure17a,
        figure17b,
        render_figure17,
    )

    return render_figure17(figure17a(), figure17b())


def _run_ablations() -> str:
    from repro.experiments.ablations import (
        ablate_admission,
        ablate_layout,
        ablate_placement,
        ablate_sketch_shape,
    )

    layout = ablate_layout()
    placement = ablate_placement()
    shape = ablate_sketch_shape()
    admission = ablate_admission()
    lines = [
        "Layout ablation:",
        f"  compact fits {len(layout.compact_fit)}/9 queries in "
        f"{layout.pipeline_stages} stages; naive fits "
        f"{len(layout.naive_fit)}/9",
        "",
        "Placement ablation:",
        f"  oracle {placement.oracle_entries} entries vs resilient "
        f"{placement.resilient_entries} "
        f"({placement.resilience_overhead:.2f}x)",
        "",
        "Sketch-shape ablation (fixed budget):",
        format_table(
            ["depth", "width", "recall", "FPR"],
            [[p.depth, p.width, f"{p.recall:.3f}", f"{p.fpr:.4f}"]
             for p in shape],
        ),
        "",
        "Admission ablation:",
        format_table(
            ["array", "strict", "degraded"],
            [[a.array_size, a.strict_admitted, a.degraded_admitted]
             for a in admission],
        ),
    ]
    return "\n".join(lines)


EXPERIMENTS = {
    "table3": (_run_table3, "Table 3: data-plane resource usage"),
    "fig7": (_run_fig7, "Figure 7: compilation reduction ratios"),
    "fig10": (_run_fig10, "Figure 10: Sonata update interruption"),
    "fig11": (_run_fig11, "Figure 11: query operation delay"),
    "fig12": (_run_fig12, "Figure 12: monitoring overhead comparison"),
    "fig13": (_run_fig13, "Figure 13: overhead vs path length"),
    "fig14": (_run_fig14, "Figure 14: accuracy vs register budget"),
    "fig15": (_run_fig15, "Figure 15: compilation evaluation"),
    "fig16": (_run_fig16, "Figure 16: concurrent-query multiplexing"),
    "fig17": (_run_fig17, "Figure 17: network-wide placement"),
    "ablations": (_run_ablations, "design-choice ablations (beyond paper)"),
}


def cmd_list_queries(_args) -> int:
    thresholds = evaluation_thresholds()
    rows = []
    params = QueryParams()
    for name in sorted(QUERY_DESCRIPTIONS):
        query = build_query(name, thresholds)
        modules = stages = 0
        for sub in flatten(query):
            compiled = compile_query(sub, params, Optimizations.all())
            modules += compiled.num_modules
            stages = max(stages, compiled.num_stages)
        rows.append([name, QUERY_DESCRIPTIONS[name],
                     sum(s.num_primitives for s in flatten(query)),
                     modules, stages])
    print(format_table(
        ["Query", "Intent", "prims", "modules", "stages (max sub)"], rows
    ))
    return 0


def cmd_compile(args) -> int:
    query = build_query(args.query, evaluation_thresholds())
    params = QueryParams(cm_depth=args.cm_depth, bf_hashes=args.bf_hashes)
    opts = Optimizations.upto(args.opt_level)
    if args.json:
        from repro.core.export import to_json

        for sub in flatten(query):
            print(to_json(compile_query(sub, params, opts)))
        return 0
    for sub in flatten(query):
        compiled = compile_query(sub, params, opts)
        print(f"\n{sub.describe()}")
        print(f"  modules={compiled.num_modules} "
              f"stages={compiled.num_stages} "
              f"rules={compiled.rule_count} "
              f"registers={compiled.register_demand}")
        if args.rules:
            rows = [
                [spec.step, spec.module_type.symbol, spec.set_id,
                 spec.stage, f"p{spec.primitive_index}/s{spec.suite_index}",
                 type(spec.config).__name__]
                for spec in compiled.specs
            ]
            print(format_table(
                ["step", "mod", "set", "stage", "origin", "config"], rows
            ))
    # Static verification of what was just compiled (same artifacts the
    # controller would check before an install).
    from repro.verify import PipelineModel, verify_queries

    compiled_subs = [compile_query(sub, params, opts)
                     for sub in flatten(query)]
    report = verify_queries(compiled_subs, model=PipelineModel())
    print()
    print(report.render())
    return 0


def _lint_targets(
    names: List[str], thresholds,
) -> List[Tuple[str, List[QueryLike]]]:
    """Resolve lint operands: library names or Python files.

    A file must expose ``QUERY`` (one query) or ``QUERIES`` (an iterable);
    each may be a plain or composite query.
    """
    targets: List[Tuple[str, List[QueryLike]]] = []
    for name in names:
        if name in QUERY_DESCRIPTIONS:
            targets.append((name, [build_query(name, thresholds)]))
            continue
        if os.path.exists(name):
            namespace = runpy.run_path(name)
            if "QUERIES" in namespace:
                queries = list(namespace["QUERIES"])
            elif "QUERY" in namespace:
                queries = [namespace["QUERY"]]
            else:
                raise SystemExit(
                    f"lint: {name} defines neither QUERY nor QUERIES"
                )
            targets.append((name, queries))
            continue
        raise SystemExit(
            f"lint: {name!r} is neither a library query "
            f"({', '.join(sorted(QUERY_DESCRIPTIONS))}) nor a file"
        )
    return targets


def cmd_lint(args) -> int:
    """Statically verify compiled query programs.

    Exit contract (shared with ``analyze``): 0 clean, 1 warnings only,
    2 errors (``--werror`` promotes warnings to errors).
    """
    from repro.verify import (
        PipelineModel,
        VerifierConfig,
        exit_code,
        verify_queries,
    )

    names = list(args.targets)
    if args.all:
        names.extend(sorted(QUERY_DESCRIPTIONS))
    if not names:
        raise SystemExit("lint: name queries/files to check, or pass --all")

    params = QueryParams(
        cm_depth=args.cm_depth,
        bf_hashes=args.bf_hashes,
        reduce_registers=args.reduce_registers,
        distinct_registers=args.distinct_registers,
    )
    opts = Optimizations.upto(args.opt_level)
    model = PipelineModel(
        num_stages=args.stages,
        table_capacity=args.table_capacity,
        array_size=args.array_size,
    )
    config = VerifierConfig(suppress=tuple(args.suppress))

    # Each target is a verification unit; --joint folds every target into
    # one unit so cross-query passes see the whole set.
    units: List[Tuple[str, List[QueryLike]]] = _lint_targets(
        names, evaluation_thresholds()
    )
    if args.joint:
        units = [("joint", [q for _, qs in units for q in qs])]

    as_json = args.json or args.format == "json"
    worst = 0
    json_diags: List[dict] = []
    for label, queries in units:
        compiled = [
            compile_query(sub, params, opts)
            for query in queries
            for sub in flatten(query)
        ]
        report = verify_queries(compiled, model=model, config=config)
        if as_json:
            json_diags.extend(d.as_dict() for d in report.sorted())
        else:
            print(f"== {label}")
            print(report.render())
        worst = max(worst, exit_code(report, werror=args.werror))
    if as_json:
        import json as json_mod

        print(json_mod.dumps(json_diags, indent=2))
    return worst


def cmd_analyze(args) -> int:
    """Fleet-level static analysis of a deployed query set.

    Builds a linear deployment, installs the named queries, and runs
    the whole-deployment analyzer (NV4xx interference, NV6xx epoch
    safety, NV7xx accuracy budgets, plus the joint per-query passes).
    Queries the install-time gate rejects are reported as skipped and
    the analysis continues over what was admitted.  Exit contract:
    0 clean, 1 warnings only, 2 errors.
    """
    from repro.network.deployment import build_deployment
    from repro.network.topology import linear
    from repro.verify import (
        FleetConfig,
        VerifierConfig,
        analyze_deployment,
        exit_code,
    )

    names = list(args.queries) or ["Q1", "Q2", "Q3"]
    params = QueryParams(
        cm_depth=args.cm_depth,
        bf_hashes=args.bf_hashes,
        reduce_registers=args.reduce_registers,
        distinct_registers=args.distinct_registers,
    )
    dep = build_deployment(
        linear(args.switches),
        num_stages=args.stages,
        table_capacity=args.table_capacity,
        array_size=args.array_size,
    )
    path = [f"s{i}" for i in range(args.switches)]
    thresholds = evaluation_thresholds()
    skipped: List[Tuple[str, str]] = []
    for name in names:
        try:
            dep.controller.install_query(
                build_query(name, thresholds), params, path=path
            )
        except Exception as exc:  # gate rejection, resource exhaustion
            skipped.append((name, f"{type(exc).__name__}: {exc}"))
    compiled = {
        sub_qid: comp
        for record in dep.controller.installed.values()
        for sub_qid, comp in record.compiled.items()
    }
    config = FleetConfig(
        expected_flows=args.expected_flows or None,
        suppress=tuple(args.suppress),
        verifier=VerifierConfig(suppress=tuple(args.suppress)),
    )
    report = analyze_deployment(
        dep.switches,
        compiled=compiled,
        committed_epoch=dep.controller.txn.epoch,
        config=config,
    )
    for name, reason in skipped:
        print(f"analyze: skipped {name}: {reason}", file=sys.stderr)
    if args.format == "json":
        print(report.to_json())
    else:
        installed = ", ".join(sorted(compiled)) or "(none)"
        print(f"== fleet: {len(dep.switches)} switches, "
              f"queries {installed}")
        print(report.render())
    return exit_code(report, werror=args.werror)


def cmd_experiment(args) -> int:
    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        runner, description = EXPERIMENTS[name]
        print(f"\n=== {name}: {description} ===")
        print(runner())
    return 0


def cmd_collect_stats(args) -> int:
    """Run a trace through the collection plane and expose its metrics."""
    import json as json_module

    from repro import build_deployment, caida_like, linear, syn_flood
    from repro.collector import BackpressurePolicy, CollectorConfig, FaultConfig
    from repro.traffic.generators import assign_hosts
    from repro.traffic.traces import merge_traces

    BackpressurePolicy.validate(args.policy)
    config = CollectorConfig(
        queue_capacity=args.capacity,
        policy=args.policy,
        allowed_lateness=args.lateness,
        reconcile_loss_threshold=args.reconcile_threshold,
        faults=FaultConfig(
            loss=args.loss,
            duplication=args.duplication,
            reorder=args.reorder,
            delay=args.delay,
            seed=args.seed,
        ),
    )
    deployment = build_deployment(
        linear(args.switches), array_size=1 << 13, collector_config=config
    )
    path = [f"s{i}" for i in range(args.switches)]
    query = build_query(args.query, evaluation_thresholds())
    deployment.controller.install_query(
        query, QueryParams(cm_depth=2, reduce_registers=2048), path=path
    )
    trace = merge_traces([
        caida_like(args.packets, duration_s=args.duration, seed=args.seed),
        syn_flood(n_packets=max(args.packets // 20, 100),
                  duration_s=args.duration, seed=args.seed + 1),
    ])
    stats = deployment.simulator.run(
        assign_hosts(trace, [("h_src0", "h_dst0")])
    )
    collector = deployment.collector
    collector.flush()

    if args.json:
        print(json_module.dumps(collector.metrics.snapshot(), indent=2,
                                default=str))
        return 0

    ingested, accounted = collector.balance()
    print(f"ran {stats.packets} packets over {args.switches} switch(es); "
          f"{stats.reports_total} mirrored reports, "
          f"{stats.deferred} deferred packets")
    print(f"collection plane [{args.policy}, capacity {args.capacity}]: "
          f"ingested={ingested} processed={collector.processed} "
          f"dropped={collector.dropped} pending={collector.pending} "
          f"lost-in-flight={collector.lost}")
    print(f"flow invariant: ingested == processed + dropped + pending "
          f"-> {ingested} == {accounted}")
    print("\nper-switch queues:")
    rows = [
        [sid, q.offered, q.accepted, q.dropped, q.blocked, q.high_watermark]
        for sid, q in sorted(collector.queue_stats().items(), key=str)
    ]
    print(format_table(
        ["switch", "offered", "accepted", "dropped", "blocked", "hwm"], rows
    ))
    print("\nmetrics registry:")
    print(collector.metrics.render())
    return 0


def cmd_txn_stats(args) -> int:
    """Drive query churn through the transactional control plane under a
    seeded fault schedule and expose the journal + metric registry."""
    import json as json_module

    from repro import build_deployment, linear
    from repro.ctrlplane import (
        FaultPlan,
        FaultyControlChannel,
        TransactionAborted,
        TxnConfig,
    )
    from repro.verify import VerificationError

    channel = FaultyControlChannel(
        fault_plan=FaultPlan(
            loss_rate=args.loss,
            timeout_rate=args.timeout,
            reboot_rate=args.reboot,
            seed=args.seed,
        )
    )
    deployment = build_deployment(
        linear(args.switches), array_size=1 << 13, channel=channel,
        txn_config=TxnConfig(max_attempts=args.max_attempts),
    )
    controller = deployment.controller
    path = [f"s{i}" for i in range(args.switches)]
    # Small sketches: make-before-break doubles a query's register
    # occupancy until GC, and the verifier gates on the doubled demand.
    params = QueryParams(cm_depth=2, reduce_registers=512,
                         distinct_registers=512)
    thresholds = evaluation_thresholds()

    # Churn: install the rotation, then update each query in place
    # ``--updates`` times; every operation is one transaction.
    rotation = sorted(QUERY_DESCRIPTIONS)[:args.queries]
    aborted = 0
    for name in rotation:
        try:
            controller.install_query(
                build_query(name, thresholds), params, path=path
            )
        except (TransactionAborted, VerificationError):
            aborted += 1
    for round_index in range(args.updates):
        del round_index
        for name in rotation:
            if name not in controller.installed:
                try:
                    controller.install_query(
                        build_query(name, thresholds), params, path=path
                    )
                except (TransactionAborted, VerificationError):
                    aborted += 1
                continue
            try:
                controller.update_query(
                    build_query(name, thresholds), params, path=path
                )
            except (TransactionAborted, VerificationError):
                aborted += 1

    txn = controller.txn
    if args.json:
        print(json_module.dumps(
            {
                "epoch": txn.epoch,
                "aborted_operations": aborted,
                "faults_injected": channel.faults_injected,
                "journal": txn.journal.snapshot(),
                "metrics": txn.registry.snapshot(),
            },
            indent=2, default=str,
        ))
        return 0

    print(f"ran {len(txn.journal)} transactions over {args.switches} "
          f"switch(es); committed epoch {txn.epoch}, "
          f"{aborted} operation(s) aborted")
    print(f"faults injected: loss={channel.faults_injected['loss']} "
          f"timeout={channel.faults_injected['timeout']} "
          f"reboot={channel.faults_injected['reboot']}")
    staged = sum(s.staged_rule_count for s in deployment.switches.values())
    retired = sum(s.retired_rule_count for s in deployment.switches.values())
    print(f"residue after churn: staged={staged} retired={retired} "
          f"(both must be 0)")
    print("\ntransaction journal:")
    print(txn.journal.render())
    print("\nmetrics registry:")
    print(txn.registry.render())
    return 0


def cmd_throughput(args) -> int:
    """Time the execution engines over one seeded monitored workload."""
    import json as json_module

    from repro.experiments.throughput import measure_throughput

    result = measure_throughput(
        n_packets=args.packets, switches=args.switches, seed=args.seed,
        workers=args.workers,
    )
    if args.json:
        print(json_module.dumps(
            {
                "engines": {
                    run.engine: {
                        "packets": run.packets,
                        "seconds": run.seconds,
                        "packets_per_sec": run.pps,
                        "reports": run.reports,
                    }
                    for run in result.runs
                },
                "speedup": result.speedup,
                "identical": result.identical,
            },
            indent=2,
        ))
        return 0 if result.identical else 1
    rows = [
        [run.engine, run.packets, f"{run.seconds:.2f}",
         f"{run.pps / 1e3:.0f}k", run.reports]
        for run in result.runs
    ]
    print(format_table(
        ["engine", "packets", "seconds", "pkts/s", "reports"], rows
    ))
    print(f"speedup: {result.speedup:.2f}x "
          f"(identical stats+reports: {result.identical})")
    return 0 if result.identical else 1


def cmd_demo(args) -> int:
    """Inline quickstart: intent -> rules -> traffic -> detections."""
    from repro import build_deployment, caida_like, ip_str, linear, syn_flood
    from repro.traffic.generators import assign_hosts
    from repro.traffic.traces import merge_traces

    query = build_query("Q1", evaluation_thresholds())
    deployment = build_deployment(
        linear(1), array_size=1 << 13, engine=args.engine
    )
    result = deployment.controller.install_query(
        query, QueryParams(cm_depth=2, reduce_registers=2048), path=["s0"]
    )
    print(f"installed Q1 ({result.rules_staged} rules) in "
          f"{result.delay_s * 1e3:.1f} ms")
    trace = merge_traces([
        caida_like(10_000, duration_s=0.3, seed=5),
        syn_flood(n_packets=500, duration_s=0.3, seed=6),
    ])
    deployment.simulator.run(assign_hosts(trace, [("h_src0", "h_dst0")]))
    for epoch, keys in deployment.analyzer.detections("Q1").items():
        for key in keys:
            print(f"window {epoch}: new-connection spike at "
                  f"{ip_str(key[0])}")
    return 0


def cmd_chaos(args) -> int:
    """Run a monitored deployment under a declarative fault plan and
    report detection latency, recovery actions, and per-query coverage."""
    import json as json_module

    from repro import build_deployment, linear
    from repro.resilience import FaultPlan, crash
    from repro.traffic.generators import assign_hosts, caida_like

    if args.fault_plan:
        with open(args.fault_plan) as handle:
            plan = FaultPlan.from_json(handle.read())
    else:
        # Standard crash scenario: the first path switch fails partway
        # through the trace and comes back empty.
        plan = FaultPlan(
            events=(crash("s0", at=0.2, down_for=0.15),), seed=args.seed,
        )
    deployment = build_deployment(
        linear(args.switches), array_size=1 << 13, engine=args.engine,
        faults=plan,
    )
    path = [f"s{i}" for i in range(args.switches)]
    params = QueryParams(cm_depth=2, reduce_registers=2048)
    query = build_query(args.query, evaluation_thresholds())
    deployment.controller.install_query(query, params, path=path)
    trace = caida_like(args.packets, duration_s=args.duration,
                       seed=args.seed)
    deployment.simulator.run(
        assign_hosts(trace, [("h_src0", "h_dst0")])
    )
    recovery = deployment.recovery
    detector = deployment.detector
    summary = recovery.summary()
    if args.json:
        print(json_module.dumps(
            {
                "plan": plan.to_dict(),
                "health": {
                    str(sid): health.state
                    for sid, health in detector.health_map().items()
                },
                "transitions": [
                    {"switch": str(t.switch_id), "from": t.old,
                     "to": t.new, "epoch": t.epoch, "at_s": t.at_s}
                    for t in detector.transitions
                ],
                "incidents": [
                    {"switch": str(r.switch_id), "action": r.action,
                     "queries": list(r.qids),
                     "detect_latency_s": r.detect_latency_s,
                     "reinstall_delay_s": r.reinstall_delay_s,
                     "windows_impaired": r.windows_impaired}
                    for r in recovery.records
                ],
                "summary": summary,
                "gaps": [
                    {"qid": g.qid, "epoch": g.epoch, "reason": g.reason,
                     "switch": None if g.switch is None else str(g.switch)}
                    for g in recovery.coverage.gaps()
                ],
            },
            indent=2,
        ))
        return 0 if not summary["degraded"] else 1
    print(f"fault plan: {len(plan.events)} event(s), seed {plan.seed}")
    for t in detector.transitions:
        print(f"  window {t.epoch}: switch {t.switch_id} "
              f"{t.old} -> {t.new}")
    for r in recovery.records:
        print(f"recovered {', '.join(r.qids)} via {r.action} on "
              f"{r.switch_id}: detected in {r.detect_latency_s * 1e3:.0f} ms,"
              f" re-staged in {r.reinstall_delay_s * 1e3:.1f} ms, "
              f"{r.windows_impaired} window(s) impaired")
    for qid, digest in summary["coverage"].items():
        print(f"coverage {qid}: {digest['coverage']:.0%} "
              f"({digest['windows_full']}/{digest['windows_total']} windows"
              f" full, {digest['gap_windows']} gap(s))")
    if summary["degraded"]:
        print(f"degraded queries: {', '.join(summary['degraded'])}")
        return 1
    return 0


def cmd_serve(args) -> int:
    """Run the live operations plane: a long-running service driving a
    deployment from a seeded generator (or a TCP packet feed), with query
    CRUD, streaming reports, coverage, and metrics over HTTP."""
    import asyncio
    import signal

    from repro.ctrlplane import WalCorruptError
    from repro.service import (
        GeneratorSource,
        NewtonService,
        ServiceConfig,
        ServiceHTTP,
        SocketSource,
    )

    if args.source == "generator":
        source = GeneratorSource(
            pps=args.pps, seed=args.seed, max_windows=args.max_windows,
        )
    else:
        source = SocketSource(host=args.host, port=args.feed_port)
    config = ServiceConfig(
        switches=args.switches,
        window_ms=args.window_ms,
        engine=args.engine,
        array_size=args.array_size,
        rate=args.rate,
        wal_dir=args.wal or None,
        wal_snapshot_every=args.wal_snapshot_every,
    )
    sharded = None
    if args.workers > 1:
        # Fabric plane: a ShardedDeployment is a Deployment, so the
        # service's CRUD/tick/prune paths drive it unchanged.
        from repro.fabric import ShardedDeployment
        from repro.network.topology import linear
        from repro.resilience import ResilienceConfig

        sharded = ShardedDeployment(
            linear(config.switches),
            workers=args.workers,
            record_reports=False,
            num_stages=config.num_stages,
            table_capacity=config.table_capacity,
            array_size=config.array_size,
            window_ms=config.window_ms,
            engine=config.engine,
            resilience=ResilienceConfig(),
        )
        print(f"fabric plane: {args.workers} shard workers", flush=True)
    try:
        service = NewtonService(source, config, deployment=sharded)
    except WalCorruptError as exc:
        if sharded is not None:
            sharded.close()
        print(f"serve: {exc}", file=sys.stderr)
        return 1
    if service.wal_recovery is not None:
        rec = service.wal_recovery
        print(f"wal recovery: {rec['replayed_ops']} ops replayed, "
              f"committed epoch {rec['committed_epoch']}, "
              f"window epoch {rec['window_epoch']}, "
              f"{rec['recovery_s'] * 1e3:.1f} ms", flush=True)
    installed = set(service.deployment.controller.installed)
    for name in args.queries:
        if name in installed:
            continue  # WAL recovery already reinstalled it
        payload = service.install({"query": name})
        print(f"installed {name}: {payload['rules_staged']} rules in "
              f"{payload['delay_s'] * 1e3:.1f} ms", flush=True)

    async def run_service():
        http_api = ServiceHTTP(service, host=args.host, port=args.port)
        port = await http_api.start()
        if isinstance(source, SocketSource):
            feed_port = await source.start()
            print(f"packet feed listening on {args.host}:{feed_port}",
                  flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, service.request_stop)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print(f"serving on http://{args.host}:{port} "
              f"(engine={config.engine}, window={config.window_ms} ms, "
              f"rate={config.rate or 'free-run'})", flush=True)
        await service.start()
        summary = await service.shutdown()
        await http_api.stop()
        return summary

    try:
        summary = asyncio.run(run_service())
    finally:
        if sharded is not None:
            sharded.close()
    print(f"shutdown: committed epoch {summary['committed_epoch']}, "
          f"rule epochs {summary['rule_epochs']}, "
          f"staged residue {summary['staged_residue']}, "
          f"retired residue {summary['retired_residue']}, "
          f"{summary['windows']} windows, "
          f"{summary['packets']} packets, "
          f"{summary['mixed_epoch_packets']} mixed-epoch packets",
          flush=True)
    clean = (summary["staged_residue"] == 0
             and summary["retired_residue"] == 0
             and summary["mixed_epoch_packets"] == 0
             and len(summary["rule_epochs"]) == 1)
    return 0 if clean else 1


def cmd_plan(args) -> int:
    """Dynamic planner: inspect a running service's plans (``--url``),
    hand it a query (``--manage``), or run a seeded local demo in which
    a traffic shift triggers refinement and sketch re-sizing."""
    import json as json_module

    if args.url:
        from repro.service.client import ServiceClient

        client = ServiceClient(args.url)
        if args.manage:
            raw = args.manage
            if os.path.exists(raw):
                with open(raw) as handle:
                    raw = handle.read()
            payload = client.plan_manage(json_module.loads(raw))
            print(json_module.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(json_module.dumps(client.plan(), indent=2, sort_keys=True))
        return 0

    from repro import build_deployment, linear
    from repro.planner import DynamicPlanner, PlannerConfig, RefinementLadder
    from repro.traffic.generators import (
        assign_hosts,
        caida_like,
        syn_flood,
        syn_scan_noise,
    )
    from repro.traffic.traces import merge_traces

    window_s = args.window_ms / 1e3
    sharded = None
    if args.workers > 1:
        from repro.fabric import ShardedDeployment

        sharded = ShardedDeployment(
            linear(args.switches), workers=args.workers,
            array_size=1 << 13, window_ms=args.window_ms,
        )
        dep = sharded
    else:
        dep = build_deployment(
            linear(args.switches), array_size=1 << 13,
            window_ms=args.window_ms,
        )
    path = [f"s{i}" for i in range(args.switches)]
    planner = DynamicPlanner(dep, PlannerConfig(
        max_registers=args.max_registers,
    ))
    query = build_query(args.query, evaluation_thresholds())
    ladder = RefinementLadder.ipv4("dip")
    try:
        step = planner.manage(
            query, QueryParams(cm_depth=2, reduce_registers=args.registers),
            ladder=ladder, path=path,
        )
        print(f"managing {args.query} at rung 0 "
              f"(dip/8 coarse, {args.registers} registers): {step.reason}")
        mixed = 0
        journal_rows: List[list] = []
        per_window = max(int(args.pps * window_s), 200)
        for index in range(args.windows):
            start_s = index * window_s
            parts = [caida_like(per_window, duration_s=window_s,
                                seed=args.seed + index, start_s=start_s)]
            if index >= args.shift_at:
                # The shift: a flood (hot dip -> refinement) riding on
                # scan noise (dip fan-out -> sketch pressure -> grow).
                parts.append(syn_flood(
                    n_packets=per_window // 2, duration_s=window_s,
                    seed=args.seed + 100 + index, start_s=start_s,
                ))
                parts.append(syn_scan_noise(
                    n_packets=per_window, duration_s=window_s,
                    seed=args.seed + 200 + index, start_s=start_s,
                ))
            trace = assign_hosts(
                merge_traces(parts), [("h_src0", "h_dst0")]
            )
            stats = dep.simulator.run(trace)
            mixed += stats.mixed_rule_epoch_packets
            dep.simulator.roll_window()
            execution = planner.step()
            if execution is None:
                continue
            for s in execution.steps:
                registers = ("" if s.op.params is None
                             else s.op.params.reduce_registers)
                journal_rows.append([
                    execution.epoch, s.op.kind, s.op.qid, s.trigger,
                    registers, s.status,
                ])
        print()
        if journal_rows:
            print(format_table(
                ["window", "step", "qid", "trigger", "registers", "status"],
                journal_rows,
            ))
        else:
            print("(no re-plan steps triggered)")
        state = planner.state()
        print(f"\nfinal plans ({state['managed']} managed):")
        for plan in state["queries"]:
            scope = ("root" if plan["parent"] is None
                     else f"child of {plan['parent']}")
            print(f"  {plan['qid']}: rung {plan['rung']}, "
                  f"{plan['reduce_registers']} registers, "
                  f"{len(plan['children'])} children, "
                  f"{plan['resizes']} resizes ({scope})")
        print(f"mixed-epoch packets: {mixed} (must be 0)")
        if args.json:
            print(json_module.dumps(state, indent=2, sort_keys=True))
        return 0 if mixed == 0 else 1
    finally:
        if sharded is not None:
            sharded.close()


def cmd_metrics(args) -> int:
    """Print the labelled metrics registry in Prometheus text format —
    scraped from a running service (``--url``) or rendered from a short
    seeded local run."""
    if args.url:
        from repro.service.client import ServiceClient

        print(ServiceClient(args.url).metrics(), end="")
        return 0
    from repro.service import GeneratorSource, NewtonService, ServiceConfig

    service = NewtonService(
        GeneratorSource(pps=args.pps, seed=args.seed,
                        max_windows=args.windows),
        ServiceConfig(switches=args.switches, engine=args.engine),
    )
    service.install({"query": args.query})
    while service.tick() is not None:
        pass
    service.drain()
    print(service.metrics_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-repro",
        description=(
            "Reproduction of 'Newton: Intent-Driven Network Traffic "
            "Monitoring' (CoNEXT 2020)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-queries",
                   help="the Table 2 query library with footprints"
                   ).set_defaults(func=cmd_list_queries)

    compile_parser = sub.add_parser(
        "compile", help="compile a library query and show its rules"
    )
    compile_parser.add_argument("query", choices=sorted(QUERY_DESCRIPTIONS))
    compile_parser.add_argument("--rules", action="store_true",
                                help="list every placed module rule")
    compile_parser.add_argument("--json", action="store_true",
                                help="emit P4Runtime-style entries as JSON")
    compile_parser.add_argument("--opt-level", type=int, default=3,
                                choices=(0, 1, 2, 3),
                                help="cumulative Opt.1-3 level (default 3)")
    compile_parser.add_argument("--cm-depth", type=int, default=2)
    compile_parser.add_argument("--bf-hashes", type=int, default=3)
    compile_parser.set_defaults(func=cmd_compile)

    lint_parser = sub.add_parser(
        "lint",
        help="statically verify compiled query programs (exit 1 on errors)",
    )
    lint_parser.add_argument(
        "targets", nargs="*",
        help="library query names and/or .py files exposing QUERY/QUERIES",
    )
    lint_parser.add_argument("--all", action="store_true",
                             help="lint the whole Table 2 library")
    lint_parser.add_argument("--joint", action="store_true",
                             help="verify all targets as one co-installed set")
    lint_parser.add_argument("--werror", action="store_true",
                             help="treat warnings as errors for the exit code")
    lint_parser.add_argument("--json", action="store_true",
                             help="emit diagnostics as JSON "
                                  "(alias for --format json)")
    lint_parser.add_argument("--format", choices=("text", "json"),
                             default="text",
                             help="output format (default text)")
    lint_parser.add_argument("--suppress", action="append", default=[],
                             metavar="CODE",
                             help="drop a diagnostic code (repeatable)")
    lint_parser.add_argument("--opt-level", type=int, default=3,
                             choices=(0, 1, 2, 3))
    lint_parser.add_argument("--cm-depth", type=int, default=2)
    lint_parser.add_argument("--bf-hashes", type=int, default=3)
    lint_parser.add_argument("--reduce-registers", type=int, default=4096)
    lint_parser.add_argument("--distinct-registers", type=int, default=4096)
    lint_parser.add_argument("--stages", type=int, default=12,
                             help="pipeline stages of the target model")
    lint_parser.add_argument("--table-capacity", type=int, default=256)
    lint_parser.add_argument("--array-size", type=int, default=4096)
    lint_parser.set_defaults(func=cmd_lint)

    analyze_parser = sub.add_parser(
        "analyze",
        help="fleet-level static analysis of a deployed query set "
             "(exit 0 clean / 1 warnings / 2 errors)",
    )
    analyze_parser.add_argument(
        "queries", nargs="*",
        help="library query names to install (default: Q1 Q2 Q3)",
    )
    analyze_parser.add_argument("--switches", type=int, default=3,
                                help="linear topology length (default 3)")
    analyze_parser.add_argument("--expected-flows", type=int, default=10000,
                                help="declared flow cardinality for the "
                                     "NV7xx accuracy budget (0 disables)")
    analyze_parser.add_argument("--format", choices=("text", "json"),
                                default="text",
                                help="output format (default text)")
    analyze_parser.add_argument("--werror", action="store_true",
                                help="treat warnings as errors for the "
                                     "exit code")
    analyze_parser.add_argument("--suppress", action="append", default=[],
                                metavar="CODE",
                                help="drop a diagnostic code (repeatable)")
    analyze_parser.add_argument("--cm-depth", type=int, default=2)
    analyze_parser.add_argument("--bf-hashes", type=int, default=3)
    analyze_parser.add_argument("--reduce-registers", type=int, default=2048)
    analyze_parser.add_argument("--distinct-registers", type=int,
                                default=2048)
    analyze_parser.add_argument("--stages", type=int, default=12)
    analyze_parser.add_argument("--table-capacity", type=int, default=256)
    analyze_parser.add_argument("--array-size", type=int, default=4096)
    analyze_parser.set_defaults(func=cmd_analyze)

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment_parser.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
    )
    experiment_parser.set_defaults(func=cmd_experiment)

    collect_parser = sub.add_parser(
        "collect-stats",
        help="run a trace through the collection plane and print its "
             "per-query/per-switch metrics",
    )
    collect_parser.add_argument("--query", default="Q1",
                                choices=sorted(QUERY_DESCRIPTIONS))
    collect_parser.add_argument("--packets", type=int, default=20_000)
    collect_parser.add_argument("--duration", type=float, default=0.5,
                                help="trace duration in seconds")
    collect_parser.add_argument("--switches", type=int, default=3,
                                help="linear path length")
    collect_parser.add_argument("--policy", default="block",
                                choices=("block", "drop-newest",
                                         "drop-oldest"),
                                help="backpressure policy for full queues")
    collect_parser.add_argument("--capacity", type=int, default=4096,
                                help="per-switch queue capacity")
    collect_parser.add_argument("--lateness", type=int, default=1,
                                help="windows a report may arrive late")
    collect_parser.add_argument("--loss", type=float, default=0.0,
                                help="injected per-report loss probability")
    collect_parser.add_argument("--duplication", type=float, default=0.0)
    collect_parser.add_argument("--reorder", type=float, default=0.0)
    collect_parser.add_argument("--delay", type=float, default=0.0)
    collect_parser.add_argument("--reconcile-threshold", type=float,
                                default=1.0,
                                help="window loss fraction beyond which "
                                     "register readout replaces clipped "
                                     "counts (1.0 disables)")
    collect_parser.add_argument("--seed", type=int, default=7)
    collect_parser.add_argument("--json", action="store_true",
                                help="emit the metrics snapshot as JSON")
    collect_parser.set_defaults(func=cmd_collect_stats)

    txn_parser = sub.add_parser(
        "txn-stats",
        help="drive query churn through the transactional control plane "
             "under seeded faults and print the journal + metrics",
    )
    txn_parser.add_argument("--switches", type=int, default=3,
                            help="linear path length")
    txn_parser.add_argument("--queries", type=int, default=3,
                            help="library queries in the churn rotation")
    txn_parser.add_argument("--updates", type=int, default=3,
                            help="update rounds over the rotation")
    txn_parser.add_argument("--loss", type=float, default=0.0,
                            help="per-message loss probability")
    txn_parser.add_argument("--timeout", type=float, default=0.0,
                            help="per-message ack-timeout probability")
    txn_parser.add_argument("--reboot", type=float, default=0.0,
                            help="per-message mid-transaction reboot "
                                 "probability")
    txn_parser.add_argument("--max-attempts", type=int, default=4,
                            help="delivery attempts before abort/rollback")
    txn_parser.add_argument("--seed", type=int, default=7)
    txn_parser.add_argument("--json", action="store_true",
                            help="emit journal + metrics as JSON")
    txn_parser.set_defaults(func=cmd_txn_stats)

    throughput_parser = sub.add_parser(
        "throughput",
        help="time the scalar vs vectorized execution engines over one "
             "monitored workload (and check they agree bit for bit)",
    )
    throughput_parser.add_argument("--packets", type=int, default=200_000,
                                   help="background-trace size")
    throughput_parser.add_argument("--switches", type=int, default=3,
                                   help="linear path length")
    throughput_parser.add_argument("--seed", type=int, default=11)
    throughput_parser.add_argument("--workers", type=int, default=1,
                                   help="also run the sharded fabric "
                                        "plane across N worker processes "
                                        "(default 1 = off)")
    throughput_parser.add_argument("--json", action="store_true",
                                   help="emit measurements as JSON")
    throughput_parser.set_defaults(func=cmd_throughput)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run a monitored deployment under a declarative fault plan "
             "and print detection/recovery/coverage (exit 1 on degraded "
             "queries)",
    )
    chaos_parser.add_argument("--fault-plan", metavar="FILE",
                              help="JSON FaultPlan; default: crash s0 at "
                                   "t=0.2s for 150 ms")
    chaos_parser.add_argument("--query", default="Q1",
                              choices=sorted(QUERY_DESCRIPTIONS))
    chaos_parser.add_argument("--switches", type=int, default=3,
                              help="linear path length")
    chaos_parser.add_argument("--packets", type=int, default=20_000)
    chaos_parser.add_argument("--duration", type=float, default=1.0,
                              help="trace duration in seconds")
    chaos_parser.add_argument("--engine", default="scalar",
                              choices=("scalar", "vector"))
    chaos_parser.add_argument("--seed", type=int, default=7)
    chaos_parser.add_argument("--json", action="store_true",
                              help="emit the full chaos report as JSON")
    chaos_parser.set_defaults(func=cmd_chaos)

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-lived monitoring service with query CRUD, "
             "streaming reports, and metrics over HTTP",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8181,
                              help="HTTP API port (0 = ephemeral)")
    serve_parser.add_argument("--source", default="generator",
                              choices=("generator", "socket"),
                              help="traffic source: seeded generator or a "
                                   "line-delimited-JSON TCP packet feed")
    serve_parser.add_argument("--feed-port", type=int, default=0,
                              help="TCP port of the --source socket feed "
                                   "(0 = ephemeral)")
    serve_parser.add_argument("--pps", type=int, default=20_000,
                              help="generator packets per second of trace "
                                   "time")
    serve_parser.add_argument("--max-windows", type=int, default=0,
                              help="stop after N windows (0 = run forever)")
    serve_parser.add_argument("--queries", nargs="*", default=[],
                              choices=sorted(QUERY_DESCRIPTIONS),
                              help="queries to install at startup")
    serve_parser.add_argument("--switches", type=int, default=3,
                              help="linear path length")
    serve_parser.add_argument("--workers", type=int, default=1,
                              help="run the data plane sharded across N "
                                   "worker processes (default 1 = "
                                   "single-process)")
    serve_parser.add_argument("--window-ms", type=int, default=100)
    serve_parser.add_argument("--engine", default="vector",
                              choices=("scalar", "vector"))
    serve_parser.add_argument("--array-size", type=int, default=1 << 13)
    serve_parser.add_argument("--rate", type=float, default=1.0,
                              help="real-time pacing factor "
                                   "(0 = free-running)")
    serve_parser.add_argument("--seed", type=int, default=7)
    serve_parser.add_argument("--wal", default="", metavar="DIR",
                              help="durable write-ahead log directory: "
                                   "committed transactions and query ops "
                                   "are fsync'd, and a restart replays "
                                   "them into the last committed epoch")
    serve_parser.add_argument("--wal-snapshot-every", type=int, default=16,
                              metavar="N",
                              help="windows between WAL state snapshots "
                                   "(the restart fast-forward target)")
    serve_parser.set_defaults(func=cmd_serve)

    plan_parser = sub.add_parser(
        "plan",
        help="dynamic query planner: live state over HTTP (--url), hand "
             "over a query (--manage), or a seeded refinement demo",
    )
    plan_parser.add_argument("--url", default="",
                             help="base URL of a running service; prints "
                                  "its planner state")
    plan_parser.add_argument("--manage", default="", metavar="SPEC",
                             help="with --url: JSON query spec (inline or "
                                  "a file path) to hand to the planner")
    plan_parser.add_argument("--query", default="Q1",
                             choices=sorted(QUERY_DESCRIPTIONS),
                             help="library query for the local demo")
    plan_parser.add_argument("--windows", type=int, default=8,
                             help="windows to simulate locally")
    plan_parser.add_argument("--shift-at", type=int, default=2,
                             help="window at which the traffic shift "
                                  "(flood + scan noise) begins")
    plan_parser.add_argument("--pps", type=int, default=20_000,
                             help="background packets per second")
    plan_parser.add_argument("--registers", type=int, default=128,
                             help="initial reduce-register allocation")
    plan_parser.add_argument("--max-registers", type=int, default=4096,
                             help="planner growth ceiling")
    plan_parser.add_argument("--switches", type=int, default=3,
                             help="linear path length")
    plan_parser.add_argument("--workers", type=int, default=1,
                             help="shard the data plane across N worker "
                                  "processes (default 1 = single-process)")
    plan_parser.add_argument("--window-ms", type=int, default=100)
    plan_parser.add_argument("--seed", type=int, default=7)
    plan_parser.add_argument("--json", action="store_true",
                             help="also dump the final planner state as "
                                  "JSON")
    plan_parser.set_defaults(func=cmd_plan)

    metrics_parser = sub.add_parser(
        "metrics",
        help="Prometheus text exposition: scrape a running service "
             "(--url) or render a short seeded local run",
    )
    metrics_parser.add_argument("--url", default="",
                                help="base URL of a running service "
                                     "(e.g. http://127.0.0.1:8181)")
    metrics_parser.add_argument("--query", default="Q1",
                                choices=sorted(QUERY_DESCRIPTIONS))
    metrics_parser.add_argument("--windows", type=int, default=5,
                                help="windows to tick for the local run")
    metrics_parser.add_argument("--pps", type=int, default=5_000)
    metrics_parser.add_argument("--switches", type=int, default=3)
    metrics_parser.add_argument("--engine", default="vector",
                                choices=("scalar", "vector"))
    metrics_parser.add_argument("--seed", type=int, default=7)
    metrics_parser.set_defaults(func=cmd_metrics)

    demo_parser = sub.add_parser("demo", help="end-to-end quickstart run")
    demo_parser.add_argument("--engine", default="scalar",
                             choices=("scalar", "vector"),
                             help="packet-execution engine "
                                  "(default: scalar)")
    demo_parser.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
