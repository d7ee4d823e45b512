"""Command-line interface (``newton-repro``, or ``python -m repro.cli``):
parse the flags, call a plane, print what it returned.

Fleets come from :mod:`repro.fleet`, artefacts from
:data:`repro.experiments.EXPERIMENTS`, and every result that something
besides this file also reads (the fleet analysis, the recovery report,
the planner's window loop, the control-plane residue) from the plane
that owns it.  What is here is the operator's text and the two seeded
demo workloads nothing else uses.  ``tests/test_layering.py`` holds that
line, ``tests/core/test_cli_golden.py`` the output, byte for byte.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import os
import runpy
import signal
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import collector, ctrlplane, resilience, verify
from repro.core import export
from repro.core.compiler import Optimizations, QueryParams, compile_query
from repro.core.library import QUERY_DESCRIPTIONS, evaluation_query
from repro.core.packet import ip_str
from repro.core.query import QueryLike, flatten
from repro.experiments import EXPERIMENTS
from repro.experiments.common import format_table
from repro.fleet import FLEET_PARAMS, build_fleet, fleet_trace
from repro.traffic.generators import caida_like, syn_flood, syn_scan_noise
from repro.traffic.traces import Trace

__all__ = ["main", "build_parser", "EXPERIMENTS"]


def _print_json(payload: Any, **dumps: Any) -> int:
    print(json.dumps(payload, indent=2, **dumps))
    return 0


def _outside(args, read: Callable[[], Any], *also: type) -> Any:
    """``read()`` — a call that parses bytes this program did not write
    (a file, an inline spec, a peer's reply).  A failure there means the
    operator's input is wrong: one line and exit 2, not a traceback."""
    try:
        return read()
    except (OSError, ValueError) + also as exc:
        print(f"newton-repro {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _remote(args, call: Callable[[Any], Any]) -> Any:
    """``call(client)`` against the service at ``--url``."""
    from repro.service.client import ServiceAPIError, ServiceClient

    return _outside(
        args, lambda: call(ServiceClient(args.url)), ServiceAPIError
    )


def _params(args) -> QueryParams:
    """Sketch sizing from whichever of the sketch flags ``args`` has."""
    names = ("cm_depth", "bf_hashes", "reduce_registers",
             "distinct_registers")
    return QueryParams(
        **{n: getattr(args, n) for n in names if hasattr(args, n)}
    )


def _pipeline(args) -> Dict[str, int]:
    """The pipeline-model flags, by the names every consumer gives them."""
    return {"num_stages": args.stages, "array_size": args.array_size,
            "table_capacity": args.table_capacity}


def _flooded_trace(n_packets: int, duration_s: float, seed: int) -> Trace:
    """CAIDA-like background carrying a SYN flood a twentieth its size
    (at least 100 packets): traffic on which Q1 has something to report."""
    return fleet_trace(
        caida_like(n_packets, duration_s=duration_s, seed=seed),
        syn_flood(n_packets=max(n_packets // 20, 100),
                  duration_s=duration_s, seed=seed + 1),
    )


def cmd_list_queries(_args) -> int:
    rows = []
    for name in sorted(QUERY_DESCRIPTIONS):
        subs = flatten(evaluation_query(name))
        compiled = [compile_query(sub, QueryParams(), Optimizations.all())
                    for sub in subs]
        rows.append([name, QUERY_DESCRIPTIONS[name],
                     sum(sub.num_primitives for sub in subs),
                     sum(c.num_modules for c in compiled),
                     max(c.num_stages for c in compiled)])
    print(format_table(
        ["Query", "Intent", "prims", "modules", "stages (max sub)"], rows
    ))
    return 0


def cmd_compile(args) -> int:
    subs = flatten(evaluation_query(args.query))
    opts = Optimizations.upto(args.opt_level)
    programs = [compile_query(sub, _params(args), opts) for sub in subs]
    if args.json:
        for compiled in programs:
            print(export.to_json(compiled))
        return 0
    for sub, compiled in zip(subs, programs):
        print(f"\n{sub.describe()}")
        print(f"  modules={compiled.num_modules} "
              f"stages={compiled.num_stages} "
              f"rules={compiled.rule_count} "
              f"registers={compiled.register_demand}")
        if args.rules:
            print(format_table(
                ["step", "mod", "set", "stage", "origin", "config"],
                [[spec.step, spec.module_type.symbol, spec.set_id,
                  spec.stage, f"p{spec.primitive_index}/s{spec.suite_index}",
                  type(spec.config).__name__] for spec in compiled.specs],
            ))
    # Static verification of what was just compiled (same artifacts the
    # controller would check before an install).
    print()
    report = verify.verify_queries(programs, model=verify.PipelineModel())
    print(report.render())
    return 0


def _lint_target(name: str) -> List[QueryLike]:
    """The queries a lint operand names: a library query, or a Python
    file that defines ``QUERY`` (one query) or ``QUERIES`` (an iterable),
    each plain or composite."""
    if name in QUERY_DESCRIPTIONS:
        return [evaluation_query(name)]
    if not os.path.exists(name):
        raise SystemExit(
            f"lint: {name!r} is neither a library query "
            f"({', '.join(sorted(QUERY_DESCRIPTIONS))}) nor a file"
        )
    namespace = runpy.run_path(name)
    if "QUERIES" in namespace:
        return list(namespace["QUERIES"])
    if "QUERY" in namespace:
        return [namespace["QUERY"]]
    raise SystemExit(f"lint: {name} defines neither QUERY nor QUERIES")


def cmd_lint(args) -> int:
    """Statically verify compiled query programs.  Exit contract (shared
    with ``analyze``): 0 clean, 1 warnings only, 2 errors (``--werror``
    promotes warnings to errors)."""
    names = args.targets + (sorted(QUERY_DESCRIPTIONS) if args.all else [])
    if not names:
        raise SystemExit("lint: name queries/files to check, or pass --all")
    # Each target is a verification unit; --joint folds every target into
    # one unit so cross-query passes see the whole set.
    units = [(name, _lint_target(name)) for name in names]
    if args.joint:
        units = [("joint", [q for _, qs in units for q in qs])]
    params, opts = _params(args), Optimizations.upto(args.opt_level)
    model = verify.PipelineModel(**_pipeline(args))
    config = verify.VerifierConfig(suppress=tuple(args.suppress))
    as_json = args.json or args.format == "json"
    worst, diagnostics = 0, []
    for label, queries in units:
        report = verify.verify_queries(
            [compile_query(sub, params, opts)
             for query in queries for sub in flatten(query)],
            model=model, config=config,
        )
        diagnostics.extend(d.as_dict() for d in report.sorted())
        if not as_json:
            print(f"== {label}")
            print(report.render())
        worst = max(worst, verify.exit_code(report, werror=args.werror))
    if as_json:
        _print_json(diagnostics)
    return worst


def cmd_analyze(args) -> int:
    """Fleet-level static analysis (NV4xx interference, NV6xx epoch
    safety, NV7xx accuracy, the joint per-query passes) of the named
    queries installed on a linear fleet.  A query the install-time gate
    rejects is reported as skipped and the analysis covers the rest.
    Exit contract: 0 clean, 1 warnings only, 2 errors."""
    dep = build_fleet(args.switches, **_pipeline(args))
    for name in list(args.queries) or ["Q1", "Q2", "Q3"]:
        try:
            dep.controller.install_query(
                evaluation_query(name), _params(args),
                path=list(dep.switches),
            )
        except Exception as exc:  # gate rejection, resource exhaustion
            print(f"analyze: skipped {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    suppress = tuple(args.suppress)
    report = verify.analyze_fleet(dep, verify.FleetConfig(
        expected_flows=args.expected_flows or None, suppress=suppress,
        verifier=verify.VerifierConfig(suppress=suppress),
    ))
    if args.format == "json":
        print(report.to_json())
    else:
        installed = sorted(
            sub_qid for record in dep.controller.installed.values()
            for sub_qid in record.compiled
        )
        print(f"== fleet: {len(dep.switches)} switches, "
              f"queries {', '.join(installed) or '(none)'}")
        print(report.render())
    return verify.exit_code(report, werror=args.werror)


def cmd_experiment(args) -> int:
    for name in list(EXPERIMENTS) if args.name == "all" else [args.name]:
        experiment = EXPERIMENTS[name]
        print(f"\n=== {name}: {experiment.title} ===")
        print(experiment.render(*experiment.run()))
    return 0


def cmd_collect_stats(args) -> int:
    """Run a trace through the collection plane and expose its metrics."""
    config = collector.CollectorConfig(
        queue_capacity=args.capacity, policy=args.policy,
        allowed_lateness=args.lateness,
        reconcile_loss_threshold=args.reconcile_threshold,
        faults=collector.FaultConfig(
            loss=args.loss, duplication=args.duplication,
            reorder=args.reorder, delay=args.delay, seed=args.seed,
        ),
    )
    dep = build_fleet(args.switches, [args.query], array_size=1 << 13,
                      collector_config=config)
    stats = dep.simulator.run(
        _flooded_trace(args.packets, args.duration, args.seed)
    )
    plane = dep.collector
    plane.flush()
    if args.json:
        return _print_json(plane.metrics.snapshot(), default=str)
    ingested, accounted = plane.balance()
    print(f"ran {stats.packets} packets over {args.switches} switch(es); "
          f"{stats.reports_total} mirrored reports, "
          f"{stats.deferred} deferred packets")
    print(f"collection plane [{args.policy}, capacity {args.capacity}]: "
          f"ingested={ingested} processed={plane.processed} "
          f"dropped={plane.dropped} pending={plane.pending} "
          f"lost-in-flight={plane.lost}")
    print(f"flow invariant: ingested == processed + dropped + pending "
          f"-> {ingested} == {accounted}")
    print("\nper-switch queues:")
    print(format_table(
        ["switch", "offered", "accepted", "dropped", "blocked", "hwm"],
        [[sid, q.offered, q.accepted, q.dropped, q.blocked, q.high_watermark]
         for sid, q in sorted(plane.queue_stats().items(), key=str)],
    ))
    print("\nmetrics registry:")
    print(plane.metrics.render_prometheus(), end="")
    return 0


def _churn(controller, queries: List[QueryLike], rounds: int,
           params: QueryParams, path: List[str]) -> int:
    """Install each query, then ``rounds`` times update every one in
    place (installing any an earlier abort left out) — one transaction
    per operation.  Returns how many aborted or failed verification."""
    aborted = 0
    for _ in range(rounds + 1):
        for query in queries:
            operation = (controller.update_query
                         if query.qid in controller.installed
                         else controller.install_query)
            try:
                operation(query, params, path=path)
            except (ctrlplane.TransactionAborted, verify.VerificationError):
                aborted += 1
    return aborted


def cmd_txn_stats(args) -> int:
    """Drive query churn through the transactional control plane under a
    seeded fault schedule and expose the journal + metric registry."""
    channel = ctrlplane.FaultyControlChannel(fault_plan=ctrlplane.FaultPlan(
        loss_rate=args.loss, timeout_rate=args.timeout,
        reboot_rate=args.reboot, seed=args.seed,
    ))
    dep = build_fleet(
        args.switches, array_size=1 << 13, channel=channel,
        txn_config=ctrlplane.TxnConfig(max_attempts=args.max_attempts),
    )
    rotation = [evaluation_query(name)
                for name in sorted(QUERY_DESCRIPTIONS)[:args.queries]]
    # Small sketches: make-before-break doubles a query's register
    # occupancy until GC, and the verifier gates on the doubled demand.
    params = QueryParams(cm_depth=2, reduce_registers=512,
                         distinct_registers=512)
    aborted = _churn(dep.controller, rotation, args.updates, params,
                     list(dep.switches))
    txn, faults = dep.controller.txn, channel.faults_injected
    if args.json:
        return _print_json({
            "epoch": txn.epoch, "aborted_operations": aborted,
            "faults_injected": faults, "journal": txn.journal.snapshot(),
            "metrics": txn.registry.snapshot(),
        }, default=str)
    residue = txn.residue()
    print(f"ran {len(txn.journal)} transactions over {args.switches} "
          f"switch(es); committed epoch {txn.epoch}, "
          f"{aborted} operation(s) aborted")
    print(f"faults injected: loss={faults['loss']} "
          f"timeout={faults['timeout']} reboot={faults['reboot']}")
    print(f"residue after churn: staged={residue['staged_residue']} "
          f"retired={residue['retired_residue']} (both must be 0)")
    print("\ntransaction journal:")
    print(txn.journal.render())
    print("\nmetrics registry:")
    print(txn.registry.render_prometheus(), end="")
    return 0


def cmd_demo(args) -> int:
    """Inline quickstart: intent -> rules -> traffic -> detections."""
    dep = build_fleet(1, array_size=1 << 13, engine=args.engine)
    result = dep.controller.install_query(
        evaluation_query("Q1"), FLEET_PARAMS, path=["s0"]
    )
    print(f"installed Q1 ({result.rules_staged} rules) in "
          f"{result.delay_s * 1e3:.1f} ms")
    dep.simulator.run(_flooded_trace(10_000, 0.3, seed=5))
    for epoch, keys in dep.analyzer.detections("Q1").items():
        for key in keys:
            print(f"window {epoch}: new-connection spike at "
                  f"{ip_str(key[0])}")
    return 0


def cmd_chaos(args) -> int:
    """Run a monitored deployment under a declarative fault plan and
    report detection latency, recovery actions, and per-query coverage."""
    def read_plan() -> resilience.FaultPlan:
        with open(args.fault_plan) as handle:
            return resilience.FaultPlan.from_json(handle.read())

    plan = (_outside(args, read_plan) if args.fault_plan
            else resilience.standard_crash(args.seed))
    dep = build_fleet(args.switches, [args.query], array_size=1 << 13,
                      engine=args.engine, faults=plan)
    dep.simulator.run(fleet_trace(
        caida_like(args.packets, duration_s=args.duration, seed=args.seed)
    ))
    report = dep.recovery.report()
    summary = report["summary"]
    if args.json:
        _print_json({"plan": plan.to_dict(), **report})
        return 1 if summary["degraded"] else 0
    print(f"fault plan: {len(plan.events)} event(s), seed {plan.seed}")
    for t in report["transitions"]:
        print(f"  window {t['epoch']}: switch {t['switch']} "
              f"{t['from']} -> {t['to']}")
    for r in report["incidents"]:
        print(f"recovered {', '.join(r['queries'])} via {r['action']} on "
              f"{r['switch']}: detected in "
              f"{r['detect_latency_s'] * 1e3:.0f} ms, re-staged in "
              f"{r['reinstall_delay_s'] * 1e3:.1f} ms, "
              f"{r['windows_impaired']} window(s) impaired")
    for qid, digest in summary["coverage"].items():
        print(f"coverage {qid}: {digest['coverage']:.0%} "
              f"({digest['windows_full']}/{digest['windows_total']} windows"
              f" full, {digest['gap_windows']} gap(s))")
    if summary["degraded"]:
        print(f"degraded queries: {', '.join(summary['degraded'])}")
    return 1 if summary["degraded"] else 0


async def _serve(service, args, say: Callable[[str], None]) -> Dict[str, Any]:
    """Serve the API (and a socket source's packet feed) until the source
    dries up or SIGINT/SIGTERM asks for a stop; drain; the summary."""
    from repro.service import ServiceHTTP, SocketSource

    http_api = ServiceHTTP(service, host=args.host, port=args.port)
    port = await http_api.start()
    if isinstance(service.source, SocketSource):
        feed_port = await service.source.start()
        say(f"packet feed listening on {args.host}:{feed_port}")
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, service.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    config = service.config
    say(f"serving on http://{args.host}:{port} "
        f"(engine={config.engine}, window={config.window_ms} ms, "
        f"rate={config.rate or 'free-run'})")
    await service.start()
    summary = await service.shutdown()
    await http_api.stop()
    return summary


def _serve_to_shutdown(service, args, say: Callable[[str], None]) -> int:
    """Startup installs, :func:`_serve`, the shutdown line; exit 0 when
    the control plane came to rest (no residue, one rule epoch, no
    mixed-epoch packet)."""
    recovery = service.wal_recovery
    if recovery is not None:
        say(f"wal recovery: {recovery['replayed_ops']} ops replayed, "
            f"committed epoch {recovery['committed_epoch']}, "
            f"window epoch {recovery['window_epoch']}, "
            f"{recovery['recovery_s'] * 1e3:.1f} ms")
    installed = set(service.deployment.controller.installed)
    for name in args.queries:
        if name not in installed:  # else WAL recovery reinstalled it
            payload = service.install({"query": name})
            say(f"installed {name}: {payload['rules_staged']} rules in "
                f"{payload['delay_s'] * 1e3:.1f} ms")
    summary = asyncio.run(_serve(service, args, say))
    say(f"shutdown: committed epoch {summary['committed_epoch']}, "
        f"rule epochs {summary['rule_epochs']}, "
        f"staged residue {summary['staged_residue']}, "
        f"retired residue {summary['retired_residue']}, "
        f"{summary['windows']} windows, {summary['packets']} packets, "
        f"{summary['mixed_epoch_packets']} mixed-epoch packets")
    clean = (summary["staged_residue"] == 0
             and summary["retired_residue"] == 0
             and summary["mixed_epoch_packets"] == 0
             and len(summary["rule_epochs"]) == 1)
    return 0 if clean else 1


def cmd_serve(args) -> int:
    """Run the live operations plane: a long-running service driving a
    deployment from a seeded generator (or a TCP packet feed), with query
    CRUD, streaming reports, coverage, and metrics over HTTP."""
    from repro import service as svc

    say = functools.partial(print, flush=True)
    source = (
        svc.GeneratorSource(pps=args.pps, seed=args.seed,
                            max_windows=args.max_windows)
        if args.source == "generator"
        else svc.SocketSource(host=args.host, port=args.feed_port)
    )
    config = svc.ServiceConfig(
        switches=args.switches, window_ms=args.window_ms,
        engine=args.engine, array_size=args.array_size, rate=args.rate,
        wal_dir=args.wal or None, wal_snapshot_every=args.wal_snapshot_every,
    )
    with svc.service_fleet(config, args.workers) as dep:
        if args.workers > 1:
            say(f"fabric plane: {args.workers} shard workers")
        try:
            service = svc.NewtonService(source, config, deployment=dep)
        except ctrlplane.WalCorruptError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 1
        return _serve_to_shutdown(service, args, say)


def _plan_remote(args) -> int:
    """``plan --url``: print the live planner's state, or with
    ``--manage`` hand it a JSON query spec (inline, or a file path)."""
    if not args.manage:
        state = _remote(args, lambda client: client.plan())
        return _print_json(state, sort_keys=True)

    def read_spec() -> Any:
        if os.path.exists(args.manage):
            with open(args.manage) as handle:
                return json.load(handle)
        return json.loads(args.manage)

    spec = _outside(args, read_spec)
    managed = _remote(args, lambda client: client.plan_manage(spec))
    return _print_json(managed, sort_keys=True)


def _shifting_windows(args) -> Iterator[Trace]:
    """The ``plan`` demo workload, one trace per window: background
    only, then from window ``--shift-at`` a flood (a hot dip: refinement)
    riding on scan noise (dip fan-out: sketch pressure, so the planner
    grows)."""
    window_s = args.window_ms / 1e3
    per_window = max(int(args.pps * window_s), 200)
    for index in range(args.windows):
        at = {"duration_s": window_s, "start_s": index * window_s}
        parts = [caida_like(per_window, seed=args.seed + index, **at)]
        if index >= args.shift_at:
            parts.append(syn_flood(n_packets=per_window // 2,
                                   seed=args.seed + 100 + index, **at))
            parts.append(syn_scan_noise(n_packets=per_window,
                                        seed=args.seed + 200 + index, **at))
        yield fleet_trace(*parts)


def _print_plan_run(run: Dict[str, Any], state: Dict[str, Any]) -> None:
    """A ``planner.run_windows`` result and the planner's final state."""
    print()
    if run["steps"]:
        print(format_table(
            ["window", "step", "qid", "trigger", "registers", "status"],
            [[s["epoch"], s["kind"], s["qid"], s["trigger"],
              s["params"]["reduce_registers"] if s["params"] else "",
              s["status"]] for s in run["steps"]],
        ))
    else:
        print("(no re-plan steps triggered)")
    print(f"\nfinal plans ({state['managed']} managed):")
    for plan in state["queries"]:
        scope = ("root" if plan["parent"] is None
                 else f"child of {plan['parent']}")
        print(f"  {plan['qid']}: rung {plan['rung']}, "
              f"{plan['reduce_registers']} registers, "
              f"{len(plan['children'])} children, "
              f"{plan['resizes']} resizes ({scope})")
    print(f"mixed-epoch packets: {run['mixed_epoch']} (must be 0)")


def cmd_plan(args) -> int:
    """Dynamic planner: inspect a running service's plans (``--url``),
    hand it a query (``--manage``), or run a seeded local demo in which
    a traffic shift triggers refinement and sketch re-sizing."""
    if args.url:
        return _plan_remote(args)
    from repro import planner as pl

    with build_fleet(args.switches, workers=args.workers, array_size=1 << 13,
                     window_ms=args.window_ms) as dep:
        planner = pl.DynamicPlanner(dep, pl.PlannerConfig(
            max_registers=args.max_registers,
        ))
        step = planner.manage(
            evaluation_query(args.query),
            QueryParams(cm_depth=2, reduce_registers=args.registers),
            ladder=pl.RefinementLadder.ipv4("dip"), path=list(dep.switches),
        )
        print(f"managing {args.query} at rung 0 "
              f"(dip/8 coarse, {args.registers} registers): {step.reason}")
        run = pl.run_windows(dep, _shifting_windows(args), planner)
        state = planner.state()
    _print_plan_run(run, state)
    if args.json:
        _print_json(state, sort_keys=True)
    return 0 if run["mixed_epoch"] == 0 else 1


def cmd_metrics(args) -> int:
    """Print the labelled metrics registry in Prometheus text format —
    scraped from a running service (``--url``) or rendered from a short
    seeded local run."""
    if args.url:
        print(_remote(args, lambda client: client.metrics()), end="")
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
        description=("Reproduction of 'Newton: Intent-Driven Network "
                     "Traffic Monitoring' (CoNEXT 2020)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    library, engines = sorted(QUERY_DESCRIPTIONS), ("scalar", "vector")

    # Parents: the flags whose default and help are the same in every
    # subcommand that takes them.  Anything that differs somewhere is
    # declared where it is used.
    seed, path, query, packets, window, sketch, model, diagnostics = (
        argparse.ArgumentParser(add_help=False) for _ in range(8)
    )
    seed.add_argument("--seed", type=int, default=7)
    path.add_argument("--switches", type=int, default=3,
                      help="linear path length")
    query.add_argument("--query", default="Q1", choices=library)
    packets.add_argument("--packets", type=int, default=20_000)
    window.add_argument("--window-ms", type=int, default=100)
    sketch.add_argument("--cm-depth", type=int, default=2)
    sketch.add_argument("--bf-hashes", type=int, default=3)
    model.add_argument("--table-capacity", type=int, default=256)
    model.add_argument("--array-size", type=int, default=4096)
    diagnostics.add_argument("--format", choices=("text", "json"),
                             default="text",
                             help="output format (default text)")
    diagnostics.add_argument("--werror", action="store_true",
                             help="treat warnings as errors for the exit "
                             "code")
    diagnostics.add_argument("--suppress", action="append", default=[],
                             metavar="CODE",
                             help="drop a diagnostic code (repeatable)")

    def command(name: str, func: Callable[[Any], int], help: str,
                *parents: argparse.ArgumentParser) -> Callable[..., Any]:
        added = sub.add_parser(name, help=help, parents=parents)
        added.set_defaults(func=func)
        return added.add_argument

    command("list-queries", cmd_list_queries,
            "the Table 2 query library with footprints")

    arg = command("compile", cmd_compile,
                  "compile a library query and show its rules", sketch)
    arg("query", choices=library)
    arg("--rules", action="store_true", help="list every placed module rule")
    arg("--json", action="store_true",
        help="emit P4Runtime-style entries as JSON")
    arg("--opt-level", type=int, default=3, choices=(0, 1, 2, 3),
        help="cumulative Opt.1-3 level (default 3)")

    arg = command("lint", cmd_lint, "statically verify compiled query "
                  "programs (exit 1 on errors)", diagnostics, sketch, model)
    arg("targets", nargs="*",
        help="library query names and/or .py files exposing QUERY/QUERIES")
    arg("--all", action="store_true", help="lint the whole Table 2 library")
    arg("--joint", action="store_true",
        help="verify all targets as one co-installed set")
    arg("--json", action="store_true",
        help="emit diagnostics as JSON (alias for --format json)")
    arg("--opt-level", type=int, default=3, choices=(0, 1, 2, 3))
    arg("--reduce-registers", type=int, default=4096)
    arg("--distinct-registers", type=int, default=4096)
    arg("--stages", type=int, default=12,
        help="pipeline stages of the target model")

    arg = command("analyze", cmd_analyze, "fleet-level static analysis of a "
                  "deployed query set (exit 0 clean / 1 warnings / 2 errors)",
                  diagnostics, sketch, model)
    arg("queries", nargs="*",
        help="library query names to install (default: Q1 Q2 Q3)")
    arg("--switches", type=int, default=3,
        help="linear topology length (default 3)")
    arg("--expected-flows", type=int, default=10000, help="declared flow "
        "cardinality for the NV7xx accuracy budget (0 disables)")
    arg("--reduce-registers", type=int, default=2048)
    arg("--distinct-registers", type=int, default=2048)
    arg("--stages", type=int, default=12)

    arg = command("experiment", cmd_experiment,
                  "regenerate a paper table/figure")
    arg("name", choices=sorted(EXPERIMENTS) + ["all"])

    arg = command("collect-stats", cmd_collect_stats, "run a trace through "
                  "the collection plane and print its per-query/per-switch "
                  "metrics", query, packets, path, seed)
    arg("--duration", type=float, default=0.5,
        help="trace duration in seconds")
    arg("--policy", default="block",
        choices=("block", "drop-newest", "drop-oldest"),
        help="backpressure policy for full queues")
    arg("--capacity", type=int, default=4096,
        help="per-switch queue capacity")
    arg("--lateness", type=int, default=1,
        help="windows a report may arrive late")
    arg("--loss", type=float, default=0.0,
        help="injected per-report loss probability")
    arg("--duplication", type=float, default=0.0)
    arg("--reorder", type=float, default=0.0)
    arg("--delay", type=float, default=0.0)
    arg("--reconcile-threshold", type=float, default=1.0,
        help="window loss fraction beyond which register readout replaces "
        "clipped counts (1.0 disables)")
    arg("--json", action="store_true",
        help="emit the metrics snapshot as JSON")

    arg = command("txn-stats", cmd_txn_stats, "drive query churn through the "
                  "transactional control plane under seeded faults and print "
                  "the journal + metrics", path, seed)
    arg("--queries", type=int, default=3,
        help="library queries in the churn rotation")
    arg("--updates", type=int, default=3,
        help="update rounds over the rotation")
    arg("--loss", type=float, default=0.0,
        help="per-message loss probability")
    arg("--timeout", type=float, default=0.0,
        help="per-message ack-timeout probability")
    arg("--reboot", type=float, default=0.0,
        help="per-message mid-transaction reboot probability")
    arg("--max-attempts", type=int, default=4,
        help="delivery attempts before abort/rollback")
    arg("--json", action="store_true", help="emit journal + metrics as JSON")

    arg = command("chaos", cmd_chaos, "run a monitored deployment under a "
                  "declarative fault plan and print detection/recovery/"
                  "coverage (exit 1 on degraded queries)",
                  query, path, packets, seed)
    arg("--fault-plan", metavar="FILE",
        help="JSON FaultPlan; default: crash s0 at t=0.2s for 150 ms")
    arg("--duration", type=float, default=1.0,
        help="trace duration in seconds")
    arg("--engine", default="scalar", choices=engines)
    arg("--json", action="store_true",
        help="emit the full chaos report as JSON")

    arg = command("serve", cmd_serve, "run the long-lived monitoring service "
                  "with query CRUD, streaming reports, and metrics over HTTP",
                  path, window, seed)
    arg("--host", default="127.0.0.1")
    arg("--port", type=int, default=8181,
        help="HTTP API port (0 = ephemeral)")
    arg("--source", default="generator", choices=("generator", "socket"),
        help="traffic source: seeded generator or a line-delimited-JSON TCP "
        "packet feed")
    arg("--feed-port", type=int, default=0,
        help="TCP port of the --source socket feed (0 = ephemeral)")
    arg("--pps", type=int, default=20_000,
        help="generator packets per second of trace time")
    arg("--max-windows", type=int, default=0,
        help="stop after N windows (0 = run forever)")
    arg("--queries", nargs="*", default=[], choices=library,
        help="queries to install at startup")
    arg("--workers", type=int, default=1, help="run the data plane sharded "
        "across N worker processes (default 1 = single-process)")
    arg("--engine", default="vector", choices=engines)
    arg("--array-size", type=int, default=1 << 13)
    arg("--rate", type=float, default=1.0,
        help="real-time pacing factor (0 = free-running)")
    arg("--wal", default="", metavar="DIR", help="durable write-ahead log "
        "directory: committed transactions and query ops are fsync'd, and a "
        "restart replays them into the last committed epoch")
    arg("--wal-snapshot-every", type=int, default=16, metavar="N",
        help="windows between WAL state snapshots (the restart fast-forward "
        "target)")

    arg = command("plan", cmd_plan, "dynamic query planner: live state over "
                  "HTTP (--url), hand over a query (--manage), or a seeded "
                  "refinement demo", path, window, seed)
    arg("--url", default="",
        help="base URL of a running service; prints its planner state")
    arg("--manage", default="", metavar="SPEC", help="with --url: JSON query "
        "spec (inline or a file path) to hand to the planner")
    arg("--query", default="Q1", choices=library,
        help="library query for the local demo")
    arg("--windows", type=int, default=8, help="windows to simulate locally")
    arg("--shift-at", type=int, default=2, help="window at which the traffic "
        "shift (flood + scan noise) begins")
    arg("--pps", type=int, default=20_000,
        help="background packets per second")
    arg("--registers", type=int, default=128,
        help="initial reduce-register allocation")
    arg("--max-registers", type=int, default=4096,
        help="planner growth ceiling")
    arg("--workers", type=int, default=1, help="shard the data plane across "
        "N worker processes (default 1 = single-process)")
    arg("--json", action="store_true",
        help="also dump the final planner state as JSON")

    arg = command("metrics", cmd_metrics, "Prometheus text exposition: scrape "
                  "a running service (--url) or render a short seeded local "
                  "run", query, seed)
    arg("--url", default="",
        help="base URL of a running service (e.g. http://127.0.0.1:8181)")
    arg("--windows", type=int, default=5,
        help="windows to tick for the local run")
    arg("--pps", type=int, default=5_000)
    arg("--switches", type=int, default=3)
    arg("--engine", default="vector", choices=engines)

    arg = command("demo", cmd_demo, "end-to-end quickstart run")
    arg("--engine", default="scalar", choices=engines,
        help="packet-execution engine (default: scalar)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
