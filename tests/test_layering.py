"""Layering rules, held by an ``ast`` scan of the source tree.

* Engines use the simulator's public contract (``advance`` / ``finish``
  / ``epoch`` / ``next_scheduled_ts``): no ``sim._x`` / ``simulator._x``
  under ``src/repro/engine``.
* The vector engine runs every query itself: ``engine/vector.py``
  imports nothing of ``engine.scalar`` and calls no ``.step(``, so no
  per-packet fallback can come back.
* The fabric exchanges windowed answers through ``export_*`` /
  ``absorb_*``: no ``._results`` / ``._signals`` under
  ``src/repro/fabric``.
* A sharded deployment *is* a deployment, not a look-alike: no
  ``__getattr__`` under ``src/repro/fabric`` and no ``getattr(`` probe
  of a deployment under ``src/repro/service``.
* Two hashes, two jobs, one module: only ``dataplane/hashing.py``
  imports ``hashlib``, and flow decisions go through the flow hash — no
  ``hash_bytes`` (the sketch-key hash) under ``src/repro/engine`` or
  ``src/repro/network``.
* One occupancy model: outside ``dataplane/`` only
  ``PipelineModel.of_switch`` (``verify/program.py``) reads a switch's
  occupancy — its live ``slot_rules`` record or a bank's
  ``free_registers()`` — nothing there walks ``stage_slots()`` (the
  record replaced the stage × slot walk), and the op path
  (``src/repro/ctrlplane``, ``src/repro/core``) never imports the
  bank-walking ``SwitchView``.
* An operation is audited for what it touched: the whole-fleet walk
  (``analyze_deployment`` / ``analyze_fleet``) is the CLI's and the test
  oracle's — nothing under ``src/repro/core``, ``src/repro/ctrlplane``
  or ``src/repro/service`` names it (the service's audit runs
  ``analyze_op``).
* One admission decision, before commit: no module under ``src/repro``
  passes ``verify=False`` (the controller's gate is never skipped).
* One durable record per control op, written by the service: outside
  ``ctrlplane/wal.py``, ``ctrlplane/__init__.py`` and ``service/``,
  nothing names ``WriteAheadLog`` or a ``.wal`` attribute (the
  transaction manager holds no log hook).
* One fault vocabulary: no class named ``FaultPlan`` or ``FaultConfig``
  outside ``resilience/faults.py``, and ``cli.py`` never names a fault
  shim (``FaultyControlChannel`` / ``FaultInjector``) — it builds a
  ``resilience.FaultPlan`` and hands it to the deployment.
* One report path: the engines hand each report to the collector, whose
  ingest mirrors it to the analyzer (``engine/base.py``'s ``hand_off``).
  Outside ``engine/base.py`` nothing names a ``report_sink`` but
  ``NewtonPipeline``'s class-body declaration of the tap the benchmark
  harness sets, and ``core/analyzer.py`` defines no
  ``register`` / ``unregister``: it resolves queries through the
  controller's installed records.
* The CLI is a shell: only ``cli.py`` and ``experiments/`` import
  ``repro.experiments`` (the service asks ``core/library.py`` for the
  evaluation thresholds); ``cli.py`` constructs no deployment
  (``build_deployment`` / ``ShardedDeployment`` / ``assign_hosts`` come
  through ``repro/fleet.py``), defines no ``_run_*`` wrapper, and —
  ``build_parser`` aside — no function over 40 lines.
* One experiment registry: each key of
  ``repro.experiments.EXPERIMENTS`` is read by exactly one
  ``benchmarks/bench_*.py``, and no benchmark imports a
  ``render_figure*`` of its own.  Every ``benchmarks/bench_*.py`` reads
  a registry key, except the standalone drivers named in
  ``STANDALONE_DRIVERS`` — a list that only shrinks — so no new one can
  appear.
* The batch engine's Python does not grow: ``engine/program.py`` and
  ``engine/vector.py`` hold at most ``ENGINE_LINE_CAP`` physical lines
  together (ROADMAP item 4's cap), so a faster op path pays for its
  lines elsewhere in the two files.
* The stage scheduler and the dependency pass (NV1xx) that re-checks it
  stay two derivations: ``core/compiler.py`` imports nothing from
  ``repro.verify`` when it is imported (its self-check imports the pass
  inside ``compile_query``), ``verify/dependencies.py`` names neither of
  the compiler's ``_containers`` / ``_schedule``, and the compiler holds
  at most ``COMPILER_LINE_CAP`` physical lines, so a faster schedule
  pays for its lines elsewhere in the file.
* The switch's rule and register machinery does not grow:
  ``dataplane/pipeline.py``, ``registers.py`` and ``tables.py`` hold at
  most ``DATAPLANE_LINE_CAP`` physical lines together, so the placement
  plan and the handles that garbage-collect a version pay for their
  lines in the three files.
* One explicit interface, no duck typing: nothing under ``src/repro``
  calls ``getattr`` / ``hasattr`` with a string-literal attribute name
  (reflection over a variable name, such as dataclass fields, stays),
  and the engines take the simulator's collector, analyzer and
  controller as given — nothing under ``src/repro/engine`` compares
  ``sim.collector`` / ``sim.analyzer`` / ``sim.controller``, or a local
  of one of those names, with ``None`` (``sim.sanitizer`` stays
  optional).
* numpy is the only third-party module the package imports, at module
  or function level: every other import under ``src/repro`` is the
  package itself or a standard-library module named in ``STDLIB``
  (``sys.stdlib_module_names`` needs Python 3.10; the project targets
  3.9).  networkx and the rest of the ``test`` extra are test oracles.
* CI's ``mypy --strict`` step cannot run where mypy is not installed, so
  its first demand is held here: every function in the strict-listed
  sources annotates every parameter and its return (as mypy reads
  ``disallow_untyped_defs`` / ``disallow_incomplete_defs``), and the
  list below is the list the CI step names.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SIMULATOR_NAMES = {"sim", "simulator"}
#: The simulator components every deployment supplies.
COMPONENTS = {"collector", "analyzer", "controller"}
#: What CI's ``mypy --strict`` step checks, relative to ``src/repro``.
STRICT = ["verify", "engine", "core/ops.py", "core/admission.py",
          "dataplane/hashing.py", "dataplane/registers.py",
          "network/topology.py", "network/routing.py"]
#: Physical lines ``engine/program.py`` + ``engine/vector.py`` may hold.
ENGINE_LINE_CAP = 1765
ENGINE_FILES = ("engine/program.py", "engine/vector.py")
#: Physical lines ``core/compiler.py`` may hold: its size before the
#: one-pass scheduler.
COMPILER_LINE_CAP = 931
#: Physical lines the switch's rule and register files may hold: their
#: size before the shared placement plan, plus 30.
DATAPLANE_LINE_CAP = 1447
DATAPLANE_FILES = ("dataplane/pipeline.py", "dataplane/registers.py",
                   "dataplane/tables.py")
#: The package's runtime dependencies, beside itself.
RUNTIME = {"repro", "numpy"}
#: Standard-library modules the package imports; a new one is added here.
STDLIB = {
    "__future__", "abc", "argparse", "asyncio", "bisect", "collections",
    "dataclasses", "enum", "functools", "hashlib", "heapq", "http",
    "itertools", "json", "logging", "math", "multiprocessing", "operator",
    "os", "pathlib", "pickle", "queue", "random", "runpy", "signal",
    "statistics", "sys", "threading", "time", "typing", "urllib",
}
#: The benchmark drivers that read no experiment key: each carries its
#: own argparse, JSON and render until ``bench/`` has rows for its
#: timings, and then goes.
STANDALONE_DRIVERS = ("bench_fabric.py", "bench_service.py")


def trees(package):
    """Parsed sources of a package directory (or of one module)."""
    root = SRC / package
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    assert files, f"no sources under {package}"
    for path in files:
        yield path.relative_to(SRC), ast.parse(path.read_text())


def tail_name(node):
    """``x`` for a bare name ``x`` or any ``<expr>.x``, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def private(attr):
    return attr.startswith("_") and not attr.startswith("__")


def simulator_private(node):
    return (isinstance(node, ast.Attribute) and private(node.attr)
            and tail_name(node.value) in SIMULATOR_NAMES)


def scalar_fallback(node):
    """``engine.scalar`` / ``ScalarEngine`` imported, or a ``.step(``
    call."""
    if isinstance(node, ast.Import):
        return any(alias.name.endswith("engine.scalar")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return (module.endswith("engine.scalar") or module == "scalar"
                or any(alias.name in ("scalar", "ScalarEngine")
                       for alias in node.names))
    return isinstance(node, ast.Call) and tail_name(node.func) == "step"


def result_dict(node):
    return (isinstance(node, ast.Attribute)
            and node.attr in ("_results", "_signals"))


def getattr_proxy(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "__getattr__")


def deployment_probe(node):
    return (isinstance(node, ast.Call) and tail_name(node.func) == "getattr"
            and bool(node.args) and tail_name(node.args[0]) == "deployment")


def literal_probe(node):
    """``getattr`` / ``hasattr`` with a string-literal attribute name."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str))


def optional_component(node):
    """A simulator component (``sim.collector`` and the like, or a local
    named after one) compared with ``None``."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]

    def component(operand):
        if isinstance(operand, ast.Name):
            return operand.id in COMPONENTS
        return (isinstance(operand, ast.Attribute)
                and operand.attr in COMPONENTS
                and tail_name(operand.value) in SIMULATOR_NAMES)

    return (any(isinstance(o, ast.Constant) and o.value is None
                for o in operands)
            and any(map(component, operands)))


def hashlib_import(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "hashlib"
                   for alias in node.names)
    return (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "hashlib")


def key_hash(node):
    """``hash_bytes`` imported (under any alias) or referenced."""
    if isinstance(node, ast.alias):
        return node.name == "hash_bytes"
    return tail_name(node) == "hash_bytes"


def occupancy_read(node):
    """A switch's occupancy read: its live per-slot rule record, or a
    register-lease / stage-slot call."""
    if isinstance(node, ast.Attribute) and node.attr == "slot_rules":
        return True
    return (isinstance(node, ast.Call)
            and tail_name(node.func) in ("free_registers", "stage_slots"))


def stage_walk(node):
    return isinstance(node, ast.Call) and tail_name(node.func) == "stage_slots"


def bank_walk(node):
    """``SwitchView`` imported (under any alias) or referenced."""
    if isinstance(node, ast.alias):
        return node.name == "SwitchView"
    return tail_name(node) == "SwitchView"


def whole_fleet_walk(node):
    """``analyze_deployment`` / ``analyze_fleet`` imported (under any
    alias) or referenced."""
    walks = ("analyze_deployment", "analyze_fleet")
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] in walks
    return tail_name(node) in walks


def unverified_call(node):
    """A call passing ``verify=False``."""
    return isinstance(node, ast.Call) and any(
        kw.arg == "verify" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False
        for kw in node.keywords
    )


def wal_reference(node):
    """``WriteAheadLog`` imported (under any alias) or referenced, or a
    ``.wal`` attribute."""
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] == "WriteAheadLog"
    return (tail_name(node) == "WriteAheadLog"
            or isinstance(node, ast.Attribute) and node.attr == "wal")


def fault_vocabulary(node):
    """A class named ``FaultPlan`` or ``FaultConfig``."""
    return (isinstance(node, ast.ClassDef)
            and node.name in ("FaultPlan", "FaultConfig"))


def fault_shim(node):
    """``FaultyControlChannel`` / ``FaultInjector`` imported (under any
    alias) or referenced."""
    shims = ("FaultyControlChannel", "FaultInjector")
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1] in shims
    return tail_name(node) in shims


def report_sink_use(node):
    """``report_sink`` named: an attribute, a keyword argument, a
    parameter or a variable / field."""
    if isinstance(node, ast.Attribute):
        return node.attr == "report_sink"
    if isinstance(node, (ast.keyword, ast.arg)):
        return node.arg == "report_sink"
    return isinstance(node, ast.Name) and node.id == "report_sink"


def report_sink_lines(tree):
    """Lines naming ``report_sink``, except ``NewtonPipeline``'s
    class-body declaration of the tap."""
    tap = {
        id(stmt.target)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "NewtonPipeline"
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
    }
    return [node.lineno for node in ast.walk(tree)
            if report_sink_use(node) and id(node) not in tap]


def query_registry(node):
    """A ``register`` / ``unregister`` definition."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("register", "unregister"))


def experiments_import(node):
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("repro.experiments")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("repro.experiments") or (
            node.module == "repro"
            and any(alias.name == "experiments" for alias in node.names)
        )
    return False


def deployment_construction(node):
    return (isinstance(node, ast.Call) and tail_name(node.func) in
            ("build_deployment", "ShardedDeployment", "assign_hosts"))


def experiment_wrapper(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_run_"))


def long_function(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name != "build_parser"
            and node.end_lineno - node.lineno + 1 > 40)


def own_figure_renderer(node):
    """A ``render_figure*`` name imported from anywhere."""
    return (isinstance(node, ast.alias)
            and node.name.split(".")[-1].startswith("render_figure"))


def registry_keys_read(source):
    """The ``EXPERIMENTS["<key>"]`` subscripts in a benchmark's source."""
    return re.findall(r"""EXPERIMENTS\[["']([\w-]+)["']\]""", source)


def module_level(tree):
    """The nodes that run when the module is imported: all but function
    bodies (a class body runs, so it counts)."""
    yield tree
    for child in ast.iter_child_nodes(tree):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield from module_level(child)


def verify_import(node):
    """``repro.verify`` or one of its modules imported."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("repro.verify")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("repro.verify") or (
            node.module == "repro"
            and any(alias.name == "verify" for alias in node.names)
        )
    return False


def compiler_scheduler(node):
    """The compiler's ``_containers`` / ``_schedule`` imported (under any
    alias) or referenced."""
    names = ("_containers", "_schedule")
    if isinstance(node, ast.alias):
        return node.name in names
    return tail_name(node) in names


def third_party_import(node):
    """An absolute import of a module that is neither the package, numpy
    nor on the standard-library allowlist."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] not in RUNTIME | STDLIB for name in names)


def unannotated(node):
    """A ``def`` that ``mypy --strict`` calls untyped or incompletely
    typed: a parameter without an annotation (``self`` / ``cls`` aside)
    or no return annotation — which ``__init__`` alone may omit, and
    only when it annotates at least one parameter."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    spec = node.args
    params = [
        arg for arg in (*spec.posonlyargs, *spec.args, *spec.kwonlyargs,
                        spec.vararg, spec.kwarg)
        if arg is not None and arg.arg not in ("self", "cls")
    ]
    if any(arg.annotation is None for arg in params):
        return True
    return node.returns is None and not (node.name == "__init__" and params)


def owners(tree, offends):
    """Innermost enclosing function (``<module>`` if none) of each
    offending node."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if offends(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def violations(package, offends):
    return [
        f"{path}:{node.lineno}"
        for path, tree in trees(package)
        for node in ast.walk(tree)
        if offends(node)
    ]


def test_engines_touch_no_simulator_private():
    assert violations("engine", simulator_private) == []


def test_the_vector_engine_has_no_scalar_fallback():
    assert violations("engine/vector.py", scalar_fallback) == []


def test_fabric_reads_no_result_or_signal_dicts():
    assert violations("fabric", result_dict) == []


def test_fabric_defines_no_getattr_proxy():
    assert violations("fabric", getattr_proxy) == []


def test_service_never_probes_its_deployment():
    assert violations("service", deployment_probe) == []


def test_nothing_probes_an_attribute_by_literal_name():
    assert violations("", literal_probe) == []


def test_engines_take_every_simulator_component_as_given():
    assert violations("engine", optional_component) == []


def test_only_the_hashing_module_imports_hashlib():
    assert {
        where.split(":")[0] for where in violations("", hashlib_import)
    } == {"dataplane/hashing.py"}


@pytest.mark.parametrize("package", ["engine", "network"])
def test_flow_decisions_never_use_the_key_hash(package):
    assert violations(package, key_hash) == []


def test_one_function_reads_occupancy_off_a_switch():
    readers = {
        f"{path}:{owner}"
        for path, tree in trees("")
        if path.parts[0] != "dataplane"
        for owner in owners(tree, occupancy_read)
    }
    assert readers == {"verify/program.py:of_switch"}


def test_nothing_outside_the_dataplane_walks_the_stages():
    assert [
        f"{path}:{node.lineno}"
        for path, tree in trees("")
        if path.parts[0] != "dataplane"
        for node in ast.walk(tree) if stage_walk(node)
    ] == []


@pytest.mark.parametrize("package", ["ctrlplane", "core"])
def test_op_path_never_imports_the_bank_walk(package):
    assert violations(package, bank_walk) == []


@pytest.mark.parametrize("package", ["core", "ctrlplane", "service"])
def test_op_path_never_walks_the_whole_fleet(package):
    assert violations(package, whole_fleet_walk) == []


def test_nothing_skips_the_admission_gate():
    assert violations("", unverified_call) == []


def test_only_the_service_writes_the_wal():
    owners = {"ctrlplane/wal.py", "ctrlplane/__init__.py"}
    assert [
        f"{path}:{node.lineno}"
        for path, tree in trees("")
        if path.as_posix() not in owners and path.parts[0] != "service"
        for node in ast.walk(tree) if wal_reference(node)
    ] == []


def test_one_fault_vocabulary():
    assert [
        f"{path}:{node.lineno}"
        for path, tree in trees("")
        if path.as_posix() != "resilience/faults.py"
        for node in ast.walk(tree) if fault_vocabulary(node)
    ] == []
    assert violations("cli.py", fault_shim) == []


def test_one_report_path():
    assert [
        f"{path}:{line}"
        for path, tree in trees("")
        if path.as_posix() != "engine/base.py"
        for line in report_sink_lines(tree)
    ] == []
    assert violations("core/analyzer.py", query_registry) == []


def test_only_the_pipeline_tap_may_be_declared():
    assert report_sink_lines(ast.parse(
        "class NewtonPipeline:\n"
        "    report_sink: Optional[Sink] = None\n"
    )) == []
    assert report_sink_lines(ast.parse(
        "@dataclass\n"
        "class ExecutionEnv:\n"
        "    report_sink: Optional[Sink] = None\n"
    )) == [3]


def test_only_the_cli_and_the_experiments_import_the_experiments():
    assert [
        f"{path}:{node.lineno}"
        for path, tree in trees("")
        if path.parts[0] not in ("cli.py", "experiments")
        for node in ast.walk(tree) if experiments_import(node)
    ] == []


@pytest.mark.parametrize("rule", [
    deployment_construction, experiment_wrapper, long_function,
])
def test_the_cli_is_a_shell(rule):
    assert violations("cli.py", rule) == []


def test_each_experiment_is_read_by_exactly_one_benchmark():
    readers = {}
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        source = path.read_text()
        assert not any(map(own_figure_renderer,
                           ast.walk(ast.parse(source)))), path.name
        for key in set(registry_keys_read(source)):
            readers.setdefault(key, []).append(path.name)
    assert set(readers) == set(EXPERIMENTS)
    assert {key: names for key, names in readers.items()
            if len(names) != 1} == {}


def test_every_benchmark_but_the_standalone_drivers_reads_the_registry():
    assert sorted(
        path.name for path in (ROOT / "benchmarks").glob("bench_*.py")
        if not registry_keys_read(path.read_text())
    ) == sorted(STANDALONE_DRIVERS)


def physical_lines(text):
    """Lines as ``wc -l`` counts them: one per newline character."""
    return text.count("\n")


def test_the_batch_engine_stays_under_its_line_cap():
    assert sum(physical_lines((SRC / name).read_text())
               for name in ENGINE_FILES) <= ENGINE_LINE_CAP


def test_the_dataplane_rule_files_stay_under_their_line_cap():
    assert sum(physical_lines((SRC / name).read_text())
               for name in DATAPLANE_FILES) <= DATAPLANE_LINE_CAP


def test_physical_lines_count_blank_and_comment_lines():
    assert physical_lines("x = 1\n\n# note\n") == 3
    assert physical_lines("") == 0


def test_the_scheduler_and_its_check_stay_two_derivations():
    (_, compiler), = trees("core/compiler.py")
    assert [node.lineno for node in module_level(compiler)
            if verify_import(node)] == []
    assert violations("verify/dependencies.py", compiler_scheduler) == []
    assert physical_lines(
        (SRC / "core" / "compiler.py").read_text()) <= COMPILER_LINE_CAP


def test_module_level_skips_function_bodies_only():
    tree = ast.parse(
        "import os\n"
        "if TYPE_CHECKING:\n"
        "    from repro.verify import Diagnostic\n"
        "def compile_query():\n"
        "    from repro.verify.dependencies import check_dependencies\n"
        "class Spec:\n"
        "    import repro.verify\n"
    )
    assert [node.lineno for node in module_level(tree)
            if verify_import(node)] == [3, 7]


def test_numpy_is_the_only_third_party_import():
    assert violations("", third_party_import) == []


@pytest.mark.parametrize("target", STRICT)
def test_strict_listed_sources_annotate_every_signature(target):
    assert violations(target, unannotated) == []


def test_strict_list_is_the_one_ci_names():
    step = next(
        line for line in
        (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
        if "run: mypy --strict" in line
    )
    assert step.split("--strict")[1].split() == [
        f"src/repro/{target}" for target in STRICT
    ]


def test_owners_names_the_innermost_function():
    tree = ast.parse(
        "layout.stage_slots(0)\n"
        "def outer():\n"
        "    def inner():\n"
        "        return array.free_registers()\n"
        "    return inner\n"
    )
    assert owners(tree, occupancy_read) == ["<module>", "inner"]


@pytest.mark.parametrize("rule, source, offends", [
    (simulator_private, "sim._now = 1.0", True),
    (simulator_private, "self.sim._fire_scheduled(ts)", True),
    (simulator_private, "deployment.simulator._epoch", True),
    (simulator_private, "sim.advance(ts)", False),
    (simulator_private, "sim.__class__", False),
    (simulator_private, "self._scalar.step(sim, packet, stats)", False),
    (scalar_fallback, "from repro.engine.scalar import ScalarEngine", True),
    (scalar_fallback, "import repro.engine.scalar as scalar", True),
    (scalar_fallback, "from repro.engine import ScalarEngine as S", True),
    (scalar_fallback, "from .scalar import ScalarEngine", True),
    (scalar_fallback, "from repro.engine import scalar", True),
    (scalar_fallback, "self._scalar.step(sim, packet, stats)", True),
    (scalar_fallback, "from repro.engine.program import execute_program",
     False),
    (scalar_fallback, "self.engine.run(sim, packets, stats)", False),
    (result_dict, "self.local.collector._results", True),
    (result_dict, "collector.export_results()", False),
    (getattr_proxy, "class P:\n def __getattr__(self, n): ...", True),
    (deployment_probe, "getattr(self.deployment, 'fabric_status', None)",
     True),
    (deployment_probe, "getattr(record.query, 'description', '')", False),
    (literal_probe, "getattr(switch, 'pipeline', switch)", True),
    (literal_probe, "hasattr(switch, 'abort_staged')", True),
    (literal_probe, 'getattr(exc, "detected_at", None) or now', True),
    (literal_probe, "getattr(self, f.name) + getattr(other, f.name)", False),
    (literal_probe, "hasattr(args, name)", False),
    (literal_probe, "record.query.description", False),
    (optional_component, "if sim.analyzer is not None and x: pass", True),
    (optional_component, "sim.collector is None", True),
    (optional_component, "simulator.controller == None", True),
    (optional_component, "if collector is not None: collector.ingest(r)",
     True),
    (optional_component, "if sim.sanitizer is not None: pass", False),
    (optional_component, "sim.collector.ingest(report)", False),
    (optional_component, "start is None", False),
    (optional_component, "self.controller is None", False),
    (hashlib_import, "import hashlib", True),
    (hashlib_import, "from hashlib import blake2b", True),
    (hashlib_import, "import hashlib.blake2b as b", True),
    (hashlib_import, "from repro.dataplane.hashing import flow_hash", False),
    (key_hash, "from repro.dataplane.hashing import hash_bytes", True),
    (key_hash, "from repro.dataplane.hashing import hash_bytes as hb", True),
    (key_hash, "hashing.hash_bytes(flow, seed)", True),
    (key_hash, "flow_hash(packet.five_tuple, self.seed)", False),
    (occupancy_read, "module.array.free_registers()", True),
    (occupancy_read, "pipeline.layout.stage_slots(stage).items()", True),
    (occupancy_read, "dict(pipeline.slot_rules)", True),
    (occupancy_read, "switch.pipeline.slot_rules.get(slot, 0)", True),
    (occupancy_read, "PipelineModel.of_switch(switch)", False),
    (occupancy_read, "array.free_registers", False),
    (occupancy_read, "model.rules_used", False),
    (stage_walk, "layout.stage_slots(stage).items()", True),
    (stage_walk, "layout.module_at(stage, mtype)", False),
    (stage_walk, "layout.bank_at[stage]", False),
    (bank_walk, "from repro.verify.fleet.model import SwitchView", True),
    (bank_walk, "from repro.verify.fleet import SwitchView as SV", True),
    (bank_walk, "fleet.SwitchView.of_switch(switch)", True),
    (bank_walk, "from repro.verify.fleet import check_staging_plan", False),
    (whole_fleet_walk, "from repro.verify import analyze_fleet", True),
    (whole_fleet_walk, "from repro.verify.fleet import analyze_fleet as af",
     True),
    (whole_fleet_walk, "report = fleet.analyze_deployment(switches)", True),
    (whole_fleet_walk, "gate = analyze_fleet", True),
    (whole_fleet_walk, "from repro.verify import analyze_op, exit_code",
     False),
    (whole_fleet_walk, "analyze_op(self.deployment, qid, config)", False),
    (unverified_call, "controller.update_query(q, p, verify=False)", True),
    (unverified_call, "install_query(q, verify=False, path=['s0'])", True),
    (unverified_call, "install_query(q, verify=True, path=['s0'])", False),
    (unverified_call, "call['verify'] = False", False),
    (unverified_call, "install_query(q, verifier_config=config)", False),
    (wal_reference, "self.deployment.controller.txn.wal = self.wal", True),
    (wal_reference, "if self.wal is not None: pass", True),
    (wal_reference, "from repro.ctrlplane import WriteAheadLog", True),
    (wal_reference, "from repro.ctrlplane.wal import WriteAheadLog as W",
     True),
    (wal_reference, "log = ctrlplane.WriteAheadLog(directory)", True),
    (wal_reference, "ServiceConfig(wal_dir=args.wal_dir)", False),
    (wal_reference, "from repro.ctrlplane.wal import WalCorruptError",
     False),
    (wal_reference, "wal = None", False),
    (fault_vocabulary, "class FaultPlan:\n    seed: int = 0", True),
    (fault_vocabulary, "class FaultConfig(Base): ...", True),
    (fault_vocabulary, "ChannelFaultPlan = FaultPlan", False),
    (fault_vocabulary, "class FaultEvent: ...", False),
    (fault_shim, "ctrlplane.FaultyControlChannel(fault_plan=plan)", True),
    (fault_shim, "from repro.collector import FaultInjector as F", True),
    (fault_shim, "from repro.ctrlplane import FaultyControlChannel", True),
    (fault_shim, "resilience.FaultPlan(events=(control_faults(),))", False),
    (fault_shim, "from repro.collector import CollectorConfig", False),
    (report_sink_use, "sink = switch.pipeline.report_sink", True),
    (report_sink_use, "Switch('s0', report_sink=analyzer.on_report)", True),
    (report_sink_use, "def __init__(self, report_sink=None): ...", True),
    (report_sink_use, "class P:\n    report_sink = None", True),
    (report_sink_use, "collector.ingest(report)", False),
    (query_registry, "class A:\n def register(self, q, c): ...", True),
    (query_registry, "def unregister(qid): ...", True),
    (query_registry, "class A:\n def on_commit(self, op, r): ...", False),
    (experiments_import, "from repro.experiments.common import workload",
     True),
    (experiments_import, "import repro.experiments", True),
    (experiments_import, "from repro import experiments", True),
    (experiments_import, "from repro.experiments import EXPERIMENTS", True),
    (experiments_import, "from repro.core.library import build_query", False),
    (deployment_construction, "dep = build_deployment(linear(3))", True),
    (deployment_construction, "fabric.ShardedDeployment(topo, workers=2)",
     True),
    (deployment_construction, "assign_hosts(trace, pairs)", True),
    (deployment_construction, "fleet.build_fleet(3, ['Q1'])", False),
    (deployment_construction, "from repro import build_deployment", False),
    (experiment_wrapper, "def _run_fig7(): ...", True),
    (experiment_wrapper, "def cmd_experiment(args): ...", False),
    (long_function, "def f():\n" + " pass\n" * 40, True),
    (long_function, "def f():\n" + " pass\n" * 39, False),
    (long_function, "def build_parser():\n" + " pass\n" * 200, False),
    (own_figure_renderer,
     "from repro.experiments.exp_fig7 import figure7, render_figure7", True),
    (own_figure_renderer, "from repro.experiments import EXPERIMENTS", False),
    (verify_import, "from repro.verify.dependencies import check_dependencies",
     True),
    (verify_import, "import repro.verify as verify", True),
    (verify_import, "from repro import verify", True),
    (verify_import, "from repro.core.rules import HConfig", False),
    (verify_import, "from repro import core", False),
    (compiler_scheduler, "from repro.core.compiler import _containers", True),
    (compiler_scheduler, "from repro.core.compiler import _schedule as s",
     True),
    (compiler_scheduler, "compiler._schedule(mods, compact=True)", True),
    (compiler_scheduler, "from repro.core.compiler import CompiledQuery",
     False),
    (compiler_scheduler, "reads, writes = containers_of(spec)", False),
    (third_party_import, "import networkx as nx", True),
    (third_party_import, "from networkx import Graph", True),
    (third_party_import, "def f():\n import scipy.stats as st", True),
    (third_party_import, "import os, networkx", True),
    (third_party_import, "import numpy as np", False),
    (third_party_import, "from collections import deque", False),
    (third_party_import, "from repro.network import routing", False),
    (third_party_import, "from . import topology", False),
    (unannotated, "def f(x): ...", True),
    (unannotated, "def f(x: int): ...", True),
    (unannotated, "def f(x: int, *rest, **kw: str) -> None: ...", True),
    (unannotated, "def f(x: int, *, key) -> None: ...", True),
    (unannotated, "async def f(x: int) -> int: ...", False),
    (unannotated, "class C:\n def m(self, x: int) -> None: ...", False),
    (unannotated, "class C:\n def __init__(self, x: int): ...", False),
    (unannotated, "class C:\n def __init__(self): ...", True),
    (unannotated, "def outer() -> None:\n def inner(): ...", True),
    (unannotated, "key = lambda packet: packet.ts", False),
])
def test_each_rule_catches_what_it_should(rule, source, offends):
    assert any(map(rule, ast.walk(ast.parse(source)))) is offends


def test_registry_keys_are_found_under_either_quote():
    assert registry_keys_read(
        "A = EXPERIMENTS['fig7']\nB = EXPERIMENTS[\"table3\"].run()\n"
        "C = EXPERIMENTS[name]\nD = EXPERIMENTS['control-scaling']\n"
    ) == ["fig7", "table3", "control-scaling"]
