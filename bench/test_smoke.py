"""Smoke tests of the benchmark itself, on tiny windows.

    python -m pytest bench/

Not part of tier-1 (``testpaths`` is ``tests``): these check that the
harness runs, counts failures and keeps its contract, not how fast the
program is.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.engine.vector import VectorizedEngine  # noqa: E402

from bench import harness, setup_probe, tracing  # noqa: E402
from bench.traces import (  # noqa: E402
    ROTATE_SHIFT,
    RotatingReplaySource,
    window_rows,
)
from bench.workloads import (  # noqa: E402
    CYCLE_WINDOWS,
    WARMUP_WINDOWS,
    WORKLOADS,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

TINY = 40  # packets per window


def tiny_cycle(name: str, seed: int = 5):
    return WORKLOADS[name].make_cycle(seed, per_window=TINY)


def test_spec_names_the_workloads_and_metrics_the_harness_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.10 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_cycle_is_exact_seeded_and_sorted(name):
    cycle = tiny_cycle(name)
    again = tiny_cycle(name)
    other = tiny_cycle(name, seed=6)
    assert len(cycle) == CYCLE_WINDOWS * TINY
    assert np.all(np.diff(cycle.ts) > 0)
    epochs = (cycle.ts / 0.1).astype(int)
    assert np.array_equal(np.bincount(epochs),
                          np.full(CYCLE_WINDOWS, TINY))
    for column in cycle.columns:
        assert np.array_equal(cycle.columns[column], again.columns[column])
    assert not np.array_equal(cycle.columns["sip"], other.columns["sip"])
    hosts = len(WORKLOADS[name].host_pairs) * 2
    assert 0 <= cycle.src_host_ids.min() <= cycle.dst_host_ids.max() < hosts


def test_replay_rotates_keys_per_pass_and_nothing_else():
    cycle = tiny_cycle("eval9-linear-mice")
    source = RotatingReplaySource(cycle, CYCLE_WINDOWS, WARMUP_WINDOWS)
    assert source.locate(0) == (0, 0)
    assert source.locate(WARMUP_WINDOWS) == (1, 0)
    assert source.locate(WARMUP_WINDOWS + CYCLE_WINDOWS + 3) == (2, 3)
    plain = window_rows(cycle, CYCLE_WINDOWS, 3)
    for epoch, passes in ((3, 0), (WARMUP_WINDOWS + 3, 1),
                          (WARMUP_WINDOWS + CYCLE_WINDOWS + 3, 2)):
        chunk = source.window(epoch, 0.1)
        shift = passes << ROTATE_SHIFT
        assert np.array_equal(chunk.columns["sip"],
                              plain.columns["sip"] + shift)
        assert np.array_equal(chunk.columns["dip"],
                              plain.columns["dip"] + shift)
        assert np.array_equal(chunk.columns["dport"], plain.columns["dport"])
        assert np.all((chunk.ts / 0.1).astype(int) == epoch)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_pass_runs_clean_and_matches_the_scalar_reference(name):
    workload = WORKLOADS[name]
    cycle = tiny_cycle(name)
    driver = harness._Driver(workload, harness._deploy(workload), cycle)
    driver.warm_up()
    result = driver.timed(1)
    assert len(result.windows) == CYCLE_WINDOWS
    assert len(workload.update_before) in (0, harness.UPDATES_PER_PASS)
    assert len(result.updates) == harness.UPDATES_PER_PASS
    harness.check_outputs(workload, cycle, result)
    assert result.failures == {}
    assert result.attempted >= (CYCLE_WINDOWS + WARMUP_WINDOWS
                                + harness.UPDATES_PER_PASS + 3)


def test_durations_are_per_operation_medians_at_reference_speed():
    # Two passes of two windows and one update; the machine ran at half
    # speed (factor 0.5) during the second pass, on both clocks.
    def op(wall, cpu, index):
        factor = 1.0 - 0.5 * index
        return harness.Timed(wall, cpu, index, factor, factor)
    result = harness.Result(packets_per_pass=1000, interleaved=True)
    result.windows = [op(0.010, 0.008, 0), op(0.030, 0.024, 0),
                      op(0.020, 0.016, 1), op(0.060, 0.048, 1)]
    result.updates = [op(0.002, 0.002, 0), op(0.004, 0.004, 1)]
    scaled = harness._end_to_end(result, scaled=True)
    raw = harness._end_to_end(result, scaled=False)
    assert scaled["window_p50_ms"] == pytest.approx(20.0)
    assert raw["window_p50_ms"] == pytest.approx(30.0)
    assert scaled["op_p50_ms"] == pytest.approx(2.0)
    assert scaled["pps"] == pytest.approx(1000 / 0.042)
    assert raw["pps"] == pytest.approx((1000 / 0.042 + 1000 / 0.084) / 2)
    assert scaled["cpu_s_per_mpkt"] == pytest.approx(34.0)
    result.interleaved = False                  # updates leave the pass
    assert harness._end_to_end(result, True)["pps"] == pytest.approx(25000)


def test_two_sets_disagree_either_way_and_noise_counts():
    from bench.run import compare_sets
    steady = [100.0 + i for i in range(10)]
    assert compare_sets(steady, steady, 0.10)[2] == ""
    for factor in (0.7, 1.3):       # a faster second set disagrees too
        moved = [v * factor for v in steady]
        differ, _, verdict = compare_sets(steady, moved, 0.10)
        assert differ == pytest.approx(factor - 1.0)
        assert verdict == "MEDIANS DISAGREE"
    noisy = [104.5 + 5 * (i - 4.5) for i in range(10)]   # same median
    assert compare_sets(steady, noisy, 0.10)[2] == "TOO NOISY"


def test_failures_are_counted_not_raised():
    workload = WORKLOADS["eval9-linear-mice"]
    cycle = tiny_cycle(workload.name)
    deployment = harness._deploy(workload)
    driver = harness._Driver(workload, deployment, cycle)
    deployment.controller.remove_query("Q4")      # updates now fail
    driver.update()
    deployment.simulator.run = None               # and so do windows
    driver.step()
    assert driver.result.failures == {
        "update-raised:KeyError": 1, "window-raised:TypeError": 1,
    }
    assert driver.result.failed == 2


@pytest.mark.parametrize("name,fast", [("eval9-linear-mice", 1.0),
                                       ("eval9-linear-cqe", 0.0)])
def test_traced_run_reports_every_layer_and_restores_the_program(
        name, fast, tmp_path):
    before = VectorizedEngine.__dict__["run"]
    spans = tmp_path / "spans.jsonl"
    metrics, result = harness.trace_layers(
        WORKLOADS[name], tiny_cycle(name), 0.0, str(spans)
    )
    assert VectorizedEngine.__dict__["run"] is before
    wanted = {m["name"] for m in SPEC["per_layer"]
              if not m["name"].startswith("setup.")}
    assert wanted <= set(metrics)
    assert metrics["engine.fastpath_share"] == fast
    assert (metrics["core.sp_bytes_per_kpkt"] > 0) == (fast == 0.0)
    assert metrics["harness.unattributed_ms"] <= (
        0.2 * metrics["harness.window_ms"])
    # Tiny windows miss the workloads' hash-miss ranges by design.
    result.failures.pop("hash-miss-out-of-range", None)
    assert result.failures == {}
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    by_id = {r["id"]: r for r in records if "id" in r}
    roots = [r for r in by_id.values() if r["name"] == tracing.ROOT]
    assert len(roots) == WARMUP_WINDOWS + CYCLE_WINDOWS
    for record in by_id.values():
        if record["parent"] >= 0:
            parent = by_id[record["parent"]]
            assert parent["start"] <= record["start"]
            assert record["end"] <= parent["end"]


def test_setup_probe_times_every_phase_in_a_child():
    cycle = tiny_cycle("eval9-linear-mice")
    medians = setup_probe.run_probes(
        "eval9-linear-mice", window_rows(cycle, CYCLE_WINDOWS, 0), probes=2
    )
    assert set(medians) == set(setup_probe.PHASES) | {"setup_s",
                                                       "raw_setup_s"}
    assert all(value > 0 for value in medians.values())
    assert medians["setup_s"] == pytest.approx(
        sum(medians[p] for p in setup_probe.PHASES))


def test_command_fails_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval9-linear-mice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""
