"""Golden outputs of the CLI: stdout and exit code, byte for byte.

Every file under ``golden/`` was captured from the commit *before* the
CLI became a shell over the planes (``exit=<code>`` on the first line,
then stdout), so a refactor of ``cli.py``, the experiment registry or a
plane's report function that moves one character of what an operator
sees fails here.  Regenerate on purpose with::

    PYTHONPATH=src python tests/core/test_cli_golden.py

``metrics`` and ``collect-stats`` print wall-clock histograms; lines of
``*_seconds_*`` series are masked, everything else in every case is seeded.
``experiment fig12`` / ``fig14`` (17 s / 30 s) are left to
``pytest benchmarks/``.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"
FAST_EXPERIMENTS = ["table3", "fig7", "fig10", "fig11", "fig13", "fig15",
                    "fig16", "fig17", "ablations"]
CASES = [
    "list-queries",
    "compile Q4 --rules",
    "compile Q1 --json",
    "lint --all",
    "lint Q6 Q8 --joint --format json",
    "analyze",
    "analyze --format json",
    "plan --windows 5",
    "chaos --packets 4000",
    "chaos --packets 4000 --json --engine vector",
    "txn-stats --json",
    "collect-stats --query Q6 --loss 0.1 --duplication 0.1 --reorder 0.1"
    " --delay 0.1",
    "demo",
    "metrics --windows 3",
] + [f"experiment {name}" for name in FAST_EXPERIMENTS]
_WALL_CLOCK = re.compile(r"^\w*_seconds_\w*[{ ].*$", re.MULTILINE)


def golden_path(case: str) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "_", case).strip("_") + ".txt")


def run_case(case: str) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(case.split())
        except SystemExit as exc:
            code = exc.code
    text = stdout.getvalue()
    if case.startswith(("metrics", "collect-stats")):
        text = _WALL_CLOCK.sub("<wall clock>", text)
    return f"exit={code}\n{text}"


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_golden(case):
    assert run_case(case) == golden_path(case).read_text()


def test_mask_hides_only_wall_clock_series():
    text = ("# TYPE collector_batch_seconds histogram\n"
            'collector_batch_seconds_bucket{le="0.001"} 3\n'
            "collector_batch_seconds_sum 0.0123\n"
            "service_windows_total 3\n")
    assert _WALL_CLOCK.sub("<wall clock>", text) == (
        "# TYPE collector_batch_seconds histogram\n"
        "<wall clock>\n<wall clock>\nservice_windows_total 3\n"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        golden_path(case).write_text(run_case(case))
        print(f"wrote {golden_path(case).name}")
