"""CLI tests."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_registered(self):
        expected = {"table3", "ablations", "control-scaling"} | {
            f"fig{i}" for i in (7, 10, 11, 12, 13, 14, 15, 16, 17)
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "Q42"])


class TestCommands:
    def test_list_queries(self, capsys):
        assert main(["list-queries"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 10):
            assert f"Q{i}" in out
        assert "Monitor super spreaders" in out

    def test_compile_summary(self, capsys):
        assert main(["compile", "Q1"]) == 0
        out = capsys.readouterr().out
        assert "modules=8" in out and "stages=6" in out

    def test_compile_with_rules(self, capsys):
        assert main(["compile", "Q1", "--rules"]) == 0
        out = capsys.readouterr().out
        assert "KConfig" in out and "RConfig" in out

    def test_compile_opt_levels_differ(self, capsys):
        main(["compile", "Q1", "--opt-level", "0"])
        naive = capsys.readouterr().out
        main(["compile", "Q1", "--opt-level", "3"])
        optimized = capsys.readouterr().out
        assert "modules=20" in naive
        assert "modules=8" in optimized

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage" in out and "Compact Module Layout" in out

    def test_experiment_fig7(self, capsys):
        assert main(["experiment", "fig7"]) == 0
        assert "42.4%" in capsys.readouterr().out


def closed_port():
    """A localhost port nothing listens on (bound once, then released)."""
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestInputBoundaries:
    """Bytes the CLI did not write — a fault-plan file, an inline spec, a
    peer that is not there — answer with one ``newton-repro <cmd>:
    error:`` line on stderr and exit 2, never a traceback."""

    def refused(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"newton-repro {argv[0]}: error: ")
        assert needle in captured.err

    def test_chaos_fault_plan_file_missing(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        self.refused(capsys, ["chaos", "--fault-plan", str(missing)],
                     "No such file")

    @pytest.mark.parametrize("body, needle", [
        ("this is not json", "Expecting value"),
        ('{"events": [{"kind": "crash"}]}', "crash fault needs a switch"),
        ('{"events": [{"kind": "crash", "switch": "s0", "at": 0.1, '
         '"when": 3}]}', "bad fault event"),
    ])
    def test_chaos_fault_plan_malformed(self, capsys, tmp_path, body,
                                        needle):
        plan = tmp_path / "plan.json"
        plan.write_text(body)
        self.refused(capsys, ["chaos", "--fault-plan", str(plan)], needle)

    def test_plan_manage_spec_not_json(self, capsys):
        url = f"http://127.0.0.1:{closed_port()}"
        self.refused(capsys, ["plan", "--url", url, "--manage", "{bad"],
                     "Expecting property name")

    @pytest.mark.parametrize("command", ["plan", "metrics"])
    def test_url_to_a_closed_port(self, capsys, command):
        url = f"http://127.0.0.1:{closed_port()}"
        self.refused(capsys, [command, "--url", url], "Connection refused")
