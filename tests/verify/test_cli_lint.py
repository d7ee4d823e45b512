"""`repro lint` CLI: exit codes, suppression, JSON, file targets."""

import json
import textwrap

import pytest

from repro.cli import main


class TestLintExitCodes:
    """The documented contract: 0 clean, 1 warnings only, 2 errors."""

    def test_clean_catalog_exits_zero(self, capsys):
        assert main(["lint", "--all"]) == 0
        out = capsys.readouterr().out
        assert "== Q1" in out

    def test_warnings_exit_one(self, capsys):
        assert main(["lint", "Q1", "--cm-depth", "1"]) == 1
        assert "NV302" in capsys.readouterr().out

    def test_werror_promotes_warnings_to_two(self):
        assert main(["lint", "Q1", "--cm-depth", "1", "--werror"]) == 2

    def test_errors_exit_two_naming_the_code(self, capsys):
        assert main(["lint", "Q1", "--array-size", "64"]) == 2
        assert "NV203" in capsys.readouterr().out

    def test_suppress_drops_the_code(self):
        assert main([
            "lint", "Q1", "--array-size", "64", "--suppress", "NV203",
        ]) == 0

    def test_joint_catalog_warns_on_shared_seeds(self):
        # Co-installing the whole library shares hash seeds (NV304):
        # warnings only, exit 1.
        assert main(["lint", "--all", "--joint"]) == 1


class TestLintTargets:
    def test_file_target_with_query(self, tmp_path, capsys):
        path = tmp_path / "my_query.py"
        path.write_text(textwrap.dedent(
            """
            from repro.core.query import Query

            QUERY = (
                Query("user.syn")
                .filter(proto=6, tcp_flags=2)
                .map("dip")
                .reduce("dip")
                .where(ge=40)
            )
            """
        ))
        assert main(["lint", str(path)]) == 0
        assert "user.syn" not in capsys.readouterr().err

    def test_file_target_with_queries_list(self, tmp_path):
        path = tmp_path / "suite.py"
        path.write_text(textwrap.dedent(
            """
            from repro.core.query import Query

            def q(qid):
                return (Query(qid).filter(proto=17).map("dip")
                        .reduce("dip").where(ge=5))

            QUERIES = [q("u.a"), q("u.b")]
            """
        ))
        # The pair shares hash seeds within its unit (NV304 warnings).
        assert main(["lint", str(path)]) == 1

    def test_file_without_query_rejected(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("X = 1\n")
        with pytest.raises(SystemExit):
            main(["lint", str(path)])

    def test_unknown_name_rejected(self):
        # SystemExit(str): the message goes to stderr, the status is 1.
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "Q99"])
        assert str(exit_info.value.code).startswith(
            "lint: 'Q99' is neither a library query"
        )

    def test_no_targets_rejected(self):
        with pytest.raises(SystemExit):
            main(["lint"])


class TestLintJson:
    def test_json_output_is_structured(self, capsys):
        assert main(["lint", "Q1", "--array-size", "64", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload}
        assert "NV203" in codes

    def test_format_json_spans_units(self, capsys):
        # --format json merges every unit into one parseable document.
        assert main([
            "lint", "Q1", "Q4", "--array-size", "64", "--format", "json",
        ]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert {d["code"] for d in payload} >= {"NV203"}
