"""Edge cases of the shared ``# repro: noqa[...]`` escape and renderers.

All three checkers (lint, units, purity) share :mod:`repro.analysis.common`;
these tests pin down the corner cases of the escape syntax — multiple codes,
whitespace, unknown codes, continuation lines — and the three output
formats.
"""

from __future__ import annotations

import json

from repro.analysis.common import (
    FORMATS,
    Finding,
    filter_findings,
    noqa_codes,
    render_findings,
)
from repro.analysis.lint import lint_source


class TestNoqaParsing:
    def test_bare_noqa_suppresses_everything(self):
        assert noqa_codes("x = 1  # repro: noqa") == frozenset()

    def test_single_code(self):
        assert noqa_codes("x = 1  # repro: noqa[RPR001]") == {"RPR001"}

    def test_multiple_codes_with_spaces(self):
        line = "x = 1  # repro: noqa[RPR001, RPR006 , RPR009]"
        assert noqa_codes(line) == {"RPR001", "RPR006", "RPR009"}

    def test_case_insensitive(self):
        assert noqa_codes("x = 1  # REPRO: NOQA[rpr002]") == {"RPR002"}

    def test_no_marker(self):
        assert noqa_codes("x = 1  # plain comment") is None
        assert noqa_codes("x = 1") is None

    def test_unknown_code_does_not_suppress_others(self):
        src = "import random\nrandom.random()  # repro: noqa[RPR999]\n"
        findings = lint_source(src)
        assert [f.code for f in findings] == ["RPR001"]

    def test_listed_code_must_match(self):
        src = "import random\nrandom.random()  # repro: noqa[RPR002]\n"
        assert [f.code for f in lint_source(src)] == ["RPR001"]
        src_ok = "import random\nrandom.random()  # repro: noqa[RPR001]\n"
        assert lint_source(src_ok) == []


class TestContinuationLines:
    def _finding(self, **kw):
        base = dict(
            path="x.py", line=1, col=0, code="RPR006", message="mixed"
        )
        base.update(kw)
        return Finding(**base)

    def test_noqa_on_first_line(self):
        lines = ["a = (size_mb  # repro: noqa[RPR006]", "     + delay_s)"]
        f = self._finding(line=1, end_line=2)
        assert filter_findings([f], lines) == []

    def test_noqa_on_last_line_of_multiline_expression(self):
        lines = ["a = (size_mb", "     + delay_s)  # repro: noqa[RPR006]"]
        f = self._finding(line=1, end_line=2)
        assert filter_findings([f], lines) == []

    def test_noqa_on_middle_line_does_not_suppress(self):
        lines = [
            "a = (size_mb",
            "     # repro: noqa[RPR006]",
            "     + delay_s)",
        ]
        f = self._finding(line=1, end_line=3)
        assert filter_findings([f], lines) == [f]

    def test_without_end_line_only_first_line_counts(self):
        lines = ["a = (size_mb", "     + delay_s)  # repro: noqa[RPR006]"]
        f = self._finding(line=1, end_line=None)
        assert filter_findings([f], lines) == [f]

    def test_select_filter(self):
        f6 = self._finding(code="RPR006")
        f7 = self._finding(code="RPR007", col=4)
        got = filter_findings([f7, f6], ["a = b"], select=["RPR007"])
        assert got == [f7]

    def test_sorted_by_position(self):
        f_late = self._finding(line=5)
        f_early = self._finding(line=2)
        got = filter_findings([f_late, f_early], ["x"] * 6)
        assert [f.line for f in got] == [2, 5]


class TestRenderFormats:
    F = Finding("src/x.py", 3, 4, "RPR006", "50% slower\nsecond line")

    def test_formats_tuple(self):
        assert FORMATS == ("text", "json", "github")

    def test_text(self):
        out = render_findings([self.F], "text")
        assert "src/x.py:3:4: RPR006" in out
        assert out.endswith("1 finding")

    def test_text_clean(self):
        assert render_findings([], "text") == "clean: no findings"

    def test_json_round_trips(self):
        doc = json.loads(render_findings([self.F], "json"))
        assert doc == [
            {
                "path": "src/x.py",
                "line": 3,
                "col": 4,
                "end_line": None,
                "code": "RPR006",
                "message": "50% slower\nsecond line",
            }
        ]

    def test_github_escapes_workflow_syntax(self):
        out = render_findings([self.F], "github")
        line = out.splitlines()[0]
        # Columns are 1-based for GitHub annotations; % and newlines must
        # be escaped or the workflow command is cut short.
        assert line.startswith("::error file=src/x.py,line=3,col=5,title=RPR006::")
        assert "%25" in line and "%0A" in line
        assert "\n50" not in line


class TestCliAggregation:
    """``repro lint`` runs all nine codes in one pass."""

    def test_lint_command_reports_units_and_purity_codes(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def job(size_mb, delay_s):\n"
            "    random.seed(0)\n"
            "    return size_mb + delay_s\n"
            "def run(xs):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return list(pool.map(job, xs))\n"
        )
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR006" in out  # units: size_mb + delay_s
        assert "RPR009" in out  # purity: reseed inside a pooled worker

    def test_lint_list_rules_shows_all_nine(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for n in range(1, 10):
            assert f"RPR00{n}" in out

    def test_select_runs_one_layer(self, capsys, tmp_path):
        from repro.cli import main as cli_main

        # Only an RPR001 finding: the units and purity layers alone pass.
        src = tmp_path / "rng.py"
        src.write_text("import random\nx = random.random()\n")
        assert cli_main(["lint", str(src), "--select", "RPR006"]) == 0
        assert cli_main(["lint", str(src), "--select", "RPR009"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean: no findings") == 2
        assert cli_main(["lint", str(src), "--select", "RPR001"]) == 1
