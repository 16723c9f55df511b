"""Tests for the dimensional-analysis checker (:mod:`repro.analysis.units`).

The planted-bug fixtures under ``fixtures_units/`` carry exactly the error
shapes the checker exists for (swapped divide, mixed add, cross-dimension
comparison); the annotated simulator tree itself must check clean with zero
suppressions in ``core/`` and ``cluster/``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.dims import (
    DIMS_BY_NAME,
    Dim,
    convention_dim,
)
from repro.analysis.units import check_paths, check_source, iter_rules
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures_units"
SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestRuleRegistry:
    def test_codes_in_order(self):
        assert [r.code for r in iter_rules()] == ["RPR006", "RPR007", "RPR008"]

    def test_summaries_are_nonempty(self):
        assert all(r.summary for r in iter_rules())


class TestDims:
    def test_aliases_are_annotated_floats(self):
        # The aliases must be transparent to runtime code: plain floats.
        from repro.analysis import dims

        for name in ("MB", "MBps", "Seconds", "Milliseconds", "SecondsPerMB"):
            alias = getattr(dims, name)
            marker = alias.__metadata__[0]
            assert isinstance(marker, Dim)
        assert DIMS_BY_NAME["MB"].data == 1
        assert DIMS_BY_NAME["MBps"] == Dim(data=1, time=-1, label="MBps")
        assert DIMS_BY_NAME["Seconds"].time == 1

    def test_conventions(self):
        assert convention_dim("size_mb") == DIMS_BY_NAME["MB"]
        assert convention_dim("bw_mbps") == DIMS_BY_NAME["MBps"]
        assert convention_dim("bw") == DIMS_BY_NAME["MBps"]
        assert convention_dim("timeout_s") == DIMS_BY_NAME["Seconds"]
        assert convention_dim("elapsed_ms") == DIMS_BY_NAME["Milliseconds"]
        assert convention_dim("hit_rate") == DIMS_BY_NAME["Dimensionless"]
        assert convention_dim("plain_name") is None

    def test_per_mb_names_are_not_megabytes(self):
        # ``compute_cost_per_mb`` ends in ``_mb`` but is seconds-per-MB
        # territory: the convention must not claim it is a size.
        assert convention_dim("compute_cost_per_mb") is None
        assert convention_dim("cost_s_per_mb") == DIMS_BY_NAME["SecondsPerMB"]


class TestPlantedFixtures:
    def _only(self, name: str):
        findings = check_paths([FIXTURES / name])
        assert len(findings) == 1, findings
        return findings[0]

    def test_swapped_divide_is_rpr008(self):
        f = self._only("swapped_divide.py")
        assert f.code == "RPR008"
        assert "Seconds" in f.message

    def test_mixed_add_is_rpr006(self):
        f = self._only("mixed_add.py")
        assert f.code == "RPR006"
        assert "MB" in f.message and "Seconds" in f.message

    def test_mixed_compare_is_rpr007_via_conventions(self):
        f = self._only("mixed_compare.py")
        assert f.code == "RPR007"

    def test_mixed_minmax_is_rpr007(self):
        f = self._only("mixed_minmax.py")
        assert f.code == "RPR007"
        assert "min()" in f.message

    def test_clean_fixture_has_no_findings(self):
        assert check_paths([FIXTURES / "clean.py"]) == []

    def test_whole_fixture_dir(self):
        codes = sorted(f.code for f in check_paths([FIXTURES]))
        assert codes == ["RPR006", "RPR007", "RPR007", "RPR008"]


class TestCheckSource:
    def test_annotation_seeds_lattice(self):
        src = (
            "def f(size_mb: MB, delay_s: Seconds) -> Seconds:\n"
            "    return size_mb + delay_s\n"
        )
        findings = check_source(src)
        assert [f.code for f in findings] == ["RPR006"]

    def test_assignment_tracks_dimensions(self):
        src = (
            "def f(size_mb: MB, bw: MBps) -> Seconds:\n"
            "    t = size_mb / bw\n"
            "    return t\n"
        )
        assert check_source(src) == []

    def test_wrong_assignment_dimension_flagged(self):
        src = (
            "x_mb: MB = 10.0\n"
            "def f(delay_s: Seconds) -> Seconds:\n"
            "    if delay_s < x_mb:\n"
            "        return 0.0\n"
            "    return delay_s\n"
        )
        findings = check_source(src)
        assert [f.code for f in findings] == ["RPR007"]

    def test_cross_function_return_dims_propagate(self):
        src = (
            "def cost(size_mb: MB, bw: MBps) -> Seconds:\n"
            "    return size_mb / bw\n"
            "def caller(size_mb: MB, bw: MBps) -> MB:\n"
            "    return cost(size_mb, bw)\n"
        )
        findings = check_source(src)
        assert [f.code for f in findings] == ["RPR008"]
        assert findings[0].line == 4

    def test_numeric_literals_are_polymorphic(self):
        src = (
            "def f(size_mb: MB) -> MB:\n"
            "    return 2.0 * size_mb + 1.5\n"
        )
        assert check_source(src) == []

    def test_optional_annotations_unwrap(self):
        src = (
            "def f(limit_s: Seconds | None, elapsed_s: Seconds) -> bool:\n"
            "    return limit_s is not None and elapsed_s > limit_s\n"
        )
        assert check_source(src) == []

    def test_syntax_error_becomes_rpr000(self):
        findings = check_source("def broken(:\n")
        assert [f.code for f in findings] == ["RPR000"]

    def test_noqa_suppresses(self):
        src = (
            "def f(size_mb: MB, delay_s: Seconds):\n"
            "    return size_mb + delay_s  # repro: noqa[RPR006]\n"
        )
        assert check_source(src) == []


class TestCrossModuleHarvest:
    def test_check_paths_shares_annotations_across_files(self, tmp_path):
        (tmp_path / "defs.py").write_text(
            "def transfer_time(size_mb: MB, bw: MBps) -> Seconds:\n"
            "    return size_mb / bw\n"
        )
        (tmp_path / "use.py").write_text(
            "def bad(size_mb):\n"
            "    return size_mb + transfer_time(size_mb)\n"
        )
        findings = check_paths([tmp_path])
        assert [f.code for f in findings] == ["RPR006"]
        assert findings[0].path.endswith("use.py")


class TestRepoIsDimensionallyClean:
    def test_whole_tree_checks_clean(self):
        assert check_paths([SRC_REPRO]) == []

    def test_no_units_suppressions_in_core_or_cluster(self):
        # Acceptance bar: the annotated simulator needs zero escapes.
        for pkg in ("core", "cluster"):
            for file in sorted((SRC_REPRO / pkg).rglob("*.py")):
                text = file.read_text()
                for code in ("RPR006", "RPR007", "RPR008", "RPR009"):
                    assert code not in text, f"{file} suppresses {code}"


UNITS_CODES = ["RPR006", "RPR007", "RPR008"]


def main(args):
    """``repro lint`` restricted to this layer (the CLI's one entry point)."""
    if "--list-rules" in args:
        return cli_main(["lint", *args])
    select = [] if "--select" in args else ["--select", *UNITS_CODES]
    return cli_main(["lint", *args, *select])


class TestMainEntry:
    def test_clean_exit_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "4 findings" in out

    def test_select(self, capsys):
        assert main([str(FIXTURES), "--select", "RPR008"]) == 1
        out = capsys.readouterr().out
        assert "1 finding" in out and "RPR008" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPR006" in out and "RPR008" in out

    def test_github_format(self, capsys):
        assert main([str(FIXTURES / "mixed_add.py"), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out and "title=RPR006" in out

    def test_json_format(self, capsys):
        import json

        assert main([str(FIXTURES / "mixed_add.py"), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["code"] == "RPR006"
