"""Command-line interface: output formats, exit codes, file side effects."""

from __future__ import annotations

import importlib
import io
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from qmatroid.cli import main
from qmatroid.groebner import EngineConfig, GBStatus, GroebnerBasis, read_gb

FANO_HEX = "3f7eefd6f"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _aborted_at_once(generators, config):
    """An engine whose budget ran out before it appended anything."""
    return GroebnerBasis(generators[0].alg, (), GBStatus.aborted("time"))


class TestDecode:
    def test_fano_output(self, capsys):
        code, out, err = run(capsys, "decode", FANO_HEX, "7", "3")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "n=7 r=3"
        basis_lines = [ln for ln in lines if ln and not ln.startswith("#")][1:]
        assert len(basis_lines) == 28
        assert f"# hex={FANO_HEX} bases=28 nonbases=7" in lines
        assert "# girth=3" in lines
        nonbases = next(ln for ln in lines if ln.startswith("# nonbases:"))
        assert set(nonbases.split()[2:]) == {
            "1,2,3", "1,4,5", "2,4,6", "3,5,6", "3,4,7", "2,5,7", "1,6,7",
        }

    def test_out_file_duplicates_stdout(self, capsys, tmp_path):
        target = tmp_path / "fano.txt"
        code, out, _ = run(capsys, "decode", FANO_HEX, "7", "3", "--out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == out

    def test_code_is_printed_as_decoded(self, capsys):
        code, out, _ = run(capsys, "decode", "1F", "4", "2")
        assert code == 0
        assert "# hex=1f bases=5 nonbases=1" in out.splitlines()

    def test_infinite_girth_marker(self, capsys):
        code, out, _ = run(capsys, "decode", "1", "2", "2")
        assert code == 0
        assert "# girth=inf" in out.splitlines()

    @pytest.mark.parametrize(
        "argv",
        [
            ("decode", "zz", "4", "2"),  # not hex
            ("decode", "3f", "7", "3"),  # wrong code length
            ("decode", "0", "2", "1"),  # no bases
            ("decode", "3", "2", "5"),  # rank out of range
            ("decode", "0x3", "5", "2"),  # Python int literals, not hex codes
            ("decode", "0_3", "5", "2"),
            ("decode", "+03", "5", "2"),
        ],
    )
    def test_invalid_inputs_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")


class TestEncode:
    def test_round_trip_through_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, out, _ = run(capsys, "decode", "1f", "4", "2", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "encode", str(path))
        assert code == 0
        assert out.strip() == "1f"

    def test_round_trip_through_stdin(self, capsys, monkeypatch):
        code, decoded, _ = run(capsys, "decode", FANO_HEX, "7", "3")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(decoded))
        code, out, _ = run(capsys, "encode", "-")
        assert code == 0
        assert out.strip() == FANO_HEX

    def test_empty_file_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        code, _, err = run(capsys, "encode", str(path))
        assert code == 2
        assert "empty" in err

    def test_rank_mismatch_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad_rank.txt"
        path.write_text("n=2 r=2\n1\n2\n")
        code, _, err = run(capsys, "encode", str(path))
        assert code == 2

    def test_bases_failing_exchange_are_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad_exchange.txt"
        path.write_text("n=4 r=2\n1,2\n3,4\n")
        code, _, err = run(capsys, "encode", str(path))
        assert code == 2

    def test_header_keys_in_either_order(self, capsys, tmp_path):
        codes = []
        for header in ("n=4 r=2", "r=2 n=4"):
            path = tmp_path / "m.txt"
            path.write_text(f"{header}\n1,2\n1,3\n2,3\n")
            code, out, _ = run(capsys, "encode", str(path))
            assert code == 0
            codes.append(out.strip())
        assert codes[0] == codes[1]

    def test_header_read_by_key_not_position(self, capsys, tmp_path):
        # read by position, r=3 n=2 gave a rank-2 matroid on {1,2,3}: code 4
        path = tmp_path / "swapped.txt"
        path.write_text("r=3 n=2\n1,2\n")
        code, out, err = run(capsys, "encode", str(path))
        assert code == 2 and out == ""
        assert "r=3" in err

    @pytest.mark.parametrize("header", ["n=2", "n=2 r=2 r=2", "n=2 k=2", "2 2", "n=2 r=x"])
    def test_bad_header_keys_are_rejected(self, capsys, tmp_path, header):
        path = tmp_path / "bad_header.txt"
        path.write_text(f"{header}\n1,2\n")
        code, out, err = run(capsys, "encode", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: first line") and repr(header) in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "encode", str(tmp_path / "nope.txt"))
        assert code == 2


class TestGb:
    def test_complete_run_writes_basis_file(self, capsys, tmp_path):
        out_path = tmp_path / "u24.gb"
        code, out, _ = run(capsys, "gb", "3f", "4", "2", "--out", str(out_path))
        assert code == 0
        assert out.strip() == (
            f"status=complete degree=3 generators=78 file={out_path}"
        )
        meta, gb = read_gb(str(out_path))
        assert meta == {"matroid": "3f", "n": 4, "r": 2, "axioms": "bases", "degree": 3}
        assert gb.status.is_complete
        assert len(gb.generators) == 78

    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "gb", "3", "2", "1", "--axioms", "circuits")
        assert code == 0
        assert (tmp_path / "3_2_1_circuits.gb").exists()

    def test_uppercase_code_writes_the_lowercase_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "gb", "3F", "4", "2")[0] == 0
        upper = (tmp_path / "3f_4_2_bases.gb").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["3f_4_2_bases.gb"]
        assert run(capsys, "gb", "3f", "4", "2")[0] == 0
        assert (tmp_path / "3f_4_2_bases.gb").read_bytes() == upper

    def test_truncated_run_exits_four(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gb", "3f", "4", "2",
            "--degree-bound", "2", "--out", str(tmp_path / "t.gb"),
        )
        assert code == 4
        assert "status=truncated(2)" in out

    def test_aborted_run_exits_five(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gb", FANO_HEX, "7", "3",
            "--time-budget", "1.0", "--out", str(tmp_path / "fano.gb"),
        )
        assert code == 5
        assert "status=aborted(time)" in out
        assert (tmp_path / "fano.gb").exists()

    def test_empty_aborted_basis_exits_five(self, capsys, tmp_path, monkeypatch):
        import qmatroid.cli as cli

        monkeypatch.setattr(cli, "buchberger", _aborted_at_once)
        out_path = tmp_path / "x.gb"
        code, out, err = run(capsys, "gb", "3f", "4", "2", "--out", str(out_path))
        assert code == 5 and err == ""
        assert out.strip() == f"status=aborted(time) degree=0 generators=0 file={out_path}"
        meta, gb = read_gb(str(out_path))
        assert meta["degree"] == 0
        assert gb.status == GBStatus.aborted("time") and gb.generators == ()

    def test_unresolved_discards_stay_truncated(self, capsys, tmp_path):
        # a discarded cubic obstruction of U(2,4) does not reduce to zero at
        # bound 2, so the 63 elements found there are no complete basis (78)
        out_path = tmp_path / "t.gb"
        code, out, _ = run(
            capsys, "gb", "3f", "4", "2", "--degree-bound", "2", "--out", str(out_path)
        )
        assert code == 4
        assert out.strip() == (
            f"status=truncated(2) degree=2 generators=63 file={out_path}"
        )
        _, gb = read_gb(str(out_path))
        assert gb.status.render() == "truncated(2)"

    def test_resolved_bound_writes_the_unbounded_basis(self, capsys, tmp_path):
        bounded, unbounded = tmp_path / "b.gb", tmp_path / "u.gb"
        code, out, _ = run(
            capsys, "gb", "3f", "4", "2", "--degree-bound", "3", "--out", str(bounded)
        )
        assert code == 0
        assert out.startswith("status=complete degree=3 generators=78 ")
        code, _, _ = run(capsys, "gb", "3f", "4", "2", "--out", str(unbounded))
        assert code == 0
        assert bounded.read_bytes() == unbounded.read_bytes()

    def test_unbounded_flag(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "gb", "3", "2", "1", "--time-budget", "0",
            "--out", str(tmp_path / "u.gb"),
        )
        assert code == 0
        assert "status=complete" in out


class TestCommutativity:
    def test_circuit_verdict(self, capsys):
        code, out, _ = run(capsys, "commutativity", "3f", "4", "2", "circuits")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "matroid=3f n=4 r=2 axioms=circuits"
        assert lines[1] == (
            "verdict=commutative method=groebner status=complete degree=3"
        )
        assert len(lines) == 2  # no witness for a commutative verdict

    def test_noncommutative_verdict_prints_witness(self, capsys):
        code, out, _ = run(capsys, "commutativity", "3f", "4", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("verdict=noncommutative method=groebner")
        assert lines[2].startswith("witness: ")
        assert lines[3].startswith("normal form: ")

    def test_shortcut_reports_no_degree(self, capsys):
        code, out, _ = run(capsys, "commutativity", "f", "4", "3")
        assert code == 0
        assert (
            "verdict=commutative method=theorem-shortcut:girth "
            "status=shortcut degree=-"
        ) in out

    def test_no_shortcuts_forces_the_engine(self, capsys):
        code, out, _ = run(capsys, "commutativity", "f", "4", "3", "--no-shortcuts")
        assert code == 0
        assert "verdict=commutative method=groebner" in out

    def test_empty_aborted_basis_is_unknown(self, capsys, monkeypatch):
        import qmatroid.quantum as quantum

        monkeypatch.setattr(quantum, "buchberger", _aborted_at_once)
        code, out, err = run(capsys, "commutativity", "3f", "4", "2", "--no-shortcuts")
        assert code == 0 and err == ""
        assert out.splitlines()[1] == (
            "verdict=unknown method=groebner status=aborted(time) degree=0"
        )

    def test_theorem_contradiction_exits_three(self, capsys, contradicting_engine):
        code, out, err = run(capsys, "commutativity", "f", "4", "3", "bases", "--no-shortcuts")
        assert code == 3
        assert err.startswith("inconsistency: ")
        assert out == ""

    def test_partial_run_reports_unknown(self, capsys):
        code, out, _ = run(
            capsys, "commutativity", "3f", "4", "2", "--degree-bound", "2"
        )
        assert code == 0
        assert "verdict=unknown" in out
        assert "status=truncated(2)" in out

    def test_resolved_bound_decides(self, capsys):
        code, out, _ = run(
            capsys, "commutativity", "3f", "4", "2", "--degree-bound", "3"
        )
        assert code == 0
        assert "verdict=noncommutative method=groebner status=complete degree=3" in out

    def test_out_appends_tsv_lines(self, capsys, tmp_path):
        log = tmp_path / "runs.tsv"
        for _ in range(2):
            code, _, _ = run(
                capsys, "commutativity", "f", "4", "3", "--out", str(log)
            )
            assert code == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].split("\t")[:4] == ["f", "4", "3", "bases"]

    def test_code_is_reported_as_decoded(self, capsys, tmp_path):
        log = tmp_path / "runs.tsv"
        code, out, _ = run(capsys, "commutativity", "1F", "4", "2", "--out", str(log))
        assert code == 0
        assert out.splitlines()[0] == "matroid=1f n=4 r=2 axioms=bases"
        assert log.read_text(encoding="utf-8").split("\t")[0] == "1f"


class TestTables:
    def test_two_element_universe(self, capsys, tmp_path):
        out_dir = tmp_path / "tables"
        code, out, _ = run(capsys, "tables", "2", "--out", str(out_dir))
        assert code == 0
        lines = out.splitlines()
        assert lines == [
            f"table1: 0 rows -> {out_dir}/table1.tsv",
            f"table2: 2 rows -> {out_dir}/table2.tsv",
            f"table3: 0 rows -> {out_dir}/table3.tsv",
            f"table4: 0 rows -> {out_dir}/table4.tsv",
            f"unknown: 0 rows -> {out_dir}/unknown.tsv",
        ]
        table2 = (out_dir / "table2.tsv").read_text(encoding="utf-8").splitlines()
        assert len(table2) == 3
        assert table2[0].startswith("matroid\tn\trank\tgirth")

    def test_repeat_runs_are_byte_identical(self, capsys, tmp_path):
        args = ("tables", "2", "--degree-bound", "6", "--time-budget", "0")
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", str(first_dir))[0] == 0
        assert run(capsys, *args, "--out", str(second_dir))[0] == 0
        for name in ("table1", "table2", "table3", "table4", "unknown"):
            a = (first_dir / f"{name}.tsv").read_bytes()
            b = (second_dir / f"{name}.tsv").read_bytes()
            assert a == b

    def test_fixture_rows_join_the_universe(self, capsys, tmp_path):
        fixtures = tmp_path / "extra.txt"
        fixtures.write_text("3f 4 2\n")
        code, out, _ = run(
            capsys, "tables", "2",
            "--out", str(tmp_path / "t"), "--fixtures", str(fixtures),
        )
        assert code == 0
        assert "table4: 1 rows" in out
        table4 = (tmp_path / "t" / "table4.tsv").read_text(encoding="utf-8")
        assert table4.splitlines()[1].startswith("3f\t4\t2\t3\t0\t24\t3")

    def test_large_fixtures_need_extended(self, capsys, tmp_path):
        fixtures = tmp_path / "big.txt"
        fixtures.write_text(f"{FANO_HEX} 7 3\n")
        code, _, err = run(
            capsys, "tables", "2",
            "--out", str(tmp_path / "t"), "--fixtures", str(fixtures),
        )
        assert code == 2
        assert "--extended" in err


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "flags,expected",
    [
        ([], EngineConfig(time_budget=600.0)),
        (["--time-budget", "0"], EngineConfig(time_budget=None)),
        (["--degree-bound", "3"], EngineConfig(degree_bound=3, time_budget=600.0)),
        (["--time-budget", "5"], EngineConfig(time_budget=5.0)),
        (
            ["--degree-bound", "5", "--time-budget", "30"],
            EngineConfig(degree_bound=5, time_budget=30.0),
        ),
        (
            ["--degree-bound", "3", "--time-budget", "-1"],
            EngineConfig(degree_bound=3, time_budget=None),
        ),
    ],
)
class TestEngineBudgets:
    """The same budget flags hand the same EngineConfig to the engine on
    every subcommand."""

    def captured(self, monkeypatch, argv):
        import qmatroid.cli as cli

        seen = []

        def gb_stub(generators, config):
            seen.append(config)
            raise _Stop

        def commutativity_stub(spec, config, *, shortcuts):
            seen.append(config)
            raise _Stop

        def tables_stub(jobs, config):
            seen.append(config.engine)
            raise _Stop

        monkeypatch.setattr(cli, "buchberger", gb_stub)
        monkeypatch.setattr(cli, "decide_commutativity", commutativity_stub)
        monkeypatch.setattr(cli, "run_batch", tables_stub)
        with pytest.raises(_Stop):
            main(argv)
        return seen[0]

    def test_gb(self, monkeypatch, flags, expected):
        assert self.captured(monkeypatch, ["gb", "3", "2", "1", *flags]) == expected

    def test_commutativity(self, monkeypatch, flags, expected):
        assert self.captured(monkeypatch, ["commutativity", "3", "2", "1", *flags]) == expected

    def test_tables(self, monkeypatch, flags, expected):
        assert self.captured(monkeypatch, ["tables", "1", *flags]) == expected


class TestHom:
    def test_self_map_counts(self, capsys):
        code, out, _ = run(capsys, "hom", "3", "2", "1", "3", "2", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "hom=5 surj=2 emb=2"
        assert lines[1] == "decomposition=ok hom=5 total=5"
        assert lines[2] == "lovasz_isomorphic=true"

    def test_non_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "hom", "3", "2", "1", "1", "2", "1")
        assert code == 0
        assert "lovasz_isomorphic=false" in out

    def test_asymmetric_sizes(self, capsys):
        code, out, _ = run(capsys, "hom", "3", "2", "1", "7", "3", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("decomposition=ok")

    def test_six_elements_exit_two_without_output(self, capsys):
        # the catalog is guarded to n <= 5; no half result reaches stdout
        code, out, err = run(capsys, "hom", "1", "1", "1", "fffff", "6", "3")
        assert code == 2
        assert out == ""
        assert "enumeration is guarded to n <= 5, got n=6" in err


class TestParser:
    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_arguments_exit_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["decode", "3f"])

    @pytest.mark.skipif(
        shutil.which("qmatroid") is None, reason="qmatroid script not on PATH"
    )
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run(
            ["qmatroid", "decode", "3", "2", "1"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "n=2 r=1"

    def test_entry_point_target_runs(self, capsys):
        # What the installed script runs, checked without installing it:
        # pyproject.toml names the target, and the wrapper pip generates
        # exits with its return value.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["qmatroid"] == "qmatroid.cli:main"
        module, _, attr = scripts["qmatroid"].partition(":")
        target = getattr(importlib.import_module(module), attr)
        assert target is main
        assert target(["decode", "3", "2", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "n=2 r=1"
