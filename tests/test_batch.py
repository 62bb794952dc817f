"""Batch pipeline: job enumeration, per-matroid rows, grouping, table output."""

from __future__ import annotations

import random

import pytest

from qmatroid.batch import (
    COLUMNS,
    TABLE_NAMES,
    InternalInconsistency,
    ResultRow,
    RunConfig,
    enumerate_jobs,
    parse_fixtures,
    partition_rows,
    relation_parameter,
    render_table,
    run_batch,
    run_matroid,
    write_tables,
)
from qmatroid.groebner import EngineConfig
from qmatroid.matroids import (
    INFINITY,
    canonical_revlex_hex,
    decode_revlex,
    enumerate_matroids,
    uniform,
)

FANO_HEX = "3f7eefd6f"


def make_row(**overrides) -> ResultRow:
    fields = dict(
        hex="3f",
        n=4,
        rank=2,
        girth=3,
        nonbases=0,
        aut_order=24,
        d_B=3,
        verdict_B="noncommutative",
        verdict_C="commutative",
        status="complete",
        wall_time=0.5,
    )
    fields.update(overrides)
    return ResultRow(**fields)


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.engine == EngineConfig(time_budget=600.0)
        assert config.threads == 1
        assert config.shortcuts_enabled


class TestResultRow:
    def test_cells_render_missing_values_as_dashes(self):
        row = make_row(d_B=None, verdict_B=None, verdict_C=None, status="shortcut")
        assert row.cells() == (
            "3f", "4", "2", "3", "0", "24", "-", "-", "-", "shortcut",
        )

    def test_infinite_girth_renders_as_inf(self):
        assert make_row(girth=INFINITY).cells()[3] == "inf"

    def test_sort_key(self):
        rows = [make_row(hex="b", n=3), make_row(hex="a", n=3), make_row(hex="z", n=2)]
        ordered = sorted(rows, key=ResultRow.sort_key)
        assert [(r.n, r.hex) for r in ordered] == [(2, "z"), (3, "a"), (3, "b")]


class TestRelationParameter:
    def test_small_values(self):
        assert relation_parameter(uniform(2, 3)) == 9
        assert relation_parameter(uniform(1, 2)) == 0

    def test_fano(self):
        assert relation_parameter(decode_revlex(FANO_HEX, 7, 3)) == 980


class TestEnumerateJobs:
    def test_two_element_universe(self):
        assert enumerate_jobs(2) == [("3", 2, 1), ("1", 2, 1)]

    def test_three_element_universe(self):
        jobs = enumerate_jobs(3)
        assert jobs == [
            ("3", 2, 1),
            ("1", 2, 1),
            ("7", 3, 1),
            ("1", 3, 1),
            ("3", 3, 1),
            ("1", 3, 2),
            ("3", 3, 2),
            ("7", 3, 2),
        ]

    def test_universe_matches_class_enumeration(self):
        jobs = enumerate_jobs(4)
        expected = sum(
            len(enumerate_matroids(n, r, up_to_iso=True))
            for n in (2, 3, 4)
            for r in range(1, n)
        )
        assert len(jobs) == expected
        assert len(set(jobs)) == len(jobs)

    def test_codes_are_canonical_and_ranks_proper(self):
        for code, n, r in enumerate_jobs(4):
            assert 1 <= r <= n - 1
            m = decode_revlex(code, n, r)
            assert canonical_revlex_hex(m) == code


class TestParseFixtures:
    def test_reads_hex_n_r_lines(self, tmp_path):
        path = tmp_path / "jobs.txt"
        path.write_text("# header\n\n3F 4 2\n  1 2 1\n# tail\n")
        assert parse_fixtures(str(path)) == [("3f", 4, 2), ("1", 2, 1)]

    def test_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3f 4\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            parse_fixtures(str(path))


class TestRunMatroid:
    def test_full_pipeline_row(self):
        row = run_matroid(uniform(2, 4), "3f", RunConfig())
        assert row.cells() == (
            "3f", "4", "2", "3", "0", "24", "3",
            "noncommutative", "commutative", "complete",
        )
        assert row.wall_time > 0.0

    def test_girth_shortcut_leaves_no_degree(self):
        row = run_matroid(uniform(3, 4), "f", RunConfig())
        assert row.verdict_B == "commutative"
        assert row.d_B is None
        assert row.status == "shortcut"
        assert row.verdict_C == "commutative"

    def test_verdicts_are_checked_against_the_theorems(self, contradicting_engine):
        with pytest.raises(InternalInconsistency, match="^bases axioms"):
            run_matroid(uniform(3, 4), "f", RunConfig(shortcuts_enabled=False))

    def test_free_matroid_renders_infinite_girth(self):
        row = run_matroid(uniform(2, 2), "1", RunConfig())
        assert row.girth == INFINITY
        assert row.cells()[3] == "inf"


class TestPartitionRows:
    def test_all_verdict_pairs_route_to_their_tables(self):
        rows = [
            make_row(hex="a", verdict_B="noncommutative", verdict_C="noncommutative"),
            make_row(hex="b", verdict_B="commutative", verdict_C="commutative"),
            make_row(hex="c", verdict_B="commutative", verdict_C="noncommutative"),
            make_row(hex="d", verdict_B="noncommutative", verdict_C="commutative"),
            make_row(hex="e", verdict_B="unknown", verdict_C="commutative"),
            make_row(hex="f", verdict_B=None, verdict_C="commutative"),
        ]
        buckets = partition_rows(rows)
        assert [r.hex for r in buckets["table1"]] == ["a"]
        assert [r.hex for r in buckets["table2"]] == ["b"]
        assert [r.hex for r in buckets["table3"]] == ["c"]
        assert [r.hex for r in buckets["table4"]] == ["d"]
        assert [r.hex for r in buckets["unknown"]] == ["e", "f"]
        assert set(buckets) == set(TABLE_NAMES)


class TestRenderAndWrite:
    def test_header_and_trailing_newline(self):
        text = render_table([make_row()])
        lines = text.splitlines()
        assert lines[0] == "\t".join(COLUMNS)
        assert len(lines) == 2
        assert text.endswith("\n")

    def test_row_order_is_input_independent(self):
        rows = [make_row(hex=h, n=n) for h, n in [("b", 3), ("a", 2), ("c", 3)]]
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        assert render_table(rows) == render_table(shuffled)

    def test_wall_times_never_reach_the_file(self):
        fast = render_table([make_row(wall_time=0.1)])
        slow = render_table([make_row(wall_time=99.9)])
        assert fast == slow

    def test_write_tables_layout(self, tmp_path):
        paths = write_tables([make_row()], str(tmp_path))
        assert set(paths) == set(TABLE_NAMES)
        for name, path in paths.items():
            with open(path, "r", encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
            assert first == "\t".join(COLUMNS)
        with open(paths["table4"], "r", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 2  # header plus the one row


class TestRunBatch:
    def test_deduplicates_and_sorts(self):
        config = RunConfig(EngineConfig(time_budget=120.0))
        jobs = [("3", 2, 1), ("1", 2, 1), ("3", 2, 1)]
        rows = run_batch(jobs, config)
        assert [r.hex for r in rows] == ["1", "3"]

    def test_repeated_runs_agree_byte_for_byte(self):
        config = RunConfig(EngineConfig(degree_bound=6, time_budget=None))
        jobs = enumerate_jobs(2)
        first = render_table(run_batch(jobs, config))
        second = render_table(run_batch(jobs, config))
        assert first == second

    def test_process_pool_matches_serial(self):
        jobs = enumerate_jobs(2)
        serial = run_batch(jobs, RunConfig(EngineConfig(time_budget=120.0), threads=1))
        pooled = run_batch(jobs, RunConfig(EngineConfig(time_budget=120.0), threads=2))
        assert [r.cells() for r in serial] == [r.cells() for r in pooled]
