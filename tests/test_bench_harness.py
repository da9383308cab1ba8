"""Integration tests for the Table II / III / Fig. 7 harness."""

import pytest

from repro.bench import (
    Figure7Series,
    Table2Row,
    Table3Row,
    render_figure7,
    render_table2,
    render_table3,
    run_figure7,
    run_table2,
    run_table3,
    suite_for_budget,
)

NAMES = ("C432", "C880")


@pytest.fixture(scope="module")
def table2_rows():
    return run_table2(NAMES)


class TestTable2:
    def test_rows_complete(self, table2_rows):
        assert [r.name for r in table2_rows] == list(NAMES)
        for row in table2_rows:
            assert isinstance(row, Table2Row)
            assert row.baseline.gates == row.paper["gates"]
            assert row.capacity.n_locations > 0
            assert row.capacity.bits > row.capacity.n_locations
            assert row.equivalent

    def test_equivalence_is_proven_by_the_ladder(self, table2_rows):
        from repro.bench.reporting import table2_records

        for row in table2_rows:
            assert row.equivalent and row.proven
        assert all(record["proven"] for record in table2_records(table2_rows))
        unverified = run_table2(("C432",), verify=False)[0]
        assert unverified.equivalent and not unverified.proven
        assert "yes?" in render_table2([unverified])

    def test_overheads_positive_and_bounded(self, table2_rows):
        for row in table2_rows:
            assert 0 <= row.overhead.area < 1.0
            assert -0.2 < row.overhead.delay < 2.0

    def test_fingerprinted_is_larger(self, table2_rows):
        for row in table2_rows:
            assert row.fingerprinted.area > row.baseline.area
            assert row.fingerprinted.gates >= row.baseline.gates

    def test_render(self, table2_rows):
        text = render_table2(table2_rows)
        assert "C432" in text and "Avg" in text
        assert "log2(FP)" in text


class TestTable3:
    def test_rows_and_averages(self):
        rows = run_table3(("C880",), constraints=(0.10, 0.01))
        assert [r.constraint for r in rows] == [0.10, 0.01]
        for row in rows:
            assert isinstance(row, Table3Row)
            assert len(row.cells) == 1
            assert row.cells[0].met_constraint
        # Tighter constraint keeps fewer modifications.
        assert rows[1].fingerprint_reduction >= rows[0].fingerprint_reduction - 1e-9
        # Delay overhead must respect the cap.
        assert rows[0].delay_overhead <= 0.10 + 1e-6
        assert rows[1].delay_overhead <= 0.01 + 1e-6

    def test_paper_reference_attached(self):
        rows = run_table3(("C432",), constraints=(0.05,))
        assert rows[0].paper is not None
        assert rows[0].paper["constraint"] == 0.05

    def test_render(self):
        rows = run_table3(("C432",), constraints=(0.05,))
        text = render_table3(rows)
        assert "5%" in text and "paper" in text


class TestFigure7:
    def test_series_shape(self):
        series = run_figure7(("C432",), constraints=(0.10, 0.01))
        (entry,) = series
        assert isinstance(entry, Figure7Series)
        assert entry.unconstrained_bits > 0
        assert set(entry.constrained_bits) == {0.10, 0.01}
        # Constrained sizes never exceed the unconstrained capacity, and
        # tighter constraints never increase the surviving bits.
        assert entry.constrained_bits[0.10] <= entry.unconstrained_bits + 1e-9
        assert entry.constrained_bits[0.01] <= entry.constrained_bits[0.10] + 1e-9

    def test_render(self):
        series = run_figure7(("C432",), constraints=(0.05,))
        text = render_figure7(series)
        assert "C432" in text and "unconstrained" in text


class TestSuiteSelection:
    def test_budgets(self, monkeypatch):
        assert suite_for_budget("quick")
        assert len(suite_for_budget("full")) == 14
        assert set(suite_for_budget("quick")) <= set(suite_for_budget("medium"))
        monkeypatch.setenv("REPRO_SUITE", "medium")
        assert suite_for_budget() == suite_for_budget("medium")


class TestExports:
    def test_table2_records_and_files(self, table2_rows, tmp_path):
        from repro.bench.reporting import save_csv, save_json, table2_records

        records = table2_records(table2_rows)
        assert records[0]["circuit"] == "C432"
        assert isinstance(records[0]["log2_combinations"], float)
        json_path = tmp_path / "t2.json"
        csv_path = tmp_path / "t2.csv"
        save_json(records, str(json_path))
        save_csv(records, str(csv_path))
        import json

        loaded = json.loads(json_path.read_text())
        assert loaded[0]["gates"] == 166
        header = csv_path.read_text().splitlines()[0]
        assert "delay_overhead" in header

    def test_table3_and_figure7_records(self):
        from repro.bench.reporting import figure7_records, table3_records

        rows = run_table3(("C432",), constraints=(0.05,))
        records = table3_records(rows)
        assert records[0]["constraint"] == 0.05
        assert records[0]["cells"][0]["circuit"] == "C432"

        series = run_figure7(("C432",), constraints=(0.05,))
        fig_records = figure7_records(series)
        assert fig_records[0]["circuit"] == "C432"
        assert "0.05" in fig_records[0]["constrained_bits"]

    def test_save_csv_empty_rejected(self, tmp_path):
        from repro.bench.reporting import save_csv

        with pytest.raises(ValueError):
            save_csv([], str(tmp_path / "x.csv"))


class TestHarnessOptions:
    def test_table2_with_custom_finder_options(self):
        from repro.fingerprint import FinderOptions

        rows = run_table2(
            ("C432",),
            options=FinderOptions(enable_reroute=False),
            verify=False,
        )
        default_rows = run_table2(("C432",), verify=False)
        # Disabling Fig.-5 reroutes cannot increase capacity.
        assert rows[0].capacity.bits <= default_rows[0].capacity.bits


class TestFigure7Reuse:
    def test_reuses_table3_results(self):
        rows = run_table3(("C432",), constraints=(0.05,))
        series = run_figure7(("C432",), constraints=(0.05,), table3_rows=rows)
        assert series[0].constrained_bits[0.05] == pytest.approx(
            rows[0].cells[0].surviving_bits
        )
