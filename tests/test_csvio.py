import pytest
from hypothesis import given
from hypothesis import strategies as st

from srslab.csvio import (CsvTable, format_cell, from_string, read_csv,
                          to_string, write_csv)


class TestCsvTable:
    def test_round_trip_in_memory(self):
        table = CsvTable(header=["a", "b"])
        table.append([1, 0.1 + 0.2])
        table.append(["x,y", -3.5e-17])
        assert from_string(to_string(table)) == table

    def test_round_trip_on_disk(self, tmp_path):
        table = CsvTable(header=["k", "v"])
        table.append(["pi", 3.141592653589793])
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert read_csv(path) == table

    def test_floats_keep_full_precision(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        table = CsvTable(header=["v"])
        table.append([value])
        recovered = float(from_string(to_string(table)).rows[0][0])
        assert recovered == value

    def test_records_are_newline_terminated(self):
        table = CsvTable(header=["a"], rows=[["1"]])
        assert to_string(table) == "a\n1\n"

    def test_comma_cells_survive_quoting(self):
        table = CsvTable(header=["milestones"])
        table.append(["60,75,87"])
        assert from_string(to_string(table)).rows[0][0] == "60,75,87"

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            CsvTable(header=["a", "b"], rows=[["1"]])
        table = CsvTable(header=["a", "b"])
        with pytest.raises(ValueError):
            table.append([1])

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            from_string("")

    def test_numpy_floats_format_like_python_floats(self):
        import numpy as np

        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(np.float64(1) / 3) == repr(1 / 3)

    @given(st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-10**9, max_value=10**9),
                st.floats(allow_nan=False, allow_infinity=False),
                # cells the harness emits: printable text, no control chars
                st.text(
                    alphabet=st.characters(
                        blacklist_categories=("Cs", "Cc")
                    ),
                    max_size=12,
                ),
            ),
            min_size=3, max_size=3,
        ),
        max_size=8,
    ))
    def test_round_trip_arbitrary_tables(self, raw_rows):
        table = CsvTable(header=["x", "y", "z"])
        for row in raw_rows:
            table.append(row)
        assert from_string(to_string(table)) == table
