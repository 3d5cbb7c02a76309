"""Rectangular CSV tables with lossless round-trips.

Cells are stored as strings; `format_cell` turns floats into their repr,
which `float()` recovers exactly, so parse(serialize(t)) == t.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


@dataclass
class CsvTable:
    header: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(
                    f"row {i} has {len(row)} cells, header has {width}"
                )

    def append(self, values) -> None:
        row = [format_cell(v) for v in values]
        if len(row) != len(self.header):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(self.header)}"
            )
        self.rows.append(row)


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def to_string(table: CsvTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(table.rows)
    return buf.getvalue()


def from_string(text: str) -> CsvTable:
    reader = csv.reader(io.StringIO(text))
    records = list(reader)
    if not records:
        raise ValueError("empty CSV: missing header row")
    return CsvTable(header=records[0], rows=records[1:])


def write_csv(table: CsvTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(to_string(table))


def read_csv(path) -> CsvTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return from_string(fh.read())
