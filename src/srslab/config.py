"""Flat `key = value` experiment configs.

One key per line, `#` starts a comment, unknown keys are rejected.  A
file is its base run crossed with the grid keys: a missing run key takes
its `TrainConfig` default, and a missing grid key is the base run's own
value.  `parse_grid_config` reads every file; `train` needs exactly one run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .csvio import format_cell
from .training import TrainConfig

# (milestones, decay) of one grid schedule.
ScheduleSpec = tuple[tuple[int, ...], float]


@dataclass(frozen=True)
class GridConfig:
    """Cross-product recipe for the comparison grid: each (cell, seed)
    run is `base` with its sampler, schedule and seed set.  Every schedule
    carries its decay; the file reader fills in a missing one.  Building
    one rejects an empty or repeated grid key, then any run `runs` rejects."""

    base: TrainConfig
    samplers: tuple[str, ...]
    schedules: tuple[ScheduleSpec, ...]
    seeds: tuple[int, ...]

    def cells(self) -> list[tuple[str, tuple[int, ...], float]]:
        """Grid cells in declaration order: (sampler, milestones, decay)."""
        return [(sampler, milestones, decay) for sampler in self.samplers
                for milestones, decay in self.schedules]

    def runs(self) -> list[TrainConfig]:
        """Every (cell, seed) run: cells in `cells()` order, each cell's
        seeds in turn; a rejected run's error is prefixed with both."""
        runs = []
        for cell in self.cells():
            sampler, milestones, decay = cell
            for seed in self.seeds:
                try:
                    runs.append(dataclasses.replace(
                        self.base, sampler=sampler, lr_milestones=milestones,
                        lr_decay=decay, seed=seed))
                except ValueError as exc:
                    raise ValueError(
                        f"grid cell {cell} seed {seed}: {exc}") from exc
        return runs

    def __post_init__(self) -> None:
        for key, values in (("samplers", self.samplers),
                            ("schedules", self.schedules),
                            ("seeds", self.seeds)):
            if not values:
                raise ValueError(f"{key} must hold at least one entry")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(
                    f"{key}: {repeated[0]!r} appears more than once, which "
                    f"would repeat grid cells"
                )
        self.runs()


def _tuple_of(parse_item: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Parser of a comma-separated tuple; blank text is the empty tuple."""
    def parse(text: str) -> tuple:
        if not text.strip():
            return ()
        return tuple(parse_item(part.strip()) for part in text.split(","))
    return parse


_parse_ints = _tuple_of(int)


def _parse_schedules(text: str) -> tuple[ScheduleSpec, ...]:
    """`milestones[@decay] | ...`; a schedule without `@` has decay None
    until `parse_grid_config` fills in the base run's lr_decay."""
    specs = []
    for part in text.split("|"):
        milestones, at, decay = part.partition("@")
        specs.append((_parse_ints(milestones), float(decay) if at else None))
    return tuple(specs)


# Field type, as written in the dataclass -> parser of the value text; a
# parser raises ValueError on text it cannot read.
_PARSERS_BY_TYPE: dict[str, Callable[[str], Any]] = {
    "str": str,
    "int": int,
    "float": float,
    "tuple[int, ...]": _parse_ints,
    "tuple[str, ...]": _tuple_of(str),
    "tuple[ScheduleSpec, ...]": _parse_schedules,
}

# The config keys are the dataclass fields, key -> field type: every
# TrainConfig field, plus the grid's fields other than its base run.
_TRAIN_KEYS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_GRID_KEYS = {f.name: f.type for f in dataclasses.fields(GridConfig)
              if f.name != "base"}


def _parse_lines(text: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(
                f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        type_name = _TRAIN_KEYS.get(key) or _GRID_KEYS.get(key)
        if type_name is None:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS_BY_TYPE[type_name](value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: {key}: expected {type_name}, got {value!r}"
            ) from None
    return values


def parse_grid_config(path) -> GridConfig:
    """Read a config file as its set of runs: the base run's keys, crossed
    with samplers / schedules / seeds, each of which defaults to the base
    run's own sampler, schedule and seed."""
    values = _parse_lines(Path(path).read_text(encoding="utf-8-sig"))
    base = TrainConfig(**{k: v for k, v in values.items() if k in _TRAIN_KEYS})
    schedules = values.get("schedules", ((base.lr_milestones, None),))
    return GridConfig(
        base=base,
        samplers=values.get("samplers", (base.sampler,)),
        schedules=tuple((milestones, base.lr_decay if decay is None else decay)
                        for milestones, decay in schedules),
        seeds=values.get("seeds", (base.seed,)),
    )


def parse_config(path) -> TrainConfig:
    """Read a config file that describes one run, and return that run."""
    runs = parse_grid_config(path).runs()
    if len(runs) != 1:
        raise ValueError(f"{path} describes {len(runs)} runs; train runs "
                         f"one, compare runs them all")
    return runs[0]


def serialize_config(config: TrainConfig) -> str:
    """Canonical normal form: every run key, schema order, one per line."""
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        text = (",".join(str(v) for v in value) if isinstance(value, tuple)
                else format_cell(value))
        lines.append(f"{f.name} = {text}".rstrip())
    return "\n".join(lines) + "\n"
