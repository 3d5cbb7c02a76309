"""Flat `key = value` experiment configs.

One key per line, `#` starts a comment, unknown keys are rejected, and
every key has a documented default (see KEY_DEFAULTS / the README).  The
same file format drives single runs and comparison grids; grid-only keys
are simply ignored by single runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

from .optim import LrSchedule
from .samplers import SAMPLER_KINDS
from .training import TrainConfig

# (milestones, decay); decay None means "use the base lr_decay".
ScheduleSpec = tuple[tuple[int, ...], float | None]


class ConfigError(ValueError):
    """Base class for config-file problems."""


class MalformedLineError(ConfigError):
    """A line is not a comment, blank, or a single `key = value` pair."""


class UnknownKeyError(ConfigError):
    """A key outside the documented key list."""


class ValueRangeError(ConfigError):
    """A value that does not parse or falls outside its legal range."""


@dataclass
class GridConfig:
    """Cross-product recipe for the comparison grid."""

    base: TrainConfig
    samplers: tuple[str, ...] = ("epoch", "srs")
    schedules: tuple[ScheduleSpec, ...] = ()
    seeds: tuple[int, ...] = (0,)

    def resolved_schedules(self) -> list[tuple[tuple[int, ...], float]]:
        """(milestones, decay) per schedule, a missing decay taken from
        the base run."""
        return [(milestones, self.base.lr_decay if decay is None else decay)
                for milestones, decay in self.schedules]

    def cells(self) -> list[tuple[str, tuple[int, ...], float]]:
        """Grid cells in declaration order: (sampler, milestones, decay)."""
        return [(sampler, milestones, decay) for sampler in self.samplers
                for milestones, decay in self.resolved_schedules()]

    def validate(self) -> None:
        self.base.validate()
        if not self.samplers:
            raise ValueRangeError("samplers must name at least one kind")
        for s in self.samplers:
            if s not in SAMPLER_KINDS:
                raise ValueRangeError(
                    f"samplers: {s!r} is not one of {SAMPLER_KINDS}"
                )
        if not self.schedules:
            raise ValueRangeError("schedules must hold at least one entry")
        if not self.seeds:
            raise ValueRangeError("seeds must hold at least one entry")
        if any(s < 0 for s in self.seeds):
            raise ValueRangeError(f"seeds must be >= 0, got {self.seeds}")
        for milestones, decay in self.resolved_schedules():
            try:
                LrSchedule(self.base.lr, milestones, decay)
            except ValueError as exc:
                raise ValueRangeError(f"schedules: {exc}") from exc
        for key, values in (("samplers", self.samplers),
                            ("schedules", self.resolved_schedules()),
                            ("seeds", self.seeds)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueRangeError(
                    f"{key}: {repeated[0]!r} appears more than once, which "
                    f"would repeat grid cells"
                )


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueRangeError(f"{key}: expected an integer, got {text!r}")


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueRangeError(f"{key}: expected a number, got {text!r}")


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_int(key, part.strip()) for part in text.split(","))


def _parse_kind(key: str, text: str) -> str:
    if text not in SAMPLER_KINDS:
        raise ValueRangeError(
            f"{key}: {text!r} is not one of {SAMPLER_KINDS}"
        )
    return text


def _parse_kind_list(key: str, text: str) -> tuple[str, ...]:
    return tuple(_parse_kind(key, part.strip()) for part in text.split(","))


def _parse_schedules(key: str, text: str) -> tuple[ScheduleSpec, ...]:
    specs = []
    for part in text.split("|"):
        part = part.strip()
        if "@" in part:
            milestones_text, decay_text = part.rsplit("@", 1)
            decay: float | None = _parse_float(key, decay_text.strip())
        else:
            milestones_text, decay = part, None
        specs.append((_parse_int_list(key, milestones_text), decay))
    return tuple(specs)


_TRAIN_PARSERS: dict[str, Callable[[str, str], Any]] = {
    "sampler": _parse_kind,
    "classes": _parse_int,
    "ipc_train": _parse_int,
    "ipc_test": _parse_int,
    "dim": _parse_int,
    "sigma_means": _parse_float,
    "sigma_noise": _parse_float,
    "hidden": _parse_int,
    "batch_size": _parse_int,
    "lr": _parse_float,
    "momentum": _parse_float,
    "weight_decay": _parse_float,
    "lr_milestones": _parse_int_list,
    "lr_decay": _parse_float,
    "epochs": _parse_int,
    "seed": _parse_int,
}

_GRID_PARSERS: dict[str, Callable[[str, str], Any]] = {
    "samplers": _parse_kind_list,
    "schedules": _parse_schedules,
    "seeds": _parse_int_list,
}

KEY_DEFAULTS: dict[str, Any] = {
    **{k: getattr(TrainConfig(), k) for k in _TRAIN_PARSERS},
    "samplers": ("epoch", "srs"),
    "schedules": None,  # falls back to (lr_milestones, lr_decay)
    "seeds": None,      # falls back to (seed,)
}


def _parse_lines(text: str) -> dict[str, Any]:
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedLineError(
                f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parser = _TRAIN_PARSERS.get(key) or _GRID_PARSERS.get(key)
        if parser is None:
            raise UnknownKeyError(
                f"line {lineno}: unknown key {key!r}"
            )
        if key in values:
            raise MalformedLineError(
                f"line {lineno}: duplicate key {key!r}"
            )
        values[key] = parser(key, value)
    return values


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _build_train_config(values: dict[str, Any]) -> TrainConfig:
    fields = {k: v for k, v in values.items() if k in _TRAIN_PARSERS}
    config = dataclasses.replace(TrainConfig(), **fields)
    try:
        config.validate()
    except ValueError as exc:
        raise ValueRangeError(str(exc)) from exc
    return config


def parse_config(path) -> TrainConfig:
    """Read a single-run config; missing keys take their defaults."""
    return _build_train_config(_parse_lines(_read(path)))


def parse_grid_config(path) -> GridConfig:
    """Read a comparison-grid config (base run keys plus samplers /
    schedules / seeds)."""
    values = _parse_lines(_read(path))
    base = _build_train_config(values)
    grid = GridConfig(
        base=base,
        samplers=values.get("samplers", KEY_DEFAULTS["samplers"]),
        schedules=values.get(
            "schedules", ((base.lr_milestones, base.lr_decay),)
        ),
        seeds=values.get("seeds", (base.seed,)),
    )
    grid.validate()
    return grid


def serialize_config(config: TrainConfig) -> str:
    """Canonical normal form: every run key, schema order, one per line."""
    lines = []
    for key in _TRAIN_PARSERS:
        value = getattr(config, key)
        if key == "lr_milestones":
            text = ",".join(str(m) for m in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
