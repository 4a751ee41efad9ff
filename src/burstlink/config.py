"""Plain-text ``key = value`` configuration files.

One flat namespace per file; ``#`` starts a comment. Lists are
comma-separated, ``inf`` is accepted for the unbounded SNR and coherence
settings. The same format serves frame configs, channel profiles, and whole
sweep specifications; the keys are the fields of the dataclasses they build
(see ``config_keys``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

from .channel import ChannelProfile
from .framing import FrameConfig
from .sync import DetectorConfig
from .waveform import PulseShapeConfig


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines, each ended by ``"\\n"``, into a string dict;
    a key may appear once."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in out:
            raise ValueError(f"line {lineno}: key {key} is already set on line {first_line[key]}")
        out[key], first_line[key] = value, lineno
    return out


def _as_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in value.split(",") if v.strip())


# Text parser per field annotation. The config modules postpone annotation
# evaluation, so ``Field.type`` is the annotation's source text. A field whose
# annotation is not listed here (a nested config, say) has no config key.
_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": _as_int_list}


def config_keys(cls) -> dict[str, tuple[str, Callable[[str], object]]]:
    """External key -> (field name, text parser) for each keyed field of a
    config dataclass. A field's key is its name unless its ``key`` metadata
    says otherwise."""
    return {
        f.metadata.get("key", f.name): (f.name, _PARSERS[f.type])
        for f in fields(cls)
        if f.type in _PARSERS
    }


def _fields_from_kv(cls, kv: dict[str, str]) -> dict[str, object]:
    out = {}
    for key, (name, parse) in config_keys(cls).items():
        if key in kv:
            try:
                out[name] = parse(kv[key])
            except ValueError as exc:
                raise ValueError(f"{key} = {kv[key]}: {exc}") from None
    return out


# Frame keys a sweep takes from its grid rather than from its frame geometry,
# each with the grid key that sets it.
_GRID_FRAME_FIELDS = {"pilot_reps": "lambda_list", "modulation": "modulations"}


def channel_profile_from_kv(kv: dict[str, str]) -> ChannelProfile:
    return ChannelProfile(**_fields_from_kv(ChannelProfile, kv))


def channel_profile_to_kv(profile: ChannelProfile) -> dict[str, object]:
    return {key: getattr(profile, name) for key, (name, _) in config_keys(ChannelProfile).items()}


@dataclass(frozen=True)
class SweepSpec:
    """A full experiment grid: pilot repetitions x modulations x profiles."""

    lambda_list: tuple[int, ...] = (1, 2, 4, 6, 8)
    modulations: tuple[int, ...] = (4, 8, 16, 64)
    profiles: tuple[ChannelProfile, ...] = (ChannelProfile(),)
    frames_per_trial: int = 50
    trials_per_cell: int = 3
    master_seed: int = 0
    symbol_period_s: float = 1e-6
    # FrameConfig keys other than the grid's pilot_reps and modulation.
    frame_geometry: dict[str, int] = field(default_factory=dict)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    pulse: PulseShapeConfig = field(default_factory=PulseShapeConfig)

    def __post_init__(self) -> None:
        if not self.lambda_list or not self.modulations or not self.profiles:
            raise ValueError("sweep lists must be nonempty")
        # A repeated entry would run the same cell twice with the same seed.
        for key in ("lambda_list", "modulations"):
            values = getattr(self, key)
            repeated = [v for k, v in enumerate(values) if v in values[:k]]
            if repeated:
                raise ValueError(f"{key} repeats the entry {repeated[0]}")
        if self.frames_per_trial < 1:
            raise ValueError("frames_per_trial must be >= 1")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be >= 1")
        if not 0.0 < self.symbol_period_s < math.inf:
            raise ValueError(
                f"symbol_period_s must be finite and positive, got {self.symbol_period_s}"
            )
        # A bad cell would otherwise fail only when its trials run, after others ran.
        for pilot_reps, modulation in itertools.product(self.lambda_list, self.modulations):
            try:
                self.frame_config(pilot_reps, modulation)
            except ValueError as exc:
                cell = f"pilot_reps={pilot_reps}, modulation={modulation}"
                raise ValueError(f"sweep cell {cell}: {exc}") from None

    def frame_config(self, pilot_reps: int, modulation: int) -> FrameConfig:
        return FrameConfig(pilot_reps=pilot_reps, modulation=modulation, **self.frame_geometry)

    @property
    def cell_count(self) -> int:
        return (
            len(self.lambda_list)
            * len(self.modulations)
            * len(self.profiles)
            * self.trials_per_cell
        )


def sweep_spec_from_text(text: str) -> SweepSpec:
    kv = parse_kv_text(text)
    known = {
        key
        for cls in (SweepSpec, ChannelProfile, FrameConfig, DetectorConfig)
        for key in config_keys(cls)
    }
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise ValueError("unknown config key(s): " + ", ".join(unknown))
    for key, grid_key in _GRID_FRAME_FIELDS.items():
        if key in kv:
            raise ValueError(
                f"config key {key} is set per sweep cell; use {grid_key} instead"
            )
    return SweepSpec(
        **_fields_from_kv(SweepSpec, kv),
        profiles=(channel_profile_from_kv(kv),),
        frame_geometry=_fields_from_kv(FrameConfig, kv),
        detector=DetectorConfig(**_fields_from_kv(DetectorConfig, kv)),
    )


# UTF-8 with or without the byte-order mark that Notepad and Excel write.
TEXT_ENCODING = "utf-8-sig"


def read_text(path: str) -> str:
    """A UTF-8 text file's contents less any byte-order mark; any other bytes
    raise a ``ValueError`` naming the file."""
    with open(path, "r", encoding=TEXT_ENCODING) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def load_sweep_config(path: str) -> SweepSpec:
    return sweep_spec_from_text(read_text(path))
