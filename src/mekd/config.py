"""Flat INI run configuration: every key has a default, order is canonical.

The serialized form materializes every key in schema order, so two
configs are equal iff their serializations are byte-identical; the
sha256 of that text is the provenance hash embedded in results rows.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields

from .distill import DistillConfig
from .gan import GanConfig
from .nets import HIDDEN_ACTIVATIONS, NetworkSpec
from .optim import check_schedule, check_sgd


class ConfigError(ValueError):
    """Invalid, unknown, or uncoercible configuration values."""


@dataclass(frozen=True)
class TeacherConfig:
    """Teacher pre-training; its fields, in order, are [teacher]'s keys after hidden, activation."""
    epochs: int = 60
    m: int = 64
    lr: float = 0.2
    momentum: float = 0.9
    milestones: tuple[int, ...] = (40, 52)
    gamma: float = 0.1
    hflip: bool = False
    crop_pad: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.m < 1:  # a teacher of 0 epochs is at chance
            raise ValueError(f"epochs and m must be >= 1, got {self.epochs}, {self.m}")
        check_sgd(self.lr, self.momentum)
        check_schedule(self.milestones, self.gamma)


# section -> key -> default; the type of the default drives parsing and
# formatting (tuples are comma-separated ints).  [gan], [distill] and
# [teacher]'s training keys are the fields of their SECTION_TYPES dataclass,
# in field order, keys lowercased.
SECTION_TYPES = {"teacher": TeacherConfig, "gan": GanConfig, "distill": DistillConfig}

# the sections that each configure one network role
ROLE_SECTIONS = ("teacher", "student", "generator", "discriminator")

# (section, key) -> the values the key may take
CHOICES = {("data", "kind"): ("blobs", "mnist"), ("data", "split"): ("same", "disjoint"),
           **{(role, "activation"): HIDDEN_ACTIVATIONS for role in ROLE_SECTIONS}}


def _keys(cls) -> dict[str, object]:
    return {f.name.lower(): f.default for f in fields(cls)}


SCHEMA: dict[str, dict[str, object]] = {
    "run": {"seed": 0, "out_dir": "runs/default"},
    "data": {
        "kind": "blobs",
        "num_classes": 4,
        "n": 64,
        "per_class": 500,
        "per_class_test": 100,
        "spread": 0.05,
        "centroid_seed": 7,
        "value_lo": 0.0,
        "value_hi": 1.0,
        "mnist_dir": "",
        "train_subset": 5000,
        "test_subset": 1000,
        "split": "same",                # GAN vs distill data
    },
    "teacher": {"hidden": (128, 64), "activation": "relu", **_keys(TeacherConfig)},
    "student": {"hidden": (32,), "activation": "relu"},
    "generator": {"hidden": (64, 128), "activation": "relu"},
    "discriminator": {"hidden": (128, 64), "activation": "leaky_relu"},
    "gan": _keys(GanConfig),
    "distill": _keys(DistillConfig),
}


def _parse_value(raw: str, default, where: str):
    raw = raw.strip()
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, tuple):
            return tuple(int(part) for part in raw.split(",") if part.strip() != "")
        value = type(default)(raw)
    except ValueError:
        kind = "ints" if isinstance(default, tuple) else type(default).__name__
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from None
    # nan compares false with everything, so it would pass every range check
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} = {raw!r} is not a finite number")
    return value


def _format_value(value, default) -> str:
    if isinstance(default, bool):
        return "true" if value else "false"
    if isinstance(default, float):
        return repr(float(value))
    if isinstance(default, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


class RunConfig:
    """Immutable view over a fully-defaulted {section: {key: value}} table."""

    def __init__(self, values: dict[str, dict[str, object]]):
        self._values = values
        self.validate()

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls({s: dict(keys) for s, keys in SCHEMA.items()})

    @classmethod
    def from_ini(cls, text: str) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as e:
            raise ConfigError(f"malformed config: {e}") from None
        values = cls.defaults()._values
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"unknown config key {key!r} in section [{section}]")
                values[section][key] = _parse_value(raw, SCHEMA[section][key],
                                                    f"[{section}] {key}")
        return cls(values)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_ini(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None

    def get(self, section: str, key: str):
        try:
            return self._values[section][key]
        except KeyError:
            raise KeyError(f"no config entry [{section}] {key}") from None

    def replace(self, section: str, key: str, value) -> "RunConfig":
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config entry [{section}] {key}")
        values = {s: dict(keys) for s, keys in self._values.items()}
        values[section][key] = value
        return RunConfig(values)

    def build(self, section: str, **overrides):
        """The section as its SECTION_TYPES dataclass, overrides applied."""
        cls = SECTION_TYPES[section]
        values = {f.name: self._values[section][f.name.lower()] for f in fields(cls)}
        return cls(**{**values, **overrides})

    def spec(self, which: str, n: int, num_classes: int) -> NetworkSpec:
        """Role `which`'s network on data of width n with num_classes classes."""
        hidden, activation = self.get(which, "hidden"), self.get(which, "activation")
        if which in ("teacher", "student"):
            return NetworkSpec("classifier", n, hidden, num_classes, activation)
        if which == "generator":
            return NetworkSpec("generator", num_classes, hidden, n, activation,
                               output_range=(self.get("data", "value_lo"),
                                             self.get("data", "value_hi")))
        return NetworkSpec("discriminator", n, hidden, 1, activation)

    def validate(self) -> None:
        """Raise ConfigError, naming the section and key, unless every checked value is valid.

        A [data] width or range that no network admits names the first role
        whose network it breaks; [data] n or num_classes of 1 names [data].
        """
        for (section, key), allowed in CHOICES.items():
            if self._values[section][key] not in allowed:
                raise ConfigError(f"[{section}] {key} must be one of {', '.join(allowed)}, "
                                  f"got {self._values[section][key]!r}")
        # MNIST's widths come from its files: 28x28 images of 10 digits
        widths = ((784, 10) if self.get("data", "kind") == "mnist"
                  else (self.get("data", "n"), self.get("data", "num_classes")))
        try:
            for section in ROLE_SECTIONS:
                self.spec(section, *widths)
            for section in SECTION_TYPES:
                self.build(section)
        except ValueError as e:
            raise ConfigError(f"[{section}] {e}") from None
        n, classes = self.get("data", "n"), self.get("data", "num_classes")
        if min(n, classes) < 2:  # the fewest that synth_blobs makes
            raise ConfigError(f"[data] n and num_classes must be >= 2, got {n}, {classes}")
        for section, key, least in (("run", "seed", 0), ("data", "centroid_seed", 0),
                                    ("data", "per_class", 1), ("data", "per_class_test", 1),
                                    ("data", "spread", 0.0), ("data", "train_subset", 1),
                                    ("data", "test_subset", 1)):
            if (value := self.get(section, key)) < least:  # numpy seeds must be >= 0
                raise ConfigError(f"[{section}] {key} must be >= {least}, got {value}")
        teacher, side = self.build("teacher"), math.isqrt(widths[0])
        if (teacher.hflip or teacher.crop_pad) and side * side != widths[0]:
            raise ConfigError(f"[teacher] hflip and crop_pad need a square [data] n, got {widths[0]}")
        if not 0 <= teacher.crop_pad < side:
            raise ConfigError(f"[teacher] crop_pad must be in [0, {side}), got {teacher.crop_pad}")

    def serialize(self) -> str:
        out = io.StringIO()
        for section, keys in SCHEMA.items():
            out.write(f"[{section}]\n")
            for key, default in keys.items():
                out.write(f"{key} = {_format_value(self._values[section][key], default)}\n")
            out.write("\n")
        return out.getvalue()

    def hash(self) -> str:
        """Provenance hash; out_dir is excluded so relocating a run keeps it."""
        lines = [ln for ln in self.serialize().splitlines()
                 if not ln.startswith("out_dir = ")]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self._values == other._values

    def __repr__(self):
        return f"RunConfig(hash={self.hash()})"
