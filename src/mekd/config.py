"""Flat INI run configuration: every key has a default, order is canonical.

The serialized form materializes every key in schema order, so two
configs are equal iff their serializations are byte-identical; the
sha256 of that text is the provenance hash embedded in results rows.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import fields

from .distill import DistillConfig
from .gan import GanConfig


class ConfigError(ValueError):
    """Invalid, unknown, or uncoercible configuration values."""


# section -> key -> default; the type of the default drives parsing and
# formatting (tuples are comma-separated ints).  [gan] and [distill] are the
# fields of GanConfig and DistillConfig, in field order, keys lowercased.
SECTION_TYPES = {"gan": GanConfig, "distill": DistillConfig}

SCHEMA: dict[str, dict[str, object]] = {
    "run": {
        "seed": 0,
        "out_dir": "runs/default",
    },
    "data": {
        "kind": "blobs",                # blobs | mnist
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
        "split": "same",                # same | disjoint (GAN vs distill data)
    },
    "teacher": {
        "hidden": (128, 64),
        "activation": "relu",
        "epochs": 60,
        "m": 64,
        "lr": 0.2,
        "momentum": 0.9,
        "milestones": (40, 52),
        "gamma": 0.1,
        "hflip": False,
        "crop_pad": 0,
    },
    "student": {
        "hidden": (32,),
        "activation": "relu",
    },
    "generator": {
        "hidden": (64, 128),
        "activation": "relu",
    },
    "discriminator": {
        "hidden": (128, 64),
        "activation": "leaky_relu",
    },
    **{section: {f.name.lower(): f.default for f in fields(cls)}
       for section, cls in SECTION_TYPES.items()},
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
        return type(default)(raw)
    except ValueError:
        kind = "ints" if isinstance(default, tuple) else type(default).__name__
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind}") from None


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
        values = {s: dict(keys) for s, keys in values.items()}
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
        """The section as its dataclass (GanConfig, DistillConfig), overrides applied."""
        cls = SECTION_TYPES[section]
        values = {f.name: self._values[section][f.name.lower()] for f in fields(cls)}
        return cls(**{**values, **overrides})

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
