import math
import os
import re
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mekd.cli import main
from mekd.config import CHOICES, SCHEMA, SECTION_TYPES, ConfigError, RunConfig, TeacherConfig
from mekd.distill import GEN_INPUTS, DistillConfig
from mekd.gan import GENERATOR_LOSS_MODES, PRIOR_KINDS, VARIANTS, GanConfig


def test_defaults_cover_every_key():
    cfg = RunConfig.defaults()
    assert cfg.get("run", "seed") == 0
    assert cfg.get("data", "kind") == "blobs"
    assert cfg.get("data", "num_classes") == 4
    assert cfg.get("distill", "p_norm") == 1
    assert cfg.get("gan", "variant") == "wgan-gp"


def test_empty_ini_equals_defaults():
    assert RunConfig.from_ini("") == RunConfig.defaults()


def test_partial_ini_overrides_only_named_keys():
    cfg = RunConfig.from_ini("[run]\nseed = 9\n\n[distill]\nalpha = 0.5\n")
    assert cfg.get("run", "seed") == 9
    assert cfg.get("distill", "alpha") == 0.5
    assert cfg.get("distill", "beta") == RunConfig.defaults().get("distill", "beta")


def test_serialize_round_trip():
    cfg = RunConfig.from_ini("[gan]\nepochs = 7\nmilestones = 3,5\n")
    again = RunConfig.from_ini(cfg.serialize())
    assert again == cfg
    assert again.serialize() == cfg.serialize()


def test_serialization_is_canonical():
    a = RunConfig.from_ini("[run]\nseed = 3\n\n[data]\nn = 16\n")
    b = RunConfig.from_ini("[data]\nn = 16\n\n[run]\nseed = 3\n")
    assert a.serialize() == b.serialize()
    assert a.hash() == b.hash()


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="section"):
        RunConfig.from_ini("[experiments]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="key"):
        RunConfig.from_ini("[run]\nseeed = 1\n")


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match="parse"):
        RunConfig.from_ini("[run]\nseed = banana\n")
    with pytest.raises(ConfigError):
        RunConfig.from_ini("[teacher]\nhflip = maybe\n")


@pytest.mark.parametrize("raw", ["nan", "-inf"])
@pytest.mark.parametrize("section, key", [("gan", "clip_norm"), ("distill", "alpha"),
                                          ("data", "spread")])
def test_non_finite_float_rejected(section, key, raw):
    # nan fails every comparison, so it would switch clipping or a loss term off
    with pytest.raises(ConfigError, match="not a finite number"):
        RunConfig.from_ini(f"[{section}]\n{key} = {raw}\n")


# values that used to load and train a chance-level teacher, or fail only
# inside a stage
LOAD_PROBES = [
    ("teacher", "epochs = -1", "epochs and m must be >= 1, got -1, 64"),
    ("teacher", "crop_pad = 40", r"crop_pad must be in \[0, 8\), got 40"),
    ("teacher", "m = 0", "epochs and m must be >= 1, got 60, 0"),
    ("teacher", "lr = -1.0", "lr must be positive, got -1.0"),
    ("distill", "lr = -0.1", "lr must be positive, got -0.1"),
    ("data", "per_class_test = 0", "per_class_test must be >= 1, got 0"),
    ("data", "spread = -1.0", "spread must be >= 0.0, got -1.0"),
    ("teacher", "hflip = true\n[data]\nn = 15", r"hflip and crop_pad need a square \[data\] n"),
    ("gan", "momentum = 1.0", r"momentum must be in \[0, 1\), got 1.0"),
    ("distill", "momentum = 1.5", r"momentum must be in \[0, 1\), got 1.5"),
    # numpy's seeding refuses a negative seed, but names no key
    ("run", "seed = -1", "seed must be >= 0, got -1"),
    ("data", "centroid_seed = -3", "centroid_seed must be >= 0, got -3"),
]


@pytest.mark.parametrize("section, lines, message", [
    *LOAD_PROBES,
    ("teacher", "crop_pad = -1", r"crop_pad must be in \[0, 8\), got -1"),
    ("teacher", "crop_pad = 1\n[data]\nn = 15", r"hflip and crop_pad need a square \[data\] n"),
    ("gan", "lr_d = 0", "lr_d must be positive, got 0.0"),
    ("data", "per_class = 0", "per_class must be >= 1, got 0"),
    ("data", "test_subset = 0", "test_subset must be >= 1, got 0"),
    ("distill", "alpha = 0\nbeta = 0", "at least one of alpha, beta"),
    ("distill", "p_norm = 3", "p_norm must be 1 or 2"),
    ("distill", "kd_tau = 0", "temperatures must be positive"),
    ("distill", "milestones = 5,3", "milestones must be strictly increasing"),
    ("distill", "gamma = 1.5", "gamma must be in"),
    ("gan", "variant = foo", "unknown GAN variant"),
    ("gan", "m = 0", "m and k must be >= 1"),
    ("gan", "milestones = 5,3", "milestones must be strictly increasing"),
    *((role, "activation = gelu", "activation must be one of")
      for role in ("teacher", "student", "generator", "discriminator")),
    ("data", "split = x", "split must be one of"),
    ("data", "kind = cifar", "kind must be one of"),
    ("teacher", "milestones = 5,3", "milestones must be strictly increasing"),
    ("teacher", "gamma = 0", "gamma must be in"),
    ("student", "hidden = 0", r"layer widths must be positive, got \(64, 0, 4\)"),
    ("generator", "hidden = 64,-1", r"layer widths must be positive, got \(4, 64, -1, 64\)"),
    # a [data] width or range that no network admits names the first role it breaks
    ("teacher", "[data]\nn = 0", r"layer widths must be positive, got \(0, 128, 64, 4\)"),
    ("generator", "[data]\nvalue_lo = 1.0", r"output_range must satisfy lo < hi"),
    ("data", "n = 1", r"n and num_classes must be >= 2, got 1, 4"),
    ("data", "num_classes = 1", r"n and num_classes must be >= 2, got 64, 1"),
])
def test_invalid_section_values_rejected_at_load(section, lines, message):
    # each value used to load and fail only in the stage that built the section
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {message}"):
        RunConfig.from_ini(f"[{section}]\n{lines}\n")


@pytest.mark.parametrize("section, lines, message", LOAD_PROBES)
def test_cli_train_teacher_refuses_probe_values(tmp_path, capsys, section, lines, message):
    path, out = tmp_path / "bad.ini", tmp_path / "run"
    path.write_text(f"[{section}]\n{lines}\n")
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 1
    assert re.search(rf"error: \[{section}\] {message}", capsys.readouterr().err)
    assert not out.exists()


def test_cli_negative_seed_flag_fails_before_any_stage(tmp_path, capsys):
    path, out = tmp_path / "run.ini", tmp_path / "run"
    path.write_text("[run]\nseed = 0\n")
    assert main(["train-teacher", "--config", str(path), "--seed", "-1", "--out", str(out)]) == 1
    assert "error: [run] seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_constructor_validates_its_values():
    values = {section: dict(keys) for section, keys in SCHEMA.items()}
    values["data"]["split"] = "x"
    with pytest.raises(ConfigError, match=r"^\[data\] split must be one of same, disjoint"):
        RunConfig(values)


def test_replace_validates_the_new_value():
    # a config changed in code is checked as a loaded one is
    with pytest.raises(ConfigError, match=r"^\[distill\] p_norm must be 1 or 2, got 3"):
        RunConfig.defaults().replace("distill", "p_norm", 3)


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        RunConfig.from_ini("seed = 1\n")  # key before any section header


def test_bool_and_ints_parsing():
    cfg = RunConfig.from_ini(
        "[teacher]\nhflip = true\nmilestones = 1,2,3\n\n[distill]\ncache_teacher = no\n")
    assert cfg.get("teacher", "hflip") is True
    assert cfg.get("teacher", "milestones") == (1, 2, 3)
    assert cfg.get("distill", "cache_teacher") is False


def test_empty_ints_value():
    cfg = RunConfig.from_ini("[gan]\nmilestones =\n")
    assert cfg.get("gan", "milestones") == ()


def test_replace_returns_new_config():
    base = RunConfig.defaults()
    changed = base.replace("run", "seed", 42)
    assert base.get("run", "seed") == 0
    assert changed.get("run", "seed") == 42
    with pytest.raises(ConfigError):
        base.replace("run", "nonexistent", 1)


def test_hash_stable_and_sensitive():
    base = RunConfig.defaults()
    assert base.hash() == RunConfig.defaults().hash()
    assert len(base.hash()) == 16
    assert base.hash() != base.replace("run", "seed", 1).hash()


def test_hash_ignores_out_dir():
    base = RunConfig.defaults()
    moved = base.replace("run", "out_dir", "elsewhere/run9")
    assert base.hash() == moved.hash()
    assert base != moved  # equality still sees the difference


def test_from_file_missing_path(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        RunConfig.from_file(tmp_path / "nope.ini")


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[run]\nseed = 5\n")
    assert RunConfig.from_file(path).get("run", "seed") == 5


def test_get_unknown_entry_raises():
    with pytest.raises(KeyError):
        RunConfig.defaults().get("run", "bogus")


# -- one source of defaults and golden hashes ---------------------------------


def test_sections_build_their_dataclass_defaults():
    cfg = RunConfig.defaults()
    assert cfg.build("gan") == GanConfig()
    assert cfg.build("distill") == DistillConfig()
    assert cfg.build("teacher") == TeacherConfig()
    assert list(SCHEMA["teacher"]) == ["hidden", "activation",
                                       *(f.name for f in fields(TeacherConfig))]
    assert list(SCHEMA["gan"]) == [f.name.lower() for f in fields(GanConfig)]
    assert list(SCHEMA["distill"]) == [f.name.lower() for f in fields(DistillConfig)]


def test_build_maps_lowercased_keys_and_applies_overrides():
    cfg = RunConfig.from_ini("[gan]\nlr_g = 0.3\n\n[distill]\nkd_tau = 2.0\n")
    assert cfg.build("gan").lr_G == 0.3
    assert cfg.build("distill", alpha=0.0).alpha == 0.0
    assert cfg.build("distill").kd_tau == 2.0


EVERY_GAN_AND_DISTILL_KEY = """\
[gan]
m = 32
k = 2
lr_g = 0.01
lr_d = 0.02
epochs = 12
variant = vanilla
gp_lambda = 5.0
generator_loss_mode = minimize-log1m
momentum = 0.25
milestones = 4,8
gamma = 0.5
prior = uniform
snapshot_epochs = 2,11
clip_norm = 0

[distill]
p_norm = 2
alpha = 0.5
beta = 2.0
tau = 3.0
kd_tau = 2.0
gen_tau = 1.5
gen_input = logits
m = 16
epochs = 7
lr = 0.05
momentum = 0.8
milestones = 3,5
gamma = 0.2
cache_teacher = false
"""


def test_golden_config_hashes():
    # values written by the hand-kept schema; a change here re-labels old runs
    assert RunConfig.defaults().hash() == "aeed751fed3e90e4"
    blobs = os.path.join(os.path.dirname(__file__), "..", "configs", "blobs.ini")
    assert RunConfig.from_file(blobs).hash() == "aeed751fed3e90e4"
    assert RunConfig.from_ini(EVERY_GAN_AND_DISTILL_KEY).hash() == "60bb815cb9046ee6"


_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_./", max_size=12)


def _value_like(default):
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(-10**6, 10**6)
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    if isinstance(default, tuple):
        return st.lists(st.integers(0, 10**4), max_size=4).map(tuple)
    return _TEXT


# the sections of SECTION_TYPES and [data]'s counts and spread are checked at
# load, so their keys draw values that the checks accept: these, or a
# positive number of the type (a spread of 0 loads too)
_DATA_POSITIVE = ("per_class", "per_class_test", "spread", "train_subset", "test_subset")
_ACCEPTED = {
    "p_norm": st.sampled_from([1, 2]),
    "variant": st.sampled_from(VARIANTS),
    "generator_loss_mode": st.sampled_from(GENERATOR_LOSS_MODES),
    "prior": st.sampled_from(PRIOR_KINDS),
    "gen_input": st.sampled_from(GEN_INPUTS),
    "milestones": st.sets(st.integers(0, 10**4), max_size=4).map(sorted).map(tuple),
    "gamma": st.floats(0.0, 1.0, exclude_min=True),
    "momentum": st.floats(0.0, 1.0, exclude_max=True),
}


def _accepted_like(key, default):
    if key in _ACCEPTED:
        return _ACCEPTED[key]
    if isinstance(default, int) and not isinstance(default, bool):
        return st.integers(1, 10**6)
    if isinstance(default, float):
        return st.floats(0.0, exclude_min=True, allow_infinity=False)
    return _value_like(default)


def _spec_accepted(cfg, key):
    """Values of a key that sets a network's widths or range which its
    NetworkSpec and [data]'s own check accept, given the config drawn so far
    (value_lo is drawn before value_hi, so each is drawn against the other's
    current value)."""
    if key == "hidden":
        return st.lists(st.integers(1, 10**4), max_size=4).map(tuple)
    if key in ("n", "num_classes"):
        return st.integers(2, 10**6)
    if key == "value_lo":
        return st.floats(max_value=cfg.get("data", "value_hi"), exclude_max=True,
                         allow_infinity=False)
    return st.floats(min_value=cfg.get("data", "value_lo"), exclude_min=True,
                     allow_infinity=False)


def _augment_accepted(cfg, key):
    """Values of [teacher] hflip or crop_pad that the drawn [data] n admits:
    none but the default unless the images are square, and crops below the side."""
    n = 784 if cfg.get("data", "kind") == "mnist" else cfg.get("data", "n")
    side = math.isqrt(n)
    if side * side != n:
        return st.just(SCHEMA["teacher"][key])
    return st.booleans() if key == "hflip" else st.integers(0, side - 1)


@st.composite
def _configs(draw):
    cfg = RunConfig.defaults()
    for section, keys in SCHEMA.items():
        for key, default in keys.items():
            if draw(st.booleans()):
                if (section, key) in CHOICES:
                    values = st.sampled_from(CHOICES[section, key])
                elif key == "hidden" or (section == "data" and key in (
                        "n", "num_classes", "value_lo", "value_hi")):
                    values = _spec_accepted(cfg, key)
                elif key in ("hflip", "crop_pad"):
                    values = _augment_accepted(cfg, key)
                elif key in ("seed", "centroid_seed"):  # a seed is checked to be >= 0
                    values = st.integers(0, 10**6)
                elif section in SECTION_TYPES or (section == "data" and key in _DATA_POSITIVE):
                    values = _accepted_like(key, default)
                else:
                    values = _value_like(default)
                cfg = cfg.replace(section, key, draw(values))
    return cfg


@given(_configs())
def test_serialize_parse_round_trip_property(cfg):
    assert RunConfig.from_ini(cfg.serialize()) == cfg
