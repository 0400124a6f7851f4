import os
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mekd.config import SCHEMA, ConfigError, RunConfig
from mekd.distill import DistillConfig
from mekd.gan import GanConfig


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


@st.composite
def _configs(draw):
    cfg = RunConfig.defaults()
    for section, keys in SCHEMA.items():
        for key, default in keys.items():
            if draw(st.booleans()):
                cfg = cfg.replace(section, key, draw(_value_like(default)))
    return cfg


@given(_configs())
def test_serialize_parse_round_trip_property(cfg):
    assert RunConfig.from_ini(cfg.serialize()) == cfg
