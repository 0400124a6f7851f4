import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mekd.checkpoint import MAGIC, VERSION, CheckpointError, dumps, load, loads, save


def _sample_params():
    rng = np.random.default_rng(3)
    return {
        "layers.0.weight": rng.standard_normal((3, 4)),
        "layers.0.bias": rng.standard_normal(4),
        "layers.1.weight": rng.standard_normal((4, 2)),
    }


def test_round_trip_bitwise():
    params = _sample_params()
    out = loads(dumps(params))
    assert set(out) == set(params)
    for name, arr in params.items():
        assert out[name].shape == arr.shape
        assert np.array_equal(out[name], arr)
        assert out[name].dtype == np.float64


def test_serialization_is_deterministic():
    params = _sample_params()
    assert dumps(params) == dumps(_sample_params())
    assert loads(dumps(params)) is not None  # and stays parseable


def test_parameter_order_is_preserved():
    params = _sample_params()
    assert list(loads(dumps(params))) == list(params)


def test_known_byte_layout():
    # one scalar-free minimal case assembled by hand
    blob = dumps({"b": np.array([1.5, -2.0])})
    expected = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<I", 1)
        + struct.pack("<H", 1)
        + b"b"
        + struct.pack("<B", 1)
        + struct.pack("<I", 2)
        + struct.pack("<d", 1.5)
        + struct.pack("<d", -2.0)
    )
    assert blob == expected


def test_bad_magic_rejected():
    blob = bytearray(dumps(_sample_params()))
    blob[:4] = b"XXXX"
    with pytest.raises(CheckpointError):
        loads(bytes(blob))


def test_bad_version_rejected():
    blob = bytearray(dumps(_sample_params()))
    blob[4:8] = struct.pack("<I", VERSION + 1)
    with pytest.raises(CheckpointError):
        loads(bytes(blob))


def test_truncation_rejected():
    blob = dumps(_sample_params())
    with pytest.raises(CheckpointError):
        loads(blob[:-3])


def test_trailing_bytes_rejected():
    blob = dumps(_sample_params())
    with pytest.raises(CheckpointError):
        loads(blob + b"\x00")


def test_duplicate_names_rejected():
    one = dumps({"w": np.array([1.0])})
    body = one[8 + 4:]  # strip magic+version+count
    forged = MAGIC + struct.pack("<I", VERSION) + struct.pack("<I", 2) + body + body
    with pytest.raises(CheckpointError):
        loads(forged)


def test_save_and_load_file(tmp_path):
    params = _sample_params()
    path = tmp_path / "model.ckpt"
    save(path, params)
    out = load(path)
    for name, arr in params.items():
        assert np.array_equal(out[name], arr)


def test_save_is_atomic_no_temp_left_behind(tmp_path):
    path = tmp_path / "model.ckpt"
    save(path, _sample_params())
    leftovers = [p for p in tmp_path.iterdir() if p != path]
    assert leftovers == []


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "absent.ckpt")


def test_array_like_values_coerced_to_float64():
    out = loads(dumps({"w": [1, 2]}))
    assert out["w"].dtype == np.float64
    assert np.array_equal(out["w"], [1.0, 2.0])


def test_non_utf8_name_rejected():
    blob = bytearray(dumps({"w": np.array([1.0])}))
    blob[8 + 4 + 2] = 0xFF  # the name's only byte
    with pytest.raises(CheckpointError, match="UTF-8"):
        loads(bytes(blob))


def test_impossible_shape_rejected():
    forged = (MAGIC + struct.pack("<II", VERSION, 1) + struct.pack("<H", 1) + b"w"
              + struct.pack("<B", 4) + struct.pack("<4I", 0, *[2**32 - 1] * 3))
    with pytest.raises(CheckpointError, match="impossible shape"):
        loads(forged)


_names = st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)
_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=2),
                     elements=st.floats(allow_nan=False))


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(_names, _arrays, min_size=1, max_size=2))
def test_every_truncation_and_byte_mutation_loads_or_raises_checkpoint_error(params):
    blob = dumps(params)
    variants = [blob[:n] for n in range(len(blob))]
    for i in range(len(blob)):
        variants += [blob[:i] + bytes([v]) + blob[i + 1:] for v in range(256) if v != blob[i]]
    for variant in variants:
        try:
            loads(variant)
        except CheckpointError:
            pass
