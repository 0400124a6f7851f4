import importlib

import mekd
from mekd import gan, harness

# the package's `distill` attribute is the function, not the module
distill = importlib.import_module("mekd.distill")


def test_all_names_resolve():
    missing = [name for name in mekd.__all__ if not hasattr(mekd, name)]
    assert not missing


def test_spawn_key_families_are_distinct():
    # each family is the first element of the spawn keys it seeds
    families = {f"{module.__name__}.{name}": value
                for module in (harness, gan, distill)
                for name, value in vars(module).items()
                if name.startswith(("KEY_", "INIT_"))}
    assert {"mekd.gan.KEY_GAN_EPOCH", "mekd.distill.KEY_DISTILL_EPOCH",
            "mekd.harness.KEY_DATA_TRAIN", "mekd.harness.INIT_TEACHER"} <= set(families)
    assert all(isinstance(value, int) for value in families.values())
    assert len(set(families.values())) == len(families), families
