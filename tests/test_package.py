import argparse
import importlib
import inspect
import re
import sys
from pathlib import Path

import mekd
from mekd import cli, data, gan, harness

# the package's `distill` attribute is the function, not the module
distill = importlib.import_module("mekd.distill")


def test_all_names_resolve():
    missing = [name for name in mekd.__all__ if not hasattr(mekd, name)]
    assert not missing


def test_spawn_key_families_are_distinct():
    # each family is the first element of the spawn keys it seeds
    families = {f"{module.__name__}.{name}": value
                for module in (harness, data, gan, distill)
                for name, value in vars(module).items()
                if name.startswith(("KEY_", "INIT_"))}
    assert {"mekd.gan.KEY_GAN_EPOCH", "mekd.distill.KEY_DISTILL_EPOCH",
            "mekd.harness.KEY_DATA_TRAIN", "mekd.harness.INIT_TEACHER",
            "mekd.data.KEY_BLOB_CENTROIDS", "mekd.data.KEY_BLOB_NOISE"} <= set(families)
    assert all(isinstance(value, int) for value in families.values())
    assert len(set(families.values())) == len(families), families


def test_seed_sequences_come_only_from_spawn():
    # one seed derivation: no module of the package builds a SeedSequence itself
    spawn_source = inspect.getsource(data.spawn)
    assert "SeedSequence(" in spawn_source
    found = [path.name for path in sorted(Path(mekd.__file__).parent.glob("*.py"))
             if "SeedSequence(" in path.read_text(encoding="utf-8").replace(spawn_source, "")]
    assert not found


def test_benchmark_wraps_only_names_that_exist(monkeypatch):
    # perfbench patches mekd's functions and methods by name: a rename or
    # deletion of one fails here, and restore() puts every original back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    modules = [importlib.import_module(f"mekd.{path.stem}")
               for path in sorted(Path(mekd.__file__).parent.glob("*.py"))]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    try:
        layers.install_probes(tracer, layers.LabelAudit(), [])
        layers.install_tracing(tracer)
        assert distill.kld_loss is not before["mekd.distill", "kld_loss"]
    finally:
        tracer.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_readme_subcommand_table_lists_the_stages_and_gradcheck_in_help_order():
    # one list of subcommands: harness.STAGES, then gradcheck, as `mekd --help` lists them
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Subcommands\n\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([^`]+)`", table, flags=re.MULTILINE)
    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert listed == [*harness.STAGES, "gradcheck"] == list(sub.choices)


# ROADMAP item 7's ceiling for src/, ratcheted down to the count after
# distill() kept the teacher's half per row whatever the cache; a change that
# crosses it pays for its lines first
SRC_LINE_CEILING = 3058


def test_src_line_budget():
    src = Path(__file__).resolve().parent.parent / "src"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in sorted(src.rglob("*.py")))
    assert lines <= SRC_LINE_CEILING, f"src/ has {lines} lines, over {SRC_LINE_CEILING}"
