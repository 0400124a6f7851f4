import numpy as np
import pytest

from mekd import autodiff as ad
from mekd import harness, nets
from mekd.autodiff import Tensor
from mekd.config import RunConfig
from mekd.distill import GEN_INPUTS, BlindTeacher, DistillConfig, teacher_side
from mekd.metrics import accuracy
from mekd.nets import DimensionContractError, NetworkSpec, build_network
from specs import discriminator_spec, generator_spec, student_spec, teacher_spec
from test_harness import TINY_INI


def test_spec_rejects_unknown_role_and_activation():
    with pytest.raises(ValueError):
        NetworkSpec("oracle", 4, (8,), 2)
    with pytest.raises(ValueError):
        NetworkSpec("classifier", 4, (8,), 2, activation="gelu")
    with pytest.raises(ValueError):
        NetworkSpec("classifier", 4, (0,), 2)
    with pytest.raises(ValueError):
        NetworkSpec("generator", 4, (8,), 16, output_range=(1.0, 1.0))


def test_classifier_output_width_must_match_class_count():
    with pytest.raises(DimensionContractError):
        build_network(NetworkSpec("classifier", 8, (4,), 3), num_classes=4, seed=0)


def test_generator_latent_must_equal_class_count():
    with pytest.raises(DimensionContractError) as exc:
        build_network(NetworkSpec("generator", 10, (8,), 16), num_classes=4, seed=0)
    assert "latent dimension must equal the category count" in str(exc.value)


def test_discriminator_output_must_be_scalar():
    with pytest.raises(DimensionContractError):
        build_network(NetworkSpec("discriminator", 8, (4,), 2), num_classes=4, seed=0)


def test_at_least_two_classes():
    with pytest.raises(DimensionContractError):
        build_network(teacher_spec(8, 1), num_classes=1, seed=0)


def test_build_is_deterministic_per_seed():
    a = build_network(teacher_spec(8, 4), 4, seed=7).state_dict()
    b = build_network(teacher_spec(8, 4), 4, seed=7).state_dict()
    c = build_network(teacher_spec(8, 4), 4, seed=8).state_dict()
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert any(not np.array_equal(a[name], c[name]) for name in a)


def test_init_respects_fan_in_bounds():
    net = build_network(teacher_spec(16, 4), 4, seed=1)
    widths = net.spec.widths
    for i in range(len(widths) - 1):
        bound = 1.0 / np.sqrt(widths[i])
        w = net.params[f"layers.{i}.weight"].data
        b = net.params[f"layers.{i}.bias"].data
        assert w.shape == (widths[i], widths[i + 1])
        assert b.shape == (widths[i + 1],)
        assert np.all(np.abs(w) <= bound) and np.all(np.abs(b) <= bound)


def test_classifier_outputs_probability_rows():
    net = build_network(teacher_spec(8, 4), 4, seed=2)
    x = np.random.default_rng(0).uniform(size=(5, 8))
    probs = net(x).data
    assert probs.shape == (5, 4)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_discriminator_outputs_open_unit_interval():
    net = build_network(discriminator_spec(8), 4, seed=3)
    x = np.random.default_rng(1).uniform(size=(6, 8))
    d = net(x).data
    assert d.shape == (6, 1)
    assert np.all((d > 0) & (d < 1))


def test_discriminator_score_is_pre_sigmoid():
    net = build_network(discriminator_spec(8), 4, seed=3)
    x = np.random.default_rng(2).uniform(size=(4, 8))
    score = net.logits(x).data
    prob = net(x).data
    assert np.allclose(1.0 / (1.0 + np.exp(-score)), prob, atol=1e-12)


def test_generator_respects_output_range():
    for lo, hi in [(0.0, 1.0), (-1.0, 1.0)]:
        net = build_network(generator_spec(4, 16, output_range=(lo, hi)), 4, seed=4)
        y = np.random.default_rng(3).uniform(size=(10, 4)) * 6 - 3
        img = net(y).data
        assert img.shape == (10, 16)
        assert np.all((img >= lo) & (img <= hi))


def test_input_width_validated():
    net = build_network(student_spec(8, 4), 4, seed=6)
    with pytest.raises(ValueError):
        net(np.zeros((2, 7)))
    with pytest.raises(ValueError, match=r"expects a \(rows, 8\) batch, got shape \(8,\)"):
        net(np.zeros(8))


def test_freeze_blocks_gradient_accumulation():
    teacher = build_network(student_spec(4, 2), 2, seed=7).freeze()
    student = build_network(student_spec(4, 2), 2, seed=8)
    x = np.random.default_rng(4).uniform(size=(3, 4))
    gap = (teacher(x) - student(x))
    (gap * gap).sum().backward()
    assert all(p.grad is None for p in teacher.params.values())
    assert all(p.grad is not None for p in student.params.values())


def test_state_dict_round_trip_changes_output():
    a = build_network(student_spec(8, 4), 4, seed=9)
    b = build_network(student_spec(8, 4), 4, seed=10)
    x = np.random.default_rng(5).uniform(size=(2, 8))
    assert not np.allclose(a(x).data, b(x).data)
    b.load_state_dict(a.state_dict())
    assert np.array_equal(a(x).data, b(x).data)


def test_load_state_dict_validates_names_and_shapes():
    net = build_network(student_spec(8, 4), 4, seed=11)
    state = net.state_dict()
    missing = dict(state)
    missing.pop("layers.0.bias")
    with pytest.raises(ValueError):
        net.load_state_dict(missing)
    bad_shape = dict(state)
    bad_shape["layers.0.weight"] = np.zeros((8, 99))
    with pytest.raises(ValueError):
        net.load_state_dict(bad_shape)


def test_logits_match_softmax_head():
    net = build_network(student_spec(8, 4), 4, seed=12)
    x = np.random.default_rng(6).uniform(size=(3, 8))
    logits = net.logits(x)
    via_head = net(x).data
    assert np.allclose(ad.softmax(logits).data, via_head, atol=1e-12)


def test_zero_hidden_depth_allowed():
    net = build_network(NetworkSpec("classifier", 5, (), 3), 3, seed=13)
    out = net(np.zeros((2, 5))).data
    assert out.shape == (2, 3)


def test_leaky_relu_hidden_activation_used():
    # a discriminator with negative pre-activations must still propagate signal
    spec = discriminator_spec(4)
    assert spec.activation == "leaky_relu"
    net = build_network(spec, 4, seed=14)
    x = Tensor(-np.ones((2, 4)) * 50.0, requires_grad=True)
    net.logits(x).sum().backward()
    assert np.any(x.grad != 0.0)


# -- the array forward: net(x) and net.logits(x) when nothing needs a gradient --

def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _spec(role, activation, hidden, **kw):
    width = {"classifier": 3, "discriminator": 1, "generator": 6}[role]
    return NetworkSpec(role, 3 if role == "generator" else 6, hidden, width,
                       activation=activation, **kw)


def _pair(role, activation, hidden, **kw):
    """A trainable net (the tape's reference) and a copy with the same weights."""
    spec = _spec(role, activation, hidden, **kw)
    return build_network(spec, 3, seed=21), build_network(spec, 3, seed=21)


def _no_tape_pass(net, how, method, x):
    """net's `method` of x with no graph: net frozen, or under no_grad."""
    if how == "frozen":
        return getattr(net.freeze(), method)(x)
    with ad.no_grad():
        return getattr(net, method)(x)


_ROLES_ACTS = [(role, act) for role in ("classifier", "generator", "discriminator")
               for act in ("relu", "leaky_relu", "tanh", "sigmoid")]


@pytest.mark.parametrize("method", ["__call__", "logits"])
@pytest.mark.parametrize("how", ["frozen", "no_grad"])
@pytest.mark.parametrize("rows", [1, 64])
@pytest.mark.parametrize("hidden", [(), (7, 5)])
@pytest.mark.parametrize("role,activation", _ROLES_ACTS)
def test_pass_without_gradient_equals_the_tape_and_records_nothing(role, activation, hidden,
                                                                   rows, how, method):
    tape_net, net = _pair(role, activation, hidden, output_range=(-1.0, 2.0))
    x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, tape_net.spec.input_dim))
    x[0] = 0.0
    x.flags.writeable = False
    before = x.copy()
    want = getattr(tape_net, method)(x)
    assert want._parents  # the reference took the tape
    got = _no_tape_pass(net, how, method, x)
    assert np.array_equal(_bits(got.data), _bits(want.data))
    assert got._parents == () and not got.requires_grad
    assert np.array_equal(_bits(x), _bits(before))


def _raised_op(fn) -> str:
    with pytest.raises(ad.NonFiniteError) as info:
        fn()
    return info.value.op


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["__call__", "logits"])
@pytest.mark.parametrize("how", ["frozen", "no_grad"])
@pytest.mark.parametrize("role,activation", _ROLES_ACTS)
def test_pass_without_gradient_names_the_tapes_non_finite_op(role, activation, how, method,
                                                              monkeypatch):
    x = np.random.default_rng(2).normal(scale=3.0, size=(4, _spec(role, "relu", ()).input_dim))
    cases = [("weight", {}, "linear")]  # an infinite weight: its affine map fails
    if activation == "leaky_relu":
        cases.append(("slope", {}, "leaky_relu"))
    if role == "generator" and method == "__call__":
        cases.append(("range", {"output_range": (-1e308, 1e308)}, "mul"))
    for case, kw, op in cases:
        tape_net, net = _pair(role, activation, (7, 5), **kw)
        with monkeypatch.context() as m:
            if case == "weight":
                for n in (tape_net, net):
                    n.params["layers.1.weight"].data[0, 0] = np.inf
            elif case == "slope":
                m.setattr(nets, "LEAKY_SLOPE", 1e308)  # overflows z * slope
            assert _raised_op(lambda: getattr(tape_net, method)(x * 1e3)) == op
            assert _raised_op(lambda: _no_tape_pass(net, how, method, x * 1e3)) == op


def test_evaluation_passes_record_no_tape_node(monkeypatch):
    cfg = RunConfig.from_ini(TINY_INI)
    run = harness._Run(cfg, "unused")
    teacher, G = run.build("teacher"), run.build("generator").freeze()
    x = run.test.samples[:20]
    results = []
    real_result = ad._result

    def counting(*args, **kwargs):
        results.append(args[2])
        return real_result(*args, **kwargs)

    monkeypatch.setattr(ad, "_result", counting)
    accuracy(teacher, run.test)  # a trainable teacher, as during its training
    p_t = BlindTeacher.from_network(teacher).classify(x)
    for gen_input in GEN_INPUTS:
        teacher_side(G, p_t, DistillConfig(gen_input=gen_input, gen_tau=2.0))
    harness.generator_fid(cfg, G, run.train)
    assert results == []
