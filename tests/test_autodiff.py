import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mekd import autodiff as ad
from mekd.autodiff import NonFiniteError, Tensor, no_grad
from mekd.distill import BlindTeacher, DistillConfig, student_loss
from mekd.gan import wgan_discriminator_loss
from mekd.gradcheck import max_relative_error, numeric_gradient
from mekd.nets import build_network
from specs import discriminator_spec, generator_spec, student_spec


def test_identity_forward():
    x = Tensor([1.0, 2.0])
    assert np.array_equal(x.data, [1.0, 2.0])


def test_linear_identity_weights():
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    x = Tensor([[3.0, 4.0]])
    out = ad.linear(x, w, b)
    assert np.array_equal(out.data, [[3.0, 4.0]])


def test_softmax_of_zero_linear_is_uniform():
    w = Tensor(np.zeros((2, 2)))
    b = Tensor(np.zeros(2))
    x = Tensor([[0.7, -1.3]])
    out = ad.softmax(ad.linear(x, w, b))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    ad.square(x).backward()
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_gradient_accumulates_over_shared_subexpression():
    x = Tensor(2.0, requires_grad=True)
    y = ad.square(x)
    (y + y).backward()
    assert x.grad == pytest.approx(8.0, abs=1e-12)


def test_chain_composition_matches_merged_graph():
    # backward of f(g(x)) computed in one graph vs grad assembled by hand
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 4))

    x = Tensor(x0, requires_grad=True)
    merged = ad.tanh(ad.matmul(x, Tensor(w))).sum()
    merged.backward()
    merged_grad = x.grad.copy()

    x2 = Tensor(x0, requires_grad=True)
    inner = ad.matmul(x2, Tensor(w))
    ad.tanh(inner).sum().backward()
    outer_grad = inner.grad
    by_hand = outer_grad @ w.T
    assert np.allclose(merged_grad, by_hand, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_forward_raises_with_op_name():
    x = Tensor([[1e200]])
    with pytest.raises(NonFiniteError) as exc:
        ad.square(x)
    assert exc.value.op == "square"


def test_log_of_zero_raises():
    with pytest.raises(NonFiniteError):
        ad.log(Tensor([0.0, 1.0]))


def test_nonfinite_leaf_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


# -- the finiteness check ---------------------------------------------------


def _extremes(dtype) -> list[float]:
    """±max, the smallest subnormals, ±0.0 and a value whose square overflows."""
    info = np.finfo(dtype)
    tiny = float(info.smallest_subnormal)
    return [float(info.max), -float(info.max), tiny, -tiny, 0.0, -0.0, float(info.max) / 3]


def _floats(dtype):
    width = np.finfo(dtype).bits
    finite = st.floats(allow_nan=False, allow_infinity=False, width=width)
    return finite | st.sampled_from(_extremes(dtype))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finite_agrees_with_isfinite(data):
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    a = data.draw(hnp.arrays(dtype, shape, elements=_floats(dtype)))
    flat = a.reshape(-1)
    if flat.size:
        spots = st.integers(0, flat.size - 1)
        for i, v in data.draw(st.lists(st.tuples(spots, st.sampled_from([np.nan, np.inf, -np.inf])),
                                       max_size=3)):
            flat[i] = v
    view = data.draw(st.sampled_from(["whole", "transposed", "strided"]))
    if view == "transposed":
        a = a.T
    elif view == "strided" and a.ndim:
        a = a[..., ::2]
    assert ad._finite(a) == bool(np.isfinite(a).all())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_values_whose_squares_overflow_pass_without_warning(dtype):
    a = np.array(_extremes(dtype), dtype=dtype)
    assert ad._finite(a)
    assert np.array_equal(Tensor(a).data, a)


UNCHECKED_OPS = {"relu": ad.relu, "tanh": ad.tanh, "sigmoid": ad.sigmoid,
                 "softmax": ad.softmax, "abs": ad.absolute}


def test_unchecked_ops_are_exactly_the_always_finite_ones():
    assert ad._ALWAYS_FINITE == frozenset(UNCHECKED_OPS)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # softmax's shift of ±max
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unchecked_ops_keep_finite_input_finite(data):
    op = data.draw(st.sampled_from(sorted(UNCHECKED_OPS)))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 5)))
    a = data.draw(hnp.arrays(dtype, shape, elements=_floats(dtype)))
    out = UNCHECKED_OPS[op](Tensor(a, requires_grad=data.draw(st.booleans())))
    assert out.op == op and np.isfinite(out.data).all()


def test_no_grad_prunes_graph():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        y = ad.relu(x)
    assert not y.requires_grad and y._parents == ()
    z = ad.relu(x)
    assert z.requires_grad


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_linear_backward():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    probe = rng.standard_normal((4, 2))
    (ad.linear(x, w, b) * ad.constant(probe)).sum().backward()
    assert np.array_equal(b.grad, probe.sum(axis=0))
    assert np.array_equal(x.grad, probe @ w.data.T)
    assert np.array_equal(w.grad, x.data.T @ probe)


@pytest.mark.parametrize("x_shape, w_shape, b_shape", [
    ((2, 3), (2, 3), (3,)),     # inner widths differ
    ((2, 3), (3, 4), (3,)),     # bias width is not the output width
    ((2, 3), (3, 4), (2, 4)),   # bias is not a vector
    ((3,), (3, 4), (4,)),       # input is not a batch
    ((2, 3), (3,), (1,)),       # weights are not a matrix
])
def test_linear_shape_mismatch(x_shape, w_shape, b_shape):
    with pytest.raises(ValueError, match="linear shape mismatch"):
        ad.linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


def test_add_rejects_broadcast():
    with pytest.raises(ValueError, match="add shape mismatch"):
        ad.add(Tensor(np.ones((4, 3))), Tensor(np.zeros(3)))


def test_mul_rejects_broadcast():
    with pytest.raises(ValueError, match="mul shape mismatch"):
        ad.mul(Tensor(np.ones((4, 3))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
def test_softmax_rejects_non_2d(shape):
    with pytest.raises(ValueError, match="softmax expects a 2-d tensor"):
        ad.softmax(Tensor(np.zeros(shape)))


def test_first_gradient_is_not_an_alias():
    # add hands one gradient array to both parents; storing it by
    # reference would let a's second contribution leak into b.grad.
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros((2, 3)), requires_grad=True)
    ((a + b).sum() + a.sum()).backward()
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert np.array_equal(a.grad, np.full((2, 3), 2.0))


def test_negative_zero_gradient_accumulates_to_positive_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * -0.0).sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0])
    assert not np.signbit(x.grad).any()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    out = ad.softmax(Tensor(rng.standard_normal((8, 5)) * 10))
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(out.data > 0)


def test_sqrt_subgradient_zero_at_zero():
    x = Tensor([0.0, 4.0], requires_grad=True)
    ad.sqrt(x).sum().backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(0.25, abs=1e-15)


def test_clip_gradient_passes_only_inside_range():
    x = Tensor([-2.0, 0.3, 2.0], requires_grad=True)
    ad.clip(x, -1.0, 1.0).sum().backward()
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


def test_reshape_round_trips_gradient():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = ad.reshape(x, (3, 2))
    (y * Tensor(np.ones((3, 2)))).sum().backward()
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_mean_axis_backward():
    x = Tensor(np.ones((4, 6)), requires_grad=True)
    x.mean(axis=1).sum().backward()
    assert np.allclose(x.grad, 1.0 / 6.0, atol=1e-15)


def test_topo_order_deterministic_float_accumulation():
    # same graph built twice gives bitwise-identical gradients
    def build():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        h = ad.tanh(ad.matmul(x, Tensor(rng.standard_normal((5, 5)))))
        loss = (h * h).sum() + ad.absolute(x).sum()
        loss.backward()
        return x.grad.copy()

    assert np.array_equal(build(), build())


def test_two_layer_net_matches_finite_difference():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    w1 = rng.standard_normal((3, 5)) / np.sqrt(3)
    b1 = rng.standard_normal(5) * 0.1
    w2 = rng.standard_normal((5, 2)) / np.sqrt(5)

    def build(xt, w1t, b1t, w2t):
        return ad.matmul(ad.tanh(ad.linear(xt, w1t, b1t)), w2t).sum()

    assert max_relative_error(build, [x, w1, b1, w2]) < 1e-4


def test_numeric_gradient_on_known_function():
    # d/dx of sum(x^2) is 2x; the finite-difference helper itself is checked here
    x = np.array([[1.0, -2.0]])
    (g,) = numeric_gradient(lambda a: float((a * a).sum()), [x])
    assert np.allclose(g, 2 * x, atol=1e-8)


def test_backward_graphs_are_not_reference_cycles():
    # A gradient function holding its own output tensor would make every
    # graph a reference cycle that only the cyclic collector frees.
    D = build_network(discriminator_spec(6), 3, seed=4)
    G = build_network(generator_spec(3, 6), 3, seed=5).freeze()
    student = build_network(student_spec(6, 3), 3, seed=6)
    teacher = BlindTeacher(lambda x: np.full((len(x), 3), 1.0 / 3.0), 3)
    rng = np.random.default_rng(7)
    x, z = rng.uniform(size=(5, 6)), rng.standard_normal((5, 3))
    gc.collect()
    gc.disable()
    try:
        loss, gp = wgan_discriminator_loss(D, G, x, z, gp_lambda=10.0, rng=rng)
        loss.backward()
        del loss, gp
        loss, _ = student_loss(student, teacher, G, x, DistillConfig())
        loss.backward()
        del loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_critic_loss_graph_has_one_node_per_affine_map():
    D = build_network(discriminator_spec(6), 3, seed=4)
    G = build_network(generator_spec(3, 6), 3, seed=5).freeze()
    rng = np.random.default_rng(7)
    x, z = rng.uniform(size=(5, 6)), rng.standard_normal((5, 3))
    loss, _ = wgan_discriminator_loss(D, G, x, z, gp_lambda=10.0, rng=rng)
    nodes = ad._topo_order(loss)
    # Only nodes that need a gradient: no constants, no penalty transposes.
    assert len(nodes) == 33
    params = {id(p) for p in D.params.values()}
    # Parameters reach the penalty's unroll only through matmul_t.
    assert not [n for n in nodes if n.op == "matmul" and id(n._parents[1]) in params]
    assert sum(n.op == "linear" for n in nodes) == 6  # two critic passes, three layers each
