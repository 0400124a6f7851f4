"""Bit-level checks of the tape: backward against a reference, kernels against formulas.

``Tensor.backward`` stores an intermediate node's first gradient without
copying it and never updates one in place.  The reference backward here
copies every first gradient (``+0.0 + g``) and adds later contributions in
place, the simplest correct rule; every leaf gradient, and every recorded
logit gradient, must match it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mekd import autodiff as ad
from mekd.autodiff import Tensor, no_grad
from mekd.distill import BlindTeacher, DistillConfig, kld_loss, student_loss
from mekd.gan import _fixed, wgan_discriminator_loss, wgan_generator_loss
from mekd.metrics import cross_entropy, record_logit_gradients
from mekd.nets import NetworkSpec, build_network
from specs import discriminator_spec, generator_spec, student_spec


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def reference_backward(root: Tensor) -> dict[int, np.ndarray]:
    """Every node's gradient by id, each first gradient copied, later ones added in place."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    grads = {id(root): np.ones_like(root.data)}
    for node in reversed(order):
        for parent, grad in zip(node._parents, node._grads):
            if not parent.requires_grad:
                continue
            g = grad(grads[id(node)])
            if id(parent) in grads:
                grads[id(parent)] += g
            else:
                grads[id(parent)] = np.add(g, 0.0, out=np.empty_like(parent.data))
    return grads


def _assert_leaf_gradients_match(loss: Tensor, leaves: dict[str, Tensor]) -> None:
    want = reference_backward(loss)
    loss.backward()
    assert any(leaf.grad is not None for leaf in leaves.values())
    for name, leaf in leaves.items():
        if leaf.grad is None:
            assert id(leaf) not in want, name
        else:
            assert np.array_equal(_bits(leaf.grad), _bits(want[id(leaf)])), name


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "tanh", "sigmoid"])
def test_critic_loss_leaf_gradients_match_reference(activation):
    D = build_network(NetworkSpec("discriminator", 6, (16, 8), 1, activation=activation),
                      3, seed=4)
    G = build_network(generator_spec(3, 6), 3, seed=5).freeze()
    rng = np.random.default_rng(7)
    x, z = rng.uniform(size=(5, 6)), rng.standard_normal((5, 3))
    loss, _ = wgan_discriminator_loss(D, G, x, z, gp_lambda=10.0, rng=rng)
    _assert_leaf_gradients_match(loss, D.params)


def test_generator_loss_with_frozen_critic_matches_reference():
    D = build_network(discriminator_spec(6), 3, seed=4)
    G = build_network(generator_spec(3, 6), 3, seed=5)
    z = np.random.default_rng(8).standard_normal((5, 3))
    with _fixed(D):
        loss = wgan_generator_loss(D, G, z)
        _assert_leaf_gradients_match(loss, {**G.params, **{"D." + k: p for k, p in D.params.items()}})
    assert all(p.grad is None for p in D.params.values())
    assert all(p.requires_grad for p in D.params.values())


@pytest.mark.parametrize("cfg", [DistillConfig(p_norm=1), DistillConfig(p_norm=2),
                                 DistillConfig(alpha=0.0, tau=4.0)], ids=["mekd-l1", "mekd-l2", "kd"])
def test_student_loss_leaf_gradients_match_reference(cfg):
    student = build_network(student_spec(6, 3), 3, seed=6)
    G = build_network(generator_spec(3, 6), 3, seed=5).freeze()
    p_t = np.random.default_rng(9).dirichlet(np.ones(3), size=5)
    teacher = BlindTeacher(lambda rows: p_t[:len(rows)], 3, cache=False)
    x = np.random.default_rng(10).uniform(size=(5, 6))
    loss, _ = student_loss(student, teacher, G, x, cfg)
    _assert_leaf_gradients_match(loss, student.params)


def _mekd_loss(G, p_t):
    def loss(logits):
        dist = ad.absolute(G(ad.softmax(logits)) - G(p_t)).mean()  # logits feed two softmaxes
        return dist + kld_loss(p_t, ad.softmax(logits))
    return loss


def _signed_zero_loss(logits):
    # the logit gradient is this constant, -0.0 entries included
    return (logits * Tensor(np.array([[1.5, -0.0, -2.0, -0.0]]))).sum()


@pytest.mark.parametrize("which", ["ce", "kd", "mekd", "signed-zero"])
def test_recorded_logit_gradients_match_reference(which):
    student = build_network(student_spec(6, 4), 4, seed=11)
    G = build_network(generator_spec(4, 6), 4, seed=12).freeze()
    p_t = np.random.default_rng(13).dirichlet(np.ones(4), size=1)
    loss_fn = {"ce": lambda lg: cross_entropy(ad.softmax(lg), [2]),
               "kd": lambda lg: kld_loss(p_t, ad.softmax(lg), tau=4.0),
               "mekd": _mekd_loss(G, p_t),
               "signed-zero": _signed_zero_loss}[which]
    x = np.random.default_rng(14).uniform(size=(1, 6))
    logits = student.logits(x)
    g = reference_backward(loss_fn(logits))[id(logits)][0]
    want = np.concatenate(([g[2]], g[:2], g[3:]))
    got = record_logit_gradients(student, loss_fn, x, 2)
    assert np.array_equal(_bits(got), _bits(want))
    if which == "signed-zero":
        assert not np.signbit(got[got == 0]).any() and (got == 0).sum() == 2


def test_reference_rule_catches_in_place_update_of_a_shared_gradient():
    # add hands one array to both parents, and `a` then gets a second
    # contribution: an in-place += into it would change b's gradient too.
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = Tensor(np.array([3.0, 0.5]), requires_grad=True)
    a, b = x * 2.0, y * 3.0
    loss = ((a + b) + a).sum()
    _assert_leaf_gradients_match(loss, {"x": x, "y": y})
    assert np.array_equal(y.grad, [3.0, 3.0])


# -- kernels against reference formulas -----------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            -2.2250738585072014e-308, 1.0, -1.0])
_FLOATS = st.one_of(_SPECIAL, st.floats(-1e6, 1e6, allow_subnormal=True))


def _grad_of(op, data, probe):
    a = Tensor(data.copy(), requires_grad=True)
    out = op(a)
    (out * Tensor(probe)).sum().backward()
    return out.data, a.grad


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=_FLOATS),
       st.floats(0.01, 0.99), st.data())
def test_relu_and_leaky_relu_match_where_formulas(a, alpha, data):
    probe = data.draw(hnp.arrays(np.float64, a.shape, elements=_FLOATS))
    cases = [(ad.relu, np.where(a > 0, a, 0.0), np.where(a > 0, 1.0, 0.0)),
             (lambda t: ad.leaky_relu(t, alpha), a * np.where(a > 0, 1.0, alpha),
              np.where(a > 0, 1.0, alpha))]
    for op, want, slope in cases:
        with no_grad():
            plain = op(Tensor(a)).data
        graph, grad = _grad_of(op, a, probe)
        assert np.array_equal(_bits(plain), _bits(want))
        assert np.array_equal(_bits(graph), _bits(want))
        assert np.array_equal(_bits(grad), _bits(0.0 + probe * slope))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_matmul_t_matches_matmul_of_transpose(m, k, n, seed):
    rng = np.random.default_rng(seed)
    a_data, w_data = rng.standard_normal((m, k)), rng.standard_normal((n, k))
    probe = rng.standard_normal((m, n))
    results = []
    for build in (lambda a, w: ad.matmul_t(a, w), lambda a, w: ad.matmul(a, ad.transpose(w))):
        a, w = Tensor(a_data, requires_grad=True), Tensor(w_data, requires_grad=True)
        out = build(a, w)
        (out * Tensor(probe)).sum().backward()
        results.append([out.data, a.grad, w.grad])
    for got, want in zip(*results):
        assert np.array_equal(_bits(got), _bits(want))


def test_matmul_t_shape_mismatch():
    with pytest.raises(ValueError, match="matmul_t shape mismatch"):
        ad.matmul_t(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_reduction_backward_matches_broadcast_expressions(axis):
    # reduce_sum's backward fills one fresh array by broadcast assignment and
    # reduce_mean's divides into one; both must equal the broadcast-then-copy
    # and broadcast-then-divide expressions, signed zeros included
    rng = np.random.default_rng(21)
    a = Tensor(rng.standard_normal((64, 4)), requires_grad=True)
    g_shape = {None: (), 0: (4,), 1: (64,), -1: (64,)}[axis]
    count = {None: a.data.size, 0: 64, 1: 4, -1: 4}[axis]
    for g in (rng.standard_normal(g_shape), np.full(g_shape, -0.0)):
        if g.ndim:
            g[0] = -0.0
        g_full = g if axis is None else np.expand_dims(g, axis)
        got_sum = a.sum(axis=axis)._grads[0](g)
        got_mean = a.mean(axis=axis)._grads[0](g)
        assert got_sum.shape == got_mean.shape == a.shape
        assert np.array_equal(_bits(got_sum), _bits(np.broadcast_to(g_full, a.shape).copy()))
        assert np.array_equal(_bits(got_mean), _bits(np.broadcast_to(g_full, a.shape) / count))
        assert np.signbit(got_sum).any() and np.signbit(got_mean).any()


@pytest.mark.parametrize("axis", [None, 0, 1, -1])
def test_reduction_forward_matches_ndarray_methods(axis):
    # reduce_sum and reduce_mean call np.add.reduce directly; they must equal
    # ndarray.sum and ndarray.mean, also on a set of -0.0 entries
    rng = np.random.default_rng(22)
    for data in (rng.standard_normal((64, 4)), np.full((3, 5), -0.0)):
        with no_grad():
            got_sum = ad.reduce_sum(Tensor(data), axis).data
            got_mean = ad.reduce_mean(Tensor(data), axis).data
        assert np.array_equal(_bits(got_sum), _bits(data.sum(axis=axis)))
        assert np.array_equal(_bits(got_mean), _bits(data.mean(axis=axis)))

