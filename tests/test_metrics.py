import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from mekd import autodiff as ad
from mekd.data import Dataset, synth_blobs
from mekd.distill import kld_loss
from mekd.metrics import (
    FrechetStats,
    accuracy,
    cross_entropy,
    frechet_distance,
    matrix_sqrt_psd,
    record_logit_gradients,
)
from mekd.nets import NetworkSpec, build_network
from specs import generator_spec, student_spec


# -- accuracy ---------------------------------------------------------------


def _constant_classifier(num_classes, winner, n=4):
    net = build_network(NetworkSpec("classifier", n, (), num_classes), num_classes, seed=0)
    net.params["layers.0.weight"].data = np.zeros((n, num_classes))
    bias = np.zeros(num_classes)
    bias[winner] = 5.0
    net.params["layers.0.bias"].data = bias
    return net


def test_accuracy_constant_predictor():
    ds = Dataset(np.random.default_rng(0).uniform(size=(10, 4)),
                 np.full(10, 2), num_classes=3)
    assert accuracy(_constant_classifier(3, winner=2), ds) == 1.0
    assert accuracy(_constant_classifier(3, winner=0), ds) == 0.0


def test_accuracy_untrained_net_near_chance():
    # balanced labels carrying no information about the samples: any fixed
    # predictor lands near 1/C
    rng = np.random.default_rng(1)
    ds = Dataset(rng.uniform(size=(1200, 8)), np.repeat(np.arange(4), 300),
                 num_classes=4)
    net = build_network(student_spec(8, 4), 4, seed=2)
    assert abs(accuracy(net, ds) - 0.25) < 0.1


def test_accuracy_empty_dataset_rejected():
    ds = Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int), num_classes=2)
    net = build_network(student_spec(4, 2), 2, seed=0)
    with pytest.raises(ValueError):
        accuracy(net, ds)


def test_accuracy_class_count_mismatch():
    ds = synth_blobs(3, 4, per_class=5, spread=0.05, seed=0)
    net = build_network(student_spec(4, 2), 2, seed=0)
    with pytest.raises(ValueError):
        accuracy(net, ds)


def test_accuracy_role_checked():
    ds = synth_blobs(3, 4, per_class=5, spread=0.05, seed=0)
    gen = build_network(generator_spec(3, 4), 3, seed=0)
    with pytest.raises(ValueError):
        accuracy(gen, ds)


def test_accuracy_invariant_under_monotone_transform():
    # argmax of softmax == argmax of logits; scaling all logits by a positive
    # constant (a strictly monotone map) cannot change accuracy
    ds = synth_blobs(3, 6, per_class=40, spread=0.2, seed=3)
    net = build_network(student_spec(6, 3), 3, seed=4)
    base = accuracy(net, ds)
    scaled = build_network(student_spec(6, 3), 3, seed=4)
    state = scaled.state_dict()
    last = max(int(k.split(".")[1]) for k in state)
    state[f"layers.{last}.weight"] = state[f"layers.{last}.weight"] * 3.0
    state[f"layers.{last}.bias"] = state[f"layers.{last}.bias"] * 3.0
    scaled.load_state_dict(state)
    assert accuracy(scaled, ds) == base


def test_accuracy_counts_label_reads():
    ds = synth_blobs(3, 4, per_class=5, spread=0.05, seed=0)
    net = build_network(student_spec(4, 3), 3, seed=0)
    accuracy(net, ds)
    assert ds.label_reads == 1


# -- FrechetStats / matrix_sqrt_psd ------------------------------------------


def test_frechet_stats_unbiased_covariance():
    samples = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    stats = FrechetStats.from_samples(samples)
    assert np.allclose(stats.mean, [1.0, 1.0])
    # per-component variance with N-1 = 3 denominator: 4/3
    assert np.allclose(stats.cov, [[4.0 / 3.0, 0.0], [0.0, 4.0 / 3.0]], atol=1e-12)


def test_frechet_stats_validation():
    with pytest.raises(ValueError):
        FrechetStats.from_samples(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        FrechetStats.from_samples(np.array([[np.inf, 0.0], [0.0, 0.0]]))
    with pytest.warns(UserWarning, match="rank-deficient"):
        FrechetStats.from_samples(np.random.default_rng(0).uniform(size=(3, 5)))


def test_matrix_sqrt_identity():
    assert np.allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)


def test_matrix_sqrt_diagonal():
    assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])),
                       np.diag([2.0, 3.0]), atol=1e-12)


def test_matrix_sqrt_reconstructs_random_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((5, 5))
        m = a.T @ a
        s = matrix_sqrt_psd(m)
        assert np.linalg.norm(s @ s - m) < 1e-8 * max(1.0, np.linalg.norm(m))
        assert np.allclose(s, s.T, atol=1e-12)


def test_matrix_sqrt_rejects_asymmetry():
    with pytest.raises(ValueError):
        matrix_sqrt_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        matrix_sqrt_psd(np.zeros((2, 3)))


def test_matrix_sqrt_clamps_tiny_negative_eigenvalues():
    m = np.diag([1.0, -1e-12])
    s = matrix_sqrt_psd(m)
    assert np.allclose(s, np.diag([1.0, 0.0]), atol=1e-9)


def test_matrix_sqrt_matches_scipy_on_random_psd():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        m = a.T @ a + 0.1 * np.eye(4)
        want = scipy.linalg.sqrtm(m).real
        assert np.allclose(matrix_sqrt_psd(m), want, atol=1e-8)


# -- frechet_distance ---------------------------------------------------------


def test_frechet_identity_zero():
    samples = np.random.default_rng(7).uniform(size=(50, 3))
    assert frechet_distance(samples, samples) == pytest.approx(0.0, abs=1e-6)


def test_frechet_symmetric():
    rng = np.random.default_rng(8)
    a = rng.uniform(size=(40, 3))
    b = rng.uniform(size=(40, 3)) + 0.3
    assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-9)


def test_frechet_nonnegative_on_random_pairs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.standard_normal((30, 4))
        b = rng.standard_normal((30, 4)) * rng.uniform(0.5, 2.0)
        assert frechet_distance(a, b) >= 0.0


def test_frechet_matches_scipy_sqrtm_oracle():
    # independent implementation: trace term via scipy.linalg.sqrtm on C_A C_B
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, 40))
        a = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
        b = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
        got = frechet_distance(a, b)

        mat_a, mat_b = FrechetStats.from_samples(a), FrechetStats.from_samples(b)
        cross = scipy.linalg.sqrtm(mat_a.cov @ mat_b.cov)
        if np.iscomplexobj(cross):
            cross = cross.real
        diff = mat_a.mean - mat_b.mean
        want = float(diff @ diff + np.trace(mat_a.cov) + np.trace(mat_b.cov)
                     - 2.0 * np.trace(cross))
        assert got == pytest.approx(want, abs=1e-6)


def test_frechet_dimension_mismatch():
    with pytest.raises(ValueError):
        frechet_distance(np.zeros((10, 2)), np.zeros((10, 3)))


def test_frechet_separated_gaussians_closed_form():
    # N(0, I) vs N([1,0], I) in d=2 has distance ||mu||^2 = 1
    rng = np.random.default_rng(11)
    a = rng.standard_normal((100_000, 2))
    b = rng.standard_normal((100_000, 2)) + np.array([1.0, 0.0])
    assert abs(frechet_distance(a, b) - 1.0) < 0.05


def test_frechet_dimension_mismatch_raises_before_any_covariance():
    # a 3-row, 3-wide set would warn "rank-deficient" if its covariance were built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="different dimensions"):
            frechet_distance(np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="different dimensions"):
            frechet_distance(FrechetStats.from_samples(np.eye(4)[:, :2]), np.ones((3, 3)))


def test_matrix_sqrt_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                matrix_sqrt_psd(np.array([[bad, 0.0], [0.0, 1.0]]))


# -- Fréchet path against the expressions it replaced, bit for bit -----------


def _old_stats(samples):
    samples = np.asarray(samples, dtype=np.float64)
    n = len(samples)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    return mean, 0.5 * (cov + cov.T)


def _old_sqrt(m, sym_tol=1e-8):
    scale = max(1.0, float(np.max(np.abs(m))))
    assert np.max(np.abs(m - m.T)) <= sym_tol * scale
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.maximum(w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def _old_frechet(a, b):
    (mean_a, cov_a), (mean_b, cov_b) = _old_stats(a), _old_stats(b)
    diff = mean_a - mean_b
    s_a = _old_sqrt(cov_a)
    cross = _old_sqrt(s_a @ cov_b @ s_a)
    return max(float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross)),
               0.0)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.filterwarnings("ignore:only:UserWarning", "ignore:clamping:UserWarning")
@pytest.mark.parametrize("case", ["spd", "rank-deficient"])
def test_frechet_path_matches_the_old_expressions_bit_for_bit(case):
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 24))
        n = int(rng.integers(d + 2, 80)) if case == "spd" else int(rng.integers(2, d + 1))
        a = rng.standard_normal((n, d)) @ rng.standard_normal((d, d)) + rng.standard_normal(d)
        b = rng.uniform(-2.0, 3.0, size=(n, d))
        stats = FrechetStats.from_samples(a)
        mean, cov = _old_stats(a)
        assert np.array_equal(_bits(stats.mean), _bits(mean))
        assert np.array_equal(_bits(stats.cov), _bits(cov))
        assert np.array_equal(_bits(matrix_sqrt_psd(cov)), _bits(_old_sqrt(cov)))
        want = _old_frechet(a, b)
        assert _bits(frechet_distance(a, b)) == _bits(want)
        assert _bits(frechet_distance(stats, FrechetStats.from_samples(b))) == _bits(want)


def test_matrix_sqrt_clamp_matches_the_old_expression_bit_for_bit():
    rng = np.random.default_rng(24)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = (q * np.array([4.0, 2.0, 1.0, 0.5, 0.0, -1e-6])) @ q.T
    m = 0.5 * (m + m.T)
    with pytest.warns(UserWarning, match="clamping"):
        got = matrix_sqrt_psd(m)
    assert np.array_equal(_bits(got), _bits(_old_sqrt(m)))


def test_frechet_peak_memory_is_four_square_matrices():
    rng = np.random.default_rng(25)
    a, b = rng.uniform(size=(1000, 784)), rng.uniform(size=(1000, 784))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frechet_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 784 * 784 * 8  # the old path held 7.0 of them


# -- logit-gradient profiles ---------------------------------------------------


def _ce(logits, true_class):
    return cross_entropy(ad.softmax(logits), [true_class])


def test_ce_gradient_is_probs_minus_onehot():
    net = build_network(student_spec(6, 4), 4, seed=12)
    x = np.random.default_rng(13).uniform(size=6)
    for true_class in range(4):
        got = record_logit_gradients(net, lambda z: _ce(z, true_class),
                                     x, true_class)
        probs = net(x.reshape(1, -1)).data[0]
        onehot = np.eye(4)[true_class]
        want = probs - onehot
        reordered = np.concatenate(([want[true_class]],
                                    want[:true_class], want[true_class + 1:]))
        assert np.allclose(got, reordered, atol=1e-10)


def test_ce_gradient_matches_finite_differences():
    net = build_network(student_spec(5, 3), 3, seed=14)
    x = np.random.default_rng(15).uniform(size=5)
    true_class = 1
    got = record_logit_gradients(net, lambda z: _ce(z, true_class),
                                 x, true_class)
    # numeric gradient w.r.t. the logits themselves
    logits = net.logits(x.reshape(1, -1)).data[0].copy()
    h = 1e-6

    def ce(z):
        e = np.exp(z - z.max())
        p = e / e.sum()
        return -np.log(p[true_class])

    numeric = np.zeros(3)
    for j in range(3):
        up, down = logits.copy(), logits.copy()
        up[j] += h
        down[j] -= h
        numeric[j] = (ce(up) - ce(down)) / (2 * h)
    reordered = np.concatenate(([numeric[true_class]],
                                numeric[:true_class], numeric[true_class + 1:]))
    assert np.allclose(got, reordered, atol=1e-6)


def test_ce_gradient_near_zero_at_minimum():
    net = _constant_classifier(3, winner=1, n=4)
    for p in net.params.values():
        p.requires_grad = True
    net.params["layers.0.bias"].data = np.array([0.0, 50.0, 0.0])  # ~one-hot on class 1
    got = record_logit_gradients(net, lambda z: _ce(z, 1),
                                 np.zeros(4), 1)
    assert np.all(np.abs(got) < 1e-9)


def test_gradient_profile_is_permutation():
    net = build_network(student_spec(6, 5), 5, seed=16)
    x = np.random.default_rng(17).uniform(size=6)

    def kd_loss(z):
        return kld_loss(np.full((1, 5), 0.2), ad.softmax(z), 4.0)

    plain = record_logit_gradients(net, kd_loss, x, 0)
    shuffled = record_logit_gradients(net, kd_loss, x, 3)
    assert sorted(plain) == pytest.approx(sorted(shuffled))
    assert len(plain) == 5


def test_gradient_profile_class_range_checked():
    net = build_network(student_spec(4, 3), 3, seed=18)
    with pytest.raises(ValueError):
        record_logit_gradients(net, lambda z: _ce(z, 0), np.zeros(4), 3)


def test_gradient_profile_rejects_frozen_student():
    net = build_network(student_spec(4, 3), 3, seed=19).freeze()
    with pytest.raises(ValueError, match="frozen"):
        record_logit_gradients(net, lambda z: _ce(z, 0), np.zeros(4), 0)


def test_cross_entropy_floors_probabilities():
    probs = ad.constant(np.array([[0.25, 0.75], [1.0, 0.0]]))
    loss = cross_entropy(probs, [1, 1])
    assert loss.item() == pytest.approx((-np.log(0.75) - np.log(1e-12)) / 2)
