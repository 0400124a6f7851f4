import numpy as np
import pytest

from mekd import autodiff as ad
from mekd import gan
from mekd.autodiff import Tensor
from mekd.data import synth_blobs
from mekd.gan import (
    GanConfig,
    discriminator_loss,
    generator_loss,
    gradient_penalty,
    input_gradient,
    run_gan_epoch,
    sample_noise,
    takes_array_step,
    train_gan,
    wgan_discriminator_loss,
    wgan_generator_loss,
)
from mekd.nets import NetworkSpec, build_network
from specs import discriminator_spec, generator_spec
from mekd.optim import SGD, TrainingDiverged, multistep_lr


def _logit(p):
    return float(np.log(p / (1.0 - p)))


def _sigmoid_discriminator():
    """Single-input D with D(x) = sigmoid(x)."""
    net = build_network(NetworkSpec("discriminator", 1, (), 1), 2, seed=0)
    net.params["layers.0.weight"].data = np.array([[1.0]])
    net.params["layers.0.bias"].data = np.array([0.0])
    return net


def _constant_generator(target, output_range=(-60.0, 60.0), n_out=1):
    """Two-latent G emitting `target` in every component regardless of input."""
    lo, hi = output_range
    spec = NetworkSpec("generator", 2, (), n_out, output_range=output_range)
    net = build_network(spec, 2, seed=0)
    t = (target - lo) / (0.5 * (hi - lo)) - 1.0
    net.params["layers.0.weight"].data = np.zeros((2, n_out))
    net.params["layers.0.bias"].data = np.full(n_out, np.arctanh(t))
    return net


# -- noise priors -----------------------------------------------------------


def test_noise_prior_validation():
    with pytest.raises(ValueError):
        sample_noise("cauchy", 2, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_noise("gaussian", 2, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="prior"):
        GanConfig(prior="cauchy")


def test_sample_noise_shape_and_determinism():
    a = sample_noise("gaussian", 2, 4, np.random.default_rng(3))
    b = sample_noise("gaussian", 2, 4, np.random.default_rng(3))
    assert a.shape == (2, 4)
    assert np.array_equal(a, b)


def test_gaussian_noise_moments():
    draws = sample_noise("gaussian", 100_000, 4, np.random.default_rng(0))
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
    assert np.all(np.abs(draws.var(axis=0) - 1.0) < 0.05)


def test_uniform_noise_bounds():
    draws = sample_noise("uniform", 10_000, 3, np.random.default_rng(1))
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    assert np.all(np.abs(draws.mean(axis=0)) < 0.05)


def test_dirichlet_noise_on_simplex():
    draws = sample_noise("simplex-dirichlet", 1000, 5, np.random.default_rng(2))
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-12)


# -- vanilla losses ---------------------------------------------------------


def test_discriminator_loss_symmetric_half():
    # zeroed D outputs 0.5 everywhere -> loss = 2 ln 2
    D = _sigmoid_discriminator()
    D.params["layers.0.weight"].data = np.array([[0.0]])
    G = _constant_generator(0.0)
    loss = discriminator_loss(D, G, np.array([[3.0], [-1.0]]), np.zeros((2, 2)))
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), abs=1e-12)


def test_discriminator_loss_hand_value():
    # D(x)=0.8, D(G(z))=0.3 -> -(ln 0.8 + ln 0.7)
    D = _sigmoid_discriminator()
    G = _constant_generator(_logit(0.3))
    loss = discriminator_loss(D, G, np.array([[_logit(0.8)]]), np.zeros((1, 2)))
    assert loss.item() == pytest.approx(-(np.log(0.8) + np.log(0.7)), abs=1e-9)


def test_discriminator_loss_perfect_discriminator_near_zero():
    D = _sigmoid_discriminator()
    G = _constant_generator(-50.0)
    loss = discriminator_loss(D, G, np.array([[50.0]]), np.zeros((1, 2)))
    assert 0.0 <= loss.item() < 1e-5


def test_discriminator_loss_clamps_saturated_outputs():
    # sigmoid saturates to exactly 1.0 in float64; the clamp must keep log finite
    D = _sigmoid_discriminator()
    G = _constant_generator(50.0)  # D(G(z)) ~ 1 -> log(1 - .) would blow up unclamped
    loss = discriminator_loss(D, G, np.array([[50.0]]), np.zeros((1, 2)))
    assert np.isfinite(loss.item())


def test_discriminator_loss_batch_size_mismatch():
    D = _sigmoid_discriminator()
    G = _constant_generator(0.0)
    with pytest.raises(ValueError):
        discriminator_loss(D, G, np.zeros((2, 1)), np.zeros((3, 2)))


def test_discriminator_loss_matches_brute_force_on_random_nets():
    rng = np.random.default_rng(7)
    for _ in range(20):
        D = build_network(discriminator_spec(6), 3, seed=int(rng.integers(1e6)))
        G = build_network(generator_spec(3, 6), 3, seed=int(rng.integers(1e6)))
        x = rng.uniform(size=(8, 6))
        z = rng.standard_normal((8, 3))
        got = discriminator_loss(D, G, x, z).item()
        d_real = np.clip(D(x).data, 1e-7, 1 - 1e-7)
        d_fake = np.clip(D(G(z).data).data, 1e-7, 1 - 1e-7)
        want = -(np.log(d_real).mean() + np.log(1.0 - d_fake).mean())
        assert got == pytest.approx(want, abs=1e-12)


def test_generator_loss_modes_hand_values():
    D = _sigmoid_discriminator()
    half = _constant_generator(0.0)  # D(G(z)) = 0.5
    loss = generator_loss(D, half, np.zeros((1, 2)), "minimize-log1m")
    assert loss.item() == pytest.approx(np.log(0.5), abs=1e-12)

    quarter = _constant_generator(_logit(0.25))
    loss = generator_loss(D, quarter, np.zeros((1, 2)), "non-saturating")
    assert loss.item() == pytest.approx(-np.log(0.25), abs=1e-9)


def test_generator_loss_limit_is_log_eps():
    D = _sigmoid_discriminator()
    G = _constant_generator(50.0)  # D(G(z)) ~ 1 -> clamped to 1 - 1e-7
    loss = generator_loss(D, G, np.zeros((1, 2)), "minimize-log1m")
    assert loss.item() == pytest.approx(np.log(1e-7), abs=1e-3)


def test_generator_loss_rejects_unknown_mode():
    D = _sigmoid_discriminator()
    G = _constant_generator(0.0)
    with pytest.raises(ValueError):
        generator_loss(D, G, np.zeros((1, 2)), "hinge")


def test_generator_loss_reaches_generator_parameters():
    D = build_network(discriminator_spec(6), 3, seed=1)
    G = build_network(generator_spec(3, 6), 3, seed=2)
    loss = generator_loss(D, G, np.random.default_rng(0).standard_normal((4, 3)),
                          "non-saturating")
    loss.backward()
    assert all(p.grad is not None for p in G.params.values())


def test_discriminator_loss_does_not_train_generator():
    D = build_network(discriminator_spec(6), 3, seed=1)
    G = build_network(generator_spec(3, 6), 3, seed=2)
    loss = discriminator_loss(D, G, np.random.default_rng(1).uniform(size=(4, 6)),
                              np.random.default_rng(2).standard_normal((4, 3)))
    loss.backward()
    assert all(p.grad is None for p in G.params.values())
    assert all(p.grad is not None for p in D.params.values())


# -- critic input gradients and gradient penalty ----------------------------


@pytest.mark.parametrize("activation", ["relu", "leaky_relu", "tanh", "sigmoid"])
def test_unrolled_input_gradient_matches_backward(activation):
    spec = NetworkSpec("discriminator", 5, (8, 6), 1, activation=activation)
    D = build_network(spec, 2, seed=11)
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, size=(7, 5)), requires_grad=True)
    grad = input_gradient(D, x)
    score = D.logits(x)
    score.sum().backward()
    assert np.allclose(grad.data, x.grad, atol=1e-12)
    assert score.data.shape == (7, 1)


def test_gradient_penalty_stops_before_the_critic_head(monkeypatch):
    # the penalty needs only the input gradient, so the interpolate pass
    # computes one affine node per hidden layer and none for the head
    D = build_network(NetworkSpec("discriminator", 5, (8, 6), 1), 2, seed=2)
    calls = []
    linear = ad.linear

    def counting(x, w, b):
        calls.append(w.shape)
        return linear(x, w, b)

    monkeypatch.setattr(ad, "linear", counting)
    rng = np.random.default_rng(1)
    gradient_penalty(D, rng.uniform(size=(3, 5)), rng.uniform(size=(3, 5)), rng)
    assert calls == [(5, 8), (8, 6)]


def test_gradient_penalty_unit_linear_critic_is_zero():
    D = build_network(NetworkSpec("discriminator", 4, (), 1), 2, seed=0)
    w = np.array([[0.5], [0.5], [0.5], [0.5]])  # L2 norm exactly 1
    D.params["layers.0.weight"].data = w
    gp = gradient_penalty(D, np.zeros((3, 4)), np.ones((3, 4)), np.random.default_rng(0))
    assert gp.item() == pytest.approx(0.0, abs=1e-12)


def test_gradient_penalty_constant_critic_is_one():
    D = build_network(NetworkSpec("discriminator", 4, (), 1), 2, seed=0)
    D.params["layers.0.weight"].data = np.zeros((4, 1))
    gp = gradient_penalty(D, np.zeros((3, 4)), np.ones((3, 4)), np.random.default_rng(0))
    assert gp.item() == pytest.approx(1.0, abs=1e-12)


def test_gradient_penalty_matches_finite_difference_norms():
    D = build_network(discriminator_spec(6), 2, seed=3)
    rng = np.random.default_rng(5)
    x_real = rng.uniform(size=(5, 6))
    x_fake = rng.uniform(size=(5, 6))
    got = gradient_penalty(D, x_real, x_fake, np.random.default_rng(9)).item()

    # replay the same interpolation points, then estimate each input gradient
    # by central differences on the critic score
    t = np.random.default_rng(9).uniform(size=(5, 1))
    xhat = t * x_real + (1.0 - t) * x_fake
    h = 1e-6
    penalties = []
    for row in xhat:
        g = np.zeros_like(row)
        for j in range(len(row)):
            plus, minus = row.copy(), row.copy()
            plus[j] += h
            minus[j] -= h
            s_plus = D.logits(plus.reshape(1, -1)).item()
            s_minus = D.logits(minus.reshape(1, -1)).item()
            g[j] = (s_plus - s_minus) / (2 * h)
        penalties.append((np.linalg.norm(g) - 1.0) ** 2)
    assert got == pytest.approx(float(np.mean(penalties)), abs=1e-3)


def test_gradient_penalty_parameter_gradients_match_finite_difference():
    # the unrolled graph must be differentiable w.r.t. critic parameters
    D = build_network(discriminator_spec(4), 2, seed=6)
    rng = np.random.default_rng(8)
    x_real = rng.uniform(size=(4, 4))
    x_fake = rng.uniform(size=(4, 4))

    gp = gradient_penalty(D, x_real, x_fake, np.random.default_rng(2))
    gp.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in D.params.items()}

    h = 1e-6
    for name, p in D.params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = gradient_penalty(D, x_real, x_fake, np.random.default_rng(2)).item()
            flat[j] = orig - h
            down = gradient_penalty(D, x_real, x_fake, np.random.default_rng(2)).item()
            flat[j] = orig
            numeric[j] = (up - down) / (2 * h)
        scale = max(1.0, np.abs(numeric).max())
        assert np.allclose(analytic[name].reshape(-1), numeric, atol=1e-5 * scale), name


def test_wgan_losses_match_direct_forward():
    D = build_network(discriminator_spec(6), 3, seed=4)
    G = build_network(generator_spec(3, 6), 3, seed=5)
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(5, 6))
    z = rng.standard_normal((5, 3))

    loss, gp = wgan_discriminator_loss(D, G, x, z, gp_lambda=10.0,
                                       rng=np.random.default_rng(1))
    fake = G(z).data
    want_core = D.logits(fake).data.mean() - D.logits(x).data.mean()
    want_gp = gradient_penalty(D, x, fake, np.random.default_rng(1)).item()
    assert gp.item() == pytest.approx(want_gp, abs=1e-12)
    assert loss.item() == pytest.approx(want_core + 10.0 * want_gp, abs=1e-12)

    g_loss = wgan_generator_loss(D, G, z)
    assert g_loss.item() == pytest.approx(-D.logits(fake).data.mean(), abs=1e-12)


# -- training loop ----------------------------------------------------------


def _tiny_setup(variant="vanilla", epochs=2, **overrides):
    ds = synth_blobs(2, 4, per_class=8, spread=0.05, seed=0)
    G = build_network(generator_spec(2, 4), 2, seed=1)
    D = build_network(discriminator_spec(4), 2, seed=2)
    kwargs = {"m": 8, "epochs": epochs, "variant": variant,
              "lr_G": 0.05, "lr_D": 0.05}
    kwargs.update(overrides)
    return ds, G, D, GanConfig(**kwargs)


def test_train_gan_zero_epochs_is_noop():
    ds, G, D, cfg = _tiny_setup(epochs=0)
    before = G.state_dict()
    trained, log = train_gan(G, D, ds, cfg, seed=0)
    assert log == []
    after = trained.state_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)
    assert not any(p.requires_grad for p in trained.params.values())


def test_train_gan_deterministic():
    results = []
    for _ in range(2):
        ds, G, D, cfg = _tiny_setup(epochs=2)
        trained, log = train_gan(G, D, ds, cfg, seed=3)
        results.append((trained.state_dict(), log))
    state_a, log_a = results[0]
    state_b, log_b = results[1]
    assert all(np.array_equal(state_a[k], state_b[k]) for k in state_a)
    assert log_a == log_b


def test_train_gan_seed_changes_outcome():
    ds, G, D, cfg = _tiny_setup(epochs=1)
    a, _ = train_gan(G, D, ds, cfg, seed=0)
    ds2, G2, D2, cfg2 = _tiny_setup(epochs=1)
    b, _ = train_gan(G2, D2, ds2, cfg2, seed=1)
    assert any(not np.array_equal(a.state_dict()[k], b.state_dict()[k])
               for k in a.state_dict())


def test_train_gan_reads_the_config_prior():
    # the noise prior is GanConfig.prior and nothing else
    trained = []
    for prior in ("gaussian", "uniform"):
        ds, G, D, cfg = _tiny_setup(variant="wgan-gp", epochs=2, prior=prior)
        trained.append(train_gan(G, D, ds, cfg, seed=0)[0].state_dict())
    a, b = trained
    assert any(not np.array_equal(a[k], b[k]) for k in a)


def test_train_gan_latent_dimension_contract():
    ds = synth_blobs(2, 4, per_class=4, spread=0.05, seed=0)
    G = build_network(generator_spec(3, 4), 3, seed=1)  # latent 3 vs C=2
    D = build_network(discriminator_spec(4), 2, seed=2)
    with pytest.raises(ValueError, match="latent"):
        train_gan(G, D, ds, GanConfig(m=4, epochs=1), seed=0)


def test_train_gan_output_width_contract():
    ds = synth_blobs(2, 4, per_class=4, spread=0.05, seed=0)
    G = build_network(generator_spec(2, 9), 2, seed=1)
    D = build_network(discriminator_spec(4), 2, seed=2)
    with pytest.raises(ValueError, match="output width"):
        train_gan(G, D, ds, GanConfig(m=4, epochs=1), seed=0)


def test_train_gan_discriminator_width_contract():
    ds = synth_blobs(2, 4, per_class=4, spread=0.05, seed=0)
    G = build_network(generator_spec(2, 4), 2, seed=1)
    D = build_network(discriminator_spec(9), 2, seed=2)
    with pytest.raises(ValueError, match="discriminator input width"):
        train_gan(G, D, ds, GanConfig(m=4, epochs=1), seed=0)


@pytest.mark.parametrize("variant, g_act, d_act, want", [
    ("wgan-gp", "relu", "leaky_relu", True),
    ("wgan-gp", "leaky_relu", "relu", True),
    ("wgan-gp", "relu", "tanh", False),
    ("wgan-gp", "sigmoid", "leaky_relu", True),  # the generator's activation is not read
    ("vanilla", "relu", "leaky_relu", False),
])
def test_array_step_selection(variant, g_act, d_act, want):
    # g_act names the generator each case pairs with; the rule does not read it
    D = build_network(NetworkSpec("discriminator", 3, (4,), 1, activation=d_act), 2, seed=0)
    assert takes_array_step(GanConfig(variant=variant), D) is want


def test_train_gan_smooth_critic_runs_the_tape_step(monkeypatch):
    ds, G, _, cfg = _tiny_setup(variant="wgan-gp", epochs=1)
    D = build_network(NetworkSpec("discriminator", 4, (8,), 1, activation="tanh"), 2, seed=2)
    assert not takes_array_step(cfg, D)

    def no_array_step(*args):
        raise AssertionError("array step taken")
    monkeypatch.setattr(gan, "wgan_critic_step", no_array_step)
    monkeypatch.setattr(gan, "wgan_generator_step", no_array_step)
    before = D.state_dict()
    _, log = train_gan(G, D, ds, cfg, seed=0)
    assert len(log) == 2
    assert all(np.isfinite([row["L_D"], row["L_G"]]).all() and row["gp"] > 0 for row in log)
    assert any(not np.array_equal(before[k], p.data) for k, p in D.params.items())


def test_train_gan_smooth_generator_runs_the_array_step(monkeypatch):
    ds, _, D, cfg = _tiny_setup(variant="wgan-gp", epochs=1)
    G = build_network(NetworkSpec("generator", 2, (8,), 4, activation="sigmoid"), 2, seed=1)
    assert takes_array_step(cfg, D)

    def no_tape_loss(*args):
        raise AssertionError("tape step taken")
    monkeypatch.setattr(gan, "wgan_discriminator_loss", no_tape_loss)
    monkeypatch.setattr(gan, "wgan_generator_loss", no_tape_loss)
    before = G.state_dict()
    _, log = train_gan(G, D, ds, cfg, seed=0)
    assert len(log) == 2
    assert all(np.isfinite([row["L_D"], row["L_G"]]).all() and row["gp"] > 0 for row in log)
    assert any(not np.array_equal(before[k], p.data) for k, p in G.params.items())


def test_train_gan_role_contract():
    ds, G, D, cfg = _tiny_setup()
    with pytest.raises(ValueError):
        train_gan(D, D, ds, cfg, seed=0)


def test_train_gan_freeze_contract():
    ds, G, D, cfg = _tiny_setup(epochs=1)
    trained, _ = train_gan(G, D, ds, cfg, seed=0)
    z = Tensor(np.random.default_rng(0).standard_normal((3, 2)), requires_grad=True)
    trained(z).sum().backward()
    assert z.grad is not None
    assert all(p.grad is None for p in trained.params.values())


def test_train_gan_log_rows_schema_and_gp():
    ds, G, D, cfg = _tiny_setup(variant="wgan-gp", epochs=1, lr_G=0.01, lr_D=0.01)
    _, log = train_gan(G, D, ds, cfg, seed=0)
    assert len(log) == 2  # 16 samples / batch 8 -> 2 outer iterations with k=1
    for i, row in enumerate(log):
        assert row["epoch"] == 0 and row["step"] == i
        assert np.isfinite(row["L_D"]) and np.isfinite(row["L_G"])
        assert row["gp"] >= 0.0


def test_train_gan_vanilla_logs_zero_gp():
    ds, G, D, cfg = _tiny_setup(variant="vanilla", epochs=1)
    _, log = train_gan(G, D, ds, cfg, seed=0)
    assert all(row["gp"] == 0.0 for row in log)


def test_train_gan_k_groups_batches():
    ds, G, D, _ = _tiny_setup()
    cfg = GanConfig(m=4, k=2, epochs=1, lr_G=0.05, lr_D=0.05)
    _, log = train_gan(G, D, ds, cfg, seed=0)
    # 16 samples / batch 4 -> 4 batches -> 2 groups of k=2
    assert len(log) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_gan_divergence_reports_epoch(monkeypatch):
    ds, G, D, _ = _tiny_setup()
    cfg = GanConfig(m=8, epochs=50, variant="wgan-gp", lr_G=1e12, lr_D=1e12,
                    momentum=0.0, clip_norm=0.0)
    with pytest.raises(TrainingDiverged, match="epoch"):
        train_gan(G, D, ds, cfg, seed=0)
    # the array step diverges where the tape step does, naming the same op
    assert takes_array_step(cfg, D)
    messages = []
    for array_step in (True, False):
        ds, G, D, _ = _tiny_setup()
        monkeypatch.setattr(gan, "takes_array_step", lambda *args, take=array_step: take)
        with pytest.raises(TrainingDiverged) as info:
            train_gan(G, D, ds, cfg, seed=0)
        messages.append((info.value.__cause__.op, str(info.value)))
    assert messages[0] == messages[1]


def test_logged_losses_recomputable_from_initial_checkpoint():
    # replaying epoch 0 from the saved initial parameters with fresh optimizers
    # reproduces the logged loss values exactly
    ds, G, D, cfg = _tiny_setup(epochs=1)
    g_init, d_init = G.state_dict(), D.state_dict()
    _, log = train_gan(G, D, ds, cfg, seed=5)

    G2 = build_network(generator_spec(2, 4), 2, seed=99)
    D2 = build_network(discriminator_spec(4), 2, seed=99)
    G2.load_state_dict(g_init)
    D2.load_state_dict(d_init)
    opt_G = SGD(G2.params, multistep_lr(0, cfg.lr_G, cfg.milestones, cfg.gamma),
                momentum=cfg.momentum, clip_norm=cfg.clip_norm)
    opt_D = SGD(D2.params, multistep_lr(0, cfg.lr_D, cfg.milestones, cfg.gamma),
                momentum=cfg.momentum, clip_norm=cfg.clip_norm)
    replayed = run_gan_epoch(G2, D2, ds, cfg, seed=5, epoch=0,
                             opt_G=opt_G, opt_D=opt_D)
    assert len(replayed) == len(log)
    for got, want in zip(replayed, log):
        assert got["L_D"] == pytest.approx(want["L_D"], abs=1e-10)
        assert got["L_G"] == pytest.approx(want["L_G"], abs=1e-10)
