import dataclasses
import importlib

import numpy as np
import pytest

from mekd import checkpoint
from mekd.data import batches, spawn, synth_blobs
from mekd.autodiff import Tensor
from mekd.distill import (
    BlindTeacher,
    DistillConfig,
    TeacherAnswerError,
    distill,
    generation_distance,
    kl_teacher_terms,
    kld_loss,
    student_loss,
)
from mekd.nets import Network, NetworkSpec, build_network
from mekd.optim import TrainingDiverged
from specs import generator_spec, student_spec, teacher_spec

distill_module = importlib.import_module("mekd.distill")  # the package exports distill()


def _softmax_np(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _function_teacher(n=4, num_classes=3, cache=True, seed=0):
    """A teacher that is a bare function: no network object anywhere."""
    w = np.random.default_rng(seed).standard_normal((n, num_classes)) * 4.0

    def classify_fn(x):
        return _softmax_np(np.asarray(x) @ w)

    return BlindTeacher(classify_fn, num_classes, cache=cache)


def _frozen_generator(num_classes=3, n=4, seed=1):
    return build_network(generator_spec(num_classes, n), num_classes, seed=seed).freeze()


# -- BlindTeacher -----------------------------------------------------------


def test_blind_teacher_counts_rows():
    t = _function_teacher(cache=False)
    x = np.random.default_rng(0).uniform(size=(5, 4))
    t.classify(x)
    assert t.query_count == 5
    t.classify(x)
    assert t.query_count == 10  # no cache: every row answered again


def test_blind_teacher_cache_answers_repeats():
    t = _function_teacher(cache=True)
    x = np.random.default_rng(0).uniform(size=(5, 4))
    first = t.classify(x)
    again = t.classify(x)
    assert t.query_count == 5
    assert t.cache_hits == 5
    assert np.array_equal(first, again)


def test_blind_teacher_cache_asks_a_row_repeated_in_one_call_once():
    asked = []
    w = np.random.default_rng(3).standard_normal((4, 3))

    def classify_fn(x):
        asked.append(np.array(x))
        return _softmax_np(x @ w)

    t = BlindTeacher(classify_fn, 3, cache=True)
    x, y = np.random.default_rng(4).uniform(size=(2, 2, 4))
    out = t.classify(np.vstack([x, y, x, x]))
    assert t.query_count == 4 and t.cache_hits == 4
    assert len(asked) == 1 and np.array_equal(asked[0], np.vstack([x, y]))
    assert np.array_equal(out, _softmax_np(np.vstack([x, y, x, x]) @ w))


def test_blind_teacher_cache_transparent():
    x = np.random.default_rng(1).uniform(size=(7, 4))
    cached = _function_teacher(cache=True).classify(x)
    raw = _function_teacher(cache=False).classify(x)
    assert np.array_equal(cached, raw)


def test_blind_teacher_rejects_input_that_is_not_2d():
    row = np.random.default_rng(2).uniform(size=4)
    for cache in (True, False):
        t = _function_teacher(cache=cache)
        for x in (row, row.reshape(1, 1, 4), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="2-d"):
                t.classify(x)
        assert t.query_count == 0 and t.cache_hits == 0


@pytest.mark.parametrize("cache", [True, False])
def test_blind_teacher_answers_do_not_alias_each_other(cache):
    t = _function_teacher(cache=cache)
    x = np.random.default_rng(5).uniform(size=(3, 4))
    expected = t.classify(x).copy()
    for _ in range(2):
        out = t.classify(x)
        assert np.array_equal(out, expected)
        out[...] = -1.0


@pytest.mark.parametrize("cache", [True, False])
def test_blind_teacher_empty_batch_asks_nothing(cache):
    asked = []

    def classify_fn(x):
        asked.append(x)
        return np.full((len(x), 3), 1.0 / 3.0)

    t = BlindTeacher(classify_fn, 3, cache=cache)
    out = t.classify(np.zeros((0, 4)))
    assert out.shape == (0, 3)
    assert asked == [] and t.query_count == 0 and t.cache_hits == 0


@pytest.mark.parametrize("cache", [True, False])
def test_blind_teacher_float32_rows_hit_their_float64_copies(cache):
    x = np.random.default_rng(6).uniform(size=(5, 4)).astype(np.float32)
    t = _function_teacher(cache=cache)
    wide = t.classify(x.astype(np.float64))
    assert np.array_equal(t.classify(x), wide)
    assert (t.query_count, t.cache_hits) == ((5, 5) if cache else (10, 0))


@pytest.mark.parametrize("cache", [True, False])
def test_blind_teacher_keys_rows_by_exact_bytes(cache):
    # -0.0 == 0.0, but the rows' bytes differ: two queries, not one.
    t = _function_teacher(cache=cache)
    t.classify(np.array([[0.0, 0.5, 0.5, 0.5], [-0.0, 0.5, 0.5, 0.5]]))
    assert (t.query_count, t.cache_hits) == (2, 0)


def test_blind_teacher_cache_answers_stay_right_as_the_table_grows():
    answered = {}  # row bytes -> the answer row it got when first asked
    w = np.random.default_rng(8).standard_normal((4, 3))

    def classify_fn(x):
        out = _softmax_np(x @ w)
        answered.update(zip((row.tobytes() for row in x), out))
        return out

    x = np.random.default_rng(7).uniform(size=(40, 4))
    t = BlindTeacher(classify_fn, 3, cache=True)
    for stop in (1, 2, 3, 7, 8, 20, 40):
        t.classify(x[:stop])
    assert t.query_count == 40
    expected = np.array([answered[row.tobytes()] for row in x[::-1]])
    assert np.array_equal(t.classify(x[::-1]), expected)


MALFORMED_ANSWERS = {
    "missing_row": lambda x: np.full((len(x) - 1, 3), 1.0 / 3.0),
    "wrong_width": lambda x: np.full((len(x), 2), 0.5),
    "flat_vector": lambda x: np.full(3 * len(x), 1.0 / 3.0),
    "nan": lambda x: np.tile([np.nan, 0.5, 0.5], (len(x), 1)),
    "inf": lambda x: np.tile([np.inf, 0.0, 0.0], (len(x), 1)),
    "negative": lambda x: np.tile([1.5, -0.5, 0.0], (len(x), 1)),
    "row_sum_off": lambda x: np.tile([0.5, 0.5, 1e-5], (len(x), 1)),
}


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("kind", sorted(MALFORMED_ANSWERS))
def test_blind_teacher_rejects_malformed_answer(kind, cache):
    answers = [MALFORMED_ANSWERS[kind], lambda x: np.full((len(x), 3), 1.0 / 3.0)]
    t = BlindTeacher(lambda x: answers[0](x), 3, cache=cache)
    x = np.random.default_rng(0).uniform(size=(4, 2))
    with pytest.raises(TeacherAnswerError):
        t.classify(x)
    answers.pop(0)
    assert np.array_equal(t.classify(x), np.full((4, 3), 1.0 / 3.0))
    assert t.cache_hits == 0  # no row of the rejected answer was cached
    assert t.query_count == 8


def test_blind_teacher_accepts_row_sums_within_tolerance():
    t = BlindTeacher(lambda x: np.tile([0.5, 0.5, 5e-7], (len(x), 1)), 3)
    assert t.classify(np.zeros((2, 2))).shape == (2, 3)


def test_blind_teacher_exposes_no_network_internals():
    net = build_network(teacher_spec(4, 3), 3, seed=0)
    t = BlindTeacher.from_network(net)
    exposed = [v for v in vars(t).values() if v is net]
    assert exposed == []
    assert not hasattr(t, "params") and not hasattr(t, "layers")


def test_blind_teacher_from_network_requires_classifier():
    gen = build_network(generator_spec(3, 4), 3, seed=0)
    with pytest.raises(ValueError):
        BlindTeacher.from_network(gen)


def test_blind_teacher_rejects_degenerate_class_count():
    with pytest.raises(ValueError):
        BlindTeacher(lambda x: x, num_classes=1)


# -- kld_loss ---------------------------------------------------------------


def test_kld_identity_is_zero():
    p = np.array([[0.2, 0.3, 0.5]])
    assert kld_loss(kl_teacher_terms(p, 1.0), Tensor(p), 1.0).item() == 0.0
    assert kld_loss(kl_teacher_terms(p, 4.0), Tensor(p), 4.0).item() == pytest.approx(
        0.0, abs=1e-15)


def test_kld_near_deterministic_teacher_vs_uniform():
    eps = 1e-9
    p_t = np.array([[1.0 - eps, eps]])
    p_s = np.array([[0.5, 0.5]])
    got = kld_loss(kl_teacher_terms(p_t, 1.0), Tensor(p_s), 1.0).item()
    assert got == pytest.approx(np.log(2.0), abs=1e-6)


def test_kld_matches_brute_force_summation():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p_t = rng.dirichlet(np.ones(5), size=4)
        p_s = rng.dirichlet(np.ones(5), size=4)
        got = kld_loss(kl_teacher_terms(p_t, 1.0), Tensor(p_s), 1.0).item()
        want = 0.0
        for r in range(4):
            for c in range(5):
                pt = min(max(p_t[r, c], 1e-12), 1.0)
                ps = min(max(p_s[r, c], 1e-12), 1.0)
                want += pt * (np.log(pt) - np.log(ps))
        want /= 4
        assert got == pytest.approx(want, abs=1e-12)


def test_kld_temperature_matches_resoftened_oracle():
    rng = np.random.default_rng(4)
    p_t = rng.dirichlet(np.ones(4), size=6)
    p_s = rng.dirichlet(np.ones(4), size=6)
    tau = 4.0

    def resoften(p):
        return _softmax_np(np.log(np.clip(p, 1e-12, 1.0)) / tau)

    q_t, q_s = resoften(p_t), resoften(p_s)
    want = (q_t * (np.log(q_t) - np.log(q_s))).sum(axis=1).mean()
    assert kld_loss(kl_teacher_terms(p_t, tau), Tensor(p_s), tau).item() == pytest.approx(
        want, abs=1e-12)


def test_kld_resoftening_equals_softmax_of_scaled_logits():
    # softmax(log softmax(z) / tau) == softmax(z / tau): probabilities alone
    # are enough to soften, no logits access required
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 4)) * 3
    tau = 4.0
    from_probs = _softmax_np(np.log(_softmax_np(z)) / tau)
    from_logits = _softmax_np(z / tau)
    assert np.allclose(from_probs, from_logits, atol=1e-12)


def test_kld_nonnegative_and_shape_checked():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p_t = rng.dirichlet(np.ones(3), size=2)
        p_s = rng.dirichlet(np.ones(3), size=2)
        assert kld_loss(kl_teacher_terms(p_t, 1.0), Tensor(p_s), 1.0).item() >= 0.0
    with pytest.raises(ValueError):
        kld_loss(kl_teacher_terms(np.ones((1, 3)) / 3, 1.0), Tensor(np.ones((1, 4)) / 4), 1.0)
    p = np.array([0.2, 0.3, 0.5])
    for rows in (p, p[None, None]):
        with pytest.raises(ValueError, match="2-d"):
            kld_loss(kl_teacher_terms(rows, 1.0), Tensor(rows), 1.0)


def test_kld_clamps_zero_components():
    p_t = np.array([[1.0, 0.0]])
    p_s = np.array([[0.0, 1.0]])
    out = kld_loss(kl_teacher_terms(p_t, 1.0), Tensor(p_s), 1.0).item()
    assert np.isfinite(out)
    assert out == pytest.approx(np.log(1e12), rel=1e-6)


# -- generation_distance ----------------------------------------------------


def test_distance_zero_for_identical_inputs():
    G = _frozen_generator()
    y = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
    assert generation_distance(G, y, G(y).data, 1).item() == 0.0
    assert generation_distance(G, y, G(y).data, 2).item() == 0.0


def test_distance_symmetric():
    G = _frozen_generator()
    rng = np.random.default_rng(7)
    a = rng.dirichlet(np.ones(3), size=5)
    b = rng.dirichlet(np.ones(3), size=5)
    for p in (1, 2):
        assert generation_distance(G, a, G(b).data, p).item() == pytest.approx(
            generation_distance(G, b, G(a).data, p).item(), abs=1e-15)


def test_distance_matches_elementwise_oracle():
    G = _frozen_generator(num_classes=4, n=9, seed=8)
    rng = np.random.default_rng(9)
    y_s = rng.dirichlet(np.ones(4), size=6)
    y_t = rng.dirichlet(np.ones(4), size=6)
    img_s = G(y_s).data
    img_t = G(y_t).data
    want_l1 = np.abs(img_s - img_t).mean(axis=1).mean()
    want_l2 = np.sqrt(((img_s - img_t) ** 2).mean(axis=1)).mean()
    assert generation_distance(G, y_s, img_t, 1).item() == pytest.approx(want_l1, abs=1e-10)
    assert generation_distance(G, y_s, img_t, 2).item() == pytest.approx(want_l2, abs=1e-10)


def test_distance_gradient_only_reaches_first_argument():
    G = _frozen_generator()
    rng = np.random.default_rng(10)
    y_s = Tensor(rng.dirichlet(np.ones(3), size=4), requires_grad=True)
    y_t = Tensor(rng.dirichlet(np.ones(3), size=4), requires_grad=True)
    generation_distance(G, y_s, G(y_t).data, 1).backward()
    assert y_s.grad is not None
    assert y_t.grad is None
    assert all(p.grad is None for p in G.params.values())



def test_losses_take_the_teacher_half_as_arrays_only():
    # a tensor teacher half would let the loss's gradient reach the teacher
    G = _frozen_generator()
    rng = np.random.default_rng(12)
    y_s = Tensor(rng.dirichlet(np.ones(3), size=4), requires_grad=True)
    y_t = Tensor(rng.dirichlet(np.ones(3), size=4), requires_grad=True)
    with pytest.raises(TypeError):
        generation_distance(G, y_s, G(y_t), 1)
    with pytest.raises(TypeError):
        kld_loss((y_t, np.log(y_t.data)), y_s, 1.0)

def test_distance_validates_inputs():
    G = _frozen_generator()
    y = np.ones((2, 3)) / 3
    with pytest.raises(ValueError):
        generation_distance(G, y, G(np.ones((3, 3)) / 3).data, 1)
    with pytest.raises(ValueError):
        generation_distance(G, y, G(y).data, 3)
    with pytest.raises(ValueError, match="2-d"):
        generation_distance(G, y, G(y).data[0], 1)


def test_distance_accepts_callable_generator():
    y = np.array([[0.5, 0.5]])
    z = np.array([[0.25, 0.75]])
    dist = generation_distance(lambda t: t * 2.0, Tensor(y), z * 2.0, 1)
    assert dist.item() == pytest.approx(0.5, abs=1e-15)  # mean |2y - 2z|


# -- student_loss -----------------------------------------------------------


def _loss_setup(seed=0, n=4, num_classes=3):
    teacher = _function_teacher(n, num_classes, seed=seed)
    student = build_network(student_spec(n, num_classes), num_classes, seed=seed + 1)
    G = _frozen_generator(num_classes, n, seed=seed + 2)
    x = np.random.default_rng(seed + 3).uniform(size=(6, n))
    return teacher, student, G, x


def test_student_loss_decomposes():
    teacher, student, G, x = _loss_setup()
    for p_norm, alpha, beta, tau in [(1, 1.0, 1.0, 1.0), (2, 0.7, 0.3, 4.0)]:
        cfg = DistillConfig(p_norm=p_norm, alpha=alpha, beta=beta, tau=tau)
        total, parts = student_loss(student, teacher, G, x, cfg)
        p_t = teacher.classify(x)
        p_s = student(x).data
        term1 = generation_distance(G, p_s, G(p_t).data, p_norm).item()
        term2 = kld_loss(kl_teacher_terms(p_t, tau), Tensor(p_s), tau).item()
        assert parts["distance"] == pytest.approx(term1, abs=1e-10)
        assert parts["kld"] == pytest.approx(term2, abs=1e-10)
        assert total.item() == pytest.approx(alpha * term1 + beta * term2, abs=1e-10)


def test_student_loss_zero_when_student_equals_teacher():
    num_classes, n = 3, 4
    net = build_network(student_spec(n, num_classes), num_classes, seed=5)
    twin = build_network(student_spec(n, num_classes), num_classes, seed=5)
    teacher = BlindTeacher.from_network(twin)
    G = _frozen_generator(num_classes, n)
    x = np.random.default_rng(11).uniform(size=(5, n))
    for p_norm in (1, 2):
        for gen_input in ("probs", "logits"):
            cfg = DistillConfig(p_norm=p_norm, gen_input=gen_input)
            total, parts = student_loss(net, teacher, G, x, cfg)
            assert abs(total.item()) <= 1e-9
            assert abs(parts["distance"]) <= 1e-9
            assert abs(parts["kld"]) <= 1e-9


def test_student_loss_alpha_zero_is_pure_kd():
    teacher, student, G, x = _loss_setup(seed=20)
    cfg = DistillConfig(alpha=0.0, beta=1.0, tau=4.0)
    total, parts = student_loss(student, teacher, None, x, cfg)
    want = kld_loss(kl_teacher_terms(teacher.classify(x), 4.0), student(x), 4.0).item()
    assert total.item() == pytest.approx(want, abs=1e-12)
    assert parts["distance"] == 0.0


def test_student_loss_beta_zero_distance_only():
    teacher, student, G, x = _loss_setup(seed=21)
    cfg = DistillConfig(alpha=2.0, beta=0.0)
    total, parts = student_loss(student, teacher, G, x, cfg)
    assert parts["kld"] == 0.0
    assert total.item() == pytest.approx(2.0 * parts["distance"], abs=1e-12)


def test_student_loss_requires_generator_when_alpha_positive():
    teacher, student, G, x = _loss_setup(seed=22)
    with pytest.raises(ValueError):
        student_loss(student, teacher, None, x, DistillConfig(alpha=1.0, beta=0.0))


def test_missing_generator_raises_before_the_teacher_is_asked():
    teacher, student, _, x = _loss_setup(seed=22)
    with pytest.raises(ValueError, match="generator"):
        student_loss(student, teacher, None, x, DistillConfig(alpha=1.0, beta=0.0))
    assert teacher.query_count == 0
    ds, teacher, student, _, cfg = _train_setup()
    with pytest.raises(ValueError, match="generator"):
        distill(student, teacher, None, ds, cfg, seed=0)
    assert teacher.query_count == 0


def test_student_loss_gen_tau_scales_both_feeds():
    # with gen_input=logits and gen_tau=t, both log-prob feeds go through one
    # function, so a student matching the teacher gives exactly zero distance,
    # also where 1/t is not exact
    num_classes, n = 3, 4
    net = build_network(student_spec(n, num_classes), num_classes, seed=6)
    twin = build_network(student_spec(n, num_classes), num_classes, seed=6)
    teacher = BlindTeacher.from_network(twin)
    G = _frozen_generator(num_classes, n)
    x = np.random.default_rng(12).uniform(size=(4, n))
    for gen_tau in (4.0, 3.0):
        cfg = DistillConfig(gen_input="logits", gen_tau=gen_tau, beta=0.0, alpha=1.0)
        total, parts = student_loss(net, teacher, G, x, cfg)
        assert parts["distance"] == 0.0
        assert total.item() == 0.0


# -- config validation ------------------------------------------------------


def test_distill_config_validation():
    with pytest.raises(ValueError):
        DistillConfig(p_norm=3)
    with pytest.raises(ValueError):
        DistillConfig(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        DistillConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(tau=0.0)
    with pytest.raises(ValueError):
        DistillConfig(gen_tau=-1.0)
    with pytest.raises(ValueError):
        DistillConfig(gen_input="images")
    with pytest.raises(ValueError):
        DistillConfig(m=0)
    with pytest.raises(ValueError):
        DistillConfig(epochs=-1)


# -- distill loops ---------------------------------------------


def _train_setup(seed=0):
    ds = synth_blobs(3, 4, per_class=8, spread=0.05, seed=seed)
    teacher = _function_teacher(n=4, num_classes=3, seed=seed)
    student = build_network(student_spec(4, 3), 3, seed=seed + 1)
    G = _frozen_generator(3, 4, seed=seed + 2)
    cfg = DistillConfig(m=8, epochs=3, lr=0.05, milestones=(2,), gamma=0.1)
    return ds, teacher, student, G, cfg


def test_distill_zero_epochs_noop():
    ds, teacher, student, G, cfg = _train_setup()
    before = checkpoint.dumps(student.state_dict())
    _, log = distill(student, teacher, G, ds, dataclasses.replace(cfg, epochs=0), seed=0)
    assert log == []
    assert checkpoint.dumps(student.state_dict()) == before


def test_distill_deterministic():
    states = []
    for _ in range(2):
        ds, teacher, student, G, cfg = _train_setup(seed=3)
        trained, log = distill(student, teacher, G, ds, cfg, seed=7)
        states.append((checkpoint.dumps(trained.state_dict()), log))
    assert states[0][0] == states[1][0]
    assert states[0][1] == states[1][1]


def test_distill_never_reads_labels():
    ds, teacher, student, G, cfg = _train_setup()
    distill(student, teacher, G, ds, cfg, seed=0)
    assert ds.label_reads == 0


def test_distill_reads_labels_only_for_requested_eval():
    ds, teacher, student, G, cfg = _train_setup()
    eval_ds = synth_blobs(3, 4, per_class=4, spread=0.05, seed=9)
    _, log = distill(student, teacher, G, ds, cfg, seed=0, eval_test=eval_ds)
    assert ds.label_reads == 0
    assert eval_ds.label_reads == cfg.epochs  # one accuracy pass per epoch
    assert all(isinstance(r["test_acc"], float) for r in log)
    assert all(r["train_acc"] is None for r in log)


def test_distill_query_accounting_without_cache():
    ds, teacher, student, G, cfg = _train_setup()
    teacher = _function_teacher(n=4, num_classes=3, cache=False)
    distill(student, teacher, G, ds, cfg, seed=0)
    n, m = len(ds), cfg.m
    assert n % m == 0  # formula below assumes full batches
    assert teacher.query_count == cfg.epochs * (n // m) * m


def test_distill_query_accounting_with_cache():
    ds, teacher, student, G, cfg = _train_setup()
    distill(student, teacher, G, ds, cfg, seed=0)
    assert teacher.query_count == len(ds)
    assert teacher.cache_hits == (cfg.epochs - 1) * len(ds)


def _count_forwards(monkeypatch, G) -> list[int]:
    """The rows of each tape forward of G from now on: only the teacher's half runs one."""
    forwards = []
    call = Network.__call__

    def counted_call(net, x):
        if net is G:
            forwards.append(x.shape[0])
        return call(net, x)

    monkeypatch.setattr(Network, "__call__", counted_call)
    return forwards


@pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("m", [8, 23], ids=["full-batches", "1-row-last-batch"])
def test_distill_runs_the_teacher_half_forward_once_per_row(monkeypatch, m, cache):
    # 24 rows: m = 8 gives three full batches per epoch, m = 23 a 1-row last batch
    def run(keep):
        ds, _, student, G, cfg = _train_setup()
        teacher = _function_teacher(n=4, num_classes=3, cache=cache)
        cfg = dataclasses.replace(cfg, m=m, epochs=4)
        if not keep:  # the reference: every batch's half computed on the batch
            monkeypatch.setattr(distill_module, "_kept_side",
                                lambda kept, answers, idx, generator, p_t, c:
                                distill_module.teacher_side(generator, p_t, c))
        forwards = _count_forwards(monkeypatch, G)
        trained, log = distill(student, teacher, G, ds, cfg, seed=0)
        monkeypatch.undo()
        return forwards, (checkpoint.dumps(trained.state_dict()), log), teacher, ds, cfg

    forwards, kept, teacher, ds, cfg = run(True)
    every_batch, computed, _, _, _ = run(False)
    assert kept == computed  # the kept half has the bits of the recomputed one
    rows = cfg.epochs * len(ds)  # the teacher is asked as before
    assert teacher.query_count == (len(ds) if cache else rows)
    assert teacher.cache_hits == (rows - len(ds) if cache else 0)
    epoch0 = [len(idx) for idx in batches(ds, m, seed=np.random.default_rng(
        spawn(0, distill_module.KEY_DISTILL_EPOCH, 0)))]
    assert every_batch == epoch0 * cfg.epochs
    assert forwards[:len(epoch0)] == epoch0
    # later, a batch is computed only if it has 1 row, or holds epoch 0's 1-row batch's row
    later = forwards[len(epoch0):]
    if m == 8:
        assert later == []
    else:
        assert later.count(m) <= 1
        assert sorted(later) == [1] * (cfg.epochs - 1) + [m] * later.count(m)


@pytest.mark.parametrize("zero, recomputed", [(0.0, 0), (-0.0, 3)],
                         ids=["same-bits", "signed-zero"])
def test_distill_recomputes_the_teacher_half_for_answers_with_other_bits(monkeypatch, zero,
                                                                          recomputed):
    # epoch 1's answers equal epoch 0's, but with zero as their zero entry:
    # -0.0 == 0.0, yet its bits differ, so each of epoch 1's 3 batches is recomputed
    ds, _, student, G, cfg = _train_setup()
    cfg = dataclasses.replace(cfg, epochs=2)
    zeros = [0.0]

    def classify_fn(x):
        p = np.full((len(x), 3), zeros[0])
        p[:, :2] = 0.5
        return p

    def next_epoch(epoch, student, row):
        zeros[0] = zero

    forwards = _count_forwards(monkeypatch, G)
    distill(student, BlindTeacher(classify_fn, 3, cache=False), G, ds, cfg, seed=0,
            epoch_callback=next_epoch)
    assert forwards == [cfg.m] * (len(ds) // cfg.m + recomputed)


def test_distill_without_cache_steps_on_each_batch_fresh_answers(monkeypatch):
    ds, _, student, G, cfg = _train_setup()
    rng = np.random.default_rng(5)
    answers = []  # a new answer on every call, even for a row asked before

    def classify_fn(x):
        answers.append(rng.dirichlet(np.ones(3), size=len(x)))
        return answers[-1]

    teacher = BlindTeacher(classify_fn, 3, cache=False)
    sides = []
    step = distill_module.student_step

    def recording_step(student, generator, side, x, c):
        sides.append(side)
        return step(student, generator, side, x, c)

    monkeypatch.setattr(distill_module, "student_step", recording_step)
    distill(student, teacher, G, ds, cfg, seed=0)
    assert len(sides) == len(answers) == cfg.epochs * len(ds) // cfg.m
    for side, p_t in zip(sides, answers):
        want = distill_module.teacher_side(G, p_t, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(side, want))


def test_distill_leaves_generator_bytes_untouched():
    ds, teacher, student, G, cfg = _train_setup()
    before = checkpoint.dumps(G.state_dict())
    distill(student, teacher, G, ds, cfg, seed=0)
    assert checkpoint.dumps(G.state_dict()) == before


def test_distill_rejects_unfrozen_generator():
    ds, teacher, student, _, cfg = _train_setup()
    loose = build_network(generator_spec(3, 4), 3, seed=5)  # not frozen
    with pytest.raises(ValueError, match="frozen"):
        distill(student, teacher, loose, ds, cfg, seed=0)


def _tape_student_step(student, generator, side, x, cfg):
    """student_step through the tape (student_loss given the teacher's half): its bit reference."""
    probs = student(x)
    loss, parts = distill_module.objective(generator, side, probs, probs, cfg)
    loss.backward()
    return loss.item(), parts


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_distill_divergence_names_epoch_step_and_op(monkeypatch):
    ds, teacher, student, G, cfg = _train_setup()
    with pytest.raises(TrainingDiverged,
                       match=r"while distilling at epoch \d+ step \d+ \(op '\w+'\)"):
        distill(student, teacher, G, ds, dataclasses.replace(cfg, lr=1e200), seed=0)
    # the array step diverges where the tape step does, naming the same op
    messages = []
    for step in (distill_module.student_step, _tape_student_step):
        ds, teacher, student, G, cfg = _train_setup()
        monkeypatch.setattr(distill_module, "student_step", step)
        with pytest.raises(TrainingDiverged) as info:
            distill(student, teacher, G, ds, dataclasses.replace(cfg, lr=1e200), seed=0)
        messages.append((info.value.__cause__.op, str(info.value)))
    assert messages[0] == messages[1]


def test_distill_smooth_student_runs_the_array_step(monkeypatch):
    ds, teacher, _, G, cfg = _train_setup()
    student = build_network(NetworkSpec("classifier", 4, (8,), 3, activation="tanh"), 3, seed=1)

    def no_tape_loss(*args):
        raise AssertionError("tape step taken")
    monkeypatch.setattr(distill_module, "student_loss", no_tape_loss)
    before = student.state_dict()
    _, log = distill(student, teacher, G, ds, dataclasses.replace(cfg, epochs=1), seed=0)
    assert len(log) == 1 and np.isfinite(log[0]["L_total"]) and log[0]["L_distance"] > 0
    assert any(not np.array_equal(before[k], p.data) for k, p in student.params.items())


def test_distill_rejects_callable_generator_before_any_query():
    ds, teacher, student, G, cfg = _train_setup()
    with pytest.raises(ValueError, match="alpha > 0 requires a frozen generator network"):
        distill(student, teacher, G.__call__, ds, cfg, seed=0)
    assert teacher.query_count == 0


def test_distill_rejects_student_input_width_mismatch():
    ds, teacher, _, G, cfg = _train_setup()
    wide = build_network(student_spec(5, 3), 3, seed=6)
    with pytest.raises(ValueError, match="student input width 5 != sample width 4"):
        distill(wide, teacher, G, ds, cfg, seed=0)


def test_distill_rejects_missing_generator():
    ds, teacher, student, _, cfg = _train_setup()
    with pytest.raises(ValueError):
        distill(student, teacher, None, ds, cfg, seed=0)


def test_distill_rejects_width_mismatch():
    ds, teacher, _, G, cfg = _train_setup()
    wide = build_network(student_spec(4, 5), 5, seed=6)
    with pytest.raises(ValueError, match="classes"):
        distill(wide, teacher, G, ds, cfg, seed=0)


def test_distill_rejects_non_classifier_student():
    ds, teacher, _, G, cfg = _train_setup()
    with pytest.raises(ValueError):
        distill(G, teacher, G, ds, cfg, seed=0)


def test_distill_log_schema_and_lr_schedule():
    ds, teacher, student, G, cfg = _train_setup()
    _, log = distill(student, teacher, G, ds, cfg, seed=0)
    assert [r["epoch"] for r in log] == [0, 1, 2]
    assert [r["lr"] for r in log] == pytest.approx([0.05, 0.05, 0.005])
    for r in log:
        assert set(r) == {"epoch", "L_total", "L_distance", "L_kld",
                          "train_acc", "test_acc", "lr"}
        assert np.isfinite(r["L_total"])
        assert r["L_total"] == pytest.approx(
            cfg.alpha * r["L_distance"] + cfg.beta * r["L_kld"], abs=1e-10)


def test_baseline_kd_ignores_generator_entirely():
    ds, teacher, student, _, cfg = _train_setup(seed=5)
    trained, log = distill(student, teacher, None, ds, dataclasses.replace(cfg, alpha=0.0),
                           seed=0)
    assert all(r["L_distance"] == 0.0 for r in log)


def test_distill_training_reduces_gap_to_teacher():
    # a brief run must shrink the student/teacher disagreement on the data
    ds, teacher, student, G, _ = _train_setup(seed=8)
    cfg = DistillConfig(m=8, epochs=10, lr=0.2, milestones=(), gamma=0.1)
    x = ds.samples
    before = np.abs(teacher.classify(x) - student(x).data).mean()
    distill(student, teacher, G, ds, cfg, seed=1)
    after = np.abs(teacher.classify(x) - student(x).data).mean()
    assert after < before


def test_distill_accepts_pure_function_teacher():
    # the loop must need nothing beyond the query interface
    ds, _, student, G, cfg = _train_setup(seed=9)
    calls = {"n": 0}

    def classify_fn(x):
        calls["n"] += len(x)
        return np.full((len(x), 3), 1.0 / 3.0)

    teacher = BlindTeacher(classify_fn, 3, cache=False)
    distill(student, teacher, G, ds, cfg, seed=0)
    assert calls["n"] == teacher.query_count > 0
