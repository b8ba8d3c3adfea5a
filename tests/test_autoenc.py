"""Autoencoder: gradients, sparsity-driven width, training, persistence."""

from struct import error as struct_error

import numpy as np
import pytest

from fifth.autoenc import Autoencoder
from fifth.errors import TrainingDivergence
from fifth.selftest import gradient_sample


def plane_dataset(seed=7, n=256, f=10):
    """Points on a random 2-D plane embedded in f dimensions."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(f, 2))
    b = rng.normal(size=f)
    u = rng.uniform(-1.0, 1.0, size=(n, 2))
    return u @ a.T + b


@pytest.fixture(scope="module")
def plane():
    return plane_dataset()


@pytest.fixture(scope="module")
def trained(plane):
    # reference recipe: defaults except F=10, 1000 epochs, seed 7
    return Autoencoder(n_features=10).fit(plane, epochs=1000, seed=7)


# -- forward pass ------------------------------------------------------------


def test_zero_weights_encode_to_zero_code():
    ae = Autoencoder(n_features=4, n_hidden=3, n_code=2)
    code = ae.encode(np.ones(4))
    assert code.shape == (2,)
    assert np.all(code == 0.0)


def test_encode_deterministic():
    ae = Autoencoder(n_features=5).init_weights(3)
    x = np.linspace(-1, 1, 5)
    a = ae.encode(x)
    b = ae.encode(x)
    assert np.array_equal(a, b)


def test_encode_rows_equal_encoding_each_alone():
    ae = Autoencoder(n_features=16).init_weights(5)
    ae.feat_mean = np.linspace(-0.3, 0.3, 16)
    x = np.random.default_rng(2).uniform(-1, 1, (40, 16))
    codes = ae.encode(x)
    assert codes.shape == (40, ae.n_code)
    assert all(np.array_equal(c, ae.encode(row)) for c, row in zip(codes, x))


def test_dimension_mismatch_rejected():
    ae = Autoencoder(n_features=4, n_code=2)
    for shape in ((5,), (3, 5), (2, 3, 4)):
        with pytest.raises(ValueError):
            ae.encode(np.ones(shape))


# -- loss ----------------------------------------------------------------------


def test_loss_zero_for_perfect_reconstruction_and_zero_weights():
    ae = Autoencoder(n_features=3)
    out = ae.loss(np.zeros((5, 3)))
    assert out["total"] == 0.0
    assert out["reconstruction"] == 0.0
    assert out["sparsity"] == 0.0
    assert out["decay"] == 0.0


def test_loss_reduces_to_reconstruction_without_penalties():
    ae = Autoencoder(n_features=6, sparsity_weight=0.0, decay_weight=0.0)
    ae.init_weights(1)
    x = np.random.default_rng(2).normal(size=(8, 6))
    out = ae.loss(x)
    assert out["total"] == out["reconstruction"]


def test_loss_invariant_under_batch_duplication():
    ae = Autoencoder(n_features=6).init_weights(1)
    x = np.random.default_rng(2).normal(size=(8, 6))
    once = ae.loss(x)
    twice = ae.loss(np.vstack([x, x]))
    for key in once:
        assert once[key] == pytest.approx(twice[key], rel=1e-12)


def test_loss_components_nonnegative_and_finite():
    ae = Autoencoder(n_features=6).init_weights(9)
    out = ae.loss(np.random.default_rng(0).normal(size=(4, 6)))
    for v in out.values():
        assert v >= 0.0 and np.isfinite(v)


def test_loss_rejects_empty_batch():
    ae = Autoencoder(n_features=3)
    with pytest.raises(ValueError):
        ae.loss(np.zeros((0, 3)))


# -- gradients -----------------------------------------------------------------


def test_gradient_check_small_config():
    ae = Autoencoder(n_features=4, n_hidden=5, n_code=3,
                     sparsity_weight=0.03, decay_weight=0.001)
    ae.init_weights(0)
    assert ae.gradient_check(seed=1) < 1e-4


def test_gradient_check_twenty_random_configs():
    report = gradient_sample()
    assert report["ok"]
    assert report["max_rel_error"] < 1e-4


def test_zero_input_zero_weights_gives_zero_gradients():
    ae = Autoencoder(n_features=4, n_hidden=3, n_code=2, decay_weight=0.0)
    grads = ae._gradients(np.zeros((2, 4)))
    for g in grads.values():
        assert np.all(g == 0.0)


def test_decay_gradient_is_analytic():
    lam = 0.25
    with_decay = Autoencoder(n_features=4, n_hidden=3, n_code=2,
                             decay_weight=lam).init_weights(5)
    without = Autoencoder(n_features=4, n_hidden=3, n_code=2,
                          decay_weight=0.0).init_weights(5)
    x = np.random.default_rng(6).normal(size=(3, 4))
    xs_a = with_decay._standardize(x)
    ga = with_decay._gradients(xs_a)
    gb = without._gradients(without._standardize(x))
    for name in ("w_enc_in", "w_enc_out", "w_dec_in", "w_dec_out"):
        assert np.allclose(ga[name] - gb[name],
                           2.0 * lam * getattr(with_decay, name))


# -- training --------------------------------------------------------------------


def test_train_zero_epochs_is_identity(plane):
    ae = Autoencoder(n_features=10).init_weights(4)
    before = ae.w_enc_in.copy()
    trace = ae.train(plane, epochs=0, seed=4)
    assert trace == []
    assert np.array_equal(ae.w_enc_in, before)


def test_train_deterministic_per_seed(plane):
    a = Autoencoder(n_features=10).fit(plane, epochs=40, seed=7)
    b = Autoencoder(n_features=10).fit(plane, epochs=40, seed=7)
    assert a.history_ == b.history_
    assert np.array_equal(a.w_dec_out, b.w_dec_out)


def test_train_reduces_loss_on_plane_data(plane):
    ae = Autoencoder(n_features=10)
    ae.feat_mean = plane.mean(axis=0)
    ae.feat_std = plane.std(axis=0)
    ae.init_weights(7)
    initial = ae.loss(plane)["total"]
    trace = ae.train(plane, epochs=200, seed=7)
    assert trace[-1] < 0.1 * initial


def _reference_forward(p, xs):
    h1 = np.tanh(xs @ p["w_enc_in"].T + p["b_enc_in"])
    code = h1 @ p["w_enc_out"].T + p["b_enc_out"]
    h2 = np.tanh(code @ p["w_dec_in"].T + p["b_dec_in"])
    return h1, code, h2, h2 @ p["w_dec_out"].T + p["b_dec_out"]


def _reference_gradients(ae, p, xs):
    n = xs.shape[0]
    h1, code, h2, out = _reference_forward(p, xs)
    d_out = 2.0 * (out - xs) / out.size
    g = {"w_dec_out": d_out.T @ h2, "b_dec_out": d_out.sum(axis=0)}
    d_pre2 = (d_out @ p["w_dec_out"]) * (1.0 - h2 ** 2)
    g["w_dec_in"] = d_pre2.T @ code
    g["b_dec_in"] = d_pre2.sum(axis=0)
    d_code = d_pre2 @ p["w_dec_in"]
    d_code = d_code + ae.sparsity_weight * np.sign(code) / n
    g["w_enc_out"] = d_code.T @ h1
    g["b_enc_out"] = d_code.sum(axis=0)
    d_pre1 = (d_code @ p["w_enc_out"]) * (1.0 - h1 ** 2)
    g["w_enc_in"] = d_pre1.T @ xs
    g["b_enc_in"] = d_pre1.sum(axis=0)
    for name in g:
        if name.startswith("w_"):
            g[name] = g[name] + 2.0 * ae.decay_weight * p[name]
    return g


def _reference_fit(ae, x, epochs, seed):
    """Fit as a plain loop over named arrays: `w - lr * g` per array, each
    batch standardized again. Returns the arrays and the loss per epoch."""
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0
    rng = np.random.default_rng(seed)
    p = {}
    for name in ("w_enc_in", "w_enc_out", "w_dec_in", "w_dec_out"):
        fan_out, fan_in = getattr(ae, name).shape
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        p[name] = rng.uniform(-lim, lim, (fan_out, fan_in))
        p["b" + name[1:]] = np.zeros(fan_out)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], ae.batch_size):
            xs = (x[order[start:start + ae.batch_size]] - mean) / std
            g = _reference_gradients(ae, p, xs)
            p = {name: p[name] - ae.learning_rate * g[name] for name in p}
        xs = (x - mean) / std
        _, code, _, out = _reference_forward(p, xs)
        decay = float(sum(np.sum(p[n] ** 2) for n in p if n.startswith("w_")))
        history.append(float(np.mean((out - xs) ** 2))
                       + ae.sparsity_weight
                       * float(np.mean(np.sum(np.abs(code), axis=1)))
                       + ae.decay_weight * decay)
    return p, history


def test_fit_matches_the_plain_loop_bit_for_bit(plane):
    wide = np.random.default_rng(3).normal(size=(101, 16))
    wide[:, 5] = 0.25  # a constant feature keeps its unit scale
    for x, epochs in ((plane, 30), (wide, 20)):  # 101 rows: a short batch
        ae = Autoencoder(n_features=x.shape[1]).fit(x, epochs=epochs, seed=4)
        p, history = _reference_fit(ae, x, epochs, seed=4)
        assert ae.history_ == history
        for name, arr in p.items():
            assert getattr(ae, name).tobytes() == arr.tobytes(), name


def test_divergence_aborts_with_report(plane):
    ae = Autoencoder(n_features=10, learning_rate=50.0)
    ae.feat_mean = plane.mean(axis=0)
    ae.feat_std = plane.std(axis=0)
    ae.init_weights(0)
    with pytest.raises(TrainingDivergence) as err:
        ae.train(plane, epochs=100, seed=0)
    assert "epoch" in err.value.report
    assert len(err.value.report["trace"]) >= 1


# -- effective dimensionality ------------------------------------------------


def test_untrained_effective_dim_is_zero(plane):
    ae = Autoencoder(n_features=10)
    assert ae.effective_dim(plane) == 0


def test_plane_data_recovers_two_dimensions(plane, trained):
    assert trained.effective_dim(plane) == 2


def test_roundtrip_error_small_after_training(plane, trained):
    # mean squared error over the standardized plane, where 1.0 is what
    # always reconstructing the mean would score
    assert trained.loss(plane)["reconstruction"] < 0.01


def test_repeated_point_absorbed_by_bias():
    rep = np.tile(plane_dataset()[3], (64, 1))
    ae = Autoencoder(n_features=10).fit(rep, epochs=200, seed=7)
    assert ae.effective_dim(rep) == 0


def test_sparsity_pressure_monotone(plane):
    dims = [
        Autoencoder(n_features=10, sparsity_weight=lam)
        .fit(plane, epochs=1000, seed=7)
        .effective_dim(plane)
        for lam in (0.0, 0.01, 0.1)
    ]
    assert dims == sorted(dims, reverse=True)
    assert dims == [8, 6, 2]  # frozen reference run


# -- estimator surface ---------------------------------------------------------


def test_fit_transform_shapes(plane):
    ae = Autoencoder(n_features=10)
    assert ae.fit(plane, epochs=5, seed=0) is ae
    codes = ae.transform(plane)
    assert codes.shape == (plane.shape[0], 8)


# -- persistence ---------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, plane, trained):
    path = tmp_path / "plane.aenc"
    trained.save(path)
    back = Autoencoder.load(path)
    assert np.array_equal(back.transform(plane), trained.transform(plane))
    assert np.array_equal(back.feat_mean, trained.feat_mean)
    assert back.effective_dim(plane) == trained.effective_dim(plane)


def test_checkpoint_bytes_stable(tmp_path, trained):
    p1 = tmp_path / "a.aenc"
    p2 = tmp_path / "b.aenc"
    trained.save(p1)
    trained.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_truncated(tmp_path, trained):
    path = tmp_path / "cut.aenc"
    trained.save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 16])
    with pytest.raises((ValueError, struct_error)):
        Autoencoder.load(path)
