"""Feedforward autoencoder with sparsity-driven effective dimensionality.

Layers run [F, H, K, H, F] with tanh hidden units and linear code and
output. The objective is reconstruction plus an L1 penalty on code
activations plus L2 weight decay; code units whose mean |activation| stays
under the prune threshold are treated as switched off, so the width of the
representation is discovered rather than configured.
"""

import json
import math
import struct

import numpy as np

from .errors import TrainingDivergence


# weight matrices in forward order; biases interleave after each
_LAYERS = ("w_enc_in", "b_enc_in", "w_enc_out", "b_enc_out",
           "w_dec_in", "b_dec_in", "w_dec_out", "b_dec_out")
_WEIGHTS = _LAYERS[0::2]
# the layout of `params`: weights first, so decay is one slice
_FLAT = _WEIGHTS + _LAYERS[1::2]

_HYPER = ("n_features", "n_hidden", "n_code", "prune_threshold",
          "sparsity_weight", "decay_weight", "learning_rate", "batch_size")


class Autoencoder:
    def __init__(self, n_features=16, n_hidden=24, n_code=8,
                 prune_threshold=0.05, sparsity_weight=0.05,
                 decay_weight=1e-4, learning_rate=0.01, batch_size=32):
        if min(n_features, n_hidden, n_code) < 1:
            raise ValueError("layer sizes must be positive")
        self.n_features = n_features
        self.n_hidden = n_hidden
        self.n_code = n_code
        self.prune_threshold = prune_threshold
        self.sparsity_weight = sparsity_weight
        self.decay_weight = decay_weight
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        f, h, k = n_features, n_hidden, n_code
        self._shapes = ((h, f), (k, h), (h, k), (f, h), (h,), (k,), (h,), (f,))
        self.n_weights = 2 * h * (f + k)
        # the only storage of the eight parameter arrays; each named
        # attribute is a view into it, written in place, never rebound
        self.params = np.zeros(self.n_weights + 2 * h + k + f)
        self.__dict__.update(self._split(self.params)[1])
        self.feat_mean = np.zeros(f)
        self.feat_std = np.ones(f)

    def fit(self, dataset, epochs=200, seed=0):
        """Standardize from the data, initialize, train."""
        x = self._as_batch(dataset)
        self.feat_mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        self.feat_std = std
        self.init_weights(seed)
        self.history_ = self.train(dataset, epochs, seed)
        return self

    def transform(self, dataset):
        return self._codes(self._as_batch(dataset))

    # -- core --------------------------------------------------------------

    def _as_batch(self, dataset):
        x = np.atleast_2d(np.asarray(dataset, dtype=float))
        if x.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {x.shape[1]}")
        return x

    def _standardize(self, x):
        return (x - self.feat_mean) / self.feat_std

    def _forward(self, xs):
        h1 = np.tanh(xs @ self.w_enc_in.T + self.b_enc_in)
        code = h1 @ self.w_enc_out.T + self.b_enc_out
        h2 = np.tanh(code @ self.w_dec_in.T + self.b_dec_in)
        out = h2 @ self.w_dec_out.T + self.b_dec_out
        return h1, code, h2, out

    def _codes(self, x):
        h1 = np.tanh(self._standardize(x) @ self.w_enc_in.T + self.b_enc_in)
        return h1 @ self.w_enc_out.T + self.b_enc_out

    def encode(self, x):
        """Code of one (F,) vector, or one code per row of an (n, F) batch.
        Rows pass through as a stack of (1, F) products, so each row's code
        is bit-identical to encoding it alone; one (n, F) product is not."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.n_features:
            raise ValueError(
                f"expected a vector or rows of {self.n_features} features")
        return self._codes(x[..., None, :])[..., 0, :]

    def _split(self, flat=None):
        """A vector laid out like `params`, by default a new one, and each
        named array as a view into it."""
        flat = np.empty_like(self.params) if flat is None else flat
        views, end = {}, 0
        for name, shape in zip(_FLAT, self._shapes):
            start, end = end, end + math.prod(shape)
            views[name] = flat[start:end].reshape(shape)
        return flat, views

    def init_weights(self, seed=0):
        rng = np.random.default_rng(seed)
        for (fan_out, fan_in), name in zip(self._shapes, _WEIGHTS):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            getattr(self, name)[:] = rng.uniform(-lim, lim, (fan_out, fan_in))
        self.params[self.n_weights:] = 0.0
        return self

    # -- objective -----------------------------------------------------------

    def loss(self, dataset):
        x = self._as_batch(dataset)
        if x.shape[0] == 0:
            raise ValueError("loss needs a non-empty batch")
        return self._objective(self._standardize(x))

    def _objective(self, xs):
        """The training objective of a standardized batch, by term."""
        _, code, _, out = self._forward(xs)
        rec = float(np.mean((out - xs) ** 2))
        sparsity = float(np.mean(np.sum(np.abs(code), axis=1)))
        decay = float(sum(np.sum(getattr(self, n) ** 2) for n in _WEIGHTS))
        total = rec + self.sparsity_weight * sparsity + self.decay_weight * decay
        return {"reconstruction": rec, "sparsity": sparsity,
                "decay": decay, "total": total}

    def _gradients(self, xs, into=None):
        """Gradients of the objective at a standardized batch, by name, as
        views into one vector laid out like `params`. `into` is such a
        vector and its views from `_split`, reused across calls."""
        flat, g = into or self._split()
        n = xs.shape[0]
        h1, code, h2, out = self._forward(xs)
        d_out = 2.0 * (out - xs) / out.size
        np.matmul(d_out.T, h2, out=g["w_dec_out"])
        d_out.sum(axis=0, out=g["b_dec_out"])
        d_h2 = d_out @ self.w_dec_out
        d_pre2 = d_h2 * (1.0 - h2 ** 2)
        np.matmul(d_pre2.T, code, out=g["w_dec_in"])
        d_pre2.sum(axis=0, out=g["b_dec_in"])
        d_code = d_pre2 @ self.w_dec_in
        d_code = d_code + self.sparsity_weight * np.sign(code) / n
        np.matmul(d_code.T, h1, out=g["w_enc_out"])
        d_code.sum(axis=0, out=g["b_enc_out"])
        d_h1 = d_code @ self.w_enc_out
        d_pre1 = d_h1 * (1.0 - h1 ** 2)
        np.matmul(d_pre1.T, xs, out=g["w_enc_in"])
        d_pre1.sum(axis=0, out=g["b_enc_in"])
        weights = slice(0, self.n_weights)
        flat[weights] += 2.0 * self.decay_weight * self.params[weights]
        return g

    def train(self, dataset, epochs, seed=0):
        """Minibatch SGD. Returns the full-dataset total loss per epoch."""
        x = self._as_batch(dataset)
        if x.shape[0] == 0:
            raise ValueError("train needs a non-empty dataset")
        rng = np.random.default_rng(seed)
        trace = []
        xs = self._standardize(x)
        into = grad, _ = self._split()
        # a diverging run overflows before the loss check catches it; the
        # check is the intended detector, so keep numpy quiet here
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(epochs):
                shuffled = xs[rng.permutation(x.shape[0])]
                for start in range(0, x.shape[0], self.batch_size):
                    self._gradients(
                        shuffled[start:start + self.batch_size], into)
                    self.params -= self.learning_rate * grad
                total = self._objective(xs)["total"]
                trace.append(total)
                if not np.isfinite(total):
                    raise TrainingDivergence(
                        f"non-finite loss at epoch {epoch}",
                        report={"epoch": epoch, "trace": trace})
        return trace

    def effective_dim(self, dataset):
        """Code units doing measurable work on this data."""
        activity = np.abs(self.transform(dataset)).mean(axis=0)
        return int(np.sum(activity > self.prune_threshold))

    def gradient_check(self, x=None, seed=0, eps=1e-5):
        """Max relative error of backprop against central differences."""
        if x is None:
            x = np.random.default_rng(seed).normal(size=self.n_features)
        xs = self._standardize(self._as_batch(x))
        into = analytic, _ = self._split()
        self._gradients(xs, into)
        flat = self.params
        worst = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = self._objective(xs)["total"]
            flat[i] = keep - eps
            down = self._objective(xs)["total"]
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = analytic[i]
            scale = max(abs(a) + abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / scale)
        return worst

    # -- persistence -----------------------------------------------------------

    def save(self, path):
        header = {
            "layers": [self.n_features, self.n_hidden, self.n_code,
                       self.n_hidden, self.n_features],
            "hyperparams": {k: getattr(self, k) for k in _HYPER},
            "standardization": {"mean": self.feat_mean.tolist(),
                                "std": self.feat_std.tolist()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode())
            fh.write(b"\n")
            for name in _LAYERS:
                arr = np.ascontiguousarray(getattr(self, name), dtype="<f8")
                fh.write(struct.pack("<Q", arr.size))
                fh.write(arr.tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
            ae = cls(**header["hyperparams"])
            ae.feat_mean = np.array(header["standardization"]["mean"])
            ae.feat_std = np.array(header["standardization"]["std"])
            for name in _LAYERS:
                (count,) = struct.unpack("<Q", fh.read(8))
                arr = getattr(ae, name)
                data = np.frombuffer(fh.read(8 * count), dtype="<f8")
                if data.size != count or arr.size != count:
                    raise ValueError(f"checkpoint array {name} has wrong size")
                arr[...] = data.reshape(arr.shape)
        return ae
