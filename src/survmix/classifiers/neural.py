"""Single-hidden-layer network trained by full-batch gradient descent.

Logistic activations at both layers; the objective is mean cross-entropy
plus weight decay on every parameter.  Numeric inputs are standardized with
training statistics; categoricals are dummy-encoded.  Initial weights are
uniform in [-0.5, 0.5] drawn from the model seed, and training runs a fixed
number of epochs, so a (data, spec, seed) triple always yields the same
network, whatever the BLAS thread count: the weight gradients sum over rows
by `newton.over_rows`.  A non-finite loss aborts with a divergence error.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DivergenceError, DomainError
from ..newton import over_rows
from ..rng import substream
from ._encoding import DummyEncoder


@dataclass(frozen=True)
class AnnParams:
    hidden: int = 8
    learning_rate: float = 0.1
    epochs: int = 500
    weight_decay: float = 1e-4

    def __post_init__(self):
        if self.hidden < 1:
            raise DomainError("hidden must be at least 1")
        if self.learning_rate <= 0.0:
            raise DomainError("learning_rate must be positive")
        if self.epochs < 0:
            raise DomainError("epochs must not be negative")
        if self.weight_decay < 0.0:
            raise DomainError("weight_decay must not be negative")


def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, bit for
    bit, without a branch: the numerator max(e, z >= 0) is 1 or e."""
    e = np.exp(-np.abs(z))  # never overflows: exp(-z) for z >= 0, exp(z) below
    return np.maximum(e, z >= 0) / (1.0 + e)


def _layers(x, w1, b1, w2, b2):
    """Hidden activations and the output's logits."""
    hidden = _sigmoid(x @ w1 + b1)
    return hidden, hidden @ w2 + b2


def forward(x, w1, b1, w2, b2):
    """Hidden activations and output probabilities."""
    hidden, z2 = _layers(x, w1, b1, w2, b2)
    return hidden, _sigmoid(z2)


def loss_and_gradients(x, y, w1, b1, w2, b2, weight_decay):
    """Mean cross-entropy plus decay, with analytic parameter gradients.

    Overflow is allowed to run to inf so divergence surfaces as a non-finite
    loss rather than a low-level exception.
    """
    n = len(y)
    b2 = np.float64(b2)
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, z2 = _layers(x, w1, b1, w2, b2)
        # mean softplus(z2) - y*z2 == mean cross-entropy of sigmoid(z2)
        data_loss = float(np.mean(np.logaddexp(0.0, z2) - y * z2))
        decay = weight_decay * (np.sum(w1 ** 2) + np.sum(b1 ** 2)
                                + np.sum(w2 ** 2) + b2 ** 2)
        loss = data_loss + float(decay)

        d_z2 = (_sigmoid(z2) - y) / n
        g_w2 = over_rows(hidden, d_z2) + 2.0 * weight_decay * w2
        g_b2 = float(d_z2.sum() + 2.0 * weight_decay * b2)
        d_hidden = np.outer(d_z2, w2)
        d_z1 = d_hidden * hidden * (1.0 - hidden)
        g_w1 = over_rows(x, d_z1) + 2.0 * weight_decay * w1
        g_b1 = d_z1.sum(axis=0) + 2.0 * weight_decay * b1
    return loss, (g_w1, g_b1, g_w2, g_b2)


class AnnModel:
    algorithm = "ann"

    def __init__(self, encoder, w1, b1, w2, b2):
        self.encoder = encoder
        self.w1 = np.asarray(w1, dtype=float)
        self.b1 = np.asarray(b1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)
        self.b2 = float(b2)

    def predict_proba(self, data: Dataset) -> np.ndarray:
        x = self.encoder.transform(data)
        _, prob = forward(x, self.w1, self.b1, self.w2, self.b2)
        return prob

    def to_state(self) -> dict:
        return {"encoder": self.encoder.to_state(),
                "w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2}

    @classmethod
    def from_state(cls, state) -> "AnnModel":
        return cls(DummyEncoder.from_state(state["encoder"]),
                   np.array(state["w1"], dtype=float), np.array(state["b1"], dtype=float),
                   np.array(state["w2"], dtype=float), state["b2"])


def fit_ann(train: Dataset, params: AnnParams, seed: int) -> AnnModel:
    encoder = DummyEncoder.fit(train, standardize=True)
    x = encoder.transform(train)
    y = train.label_values().astype(float)
    d = x.shape[1]
    rng = substream(seed, "ann-init")
    w1 = rng.uniform(-0.5, 0.5, (d, params.hidden))
    b1 = rng.uniform(-0.5, 0.5, params.hidden)
    w2 = rng.uniform(-0.5, 0.5, params.hidden)
    b2 = float(rng.uniform(-0.5, 0.5))
    eta = params.learning_rate
    for epoch in range(params.epochs + 1):   # the last pass checks the final loss
        loss, (g_w1, g_b1, g_w2, g_b2) = loss_and_gradients(
            x, y, w1, b1, w2, b2, params.weight_decay)
        if not np.isfinite(loss):
            raise DivergenceError(
                "network training diverged (non-finite loss); try a smaller learning rate")
        if epoch == params.epochs:
            break
        w1 = w1 - eta * g_w1
        b1 = b1 - eta * g_b1
        w2 = w2 - eta * g_w2
        b2 = b2 - eta * g_b2
    return AnnModel(encoder, w1, b1, w2, b2)
