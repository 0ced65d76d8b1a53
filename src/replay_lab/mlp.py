"""From-scratch fully-connected ReLU network with a linear classification
head, softmax cross-entropy, exact analytic gradients, and plain SGD.

Everything is float64 numpy; there is no momentum, weight decay, or dropout.
``backward`` writes the gradients of one batch into preallocated slots,
overwriting what was there, and ``sgd_step`` applies them.
"""

from __future__ import annotations

import numpy as np


class Mlp:
    """Weights, biases, and gradient slots for an affine-ReLU stack.

    ``layer_dims`` is (input, hidden..., output); with two entries the model
    is a single affine map. Weights are drawn zero-mean with He-style
    fan-in scaling sqrt(2 / fan_in); biases start at zero.
    """

    def __init__(self, layer_dims, rng: np.random.Generator):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least an input and an output dim")
        if any(d <= 0 for d in dims):
            raise ValueError(f"all layer dims must be positive, got {dims}")
        self.layer_dims = dims
        self.weights = [
            rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])
        ]
        self.biases = [np.zeros(fan_out) for fan_out in dims[1:]]
        self.weight_grads = [np.zeros_like(w) for w in self.weights]
        self.bias_grads = [np.zeros_like(b) for b in self.biases]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    # -- forward / backward ---------------------------------------------------

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        """Compute logits for a (batch, input_dim) matrix.

        Returns the logits and a cache of pre- and post-activation values
        needed by ``backward``. Pure: no model state is touched.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if x.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"input dim {x.shape[1]} does not match layer_dims[0]={self.layer_dims[0]}")
        activations = [x]
        pres = []
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            pre = activations[-1] @ w + b
            pres.append(pre)
            activations.append(np.maximum(pre, 0.0))
        logits = activations[-1] @ self.weights[-1] + self.biases[-1]
        cache = {"activations": activations, "pres": pres, "batch": x.shape[0]}
        return logits, cache

    def backward(self, cache: dict, dlogits: np.ndarray) -> None:
        """Write the parameter gradients for the batch behind ``cache`` into
        the gradient slots, replacing their previous contents.

        ``dlogits`` is the loss gradient at the logits (already divided by
        the batch size when the loss is a batch mean). ReLU backward masks
        non-positive pre-activations.
        """
        if cache is None or "activations" not in cache:
            raise ValueError("backward needs the cache returned by forward")
        dlogits = np.asarray(dlogits, dtype=float)
        if dlogits.shape != (cache["batch"], self.layer_dims[-1]):
            raise ValueError("dlogits shape does not match the cached forward batch")
        activations, pres = cache["activations"], cache["pres"]
        delta = dlogits
        for layer in range(self.n_layers - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=self.weight_grads[layer])
            delta.sum(axis=0, out=self.bias_grads[layer])
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (pres[layer - 1] > 0.0)

    def sgd_step(self, learning_rate: float) -> None:
        """theta <- theta - lr * grad, with the gradients of the last
        ``backward``."""
        if learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
        for w, g in zip(self.weights, self.weight_grads):
            w -= learning_rate * g
        for b, g in zip(self.biases, self.bias_grads):
            b -= learning_rate * g

    # -- parameter plumbing ----------------------------------------------------

    def flat_params(self) -> np.ndarray:
        """All parameters concatenated into one vector (copy)."""
        return np.concatenate([w.ravel() for w in self.weights]
                              + [b.ravel() for b in self.biases])

    def set_flat_params(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if vec.size != self.num_params():
            raise ValueError(f"expected {self.num_params()} values, got {vec.size}")
        pos = 0
        for w in self.weights:
            w[...] = vec[pos:pos + w.size].reshape(w.shape)
            pos += w.size
        for b in self.biases:
            b[...] = vec[pos:pos + b.size].reshape(b.shape)
            pos += b.size

    def flat_grads(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.weight_grads]
                              + [g.ravel() for g in self.bias_grads])

    def copy(self) -> "Mlp":
        """Deep copy that keeps the subclass, so an overridden ``backward``
        is what ``gradient_check`` checks."""
        dup = type(self).__new__(type(self))
        dup.layer_dims = list(self.layer_dims)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        dup.weight_grads = [g.copy() for g in self.weight_grads]
        dup.bias_grads = [g.copy() for g in self.bias_grads]
        return dup


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy over a batch of logits.

    Returns (mean loss, per-example losses, dlogits) where dlogits is the
    gradient of the mean loss: (softmax - onehot) / batch. Per-example
    losses are kept so the caller can track item-level loss scores.
    """
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, k = logits.shape
    if k == 0:
        raise ValueError("logits must have at least one class column")
    if labels.shape[0] != n:
        raise ValueError("labels length does not match logits batch")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValueError("labels out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    per_example = -log_probs[np.arange(n), labels]
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return float(per_example.mean()), per_example, dlogits


def finite_difference_grads(model: Mlp, inputs: np.ndarray, labels: np.ndarray,
                            step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the mean cross-entropy loss with
    respect to every parameter. Independent of ``backward``: uses only
    forward evaluations at perturbed parameter vectors."""
    base = model.flat_params()
    grads = np.empty_like(base)
    probe = model.copy()
    for i in range(base.size):
        vec = base.copy()
        vec[i] = base[i] + step
        probe.set_flat_params(vec)
        up, _, _ = softmax_cross_entropy(probe.forward(inputs)[0], labels)
        vec[i] = base[i] - step
        probe.set_flat_params(vec)
        down, _, _ = softmax_cross_entropy(probe.forward(inputs)[0], labels)
        grads[i] = (up - down) / (2.0 * step)
    return grads


def gradient_check(model: Mlp, inputs: np.ndarray, labels: np.ndarray,
                   rel_tol: float = 1e-4, abs_floor: float = 1e-7,
                   step: float = 1e-4) -> tuple[bool, float]:
    """Compare analytic gradients against central finite differences.

    A component passes when |analytic - numeric| <= abs_floor +
    rel_tol * |numeric|. Returns (all components pass, worst residual ratio
    |a - n| / (abs_floor + rel_tol * |n|)).
    """
    work = model.copy()
    logits, cache = work.forward(inputs)
    _, _, dlogits = softmax_cross_entropy(logits, labels)
    work.backward(cache, dlogits)
    analytic = work.flat_grads()
    numeric = finite_difference_grads(model, inputs, labels, step=step)
    tol = abs_floor + rel_tol * np.abs(numeric)
    ratios = np.abs(analytic - numeric) / tol
    worst = float(ratios.max())
    return bool(worst <= 1.0), worst
