"""From-scratch fully-connected ReLU network with a linear classification
head, softmax cross-entropy, exact analytic gradients, and plain SGD.

Everything is float64 numpy, except that ``forward`` also takes uint8
pixels, which it reads as k / 255; there is no momentum, weight decay, or
dropout.
``backward`` writes the gradients of one batch into preallocated slots,
overwriting what was there, and ``sgd_step`` applies them.
"""

from __future__ import annotations

import math
from copy import deepcopy

import numpy as np

# gradient_check's central-difference step and pass tolerances
FD_STEP = 1e-4
GRADCHECK_REL_TOL = 1e-4
GRADCHECK_ABS_FLOOR = 1e-7


class Mlp:
    """Weights, biases, and gradient slots for an affine-ReLU stack.

    ``layer_dims`` is (input, hidden..., output); with two entries the model
    is a single affine map. Weights are drawn zero-mean with He-style
    fan-in scaling sqrt(2 / fan_in); biases start at zero.

    The parameters are one float64 vector ``params`` and the gradients one
    ``grads``; ``weights``, ``biases``, ``weight_grads`` and ``bias_grads``
    are tuples of views into them (layout: ``_layer_views``).
    """

    def __init__(self, layer_dims, rng: np.random.Generator):
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least an input and an output dim")
        if any(d <= 0 for d in dims):
            raise ValueError(f"all layer dims must be positive, got {dims}")
        size = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
        self.__setstate__({"layer_dims": dims, "params": np.zeros(size), "grads": np.zeros(size)})
        for w in self.weights:
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[0]), size=w.shape)

    def __getstate__(self) -> dict:
        return {"layer_dims": self.layer_dims, "params": self.params, "grads": self.grads}

    def __setstate__(self, state: dict) -> None:
        """Take the dims and the two vectors of ``state`` and make the views
        into the vectors, so a deep copy or an unpickled model has its own."""
        self.__dict__.update(state)
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)
        self.weight_grads, self.bias_grads = _layer_views(self.grads, self.layer_dims)

    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        """Compute logits for a (batch, input_dim) matrix.

        uint8 inputs are pixels: each k is read as the float k / 255.0, the
        one place where image data is scaled. Other inputs are cast to float.
        Returns the logits and a cache of pre- and post-activation values
        needed by ``backward``. Pure: no model state is touched.
        """
        x = np.atleast_2d(np.asarray(inputs))
        x = x / 255.0 if x.dtype == np.uint8 else x.astype(float, copy=False)
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
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=self.weight_grads[layer])
            delta.sum(axis=0, out=self.bias_grads[layer])
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (pres[layer - 1] > 0.0)

    def sgd_step(self, learning_rate: float) -> None:
        """theta <- theta - lr * grad, with the gradients of the last
        ``backward``."""
        if learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {learning_rate}")
        self.params -= learning_rate * self.grads


def _layer_views(vec: np.ndarray, dims: list[int]) -> tuple[tuple, tuple]:
    """(weight matrices, bias vectors) of an ``Mlp`` with ``dims`` as views
    into ``vec``: every weight matrix in layer order, then every bias."""
    shapes = [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:])]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    views = tuple(vec[end - math.prod(shape):end].reshape(shape)
                  for shape, end in zip(shapes, ends))
    return views[:len(dims) - 1], views[len(dims) - 1:]


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


def gradient_check(model: Mlp, inputs: np.ndarray, labels: np.ndarray) -> tuple[bool, float]:
    """Compare the gradients of ``model.backward`` against central
    differences (step ``FD_STEP``) of the mean cross-entropy loss, both on
    one deep copy, which keeps the subclass and so an overridden ``backward``.

    Returns (every component passes, worst residual ratio
    |a - n| / (GRADCHECK_ABS_FLOOR + GRADCHECK_REL_TOL * |n|)); a component
    passes when its ratio is at most 1.
    """
    work = deepcopy(model)
    logits, cache = work.forward(inputs)
    _, _, dlogits = softmax_cross_entropy(logits, labels)
    work.backward(cache, dlogits)
    numeric = np.empty_like(work.params)
    for i, value in enumerate(model.params):
        work.params[i] = value + FD_STEP
        up, _, _ = softmax_cross_entropy(work.forward(inputs)[0], labels)
        work.params[i] = value - FD_STEP
        down, _, _ = softmax_cross_entropy(work.forward(inputs)[0], labels)
        work.params[i] = value
        numeric[i] = (up - down) / (2.0 * FD_STEP)
    tol = GRADCHECK_ABS_FLOOR + GRADCHECK_REL_TOL * np.abs(numeric)
    worst = float((np.abs(work.grads - numeric) / tol).max())
    return bool(worst <= 1.0), worst
