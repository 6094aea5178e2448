"""Minimal neural machinery: tanh MLPs with hand-written backprop, the
multi-task terrain loss, and an Adam optimizer.

Everything is plain float64 numpy with deterministic, order-fixed
reductions so identical seeds reproduce identical parameters bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bev import GRID_SIZE, N_CHANNELS, BevGrid
from .errors import TrainingError

POOL = 4
POOLED_SIDE = GRID_SIZE // POOL
FEATURE_DIM = N_CHANNELS * POOLED_SIDE * POOLED_SIDE

ESTIMATOR_HEADS = {"logits": slice(0, 3), "h": slice(3, 4), "d": slice(4, 5)}


def pool_bev(grid: BevGrid) -> np.ndarray:
    """4x4 average pooling per channel, flattened channel-major (length 1350)."""
    pooled = grid.data.reshape(N_CHANNELS, POOLED_SIDE, POOL, POOLED_SIDE, POOL).mean(axis=(2, 4))
    return pooled.reshape(FEATURE_DIM)


class Mlp:
    """Fully connected net, tanh hidden activations, linear output layer.

    ``heads`` names slices of the output vector; forward/backward operate
    on batches (B, n_in). backward consumes the cache returned by forward.
    """

    def __init__(self, sizes, weights, biases, heads=None):
        self.sizes = list(sizes)
        self.weights = weights  # list of (n_out, n_in)
        self.biases = biases  # list of (n_out,)
        self.heads = dict(heads or {})

    @classmethod
    def create(cls, sizes, rng: np.random.Generator, heads=None) -> "Mlp":
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            biases.append(np.zeros(n_out))
        return cls(sizes, weights, biases, heads)

    @property
    def n_params(self) -> int:
        return sum((n_in + 1) * n_out for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:]))

    def forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != expected {self.sizes[0]}")
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            a = z if i == last else np.tanh(z)
            activations.append(a)
        return a, activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, activations, dout: np.ndarray) -> dict:
        """Gradients of a scalar loss given d(loss)/d(output) per sample."""
        grads = {}
        delta = np.atleast_2d(dout)
        for i in range(len(self.weights) - 1, -1, -1):
            a_in = activations[i]
            grads[f"W{i}"] = delta.T @ a_in
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i]) * (1.0 - activations[i] ** 2)
        return grads

    def head(self, out: np.ndarray, name: str) -> np.ndarray:
        return out[:, self.heads[name]]

    def params(self) -> dict:
        p = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            p[f"W{i}"] = w
            p[f"b{i}"] = b
        return p

    def apply_params(self, p: dict) -> None:
        for i in range(len(self.weights)):
            self.weights[i] = p[f"W{i}"]
            self.biases[i] = p[f"b{i}"]


def forward_estimator(net: Mlp, features: np.ndarray):
    """Estimator heads: (class logits (B,3), h_hat (B,), d_hat (B,))."""
    out = net(features)
    return net.head(out, "logits"), net.head(out, "h")[:, 0], net.head(out, "d")[:, 0]


@dataclass(frozen=True)
class TerrainLossWeights:
    lambda_cls: float = 0.6
    lambda_h: float = 1.0
    lambda_d: float = 1.0

    def __post_init__(self) -> None:
        if min(self.lambda_cls, self.lambda_h, self.lambda_d) < 0:
            raise ValueError("loss weights must be non-negative")


def smooth_l1(err: np.ndarray) -> np.ndarray:
    err = np.asarray(err, dtype=float)
    a = np.abs(err)
    return np.where(a <= 1.0, 0.5 * err * err, a - 0.5)


def smooth_l1_grad(err: np.ndarray) -> np.ndarray:
    err = np.asarray(err, dtype=float)
    return np.where(np.abs(err) <= 1.0, err, np.sign(err))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def terrain_loss(
    logits: np.ndarray,
    h_hat: np.ndarray,
    d_hat: np.ndarray,
    gt_class: np.ndarray,
    gt_h: np.ndarray,
    gt_d: np.ndarray,
    w: TerrainLossWeights = TerrainLossWeights(),
) -> np.ndarray:
    """Per-sample loss: weighted cross entropy + SmoothL1 on height and depth."""
    logits = np.atleast_2d(logits)
    gt_class = np.atleast_1d(gt_class).astype(int)
    ce = -_log_softmax(logits)[np.arange(logits.shape[0]), gt_class]
    lh = smooth_l1(np.atleast_1d(h_hat) - np.atleast_1d(gt_h))
    ld = smooth_l1(np.atleast_1d(d_hat) - np.atleast_1d(gt_d))
    return w.lambda_cls * ce + w.lambda_h * lh + w.lambda_d * ld


def terrain_loss_grad(
    logits: np.ndarray,
    h_hat: np.ndarray,
    d_hat: np.ndarray,
    gt_class: np.ndarray,
    gt_h: np.ndarray,
    gt_d: np.ndarray,
    w: TerrainLossWeights = TerrainLossWeights(),
):
    """Gradients of the summed per-sample loss w.r.t. (logits, h_hat, d_hat)."""
    logits = np.atleast_2d(logits)
    gt_class = np.atleast_1d(gt_class).astype(int)
    softmax = np.exp(_log_softmax(logits))
    one_hot = np.zeros_like(softmax)
    one_hot[np.arange(logits.shape[0]), gt_class] = 1.0
    d_logits = w.lambda_cls * (softmax - one_hot)
    d_h = w.lambda_h * smooth_l1_grad(np.atleast_1d(h_hat) - np.atleast_1d(gt_h))
    d_d = w.lambda_d * smooth_l1_grad(np.atleast_1d(d_hat) - np.atleast_1d(gt_d))
    return d_logits, d_h, d_d


@dataclass
class AdamState:
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update with bias correction; returns the new parameter dict."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p)
            v = np.zeros_like(p)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


_MAGIC = b"MLP1"


def save_mlp(path, net: Mlp) -> None:
    """Checkpoint: MLP1 magic, layer sizes, then f64 parameters in layer order."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(net.sizes)))
        fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        for w, b in zip(net.weights, net.biases):
            fh.write(w.astype("<f8").tobytes(order="C"))
            fh.write(b.astype("<f8").tobytes(order="C"))


def load_mlp(path, heads=None) -> Mlp:
    """Read a checkpoint; a damaged one raises ValueError naming ``path``.

    The header must hold at least two layer sizes, the file must be
    exactly as long as they imply, and every parameter must be finite.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not an MLP1 checkpoint")
    n_sizes = struct.unpack_from("<I", raw, 4)[0] if len(raw) >= 8 else 0
    header = 8 + 4 * n_sizes
    if n_sizes < 2 or len(raw) < header:
        raise ValueError(f"{path}: damaged checkpoint header ({len(raw)} bytes)")
    sizes = list(struct.unpack_from(f"<{n_sizes}I", raw, 8))
    size = header + 8 * sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if len(raw) != size:
        raise ValueError(f"{path}: checkpoint has {len(raw)} bytes, expected {size}")
    params = np.frombuffer(raw, dtype="<f8", offset=header)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    weights, biases = [], []
    offset = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(params[offset : offset + n_out * n_in].reshape(n_out, n_in).copy())
        offset += n_out * n_in
        biases.append(params[offset : offset + n_out].copy())
        offset += n_out
    return Mlp(sizes, weights, biases, heads)


def build_estimator_net(rng: np.random.Generator, hidden: int = 128) -> Mlp:
    return Mlp.create([FEATURE_DIM, hidden, 5], rng, heads=ESTIMATOR_HEADS)
