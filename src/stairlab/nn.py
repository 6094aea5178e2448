"""Minimal neural machinery: tanh MLPs with hand-written backprop, the
multi-task terrain loss, and an Adam optimizer.

Everything is plain float64 numpy with deterministic, order-fixed
reductions so identical seeds reproduce identical parameters bit for bit.

Each ``Mlp`` keeps a small workspace of preallocated arrays per batch row
count, for its most recent ``WORKSPACE_ROWS`` row counts. ``forward``
writes every layer's output into it, and ``backward`` its back-propagated
deltas and tanh slopes. A (512, 64) float64 temporary is 256 KB, above
glibc's mmap threshold, and the allocator hands such memory back to the
kernel once it is freed, so a fresh temporary per layer made every
minibatch of a PPO update fault its pages in again. The workspace runs
the same operations in the same order with ``out=`` and in-place forms,
so every result stays the same bit for bit. The contract:

- ``net(x)`` returns a fresh array;
- ``backward`` returns fresh gradient arrays;
- the output and activations that ``forward`` returns stay valid until
  the next ``forward`` on the same net with the same row count.

``adam_step`` updates ``AdamState``'s moments in place and computes each
parameter's step through one scratch array per parameter, kept in the
state beside the moments. On the estimator's (128, 1350) first layer a
fresh temporary is 1.35 MB, and an allocating step made about 14 of them.
The ufuncs are the allocating form's, in its order, so parameters and
moments keep every bit. The contract:

- the returned parameters are fresh arrays, one per parameter;
- the parameters and gradients passed in keep their bits;
- a non-finite gradient raises before any moment changes;
- ``state.m`` and ``state.v`` hold the same arrays from step to step.
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


def pool_bev(grid: BevGrid) -> np.ndarray:
    """4x4 average pooling per channel, flattened channel-major (length 1350)."""
    pooled = grid.data.reshape(N_CHANNELS, POOLED_SIDE, POOL, POOLED_SIDE, POOL).mean(axis=(2, 4))
    return pooled.reshape(FEATURE_DIM)


class Mlp:
    """Fully connected net, tanh hidden activations, linear output layer.

    forward/backward operate on batches (B, n_in). backward consumes the
    activations returned by forward. Both work in the net's workspace
    (see the module docstring for what stays valid).
    """

    WORKSPACE_ROWS = 2  # np.array_split makes at most two minibatch sizes

    def __init__(self, sizes, weights, biases):
        self.sizes = list(sizes)
        self.weights = weights  # list of (n_out, n_in)
        self.biases = biases  # list of (n_out,)
        self._workspace: dict[int, _Workspace] = {}  # least recently used first

    @classmethod
    def create(cls, sizes, rng: np.random.Generator) -> "Mlp":
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (n_in + n_out))
            weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
            biases.append(np.zeros(n_out))
        return cls(sizes, weights, biases)

    def _buffers(self, rows: int) -> "_Workspace":
        ws = self._workspace.pop(rows, None)
        if ws is None:
            if len(self._workspace) >= self.WORKSPACE_ROWS:
                del self._workspace[next(iter(self._workspace))]
            ws = _Workspace(rows, self.sizes)
        self._workspace[rows] = ws
        return ws

    def forward(self, x: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"input width {x.shape[1]} != expected {self.sizes[0]}")
        outs = self._buffers(x.shape[0]).outs
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b, z) in enumerate(zip(self.weights, self.biases, outs)):
            np.matmul(a, w.T, out=z)
            z += b
            a = z if i == last else np.tanh(z, out=z)
            activations.append(a)
        return a, activations

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0].copy()

    def backward(self, activations, dout: np.ndarray) -> dict:
        """Gradients of a scalar loss given d(loss)/d(output) per sample."""
        grads = {}
        delta = np.atleast_2d(dout)
        ws = self._buffers(delta.shape[0])
        for i in range(len(self.weights) - 1, -1, -1):
            a_in = activations[i]
            grads[f"W{i}"] = delta.T @ a_in
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                slope = np.square(a_in, out=ws.slopes[i])
                np.subtract(1.0, slope, out=slope)
                delta = np.matmul(delta, self.weights[i], out=ws.deltas[i])
                delta *= slope
        return grads

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


class _Workspace:
    """One row count's arrays: each layer's output, and each hidden layer's delta and slope."""

    __slots__ = ("outs", "deltas", "slopes")

    def __init__(self, rows: int, sizes) -> None:
        self.outs = [np.empty((rows, n)) for n in sizes[1:]]
        # Indexed like activations; index 0 (the input) needs neither.
        self.deltas = [None] + [np.empty((rows, n)) for n in sizes[1:-1]]
        self.slopes = [None] + [np.empty((rows, n)) for n in sizes[1:-1]]


def estimator_heads(out: np.ndarray):
    """The estimator's (B, 5) output as (class logits (B, 3), h_hat (B,), d_hat (B,))."""
    return out[:, :3], out[:, 3], out[:, 4]


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
    scratch: dict = field(default_factory=dict)  # per parameter, for the step's temporaries


def adam_step(params: dict, grads: dict, state: AdamState) -> dict:
    """One Adam update with bias correction; returns the new parameter dict.

    Computes ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p - (lr*(m/c1)) / (sqrt(v/c2) + eps)`` in place (see the module
    docstring for what stays valid).
    """
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient in {name}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    out = {}
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
            state.scratch[name] = np.empty_like(p)
        m, v, s = state.m[name], state.v[name], state.scratch[name]
        np.multiply(b1, m, out=m)
        m += np.multiply(1.0 - b1, g, out=s)
        np.multiply(b2, v, out=v)
        np.multiply(1.0 - b2, g, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, c1, out=s)
        np.multiply(state.lr, s, out=s)
        new = np.divide(v, c2)
        np.sqrt(new, out=new)
        new += state.eps
        s /= new
        out[name] = np.subtract(p, s, out=new)
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


def load_mlp(path) -> Mlp:
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
    return Mlp(sizes, weights, biases)


def build_estimator_net(rng: np.random.Generator, hidden: int = 128) -> Mlp:
    return Mlp.create([FEATURE_DIM, hidden, 5], rng)
