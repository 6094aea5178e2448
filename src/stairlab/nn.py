"""Minimal neural machinery: tanh MLPs with hand-written backprop, the
multi-task terrain loss, and an Adam optimizer.

Everything is plain float64 numpy with deterministic, order-fixed
reductions so identical seeds reproduce identical parameters bit for bit.
Every exp and log of training (the softmax here, the policy's std and
density ratio in ``ppo``) goes through ``libm``, the C library's scalar
functions, because numpy's AVX2 and AVX-512 exp and log loops round
differently. So the bytes hold per (numpy version, libm, BLAS on one
thread), and AVX2 and AVX-512 agree; below AVX2, ``np.tanh`` rounds
differently again, so the training bytes need at least AVX2.

Each ``Mlp`` keeps all its parameters in one flat float64 vector
``params``, laid out as an MLP1 checkpoint stores them (W0, b0, W1, b1,
...): the checkpoint's body is the vector's bytes, and ``weights`` and
``biases`` are views of it. ``backward`` writes the gradient into a
second vector ``grads`` with the same layout, and ``adam_step`` updates
a net's ``params`` in place from its ``grads``. A net may be built on
slices of a larger pair of vectors: ``GaussianPolicy`` lays its actor,
critic and log-std end to end in one.

Each ``Mlp`` also keeps a small workspace of preallocated arrays per
batch row count, for its most recent ``WORKSPACE_ROWS`` row counts.
``forward`` writes every layer's output into it, and ``backward`` its
back-propagated deltas and tanh slopes. A (512, 64) float64 temporary is
256 KB, above glibc's mmap threshold, and the allocator hands such memory
back to the kernel once it is freed, so a fresh temporary per layer made
every minibatch of a PPO update fault its pages in again. The workspace
runs the same operations in the same order with ``out=`` and in-place
forms, so every result stays the same bit for bit. The contract:

- ``net(x)`` returns a fresh array;
- ``backward`` returns ``net.grads``, valid until the next ``backward``;
- the output and activations that ``forward`` returns stay valid until
  the next ``forward`` on the same net with the same row count.

``AdamState`` holds one ``m``, one ``v`` and one (2, n) scratch array
for the vector it steps, made on the first step. On the estimator's
(128, 1350) first layer a fresh temporary is 1.35 MB, and an allocating
step made about 14 of them. The ufuncs are the allocating form's, in its
order, so parameters and moments keep every bit. The contract:

- ``net.params`` is updated in place and ``net.grads`` keeps its bits;
- a non-finite gradient raises, naming the parameter, before any moment
  or parameter changes;
- ``state.m`` and ``state.v`` hold the same arrays from step to step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bev import GRID_SIZE, N_CHANNELS, BevGrid
from .errors import NonNegative, TrainingError, domain_check

POOL = 4
POOLED_SIDE = GRID_SIZE // POOL
FEATURE_DIM = N_CHANNELS * POOLED_SIDE * POOLED_SIDE


def pool_bev(grid: BevGrid) -> np.ndarray:
    """4x4 average pooling per channel, flattened channel-major (length 1350)."""
    pooled = grid.data.reshape(N_CHANNELS, POOLED_SIDE, POOL, POOLED_SIDE, POOL).mean(axis=(2, 4))
    return pooled.reshape(FEATURE_DIM)


def _param_count(sizes) -> int:
    """Length of the parameter vector of an MLP with these layer sizes."""
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


def _layer_views(vector: np.ndarray, sizes) -> tuple[list, list]:
    """Each layer's (n_out, n_in) weight and (n_out,) bias, as views of ``vector``."""
    weights, biases, offset = [], [], 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(vector[offset : offset + n_out * n_in].reshape(n_out, n_in))
        offset += n_out * n_in
        biases.append(vector[offset : offset + n_out])
        offset += n_out
    return weights, biases


class Mlp:
    """Fully connected net, tanh hidden activations, linear output layer.

    ``params`` and ``grads`` are flat float64 vectors in MLP1 order, which
    the net views but does not copy. forward/backward operate on batches
    (B, n_in). backward consumes the activations returned by forward. Both
    work in the net's workspace (see the module docstring for what stays
    valid).
    """

    WORKSPACE_ROWS = 2  # np.array_split makes at most two minibatch sizes

    def __init__(self, sizes, params: np.ndarray, grads: np.ndarray):
        self.sizes = list(sizes)
        n = _param_count(self.sizes)
        if params.shape != (n,) or grads.shape != (n,):
            raise ValueError(f"sizes {self.sizes} need {n} parameters and gradients")
        self.params, self.grads = params, grads
        self.weights, self.biases = _layer_views(params, self.sizes)
        self._grad_w, self._grad_b = _layer_views(grads, self.sizes)
        self._workspace: dict[int, _Workspace] = {}  # least recently used first

    @classmethod
    def create(cls, sizes, rng: np.random.Generator) -> "Mlp":
        n = _param_count(sizes)
        net = cls(sizes, np.zeros(n), np.zeros(n))
        for w in net.weights:
            n_out, n_in = w.shape
            bound = np.sqrt(6.0 / (n_in + n_out))
            w[...] = rng.uniform(-bound, bound, size=w.shape)
        return net

    def named_grads(self) -> list[tuple[str, np.ndarray]]:
        """(name, view of ``grads``) per weight and bias: W0, b0, W1, ..."""
        pairs = zip(self._grad_w, self._grad_b)
        return [(f"{kind}{i}", g) for i, pair in enumerate(pairs) for kind, g in zip("Wb", pair)]

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

    def backward(self, activations, dout: np.ndarray) -> np.ndarray:
        """Writes the gradient of a scalar loss, given d(loss)/d(output) per sample, into ``grads``."""
        delta = np.atleast_2d(dout)
        ws = self._buffers(delta.shape[0])
        for i in range(len(self.weights) - 1, -1, -1):
            a_in = activations[i]
            np.matmul(delta.T, a_in, out=self._grad_w[i])
            delta.sum(axis=0, out=self._grad_b[i])
            if i > 0:
                slope = np.square(a_in, out=ws.slopes[i])
                np.subtract(1.0, slope, out=slope)
                delta = np.matmul(delta, self.weights[i], out=ws.deltas[i])
                delta *= slope
        return self.grads


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
    lambda_cls: NonNegative = 0.6
    lambda_h: NonNegative = 1.0
    lambda_d: NonNegative = 1.0

    __post_init__ = domain_check("[loss] ")


def smooth_l1(err: np.ndarray) -> np.ndarray:
    err = np.asarray(err, dtype=float)
    a = np.abs(err)
    return np.where(a <= 1.0, 0.5 * err * err, a - 0.5)


def smooth_l1_grad(err: np.ndarray) -> np.ndarray:
    err = np.asarray(err, dtype=float)
    return np.where(np.abs(err) <= 1.0, err, np.sign(err))


def libm(fn, x) -> np.ndarray:
    """``fn`` (``math.exp`` or ``math.log``) of each element of ``x``, as a new float64 array.

    One scalar C-library call per element, so the result does not depend on
    which of numpy's SIMD loops the CPU runs (see the module docstring).
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), dtype=float, count=x.size).reshape(x.shape)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - libm(math.log, libm(math.exp, shifted).sum(axis=1, keepdims=True))


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
    softmax = libm(math.exp, _log_softmax(logits))
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
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None  # (2, n): the step's numerator and denominator


def adam_step(net, state: AdamState) -> None:
    """One Adam update with bias correction of ``net.params`` from ``net.grads``, in place.

    ``net`` is an ``Mlp`` or anything with ``params``, ``grads`` and a
    ``named_grads()`` that names the parts of ``grads``. Computes
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g`` and
    ``p - (lr*(m/c1)) / (sqrt(v/c2) + eps)`` (see the module docstring
    for what stays valid).
    """
    p, g = net.params, net.grads
    if not np.isfinite(g).all():
        name = next(name for name, part in net.named_grads() if not np.isfinite(part).all())
        raise TrainingError(f"non-finite gradient in {name}")
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state.scratch = np.empty((2, p.size))
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    m, v, (s, den) = state.m, state.v, state.scratch
    np.multiply(b1, m, out=m)
    m += np.multiply(1.0 - b1, g, out=s)
    np.multiply(b2, v, out=v)
    np.multiply(1.0 - b2, g, out=s)
    v += np.multiply(s, g, out=s)
    np.divide(m, c1, out=s)
    np.multiply(state.lr, s, out=s)
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += state.eps
    s /= den
    p -= s


_MAGIC = b"MLP1"


def save_mlp(path, net: Mlp) -> None:
    """Checkpoint: MLP1 magic, layer sizes, then the f64 parameter vector."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(net.sizes)))
        fh.write(struct.pack(f"<{len(net.sizes)}I", *net.sizes))
        fh.write(net.params.astype("<f8").tobytes())


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
    size = header + 8 * _param_count(sizes)
    if len(raw) != size:
        raise ValueError(f"{path}: checkpoint has {len(raw)} bytes, expected {size}")
    params = np.frombuffer(raw, dtype="<f8", offset=header)
    if not np.isfinite(params).all():
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return Mlp(sizes, params.astype(float), np.zeros(params.size))


def build_estimator_net(rng: np.random.Generator, hidden: int = 128) -> Mlp:
    return Mlp.create([FEATURE_DIM, hidden, 5], rng)
