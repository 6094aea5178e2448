import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from stairlab.bev import BevGrid, GRID_SIZE, N_CHANNELS
from stairlab.config import default_config
from stairlab.env import OBS_DIM, ObsMode, TokenSource
from stairlab.errors import TrainingError
from stairlab.nn import (
    AdamState,
    FEATURE_DIM,
    Mlp,
    TerrainLossWeights,
    adam_step,
    build_estimator_net,
    estimator_heads,
    load_mlp,
    pool_bev,
    save_mlp,
    smooth_l1,
    smooth_l1_grad,
    terrain_loss,
    terrain_loss_grad,
)
from stairlab.ppo import GaussianPolicy, collect, estimator_update, make_ensemble, ppo_update

from helpers import largest_line_allocation


def empty_grid() -> BevGrid:
    return BevGrid(
        np.zeros((N_CHANNELS, GRID_SIZE, GRID_SIZE)),
        np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool),
    )


def mlp(sizes, weights, biases) -> Mlp:
    """A net with the given layers, laid out in MLP1 order."""
    params = np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])
    return Mlp(sizes, params, np.zeros_like(params))


def finite_difference(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar loss over a flat parameter vector."""
    grads = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        hi = loss_fn()
        params[i] = orig - h
        lo = loss_fn()
        params[i] = orig
        grads[i] = (hi - lo) / (2.0 * h)
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    worst = 0.0
    for ai, bi in zip(analytic, numeric):
        scale = max(abs(ai), abs(bi))
        if scale < 1e-6:
            continue
        worst = max(worst, abs(ai - bi) / scale)
    return worst


def split_like(net, vector: np.ndarray) -> dict:
    """``vector`` cut into the named parts of ``net.grads`` (W0, b0, ..., or actor.W0, ..., log_std)."""
    parts, offset = {}, 0
    for name, g in net.named_grads():
        parts[name] = vector[offset : offset + g.size].reshape(g.shape)
        offset += g.size
    assert offset == vector.size
    return parts


def mlp1_order(parts: dict) -> np.ndarray:
    """Per-name arrays concatenated in the order given, which is MLP1 order for ``split_like``'s."""
    return np.concatenate([a.ravel() for a in parts.values()])


class TestPoolBev:
    def test_zero_grid(self):
        assert np.all(pool_bev(empty_grid()) == 0.0)
        assert pool_bev(empty_grid()).shape == (FEATURE_DIM,)

    def test_constant_channel(self):
        grid = empty_grid()
        grid.data[0, :, :] = 0.7
        pooled = pool_bev(grid)
        assert np.all(pooled[:225] == pytest.approx(0.7))
        assert np.all(pooled[225:] == 0.0)

    def test_single_cell_average(self):
        grid = empty_grid()
        grid.data[0, 0, 0] = 0.8
        assert pool_bev(grid)[0] == pytest.approx(0.8 / 16.0, abs=1e-15)


class TestMlpForward:
    def test_zero_weights_zero_output(self):
        net = mlp([4, 3, 5], [np.zeros((3, 4)), np.zeros((5, 3))], [np.zeros(3), np.zeros(5)])
        out = net(np.ones(4))
        assert np.all(out == 0.0)

    def test_single_layer_is_affine(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        net = mlp([4, 3], [w], [b])
        x = rng.normal(size=4)
        assert np.allclose(net(x)[0], w @ x + b, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        net = Mlp.create([4, 3], np.random.default_rng(0))
        with pytest.raises(ValueError, match="input width"):
            net(np.ones(5))

    def test_outputs_finite(self):
        rng = np.random.default_rng(1)
        net = Mlp.create([10, 16, 4], rng)
        x = rng.normal(scale=100.0, size=(8, 10))
        assert np.isfinite(net(x)).all()

    def test_param_count(self):
        net = Mlp.create([10, 16, 4], np.random.default_rng(2))
        n_params = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
        assert n_params == net.params.size == net.grads.size == (10 + 1) * 16 + (16 + 1) * 4

    def test_init_bounds(self):
        net = Mlp.create([50, 20], np.random.default_rng(3))
        bound = math.sqrt(6.0 / 70.0)
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert np.all(net.biases[0] == 0.0)

    def test_estimator_heads(self):
        net = build_estimator_net(np.random.default_rng(4), hidden=8)
        logits, h, d = estimator_heads(net(np.zeros((2, FEATURE_DIM))))
        assert logits.shape == (2, 3)
        assert h.shape == (2,) and d.shape == (2,)


class TestTerrainLoss:
    def test_hand_computed_value(self):
        # Uniform logits, height error 0.5, depth error 2.0:
        # 0.6*ln(3) + 0.5*0.25 + (2 - 0.5).
        loss = terrain_loss(
            np.zeros(3), np.array([0.5]), np.array([2.0]),
            np.array([1]), np.array([0.0]), np.array([0.0]),
        )
        assert loss[0] == pytest.approx(0.6 * math.log(3.0) + 0.125 + 1.5, abs=1e-12)

    def test_saturated_correct_prediction(self):
        logits = np.array([[10.0, -10.0, -10.0]])
        loss = terrain_loss(logits, np.array([0.14]), np.array([0.3]),
                            np.array([0]), np.array([0.14]), np.array([0.3]))
        assert loss[0] < 0.6 * 1e-8

    def test_zero_weights_zero_loss(self):
        w = TerrainLossWeights(0.0, 0.0, 0.0)
        loss = terrain_loss(np.array([[3.0, -1.0, 0.2]]), np.array([9.0]), np.array([-4.0]),
                            np.array([2]), np.array([0.0]), np.array([0.0]), w)
        assert loss[0] == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            loss = terrain_loss(
                rng.normal(size=(1, 3)), rng.normal(size=1), rng.normal(size=1),
                np.array([rng.integers(3)]), rng.normal(size=1), rng.normal(size=1),
            )
            assert loss[0] >= 0.0

    def test_smooth_l1_c1_at_transition(self):
        eps = 1e-9
        assert smooth_l1(np.array([1.0]))[0] == pytest.approx(0.5)
        assert smooth_l1(np.array([1.0 + eps]))[0] == pytest.approx(0.5, abs=1e-8)
        assert smooth_l1_grad(np.array([1.0 - eps]))[0] == pytest.approx(1.0, abs=1e-8)
        assert smooth_l1_grad(np.array([1.0 + eps]))[0] == pytest.approx(1.0, abs=1e-8)
        assert smooth_l1_grad(np.array([-1.0 - eps]))[0] == pytest.approx(-1.0, abs=1e-8)


class TestBackward:
    def test_quadratic_toy_gradient(self):
        # ||Wx - y||^2 has gradient 2 (Wx - y) x^T.
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 5))
        net = mlp([5, 3], [w], [np.zeros(3)])
        x = rng.normal(size=(1, 5))
        y = rng.normal(size=(1, 3))
        out, acts = net.forward(x)
        grads = net.backward(acts, 2.0 * (out - y))
        expected = 2.0 * (w @ x[0] - y[0])[:, None] @ x
        assert np.allclose(split_like(net, grads)["W0"], expected, atol=1e-10)

    @pytest.mark.slow
    def test_gradcheck_spec_sized_net(self):
        # Full terrain loss through a 1350 -> 32 -> 8 net; the first five
        # outputs feed the loss heads, the rest are unused.
        rng = np.random.default_rng(7)
        net = Mlp.create([FEATURE_DIM, 32, 8], rng)
        x = rng.normal(scale=0.3, size=(1, FEATURE_DIM))
        gt_cls = np.array([1])
        gt_h = np.array([0.14])
        gt_d = np.array([0.31])
        w = TerrainLossWeights()

        def loss_fn():
            out = net(x)
            return float(
                terrain_loss(out[:, :3], out[:, 3], out[:, 4], gt_cls, gt_h, gt_d, w)[0]
            )

        out, acts = net.forward(x)
        d_logits, d_h, d_d = terrain_loss_grad(
            out[:, :3], out[:, 3], out[:, 4], gt_cls, gt_h, gt_d, w
        )
        dout = np.zeros_like(out)
        dout[:, :3] = d_logits
        dout[:, 3] = d_h
        dout[:, 4] = d_d
        analytic = net.backward(acts, dout).copy()
        numeric = finite_difference(loss_fn, net.params)
        assert max_rel_error(analytic, numeric) <= 1e-4

    def test_gradcheck_small_nets_multiple_draws(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            net = Mlp.create([6, 8, 4], rng)
            x = rng.normal(size=(3, 6))
            target = rng.normal(size=(3, 4))

            def loss_fn():
                return float(0.5 * ((net(x) - target) ** 2).sum())

            out, acts = net.forward(x)
            analytic = net.backward(acts, out - target).copy()
            numeric = finite_difference(loss_fn, net.params)
            assert max_rel_error(analytic, numeric) <= 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(9)
        net = Mlp.create([4, 3], rng)
        before = net.params.copy()
        adam_step(net, AdamState(lr=1e-3))
        assert np.array_equal(net.params, before)

    def test_descends_quadratic(self):
        state = AdamState(lr=0.1)
        net = mlp([1, 1], [np.array([[5.0]])], [np.array([-3.0])])
        for _ in range(200):
            net.grads[:] = 2.0 * net.params
            adam_step(net, state)
        assert np.abs(net.params).max() < 0.1

    def test_deterministic_updates(self):
        def run():
            rng = np.random.default_rng(10)
            net = Mlp.create([6, 5, 2], rng)
            state = AdamState(lr=1e-3)
            x = rng.normal(size=(4, 6))
            for _ in range(5):
                out, acts = net.forward(x)
                net.backward(acts, out)
                adam_step(net, state)
            return net

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_non_finite_gradient_raises(self):
        net = Mlp.create([3, 1], np.random.default_rng(0))
        net.grads[:3] = [1.0, np.nan, 0.0]
        with pytest.raises(TrainingError, match="W0"):
            adam_step(net, AdamState())


class TestCheckpoint:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(11)
        net = Mlp.create([7, 5, 3], rng)
        path = tmp_path / "net.mlp1"
        save_mlp(path, net)
        loaded = load_mlp(path)
        assert loaded.sizes == net.sizes
        for w1, w2 in zip(net.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(net.biases, loaded.biases):
            assert np.array_equal(b1, b2)
        # The file's body is the parameter vector's bytes.
        assert path.read_bytes()[8 + 4 * 3 :] == net.params.astype("<f8").tobytes()
        x = rng.normal(size=(2, 7))
        assert np.array_equal(net(x), loaded(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mlp1"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="MLP1"):
            load_mlp(path)


class FrozenMlp(Mlp):
    """Oracle: ``forward`` and ``backward`` in their allocating form, with a
    fresh array for every layer output, delta, slope and gradient."""

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            a = z if i == last else np.tanh(z)
            activations.append(a)
        return a, activations

    def gradient_arrays(self, activations, dout) -> dict:
        grads = {}
        delta = np.atleast_2d(dout)
        for i in range(len(self.weights) - 1, -1, -1):
            a_in = activations[i]
            grads[f"W{i}"] = delta.T @ a_in
            grads[f"b{i}"] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i]) * (1.0 - activations[i] ** 2)
        return grads

    def backward(self, activations, dout):
        """``gradient_arrays``, copied into ``grads`` in MLP1 order."""
        grads = self.gradient_arrays(activations, dout)
        self.grads[:] = mlp1_order({name: grads[name] for name, _ in self.named_grads()})
        return self.grads


@dataclass
class FrozenAdamState:
    """The oracle's state: ``AdamState``'s settings, with moments per parameter name."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def frozen_adam_step(params: dict, grads: dict, state: FrozenAdamState) -> dict:
    """Oracle: ``adam_step`` in its allocating form, with fresh moments and temporaries."""
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


def frozen(net: Mlp) -> FrozenMlp:
    return FrozenMlp(net.sizes, net.params.copy(), np.zeros_like(net.grads))


def assert_bits_equal(a, b) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def ppo_batch():
    """A policy and its 16 x 128 teacher-token rollout under the default config."""
    cfg = default_config()
    assert (cfg.ppo.n_envs, cfg.ppo.horizon, cfg.env.token_source) == (16, 128, TokenSource.GROUND_TRUTH)
    envs, samplers = make_ensemble(cfg.env, cfg.world, cfg.ppo.n_envs, 3)
    rng = np.random.default_rng(0)
    policy = GaussianPolicy(OBS_DIM[cfg.env.obs_mode], rng)
    return policy, collect(envs, samplers, policy, cfg.ppo, rng), cfg.ppo


class TestWorkspaceBitIdentity:
    """The workspace runs the frozen operations in the same order: every bit matches."""

    @pytest.mark.parametrize(
        "sizes, row_counts",
        [
            ([13, 64, 64, 3], (512, 512)),
            ([13, 64, 64, 1], (512, 512)),
            ([FEATURE_DIM, 128, 5], (1, 37, 88, 37, 1)),
        ],
    )
    def test_outputs_activations_and_gradients(self, sizes, row_counts):
        rng = np.random.default_rng(20)
        net = Mlp.create(sizes, rng)
        oracle = frozen(net)
        # Repeated row counts run on buffers the workspace already holds.
        for rows in row_counts:
            x = rng.normal(scale=0.5, size=(rows, sizes[0]))
            dout = rng.normal(size=(rows, sizes[-1]))
            out, acts = net.forward(x)
            ref_out, ref_acts = oracle.forward(x)
            assert_bits_equal(out, ref_out)
            assert len(acts) == len(ref_acts)
            for a, ref in zip(acts, ref_acts):
                assert_bits_equal(a, ref)
            grads = net.backward(acts, dout)
            ref_grads = oracle.gradient_arrays(ref_acts, dout)
            assert_bits_equal(grads, mlp1_order({k: ref_grads[k] for k in split_like(net, grads)}))

    def test_ppo_update_parameters(self):
        live, batch, cfg = ppo_batch()
        # The oracle nets on the slices of a second policy's vectors.
        ref = GaussianPolicy(live.obs_dim, np.random.default_rng(0))
        ref.params[:] = live.params
        a, c = live.actor.params.size, live.actor.params.size + live.critic.params.size
        ref.actor = FrozenMlp(live.actor.sizes, ref.params[:a], ref.grads[:a])
        ref.critic = FrozenMlp(live.critic.sizes, ref.params[a:c], ref.grads[a:c])
        for policy in (live, ref):
            adam, rng = AdamState(lr=cfg.learning_rate), np.random.default_rng(21)
            for _ in range(2):
                ppo_update(policy, batch, cfg, adam, rng)
        assert_bits_equal(live.params, ref.params)


class TestWorkspaceContract:
    def test_call_returns_a_fresh_array(self):
        rng = np.random.default_rng(22)
        net = Mlp.create([6, 8, 4], rng)
        x = rng.normal(size=(5, 6))
        first = net(x)
        kept = first.copy()
        net(rng.normal(size=(5, 6)))
        net.forward(rng.normal(size=(5, 6)))
        assert_bits_equal(first, kept)

    def test_backward_fills_the_net_gradient_vector(self):
        # The gradient is valid until the next backward, which overwrites it.
        rng = np.random.default_rng(23)
        net = Mlp.create([6, 8, 8, 4], rng)
        grads = net.grads
        out, acts = net.forward(rng.normal(size=(5, 6)))
        assert net.backward(acts, out) is grads
        kept = grads.copy()
        out, acts = net.forward(rng.normal(size=(5, 6)))
        assert net.backward(acts, out) is grads
        assert net.grads is grads and grads.tobytes() != kept.tobytes()
        for w, b in zip(net.weights, net.biases):
            assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)

    def test_policy_nets_are_views_of_the_policy_vectors(self):
        policy = GaussianPolicy(OBS_DIM[ObsMode.TOKEN], np.random.default_rng(30))
        parts = [policy.actor.params, policy.critic.params, policy.log_std]
        assert sum(p.size for p in parts) == policy.params.size == policy.grads.size
        assert all(np.shares_memory(p, policy.params) for p in parts)
        for net in (policy.actor, policy.critic):
            assert np.shares_memory(net.grads, policy.grads)
        assert_bits_equal(np.concatenate(parts), policy.params)

    def test_activations_survive_a_forward_at_another_row_count(self):
        rng = np.random.default_rng(24)
        net = Mlp.create([6, 8, 4], rng)
        out, acts = net.forward(rng.normal(size=(5, 6)))
        kept = [a.copy() for a in [out, *acts]]
        net.forward(rng.normal(size=(7, 6)))
        for a, ref in zip([out, *acts], kept):
            assert_bits_equal(a, ref)

    def test_workspace_is_bounded(self):
        # The estimator meets a new supervision row count in nearly every batch.
        rng = np.random.default_rng(25)
        net = Mlp.create([6, 8, 4], rng)
        for rows in range(1, 201):
            out, acts = net.forward(rng.normal(size=(rows, 6)))
            net.backward(acts, out)
            assert len(net._workspace) <= Mlp.WORKSPACE_ROWS
        assert sorted(net._workspace) == [199, 200]

    def test_ppo_update_makes_no_large_temporary(self):
        # After warm-up, no line of an update holds 128 KB of new memory at
        # once; a (512, 64) float64 temporary alone is 256 KB. numpy reports
        # its data buffers to tracemalloc, so this reads the same everywhere.
        policy, batch, cfg = ppo_batch()
        adam, rng = AdamState(lr=cfg.learning_rate), np.random.default_rng(26)
        ppo_update(policy, batch, cfg, adam, rng)
        assert largest_line_allocation(ppo_update, policy, batch, cfg, adam, rng) < 128 * 1024


def estimator_net(rng) -> Mlp:
    return build_estimator_net(rng)


def policy_net(rng) -> GaussianPolicy:
    return GaussianPolicy(OBS_DIM[ObsMode.TOKEN], rng)


def wild_gradients(rng, n: int) -> np.ndarray:
    """Gradients over ten decades, with zeros of both signs."""
    g = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 2.0, size=n)
    g[::7] = 0.0
    g[::11] = -0.0
    return g


class TestAdamInPlace:
    """``adam_step`` updates a net's vector in place and keeps every bit of the allocating form."""

    @pytest.mark.parametrize("make_net", [estimator_net, policy_net], ids=["estimator", "policy"])
    def test_five_steps_match_the_allocating_form(self, make_net):
        rng = np.random.default_rng(27)
        net = make_net(rng)
        params, grads = net.params, net.grads
        ref_params = {k: p.copy() for k, p in split_like(net, params).items()}
        state, ref_state = AdamState(lr=1e-2), FrozenAdamState(lr=1e-2)
        for step in range(5):
            grads[:] = wild_gradients(rng, grads.size)
            kept = grads.copy()
            adam_step(net, state)
            ref_params = frozen_adam_step(ref_params, split_like(net, kept), ref_state)
            assert net.params is params and net.grads is grads
            assert_bits_equal(params, mlp1_order(ref_params))
            assert_bits_equal(state.m, mlp1_order(ref_state.m))
            assert_bits_equal(state.v, mlp1_order(ref_state.v))
            assert_bits_equal(grads, kept)
            if step == 0:
                held = state.m, state.v, state.scratch
            assert all(a is b for a, b in zip((state.m, state.v, state.scratch), held))
        assert state.step == ref_state.step == 5

    def test_non_finite_gradient_leaves_the_moments(self):
        rng = np.random.default_rng(28)
        policy = policy_net(rng)
        state = AdamState()
        policy.grads[:] = wild_gradients(rng, policy.grads.size)
        adam_step(policy, state)
        kept = (state.m.copy(), state.v.copy(), policy.params.copy())
        policy.grads[:] = wild_gradients(rng, policy.grads.size)
        dict(policy.named_grads())["log_std"][1] = np.inf
        with pytest.raises(TrainingError, match="log_std"):
            adam_step(policy, state)
        for now, before in zip((state.m, state.v, policy.params), kept):
            assert_bits_equal(now, before)
        assert state.step == 1

    def test_warm_estimator_update_makes_no_large_temporary(self):
        # Adam steps the (173,573,) vector in place and backward writes into
        # its gradient vector, so no line of a warm update holds 256 KB of new
        # memory; the largest is the isfinite mask over the gradient. A fresh
        # (128, 1350) parameter or gradient alone is 1,350 KB.
        rng = np.random.default_rng(29)
        net = estimator_net(rng)
        rows = 88
        features = rng.normal(scale=0.2, size=(rows, FEATURE_DIM))
        labels = rng.integers(0, 3, size=rows), rng.uniform(0.1, 0.2, rows), rng.uniform(0.25, 0.35, rows)
        args = (net, features, *labels, TerrainLossWeights(), AdamState(lr=1e-2), 1.0, 4)
        estimator_update(*args)
        assert largest_line_allocation(estimator_update, *args) <= 256 * 1024
