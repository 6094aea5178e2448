import math

import numpy as np
import pytest

from stairlab.bev import BevGrid, GRID_SIZE, N_CHANNELS
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


def empty_grid() -> BevGrid:
    return BevGrid(
        np.zeros((N_CHANNELS, GRID_SIZE, GRID_SIZE)),
        np.zeros((GRID_SIZE, GRID_SIZE), dtype=bool),
    )


def finite_difference(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradient of a scalar loss over a parameter dict."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi = loss_fn()
            flat_p[i] = orig - h
            lo = loss_fn()
            flat_p[i] = orig
            flat_g[i] = (hi - lo) / (2.0 * h)
        grads[name] = g
    return grads


def max_rel_error(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name in analytic:
        a = analytic[name].reshape(-1)
        b = numeric[name].reshape(-1)
        for ai, bi in zip(a, b):
            scale = max(abs(ai), abs(bi))
            if scale < 1e-6:
                continue
            worst = max(worst, abs(ai - bi) / scale)
    return worst


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
        net = Mlp([4, 3, 5], [np.zeros((3, 4)), np.zeros((5, 3))], [np.zeros(3), np.zeros(5)])
        out = net(np.ones(4))
        assert np.all(out == 0.0)

    def test_single_layer_is_affine(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        net = Mlp([4, 3], [w], [b])
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
        assert n_params == (10 + 1) * 16 + (16 + 1) * 4

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
        net = Mlp([5, 3], [w], [np.zeros(3)])
        x = rng.normal(size=(1, 5))
        y = rng.normal(size=(1, 3))
        out, acts = net.forward(x)
        grads = net.backward(acts, 2.0 * (out - y))
        expected = 2.0 * (w @ x[0] - y[0])[:, None] @ x
        assert np.allclose(grads["W0"], expected, atol=1e-10)

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
        analytic = net.backward(acts, dout)
        numeric = finite_difference(loss_fn, net.params())
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
            analytic = net.backward(acts, out - target)
            numeric = finite_difference(loss_fn, net.params())
            assert max_rel_error(analytic, numeric) <= 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        rng = np.random.default_rng(9)
        net = Mlp.create([4, 3], rng)
        params = net.params()
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState(lr=1e-3)
        out = adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state)
        for k in before:
            assert np.array_equal(out[k], before[k])

    def test_descends_quadratic(self):
        state = AdamState(lr=0.1)
        params = {"x": np.array([5.0])}
        for _ in range(200):
            params = adam_step(params, {"x": 2.0 * params["x"]}, state)
        assert abs(params["x"][0]) < 0.1

    def test_deterministic_updates(self):
        def run():
            rng = np.random.default_rng(10)
            net = Mlp.create([6, 5, 2], rng)
            state = AdamState(lr=1e-3)
            x = rng.normal(size=(4, 6))
            for _ in range(5):
                out, acts = net.forward(x)
                grads = net.backward(acts, out)
                net.apply_params(adam_step(net.params(), grads, state))
            return net

        a, b = run(), run()
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_non_finite_gradient_raises(self):
        state = AdamState()
        with pytest.raises(TrainingError, match="W0"):
            adam_step({"W0": np.zeros(3)}, {"W0": np.array([1.0, np.nan, 0.0])}, state)


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
        x = rng.normal(size=(2, 7))
        assert np.array_equal(net(x), loaded(x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mlp1"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="MLP1"):
            load_mlp(path)
