import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import nn
from conftest import finite_difference, random_model, rel_err


def straight_line_forward(model: nn.MlpModel, x: np.ndarray, mode: str) -> np.ndarray:
    """Independent forward evaluator: explicit loops over layers, no shared
    code path with MlpModel.forward."""
    def linear(layer, h):
        return h @ layer.weight.T + layer.bias

    def bn(layer, h):
        if mode == "train":
            mean, var = h.mean(axis=0), h.var(axis=0)
        else:
            mean, var = layer.running_mean, layer.running_var
        return layer.gamma * (h - mean) / np.sqrt(var + nn.BN_EPSILON) + layer.beta

    h = linear(model.lin1, x)
    h = bn(model.bn1, h)
    if model.hidden_activation == "relu":
        h = np.maximum(h, 0)
    h = linear(model.lin2, h)
    h = bn(model.bn2, h)
    if model.hidden_activation == "relu":
        h = np.maximum(h, 0)
    return linear(model.out, h)


class TestForward:
    def test_zero_model_eval_gives_zero_output(self):
        m = nn.MlpModel()  # all weights/biases zero, gamma 1, beta 0
        x = np.random.default_rng(0).normal(size=(5, 29))
        out = m.forward(x, mode="eval")
        assert out.shape == (5, 8)
        assert np.all(out == 0.0)

    def test_identity_linear_layer(self):
        x = np.random.default_rng(1).normal(size=(4, 8))
        assert np.array_equal(nn._dense(x, np.eye(8), np.zeros(8)), x)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_straight_line_oracle(self, rng, mode):
        for _ in range(10):
            m = random_model(rng)
            x = rng.normal(size=(6, 29))
            expected = straight_line_forward(m, x, mode)
            m2 = m.clone()
            got = m2.forward(x, mode=mode)
            assert np.max(np.abs(got - expected)) <= 1e-12

    def test_dimension_mismatch_rejected(self, rng):
        m = random_model(rng)
        with pytest.raises(ValueError):
            m.forward(rng.normal(size=(4, 28)), mode="eval")

    def test_single_sample_train_mode_rejected(self, rng):
        m = random_model(rng)
        with pytest.raises(ValueError):
            m.forward(rng.normal(size=(1, 29)), mode="train")

    def test_train_mode_updates_running_stats_eval_does_not(self, rng):
        m = random_model(rng)
        before = m.bn1.running_mean.copy()
        m.forward(rng.normal(size=(8, 29)), mode="eval")
        assert np.array_equal(m.bn1.running_mean, before)
        m.forward(rng.normal(size=(8, 29)), mode="train")
        assert not np.array_equal(m.bn1.running_mean, before)

    def test_batchnorm_normalizes_batch(self, rng):
        # gamma 1, beta 0: per-feature mean ~0 and variance ~1 (inputs scaled
        # so the epsilon term is negligible relative to the batch variance)
        identity = (np.ones(16), np.zeros(16), np.zeros(16), np.ones(16))
        x = rng.normal(0.0, 10.0, size=(64, 16))
        y, _ = nn._batchnorm(x, identity, np.empty((2, 16)))
        assert np.max(np.abs(y.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(y.var(axis=0) - 1.0)) <= 1e-6

    def test_batchnorm_train_statistics_bit_equal_to_mean_and_var(self, rng):
        # reference: ndarray.mean / ndarray.var, which the layer must match exactly
        gamma = rng.normal(size=16)
        vectors = (gamma, rng.normal(size=16), np.zeros(16), np.ones(16))
        x = rng.normal(3.0, 2.0, size=(13, 16))
        mean, var = x.mean(axis=0), x.var(axis=0)
        stats = np.empty((2, 16))
        _, cache = nn._batchnorm(x, vectors, stats)
        _, xhat, std = cache
        assert np.array_equal(stats, np.stack([mean, var]))
        assert np.array_equal(std, np.sqrt(var + nn.BN_EPSILON))
        assert np.array_equal(xhat, (x - mean) / std)
        dy = rng.normal(size=x.shape)
        dx = nn._batchnorm_backward(dy, cache, gamma, np.empty_like(dy))
        dxhat = dy * gamma
        expected = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std
        assert np.array_equal(dx, expected)
        # a train-mode forward moves each layer's running statistics by
        # BN_MOMENTUM towards its batch statistics
        m = random_model(rng)
        x = rng.normal(size=(13, 29))
        h = x @ m.lin1.weight.T + m.lin1.bias
        running = m.bn1.running_mean.copy(), m.bn1.running_var.copy()
        m.forward(x, mode="train")
        for after, before, batch in zip((m.bn1.running_mean, m.bn1.running_var), running,
                                        (h.mean(axis=0), h.var(axis=0))):
            assert np.array_equal(after, (1.0 - nn.BN_MOMENTUM) * before + nn.BN_MOMENTUM * batch)


class TestMseLoss:
    def test_zero_when_equal(self, rng):
        p = rng.normal(size=(4, 8))
        scalar, per_action = nn.mse_loss(p, p)
        assert scalar == 0.0
        assert np.all(per_action == 0.0)

    def test_single_unit_error(self):
        pred = np.zeros((1, 8))
        target = np.zeros((1, 8))
        pred[0, 0] = 1.0
        scalar, per_action = nn.mse_loss(pred, target)
        assert np.array_equal(per_action, np.array([1.0] + [0.0] * 7))
        assert scalar == 0.125

    def test_matches_bruteforce_summation(self, rng):
        pred = rng.normal(size=(13, 8))
        target = rng.normal(size=(13, 8))
        scalar, per_action = nn.mse_loss(pred, target)
        expect = np.zeros(8)
        for a in range(8):
            s = 0.0
            for i in range(13):
                s += (pred[i, a] - target[i, a]) ** 2
            expect[a] = s / 13
        assert np.max(np.abs(per_action - expect)) <= 1e-12
        assert abs(scalar - expect.sum() / 8) <= 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            nn.mse_loss(rng.normal(size=(3, 8)), rng.normal(size=(4, 8)))

    def test_bit_equal_to_ndarray_mean(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 800))
            pred = rng.normal(size=(n, 8)) * rng.uniform(0.0, 10.0)
            target = rng.uniform(1, 5, size=(n, 8))
            scalar, per_action = nn.mse_loss(pred, target)
            expected = ((pred - target) ** 2).mean(axis=0)
            assert np.array_equal(per_action, expected)
            assert type(scalar) is float and scalar == float(expected.mean())

    @pytest.mark.parametrize("n_models", [1, 2, 10])
    def test_stacked_rows_equal_each_models_own(self, rng, n_models):
        for n in (1, 2, 31, 750):
            pred = rng.normal(size=(n_models, n, 8))
            target = rng.uniform(1, 5, size=(n_models, n, 8))
            scalar, per_action = nn.mse_loss(pred, target)
            assert scalar.shape == (n_models,) and per_action.shape == (n_models, 8)
            for k in range(n_models):
                own = nn.mse_loss(pred[k], target[k])
                assert scalar[k] == own[0]
                assert np.array_equal(per_action[k], own[1])


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 5))
    def test_counts_give_each_models_own_loss(self, sizes, seed, extra):
        # C models' rows padded to the longest (plus ``extra`` more rows) with
        # non-zero garbage: each model's loss is that of its own rows alone
        rng = np.random.default_rng(seed)
        n = max(sizes) + extra
        pred = rng.normal(size=(len(sizes), n, 8)) * rng.uniform(0.0, 10.0)
        target = rng.uniform(1, 5, size=(len(sizes), n, 8))
        kept = (pred.copy(), target.copy())
        scalar, per_action = nn.mse_loss(pred, target, np.array(sizes))
        assert np.array_equal(pred, kept[0]) and np.array_equal(target, kept[1])
        for k, rows in enumerate(sizes):
            own = nn.mse_loss(pred[k, :rows], target[k, :rows])
            assert scalar[k] == own[0]
            assert np.array_equal(per_action[k], own[1])

    def test_counts_padding_may_be_non_finite(self, rng):
        pred, target = rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 5, 8))
        pred[0, 3:] = np.inf
        scalar, _ = nn.mse_loss(pred, target, np.array([3, 5]))
        assert scalar[0] == nn.mse_loss(pred[0, :3], target[0, :3])[0]

    @pytest.mark.parametrize("counts", [[0, 3], [3, 6], [3], [[3, 3]]])
    def test_counts_out_of_range_rejected(self, rng, counts):
        with pytest.raises(ValueError, match="count"):
            nn.mse_loss(rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 5, 8)),
                        np.array(counts))

    def test_counts_need_a_model_axis(self, rng):
        with pytest.raises(ValueError, match="count"):
            nn.mse_loss(rng.normal(size=(5, 8)), rng.normal(size=(5, 8)), np.array(3))


class TestBackward:
    def test_zero_gradient_when_pred_equals_target(self, rng):
        m = random_model(rng)
        x = rng.normal(size=(4, 29))
        target = m.clone().forward(x, mode="train")
        g = nn.backward(m.clone(), x, target)
        assert np.all(g[nn.slot_slice("out.bias")] == 0.0)

    def test_finite_difference_all_slots(self, rng):
        m = random_model(rng)
        x = rng.normal(size=(5, 29))
        y = rng.uniform(1, 5, size=(5, 8))
        g = nn.backward(m.clone(), x, y)

        def loss_at(vec):
            probe = nn.MlpModel()
            nn.inject_params(probe, vec)
            pred, _ = probe._forward_cached(x, "train")
            return nn.mse_loss(pred, y)[0]

        fd = finite_difference(loss_at, nn.extract_params(m))
        assert rel_err(g, fd) <= 1e-5

    def test_running_stat_slots_get_zero_gradient(self, rng):
        m = random_model(rng)
        g = nn.backward(m, rng.normal(size=(4, 29)), rng.normal(size=(4, 8)))
        assert np.all(g[nn.running_stat_mask()] == 0.0)

    def test_penalty_grad_composes_additively(self, rng):
        m = random_model(rng)
        x = rng.normal(size=(4, 29))
        y = rng.normal(size=(4, 8))
        extra = rng.normal(size=nn.PARAM_COUNT)
        base = nn.backward(m.clone(), x, y)
        combined = nn.backward(m.clone(), x, y, extra_penalty_grad=extra)
        assert np.array_equal(combined, base + extra)

    def test_relu_gradient(self, rng):
        m = nn.MlpModel("relu")
        m.init_params(rng)
        x = rng.normal(size=(6, 29))
        y = rng.uniform(1, 5, size=(6, 8))
        g = nn.backward(m.clone(), x, y)

        def loss_at(vec):
            probe = nn.MlpModel("relu")
            nn.inject_params(probe, vec)
            pred, _ = probe._forward_cached(x, "train")
            return nn.mse_loss(pred, y)[0]

        fd = finite_difference(loss_at, nn.extract_params(m))
        assert rel_err(g, fd) <= 1e-4  # kinks can sit near sampled points

    def test_eval_mode_gradient(self, rng):
        m = random_model(rng)
        x = rng.normal(size=(1, 29))
        y = rng.normal(size=(1, 8))
        g = nn.backward(m.clone(), x, y, mode="eval")

        def loss_at(vec):
            probe = nn.MlpModel()
            nn.inject_params(probe, vec)
            return nn.mse_loss(probe.forward(x, mode="eval"), y)[0]

        fd = finite_difference(loss_at, nn.extract_params(m))
        mask = ~nn.running_stat_mask()  # running stats are constants by definition
        assert rel_err(g[mask], fd[mask]) <= 1e-5


class TestOptimizer:
    def test_sgd_direct_formula(self):
        opt = nn.Optimizer("sgd", learning_rate=1.0)
        out = opt.step(np.array([2.0]), np.array([0.5]))
        assert np.array_equal(out, np.array([1.5]))

    def test_zero_gradient_sgd_no_change(self, rng):
        p = rng.normal(size=10)
        out = nn.Optimizer("sgd", 0.1).step(p, np.zeros(10))
        assert np.array_equal(out, p)

    def test_zero_gradient_adam_tiny_change(self, rng):
        p = rng.normal(size=10)
        out = nn.Optimizer("adam", 0.1).step(p, np.zeros(10))
        assert np.max(np.abs(out - p)) <= 1e-12

    def test_adam_matches_reference(self):
        # hand-rolled Adam on a scalar quadratic f(x) = x^2, grad 2x
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8  # nn.ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        opt = nn.Optimizer("adam", lr)
        x = np.array([3.0])
        x_ref, m_ref, v_ref = 3.0, 0.0, 0.0
        for t in range(1, 4):
            g = 2 * x
            x = opt.step(x, g)
            g_ref = 2 * x_ref
            m_ref = b1 * m_ref + (1 - b1) * g_ref
            v_ref = b2 * v_ref + (1 - b2) * g_ref ** 2
            x_ref -= lr * (m_ref / (1 - b1 ** t)) / (np.sqrt(v_ref / (1 - b2 ** t)) + eps)
            assert abs(x[0] - x_ref) <= 1e-12

    def test_nan_gradient_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            nn.Optimizer("sgd").step(np.zeros(2), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_gradient_rejected_before_state_changes(self, kind, bad):
        opt = nn.Optimizer(kind, 0.1)
        with pytest.raises(ValueError, match="inf"):
            opt.step(np.zeros(2), np.array([bad, 0.0]))
        assert opt.step_count == 0 and opt.m is None and opt.v is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nn.Optimizer("sgd").step(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("lr", [np.nan, np.inf])
    def test_non_finite_learning_rate_rejected(self, kind, lr):
        with pytest.raises(ValueError, match=f"^learning_rate must be finite and >= 0, got {lr}$"):
            nn.Optimizer(kind, lr)


class TestParameterVector:
    def test_layer_arrays_are_views_into_params(self, rng):
        for model in (nn.MlpModel(), random_model(rng), random_model(rng).clone()):
            assert model.params.shape == (nn.PARAM_COUNT,)
            # a layer is its parameter views and nothing else: no option of its own
            for layer in ("lin1", "bn1", "lin2", "bn2", "out"):
                assert set(vars(getattr(model, layer))) == {
                    name.split(".")[1] for name in nn.OFFSETS if name.startswith(layer + ".")}
            for name, (start, stop, shape) in nn.OFFSETS.items():
                layer, attr = name.split(".")
                arr = getattr(getattr(model, layer), attr)
                assert arr.shape == shape
                assert np.shares_memory(arr, model.params), name
                assert np.array_equal(arr.ravel(), model.params[start:stop])

    def test_writes_reach_params_in_place(self, rng):
        m = nn.MlpModel()
        storage = m.params
        m.init_params(rng)
        assert m.params is storage
        assert np.array_equal(m.params[nn.slot_slice("lin1.weight")], m.lin1.weight.ravel())
        assert np.any(m.params[nn.slot_slice("lin1.weight")] != 0.0)
        vec = rng.normal(size=nn.PARAM_COUNT)
        nn.inject_params(m, vec)
        assert m.params is storage
        assert np.array_equal(m.out.bias, vec[nn.slot_slice("out.bias")])

    def test_train_forward_updates_running_stats_inside_params(self, rng):
        m = random_model(rng)
        before = m.params.copy()
        m.forward(rng.normal(size=(8, 29)), mode="train")
        moved = m.params != before
        assert np.all(moved[nn.running_stat_mask()])
        assert not np.any(moved[~nn.running_stat_mask()])

    def test_extract_returns_a_copy(self, rng):
        m = random_model(rng)
        vec = nn.extract_params(m)
        assert not np.shares_memory(vec, m.params)
        vec += 1.0
        assert not np.array_equal(vec, m.params)

    def test_clone_is_independent(self, rng):
        m = random_model(rng)
        c = m.clone()
        assert np.array_equal(c.params, m.params)
        assert not np.shares_memory(c.params, m.params)
        original = m.params.copy()
        c.forward(rng.normal(size=(8, 29)), mode="train")
        c.params[nn.slot_slice("out.weight")] += 1.0
        assert np.array_equal(m.params, original)

    def test_round_trip_identity(self, rng):
        m = random_model(rng)
        vec = nn.extract_params(m)
        m2 = nn.MlpModel()
        nn.inject_params(m2, vec)
        assert np.array_equal(nn.extract_params(m2), vec)
        x = rng.normal(size=(4, 29))
        assert np.array_equal(m.forward(x, "eval"), m2.forward(x, "eval"))

    def test_bn_mask_counts(self):
        assert nn.bn_mask().sum() == 128  # 2 BN layers x 4 vectors x 16
        assert nn.running_stat_mask().sum() == 64
        assert np.all(nn.running_stat_mask() <= nn.bn_mask())

    def test_total_parameter_count(self):
        # (29*16+16) + 4*16 + (16*16+16) + 4*16 + (16*8+8)
        assert nn.PARAM_COUNT == 480 + 64 + 272 + 64 + 136 == 1016
        assert nn.extract_params(nn.MlpModel()).shape == (1016,)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            nn.inject_params(nn.MlpModel(), np.zeros(10))

    def test_determinism_of_training_steps(self, rng):
        def run():
            m = nn.MlpModel()
            m.init_params(np.random.default_rng(7))
            opt = nn.Optimizer("adam", 1e-3)
            local = np.random.default_rng(8)
            for _ in range(5):
                x = local.normal(size=(8, 29))
                y = local.uniform(1, 5, size=(8, 8))
                g = nn.backward(m, x, y)
                nn.inject_params(m, opt.step(nn.extract_params(m), g))
            return nn.extract_params(m)

        assert np.array_equal(run(), run())


class TestStackedModels:
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("n_models", [2, 5, 10])
    def test_stacked_backward_equals_each_models_own(self, rng, n_models, mode, activation):
        singles = []
        for _ in range(n_models):
            m = nn.MlpModel(activation)
            nn.inject_params(m, nn.extract_params(random_model(rng)))
            singles.append(m)
        stack = nn.MlpModel(activation, np.stack([m.params for m in singles]))
        assert stack.lin1.weight.shape == (n_models, 16, 29)
        assert stack.bn1.running_var.shape == (n_models, 16)
        for arr in (stack.lin1.weight, stack.out.bias, stack.bn2.running_mean):
            assert np.shares_memory(arr, stack.params)
        xs = [rng.normal(size=(6, 29)) for _ in singles]
        ys = [rng.uniform(1, 5, size=(6, 8)) for _ in singles]
        extra = rng.normal(size=stack.params.shape)
        g = nn.backward(stack, np.concatenate(xs), np.concatenate(ys), extra, mode)
        assert g.shape == (n_models, nn.PARAM_COUNT)
        for k, m in enumerate(singles):
            assert np.array_equal(g[k], nn.backward(m, xs[k], ys[k], extra[k], mode))
            # train mode moved each model's running statistics inside params
            assert np.array_equal(stack.params[k], m.params)
        pred = stack.forward(np.concatenate(xs), mode="eval")
        assert np.array_equal(pred, np.concatenate([m.forward(x, "eval")
                                                    for m, x in zip(singles, xs)]))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(2, 32), min_size=1, max_size=6),
           st.sampled_from(["identity", "relu"]), st.integers(0, 2 ** 32 - 1))
    def test_ragged_step_equals_each_models_own(self, counts, activation, seed):
        # model k's counts[k] rows of a ragged train step, padded inside
        # backward: its gradient row, running statistics and Adam step are
        # what its own rows give it alone, over two steps
        rng = np.random.default_rng(seed)
        singles = []
        for _ in counts:
            m = nn.MlpModel(activation)
            nn.inject_params(m, nn.extract_params(random_model(rng)))
            singles.append(m)
        own = [nn.Optimizer("adam", 1e-2) for _ in singles]
        stack = nn.MlpModel(activation, np.stack([m.params for m in singles]))
        stacked = nn.Optimizer.stack(own, stack.params)
        for step_counts in (counts, counts[::-1]):
            xs = [rng.normal(0.0, 1.5, size=(n, nn.IN_DIM)) for n in step_counts]
            ys = [rng.uniform(1.0, 5.0, size=(n, nn.OUT_DIM)) for n in step_counts]
            x, y = np.concatenate(xs), np.concatenate(ys)
            kept = (x.copy(), y.copy())
            g = nn.backward(stack, x, y, None, "train", step_counts)
            assert np.array_equal(x, kept[0]) and np.array_equal(y, kept[1])
            stacked.step(stack.params, g, out=stack.params)
            for k, m in enumerate(singles):
                gk = nn.backward(m, xs[k], ys[k])
                assert np.array_equal(g[k], gk)
                own[k].step(m.params, gk, out=m.params)
                assert np.array_equal(stack.params[k], m.params)  # running statistics too
                assert np.array_equal(stacked.m[k], own[k].m)
                assert np.array_equal(stacked.v[k], own[k].v)

    @pytest.mark.parametrize("counts, match", [
        ([5, 3], "one row count per model"), ([5, 4, 1], "at least 2 rows"),
        ([5, 4, 2], "add up to 11 rows, the batch has 10")])
    def test_ragged_counts_are_checked(self, rng, counts, match):
        stack = nn.MlpModel("identity", np.stack([random_model(rng).params] * 3))
        with pytest.raises(ValueError, match=match):
            nn.backward(stack, rng.normal(size=(10, 29)), rng.normal(size=(10, 8)), None,
                        "train", counts)

    def test_stacked_batch_must_split_evenly(self, rng):
        stack = nn.MlpModel("identity", np.stack([random_model(rng).params] * 3))
        with pytest.raises(ValueError, match="client-major"):
            stack.forward(rng.normal(size=(10, 29)))

    def test_stacked_adam_equals_per_row_adam(self, rng):
        # step counts near 2,000 and beyond: numpy's vectorised power gives
        # 1 - beta**t a different last bit than Python's for some t there
        starts = [0, 700, 1500, 1980]
        singles, params = [], []
        for t0 in starts:
            opt = nn.Optimizer("adam", 1e-3)
            if t0:
                opt.step_count = t0
                opt.m = rng.normal(0.0, 0.01, size=40)
                opt.v = rng.uniform(0.0, 1e-4, size=40)
            singles.append(opt)
            params.append(rng.normal(size=40))
        stacked = nn.Optimizer.stack(singles, np.stack(params))
        theta = np.stack(params)
        for step in range(60):
            g = rng.normal(size=theta.shape)
            if step % 3:  # all rows together
                theta = stacked.step(theta, g)
                rows = range(len(starts))
            else:  # rows 1:3 through a view, then row 0 alone
                theta[1:3] = stacked.rows(slice(1, 3)).step(theta[1:3], g[1:3])
                theta[0] = stacked.rows(0).step(theta[0], g[0])
                rows = range(3)
            for k in rows:
                params[k] = singles[k].step(params[k], g[k])
            assert np.array_equal(theta, np.stack(params))
        # row k's view holds optimizer k's state, in the stack's own arrays
        for k, ref in enumerate(singles):
            view = stacked.rows(k)
            assert view.step_count == ref.step_count
            assert np.array_equal(view.m, ref.m) and np.array_equal(view.v, ref.v)
            assert np.shares_memory(view.m, stacked.m) and np.shares_memory(view.v, stacked.v)


# ---------------------------------------------------------------------------
# Oracle: the training step as it was written before the in-place rewrite
# (one temporary per ufunc, gradient blocks assigned by slice, Adam moments
# updated one at a time). The rewrite keeps every ufunc of that sequence, so
# parameters, gradients and optimizer state must match it bit for bit.
# ---------------------------------------------------------------------------

def _ref_layers(params):
    lead = params.shape[:-1]
    return {name: params[..., start:stop].reshape(
                lead + ((1,) + shape if lead and len(shape) == 1 else shape))
            for name, (start, stop, shape) in nn.OFFSETS.items()}


def _ref_bn_forward(p, layer, x, train):
    gamma, beta = p[f"{layer}.gamma"], p[f"{layer}.beta"]
    running_mean, running_var = p[f"{layer}.running_mean"], p[f"{layer}.running_var"]
    if train:
        n = x.shape[-2]
        stacked = x.ndim == 3
        mean = np.add.reduce(x, axis=-2, keepdims=stacked) / n
        centred = x - mean
        var = np.add.reduce(centred * centred, axis=-2, keepdims=stacked) / n
        std = np.sqrt(var + nn.BN_EPSILON)
        xhat = centred / std
        running_mean *= 1.0 - nn.BN_MOMENTUM
        running_mean += nn.BN_MOMENTUM * mean
        running_var *= 1.0 - nn.BN_MOMENTUM
        running_var += nn.BN_MOMENTUM * var
        y = gamma * xhat
        y += beta
        return y, ("train", xhat, std)
    std = np.sqrt(running_var + nn.BN_EPSILON)
    xhat = (x - running_mean) / std
    y = gamma * xhat
    y += beta
    return y, ("eval", xhat, std)


def _ref_bn_backward(p, layer, dy, cache):
    kind, xhat, std = cache
    dxhat = dy * p[f"{layer}.gamma"]
    if kind == "eval":
        return dxhat / std
    n = dy.shape[-2]
    dx = dxhat - np.add.reduce(dxhat, axis=-2, keepdims=True) / n
    dx -= xhat * (np.add.reduce(dxhat * xhat, axis=-2, keepdims=True) / n)
    dx /= std
    return dx


def _ref_backward(params, activation, batch, target, extra, mode):
    p = _ref_layers(params)
    relu = activation == "relu"
    x = batch.reshape(params.shape[0], -1, nn.IN_DIM) if params.ndim == 2 else batch
    train = mode == "train"

    def linear(name, h):
        y = h @ p[f"{name}.weight"].swapaxes(-1, -2)
        y += p[f"{name}.bias"]
        return y

    b1, c1 = _ref_bn_forward(p, "bn1", linear("lin1", x), train)
    a1 = np.maximum(b1, 0.0) if relu else b1
    b2, c2 = _ref_bn_forward(p, "bn2", linear("lin2", a1), train)
    a2 = np.maximum(b2, 0.0) if relu else b2
    pred = linear("out", a2)
    target = target.reshape(pred.shape)
    n, width = pred.shape[-2:]
    dy = pred - target
    dy *= 2.0
    dy /= n * width

    lead = params.shape[:-1]
    vec = np.zeros(params.shape)

    def put(name, value):
        vec[..., nn.slot_slice(name)] = value.reshape(lead + (-1,))

    put("out.weight", dy.swapaxes(-1, -2) @ a2)
    put("out.bias", np.add.reduce(dy, axis=-2))
    da2 = dy @ p["out.weight"]
    db2 = da2 * (b2 > 0.0) if relu else da2
    put("bn2.gamma", np.add.reduce(db2 * c2[1], axis=-2))
    put("bn2.beta", np.add.reduce(db2, axis=-2))
    dh2 = _ref_bn_backward(p, "bn2", db2, c2)
    put("lin2.weight", dh2.swapaxes(-1, -2) @ a1)
    put("lin2.bias", np.add.reduce(dh2, axis=-2))
    da1 = dh2 @ p["lin2.weight"]
    db1 = da1 * (b1 > 0.0) if relu else da1
    put("bn1.gamma", np.add.reduce(db1 * c1[1], axis=-2))
    put("bn1.beta", np.add.reduce(db1, axis=-2))
    dh1 = _ref_bn_backward(p, "bn1", db1, c1)
    put("lin1.weight", dh1.swapaxes(-1, -2) @ x)
    put("lin1.bias", np.add.reduce(dh1, axis=-2))
    if extra is not None:
        vec += extra
    return vec


def _ref_step(state, kind, params, grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """One optimizer step; ``state`` holds step_count (an int or one count
    per row), m and v."""
    state["step_count"] = state["step_count"] + 1
    if kind == "sgd":
        return params - lr * grads
    if state["m"] is None:
        state["m"], state["v"] = np.zeros_like(params), np.zeros_like(params)
    m, v = state["m"], state["v"]
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * grads ** 2
    t = state["step_count"]
    if isinstance(t, int):
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
    else:
        m_hat = m / np.array([1.0 - beta1 ** s for s in t.tolist()])[:, None]
        v_hat = v / np.array([1.0 - beta2 ** s for s in t.tolist()])[:, None]
    m_hat *= lr
    np.sqrt(v_hat, out=v_hat)
    v_hat += eps
    m_hat /= v_hat
    return params - m_hat


# rows per model in a step: small batches, the grids' batch size and a
# ragged tail of it
BATCH_ROWS = (2, 3, 4, 5, 6, 7, 8, 31, 32)


class TestStepOracle:
    """200 random steps of ``backward`` and ``Optimizer.step`` against the
    reference above, on single models, stacks and row views of stacks."""

    @pytest.mark.parametrize("rows", [None, 2, 5, 10, "slice", "row"])
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_steps_match_the_reference(self, rng, rows, activation, kind):
        # rows: None is one model; an int a stack of that many; "slice" rows
        # 2:5 and "row" row 3 of a stack of 6, the views the engine steps
        n_stack = {None: None, 2: 2, 5: 5, 10: 10, "slice": 6, "row": 6}[rows]
        sel = {"slice": slice(2, 5), "row": 3}.get(rows, slice(None))
        if n_stack is None:
            storage = random_model(rng).params.copy()
        else:
            storage = np.stack([random_model(rng).params for _ in range(n_stack)])
        reference = storage.copy()
        # every row starts at its own step count (Adam moments to match), up
        # to beyond 2,000, where numpy's vectorised power would differ
        starts = rng.integers(0, 2100, size=() if n_stack is None else n_stack)
        optimized = ~nn.running_stat_mask()
        singles = []
        for t0 in np.atleast_1d(starts):
            opt = nn.Optimizer(kind, 0.01)
            if kind == "adam" and t0:  # no moments on the running statistics
                opt.step_count = int(t0)
                opt.m = rng.normal(0.0, 0.01, size=nn.PARAM_COUNT) * optimized
                opt.v = rng.uniform(0.0, 1e-4, size=nn.PARAM_COUNT) * optimized
            singles.append(opt)
        if n_stack is None:
            optimizer = singles[0]
        else:
            optimizer = nn.Optimizer.stack(singles, storage).rows(sel)
        count = optimizer.step_count  # the reference's state starts as a copy
        state = {"step_count": count if isinstance(count, int) else
                 int(count) if count.ndim == 0 else count.copy(),
                 "m": None if optimizer.m is None else optimizer.m.copy(),
                 "v": None if optimizer.v is None else optimizer.v.copy()}
        theta, ref_theta = storage[sel], reference[sel]
        model = nn.MlpModel(activation, theta)
        k = 1 if theta.ndim == 1 else theta.shape[0]
        for step in range(200):
            b = int(rng.choice(BATCH_ROWS))
            x = rng.normal(0.0, 1.5, size=(k * b, nn.IN_DIM))
            y = rng.uniform(1.0, 5.0, size=(k * b, nn.OUT_DIM))
            extra = (rng.normal(0.0, 0.01, size=theta.shape) * optimized if step % 3 == 0
                     else None)
            mode = "eval" if step % 7 == 3 else "train"  # eval: the Fisher's gradients
            g = nn.backward(model, x, y, extra, mode)
            g_ref = _ref_backward(ref_theta, activation, x, y, extra, mode)
            assert np.array_equal(g, g_ref)
            assert np.array_equal(storage, reference)  # running statistics included
            if mode == "eval":
                continue
            theta[...] = optimizer.step(theta, g)
            ref_theta[...] = _ref_step(state, kind, ref_theta, g_ref)
            assert np.array_equal(storage, reference)
            assert np.array_equal(optimizer.step_count, state["step_count"])
            if kind == "adam":
                assert np.array_equal(optimizer.m, state["m"])
                assert np.array_equal(optimizer.v, state["v"])

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_step_into_out_equals_the_returned_step(self, rng, kind):
        params = rng.normal(size=(3, nn.PARAM_COUNT))
        into, returned = nn.Optimizer(kind, 0.01), nn.Optimizer(kind, 0.01)
        theta = params.copy()
        for _ in range(20):
            g = rng.normal(size=params.shape)
            assert into.step(theta, g, out=theta) is theta
            params = returned.step(params, g)
            assert np.array_equal(theta, params)


# ---------------------------------------------------------------------------
# The hot path's numpy call budget
# ---------------------------------------------------------------------------

def _c_calls(fn) -> int:
    """The ``c_call`` profiler events of one call of ``fn``: the calls of
    C functions and methods (numpy's constructors, reductions and array
    methods) made from Python. Operators and plain ufunc calls raise
    none. The garbage collector is off meanwhile, as a collection would
    count the C calls of the finalizers it runs."""
    events = 0

    def profile(frame, event, arg):
        nonlocal events
        events += event == "c_call"

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return events


class TestCallBudget:
    """The numpy calls of a step, as the ``nn`` module docstring states
    them, counted with ``_c_calls`` after two warm-up calls have built the
    model's buffers and Adam's moments. A change may lower a budget, not
    raise it."""

    @staticmethod
    def _model(rng, n_models):
        shape = (nn.PARAM_COUNT,) if n_models is None else (n_models, nn.PARAM_COUNT)
        params = rng.normal(0.0, 0.5, size=shape)
        for name in ("bn1.running_var", "bn2.running_var"):
            params[..., nn.slot_slice(name)] = 1.0
        rows = 32 * (n_models or 1)
        return (nn.MlpModel("identity", params), rng.normal(size=(rows, nn.IN_DIM)),
                rng.normal(size=(rows, nn.OUT_DIM)))

    @pytest.mark.parametrize("n_models, budget", [(None, 27), (2, 47), (10, 47), (20, 47)])
    def test_train_step_plus_adam(self, rng, n_models, budget):
        model, x, y = self._model(rng, n_models)
        optimizer = nn.Optimizer("adam", 1e-3)
        if n_models is not None:
            optimizer = nn.Optimizer.stack([nn.Optimizer("adam", 1e-3)] * n_models, model.params)

        def step():
            optimizer.step(model.params, nn.backward(model, x, y), out=model.params)

        step()
        step()
        assert _c_calls(step) <= budget

    @pytest.mark.parametrize("n_models, budget", [(2, 58), (10, 58)])
    def test_ragged_train_step_plus_adam(self, rng, n_models, budget):
        # the rows of every other model end 13 rows short: a padded step
        model, _, _ = self._model(rng, n_models)
        counts = [32 - 13 * (k % 2) for k in range(n_models)]
        x, y = rng.normal(size=(sum(counts), nn.IN_DIM)), rng.normal(size=(sum(counts), nn.OUT_DIM))
        optimizer = nn.Optimizer.stack([nn.Optimizer("adam", 1e-3)] * n_models, model.params)

        def step():
            optimizer.step(model.params, nn.backward(model, x, y, None, "train", counts),
                           out=model.params)

        step()
        step()
        assert _c_calls(step) <= budget

    @pytest.mark.parametrize("n_models, budget", [(None, 6), (2, 17), (10, 17), (20, 17)])
    def test_eval_forward(self, rng, n_models, budget):
        model, x, _ = self._model(rng, n_models)
        model.forward(x, mode="eval")
        model.forward(x, mode="eval")
        assert _c_calls(lambda: model.forward(x, mode="eval")) <= budget
