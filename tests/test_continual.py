import numpy as np
import pytest

from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import nn
from conftest import random_model, rel_err


def small_dataset(rng, n=40):
    features = rng.uniform(0, 1, size=(n, 29))
    features[:, 0] = rng.integers(0, 2, size=n)
    labels = rng.uniform(1, 5, size=(n, 8))
    return dataio.Dataset(features, labels)


class TestFisher:
    def test_nonnegative_over_random_models(self, rng):
        ds = small_dataset(rng)
        for _ in range(50):
            m = random_model(rng)
            f = cl.compute_fisher(m, ds, fisher_samples=2, seed=int(rng.integers(1 << 30)))
            assert np.all(f >= 0.0)

    def test_zero_at_exact_optimum(self, rng):
        # model predicting its own outputs as labels has zero loss gradient
        m = random_model(rng)
        features = rng.uniform(0, 1, size=(30, 29))
        labels = m.forward(features, mode="eval")
        ds = dataio.Dataset(features, np.clip(labels, -100, 100))
        f = cl.compute_fisher(m, ds, fisher_samples=4, seed=1, batch_size=30)
        assert np.max(f) <= 1e-10

    def test_single_sample_shard_equals_squared_gradient(self, rng):
        m = random_model(rng)
        ds = small_dataset(rng, n=1)
        f = cl.compute_fisher(m, ds, fisher_samples=3, seed=2)
        g = nn.backward(m.clone(), ds.features, ds.labels, mode="eval")
        g[nn.running_stat_mask()] = 0.0
        assert np.max(np.abs(f - g ** 2)) <= 1e-12

    def test_leaves_model_untouched(self, rng):
        m = random_model(rng)
        before = nn.extract_params(m)
        cl.compute_fisher(m, small_dataset(rng), fisher_samples=2, seed=3)
        assert np.array_equal(nn.extract_params(m), before)

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("n, samples", [(1, 3), (20, 1), (40, 8)])
    def test_bit_equal_to_per_minibatch_loop(self, rng, activation, n, samples):
        m = nn.MlpModel(activation, random_model(rng).params.copy())
        ds = small_dataset(rng, n=n)
        # reference: one eval-mode backward per sampled minibatch, summed in order
        draws = np.random.default_rng([11, 7])
        bs = min(32, n)
        total = np.zeros(nn.PARAM_COUNT)
        for _ in range(samples):
            idx = draws.choice(n, size=bs, replace=False)
            total += nn.backward(m.clone(), ds.features[idx], ds.labels[idx], mode="eval") ** 2
        expected = total / samples
        expected[nn.running_stat_mask()] = 0.0
        assert np.array_equal(cl.compute_fisher(m, ds, samples, seed=11), expected)

    def test_needs_at_least_one_sample(self, rng):
        with pytest.raises(ValueError, match="fisher_samples"):
            cl.compute_fisher(random_model(rng), small_dataset(rng), fisher_samples=0, seed=0)


class TestQuadraticPenalty:
    def test_zero_at_anchor(self, rng):
        theta = rng.normal(size=nn.PARAM_COUNT)
        anchors = [cl.AnchorParams(theta.copy(), 0)]
        imps = [np.abs(rng.normal(size=nn.PARAM_COUNT))]
        value, grad = cl.quadratic_penalty(theta, anchors, imps, 5.0)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_direct_formula(self):
        theta = np.zeros(nn.PARAM_COUNT)
        theta[0] = 3.0
        star = np.zeros(nn.PARAM_COUNT)
        star[0] = 1.0
        imp = np.zeros(nn.PARAM_COUNT)
        imp[0] = 2.0
        value, grad = cl.quadratic_penalty(theta, [cl.AnchorParams(star, 0)], [imp], 1.0)
        assert value == pytest.approx(4.0, abs=1e-15)
        assert grad[0] == pytest.approx(4.0, abs=1e-15)

    def test_gradient_vs_finite_difference(self, rng):
        theta = rng.normal(size=nn.PARAM_COUNT)
        anchors = [cl.AnchorParams(rng.normal(size=nn.PARAM_COUNT), t) for t in range(2)]
        imps = [np.abs(rng.normal(size=nn.PARAM_COUNT)) for _ in range(2)]
        lam = 3.0
        _, grad = cl.quadratic_penalty(theta, anchors, imps, lam)
        # the penalty is quadratic, so central differences are exact for any
        # step; a larger h avoids cancellation noise on the large value
        h = 0.05
        idx = rng.choice(nn.PARAM_COUNT, 80, replace=False)
        fd = np.empty(len(idx))
        for k, i in enumerate(idx):
            tp = theta.copy(); tp[i] += h
            tm = theta.copy(); tm[i] -= h
            fd[k] = (cl.quadratic_penalty(tp, anchors, imps, lam)[0]
                     - cl.quadratic_penalty(tm, anchors, imps, lam)[0]) / (2 * h)
        assert rel_err(grad[idx], fd) <= 1e-6

    def test_running_stat_slots_excluded(self, rng):
        theta = rng.normal(size=nn.PARAM_COUNT)
        star = rng.normal(size=nn.PARAM_COUNT)
        imp = np.ones(nn.PARAM_COUNT)
        _, grad = cl.quadratic_penalty(theta, [cl.AnchorParams(star, 0)], [imp], 1.0)
        assert np.all(grad[nn.running_stat_mask()] == 0.0)


    @pytest.mark.parametrize("shape, per_row_lambda", [
        ((nn.PARAM_COUNT,), False), ((3, nn.PARAM_COUNT), False), ((3, nn.PARAM_COUNT), True),
    ], ids=["P", "CxP", "CxP-per-row-lambda"])
    def test_gradient_alone_is_bit_equal(self, rng, shape, per_row_lambda):
        theta, star = rng.normal(size=shape), rng.normal(size=shape)
        imp = np.abs(rng.normal(size=shape))
        imp[..., ::7] = 0.0  # zero terms of either sign
        lam = rng.uniform(0.5, 5.0, size=shape[0]) if per_row_lambda else 2.5
        grad = cl.quadratic_penalty_grad(theta, star, imp, lam)
        _, expected = cl.quadratic_penalty(theta, [cl.AnchorParams(star, 0)], [imp], lam)
        assert grad.tobytes() == expected.tobytes()
        # the sequence of a running total from zero, signed zeros included
        total = np.zeros(shape)
        total += np.asarray(lam)[..., None] * imp * ((theta - star) * cl.PENALIZED_MASK)
        assert grad.tobytes() == total.tobytes()


class TestEwcOnline:
    def test_first_update_copies(self, rng):
        f = np.abs(rng.normal(size=20))
        out = cl.ewc_online_update(None, f, 1.0)
        assert np.array_equal(out, f)

    def test_gamma_one_sums(self, rng):
        f1 = np.abs(rng.normal(size=20))
        f2 = np.abs(rng.normal(size=20))
        out = cl.ewc_online_update(cl.ewc_online_update(None, f1, 1.0), f2, 1.0)
        assert np.max(np.abs(out - (f1 + f2))) <= 1e-12

    def test_gamma_zero_forgets(self, rng):
        f1 = np.abs(rng.normal(size=20))
        f2 = np.abs(rng.normal(size=20))
        # gamma is constrained to (0, 1]; near-zero decay behaves like replacement
        out = cl.ewc_online_update(f1, f2, 1e-300)
        assert np.max(np.abs(out - f2)) <= 1e-12


class TestSynapticIntelligence:
    def test_zero_gradient_step_no_change(self, rng):
        acc = cl.SiAccumulator(np.zeros(10))
        before = acc.omega_running.copy()
        cl.si_accumulate(acc, np.zeros(10), rng.normal(size=10))
        assert np.array_equal(acc.omega_running, before)

    def test_sgd_step_gains_lr_g_squared(self, rng):
        g = rng.normal(size=10)
        lr = 0.05
        acc = cl.SiAccumulator(np.zeros(10))
        cl.si_accumulate(acc, g, -lr * g)
        assert np.max(np.abs(acc.omega_running - lr * g ** 2)) <= 1e-15
        assert np.all(acc.omega_running >= 0.0)

    def test_multi_step_replay_oracle(self, rng):
        acc = cl.SiAccumulator(np.zeros(30))
        log = []
        for _ in range(20):
            g = rng.normal(size=30)
            d = rng.normal(size=30) * 0.01
            log.append((g, d))
            cl.si_accumulate(acc, g, d)
        replay = np.zeros(30)
        for g, d in log:
            replay = replay + (-g) * d
        assert np.max(np.abs(acc.omega_running - replay)) <= 1e-12

    def test_consolidate_untrained_task(self):
        theta = np.zeros(nn.PARAM_COUNT)
        acc = cl.SiAccumulator(theta.copy(), xi=0.1)
        omega = cl.si_consolidate(acc, theta.copy())
        assert np.all(omega == 0.0)

    def test_consolidate_direct_formula(self):
        acc = cl.SiAccumulator(np.zeros(nn.PARAM_COUNT), xi=0.1)
        acc.omega_running[0] = 1.0
        theta_end = np.zeros(nn.PARAM_COUNT)
        theta_end[0] = 1.0
        omega = cl.si_consolidate(acc, theta_end)
        assert omega[0] == pytest.approx(1.0 / 1.1, abs=1e-15)
        # accumulator reset for the next task
        assert np.all(acc.omega_running == 0.0)
        assert np.array_equal(acc.theta_at_task_start, theta_end)

    def test_omega_nonnegative_random_runs(self, rng):
        for _ in range(20):
            acc = cl.SiAccumulator(rng.normal(size=50), xi=0.1)
            for _ in range(10):
                cl.si_accumulate(acc, rng.normal(size=50), rng.normal(size=50))
            omega = np.maximum(acc.omega_running, 0.0) / (rng.normal(size=50) ** 2 + acc.xi)
            assert np.all(omega >= 0.0)


class TestMas:
    def test_zero_output_model_zero_importance(self, rng):
        m = nn.MlpModel()  # zero weights everywhere -> f(x) = 0
        omega = cl.mas_importance(m, rng.uniform(0, 1, size=(10, 29)), seed=0)
        out_w = omega[nn.slot_slice("out.weight")]
        assert np.all(out_w == 0.0)

    def test_nonnegative(self, rng):
        m = random_model(rng)
        omega = cl.mas_importance(m, rng.uniform(0, 1, size=(15, 29)), seed=1)
        assert np.all(omega >= 0.0)

    def test_single_sample_vs_finite_difference(self, rng):
        m = random_model(rng)
        x = rng.uniform(0, 1, size=(1, 29))
        omega = cl.mas_importance(m, x, seed=2)
        theta = nn.extract_params(m)

        def norm_sq(vec):
            probe = nn.MlpModel()
            nn.inject_params(probe, vec)
            f = probe.forward(x, mode="eval")
            return float((f ** 2).sum())

        h = 1e-6
        idx = rng.choice(np.flatnonzero(~nn.running_stat_mask()), 60, replace=False)
        fd = np.empty(len(idx))
        for k, i in enumerate(idx):
            tp = theta.copy(); tp[i] += h
            tm = theta.copy(); tm[i] -= h
            fd[k] = abs(norm_sq(tp) - norm_sq(tm)) / (2 * h)
        assert rel_err(omega[idx], fd) <= 1e-5


    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_closed_form_equals_per_sample_backward(self, rng, activation, n):
        m = nn.MlpModel(activation, random_model(rng).params.copy())
        x = rng.uniform(0, 1, size=(n, 29))
        # reference: one eval-mode backward per sample; backward's gradient of
        # the 8-way mean squared output, times 8, is that of ||f(x)||^2
        total = np.zeros(nn.PARAM_COUNT)
        for i in range(n):
            g = nn.backward(m, x[i:i + 1], np.zeros((1, nn.OUT_DIM)), mode="eval")
            total += np.abs(g * nn.OUT_DIM)
        expected = total / n
        before = m.params.copy()
        omega = cl.mas_importance(m, x, seed=0)
        assert np.array_equal(m.params, before)
        assert np.all(omega[nn.running_stat_mask()] == 0.0)
        assert np.all(np.abs(omega - expected) <= 1e-12 * np.abs(expected))


class TestReplayBuffer:
    def test_under_capacity_stores_all(self, rng):
        buf = cl.ReplayBuffer(1000, seed=0)
        ds = small_dataset(rng, n=375)
        cl.nr_store(buf, ds)
        assert len(buf) == 375
        stacked = np.stack(buf.features)
        assert np.array_equal(stacked, ds.features)

    def test_empty_stream_unchanged(self, rng):
        buf = cl.ReplayBuffer(10, seed=0)
        cl.nr_store(buf, small_dataset(rng, n=5).subset(np.array([], dtype=int)))
        assert len(buf) == 0

    def test_reservoir_uniformity(self, rng):
        # each of 100 stream elements retained with frequency ~ 10/100
        trials = 10_000
        capacity, stream = 10, 100
        counts = np.zeros(stream)
        for t in range(trials):
            buf = cl.ReplayBuffer(capacity, seed=t)
            for i in range(stream):
                buf.add(np.array([float(i)]), np.array([0.0]))
            for feat in buf.features:
                counts[int(feat[0])] += 1
        freq = counts / trials
        assert np.max(np.abs(freq - 0.1)) <= 0.02

    @pytest.mark.parametrize("sizes", [(30, 40), (80,), (0, 50, 3)])
    def test_add_dataset_equals_per_row_add(self, rng, sizes):
        # capacity 50: the streams cross it inside one add_dataset, start past
        # it, or fill it exactly and then continue
        whole, rowwise = cl.ReplayBuffer(50, seed=3), cl.ReplayBuffer(50, seed=3)
        for n in sizes:
            ds = small_dataset(rng, n=n)
            whole.add_dataset(ds)
            for i in range(n):
                rowwise.add(ds.features[i], ds.labels[i])
        assert len(whole) == len(rowwise) == min(sum(sizes), 50)
        assert whole.n_seen == rowwise.n_seen == sum(sizes)
        assert np.array_equal(whole.features, rowwise.features)
        assert np.array_equal(whole.labels, rowwise.labels)
        assert whole._rng.integers(0, 1 << 62) == rowwise._rng.integers(0, 1 << 62)

    @pytest.mark.parametrize("capacity", [1, 7, 13])
    def test_growing_rows_match_a_full_capacity_reservoir(self, rng, capacity):
        # the row arrays grow with the rows stored; a reference that holds
        # capacity rows from the start must see the same rows at the same
        # positions and the same reservoir draws, across the capacity boundary
        class FullCapacity:
            def __init__(self):
                self.features = np.full((capacity, 29), np.nan)
                self.labels = np.full((capacity, 8), np.nan)
                self.n_seen = 0
                self.rng = np.random.default_rng([5, 9])

            def add(self, feature, label):
                self.n_seen += 1
                j = self.n_seen - 1
                if j >= capacity:
                    j = int(self.rng.integers(0, self.n_seen))
                if j < capacity:
                    self.features[j], self.labels[j] = feature, label

        buf, ref = cl.ReplayBuffer(capacity, seed=5), FullCapacity()
        for op, n in [("add", 2), ("dataset", 3), ("add", 1), ("dataset", 0), ("dataset", 9),
                      ("add", 4), ("dataset", 1), ("dataset", 20), ("add", 3)]:
            ds = small_dataset(rng, n=n)
            if op == "add":
                for i in range(n):
                    buf.add(ds.features[i], ds.labels[i])
            else:
                buf.add_dataset(ds)
            for i in range(n):
                ref.add(ds.features[i], ds.labels[i])
            filled = min(ref.n_seen, capacity)
            assert buf.n_seen == ref.n_seen and len(buf) == filled
            assert np.array_equal(buf.features, ref.features[:filled])
            assert np.array_equal(buf.labels, ref.labels[:filled])
            assert buf._rng.bit_generator.state == ref.rng.bit_generator.state
            if filled:
                assert len(buf._features) <= min(capacity, 2 * filled)

    def test_rows_are_copies_at_the_given_positions(self, rng):
        buf = cl.ReplayBuffer(50, seed=4)
        cl.nr_store(buf, small_dataset(rng, n=20))
        idx = np.array([3, 0, 3, 19])
        features, labels = buf.rows(idx)
        assert np.array_equal(features, np.stack([buf.features[i] for i in idx]))
        assert np.array_equal(labels, np.stack([buf.labels[i] for i in idx]))
        features[0] = -1.0
        assert not np.any(buf.features[3] == -1.0)

    def test_samples_are_bit_exact_copies(self, rng):
        ds = small_dataset(rng, n=20)
        buf = cl.ReplayBuffer(50, seed=1)
        cl.nr_store(buf, ds)
        for i in range(20):
            assert np.array_equal(buf.features[i], ds.features[i])
            assert np.array_equal(buf.labels[i], ds.labels[i])


class TestMixedBatches:
    def test_half_and_half(self, rng):
        buf = cl.ReplayBuffer(100, seed=2)
        cl.nr_store(buf, small_dataset(rng, n=50))
        shard = small_dataset(rng, n=64)
        batches = cl.nr_mixed_batches(buf, shard, 32, 0.5, seed=3, epoch=0)
        assert all(b[0].shape[0] == 32 for b in batches)
        assert len(batches) == 4  # 64 new samples / 16 per batch

    def test_empty_buffer_degenerates_to_minibatches(self, rng):
        buf = cl.ReplayBuffer(10, seed=4)
        shard = small_dataset(rng, n=20)
        mixed = cl.nr_mixed_batches(buf, shard, 8, 0.5, seed=5, epoch=1)
        plain = dataio.minibatches(shard, 8, seed=5, epoch=1)
        assert len(mixed) == len(plain)
        for a, b in zip(mixed, plain):
            assert np.array_equal(a[0], b[0])

    def test_new_samples_covered_exactly_once(self, rng):
        buf = cl.ReplayBuffer(100, seed=6)
        cl.nr_store(buf, small_dataset(rng, n=30))
        shard = small_dataset(rng, n=41)
        batches = cl.nr_mixed_batches(buf, shard, 10, 0.5, seed=7, epoch=2)
        new_parts = np.concatenate([b[0][:-5] for b in batches])
        assert np.array_equal(np.sort(new_parts, axis=0), np.sort(shard.features, axis=0))


class TestPenaltyConfig:
    def test_defaults_per_method(self):
        cfg = cl.PenaltyConfig()
        assert cfg.effective_lambda("ewc") == 100.0
        assert cfg.effective_lambda("si") == 1.0
        assert cfg.effective_lambda("mas") == 1.0

    def test_explicit_lambda_wins(self):
        assert cl.PenaltyConfig(lambda_=7.0).effective_lambda("ewc") == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cl.PenaltyConfig(lambda_=-1.0)
        with pytest.raises(ValueError):
            cl.PenaltyConfig(gamma_online=0.0)
