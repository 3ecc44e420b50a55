import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedcl import continual as cl
from fedcl import nn
from fedcl import strategies as fed
from conftest import rel_err


def make_updates(rng, n_clients, length=nn.PARAM_COUNT):
    return [fed.ClientUpdate(i, rng.normal(size=length), int(rng.integers(10, 100)))
            for i in range(n_clients)]


def pairwise_mean(vectors):
    """Independent mean oracle: pairwise summation tree, then divide."""
    def pairwise_sum(vs):
        if len(vs) == 1:
            return vs[0]
        mid = len(vs) // 2
        return pairwise_sum(vs[:mid]) + pairwise_sum(vs[mid:])
    return pairwise_sum([v.astype(np.float64) for v in vectors]) / len(vectors)


class TestFedAvg:
    def test_single_client_identity(self, rng):
        updates = make_updates(rng, 1)
        out = fed.fedavg_aggregate(updates)
        assert np.array_equal(out, updates[0].params)

    def test_two_client_arithmetic(self):
        updates = [fed.ClientUpdate(0, np.array([1.0, 3.0]), 5),
                   fed.ClientUpdate(1, np.array([3.0, 5.0]), 5)]
        assert np.array_equal(fed.fedavg_aggregate(updates), np.array([2.0, 4.0]))

    def test_against_pairwise_oracle(self, rng):
        updates = make_updates(rng, 10)
        out = fed.fedavg_aggregate(updates)
        oracle = pairwise_mean([u.params for u in updates])
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_permutation_invariance(self, rng):
        updates = make_updates(rng, 7)
        a = fed.fedavg_aggregate(updates)
        b = fed.fedavg_aggregate(updates[::-1])
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_consensus_idempotence(self, rng):
        v = rng.normal(size=nn.PARAM_COUNT)
        updates = [fed.ClientUpdate(i, v.copy(), 10) for i in range(5)]
        assert np.array_equal(fed.fedavg_aggregate(updates), v)

    def test_weighted_mean(self):
        updates = [fed.ClientUpdate(0, np.array([0.0]), 1),
                   fed.ClientUpdate(1, np.array([4.0]), 3)]
        assert np.array_equal(fed.fedavg_aggregate(updates, weighted=True), np.array([3.0]))

    def test_layout_mismatch(self, rng):
        updates = [fed.ClientUpdate(0, rng.normal(size=10), 5),
                   fed.ClientUpdate(1, rng.normal(size=11), 5)]
        with pytest.raises(ValueError):
            fed.fedavg_aggregate(updates)


# client parameter vectors: finite, of mixed magnitudes, negative zero included
_ELEMENTS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=True)


def _client_vectors(min_clients=1):
    return st.integers(1, 40).flatmap(lambda length: st.lists(
        hnp.arrays(np.float64, length, elements=_ELEMENTS), min_size=min_clients, max_size=8))


def _relative_to_inputs(a, b, vectors):
    """max |a - b|, each slot relative to the largest input at that slot."""
    scale = np.max(np.abs(np.stack(vectors)), axis=0)
    return float(np.max(np.abs(a - b) / np.where(scale > 0.0, scale, 1.0)))


class TestFedAvgProperties:
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=_ELEMENTS), st.integers(1, 8),
           st.booleans())
    def test_identical_updates_average_to_that_update(self, params, n_clients, weighted):
        updates = [fed.ClientUpdate(k, params.copy(), 10 + k) for k in range(n_clients)]
        out = fed.fedavg_aggregate(updates, weighted)
        assert out.tobytes() == params.tobytes()

    @given(_client_vectors(), st.randoms(use_true_random=False), st.booleans())
    def test_client_order_moves_the_average_by_at_most_1e_12(self, vectors, order, weighted):
        updates = [fed.ClientUpdate(k, v, 10 + 7 * k) for k, v in enumerate(vectors)]
        shuffled = list(updates)
        order.shuffle(shuffled)
        a = fed.fedavg_aggregate(updates, weighted)
        b = fed.fedavg_aggregate(shuffled, weighted)
        assert _relative_to_inputs(a, b, vectors) <= 1e-12

    @given(_client_vectors(), st.integers(1, 10_000))
    def test_weighting_equal_shards_matches_the_plain_average(self, vectors, shard_size):
        updates = [fed.ClientUpdate(k, v, shard_size) for k, v in enumerate(vectors)]
        weighted = fed.fedavg_aggregate(updates, weighted=True)
        plain = fed.fedavg_aggregate(updates, weighted=False)
        assert _relative_to_inputs(weighted, plain, vectors) <= 1e-12


class TestFedBnProperties:
    @settings(max_examples=40)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.floats(-30, 30), st.booleans())
    def test_each_client_keeps_its_own_batchnorm_slots(self, n_clients, seed, log_scale,
                                                       weighted):
        rng = np.random.default_rng(seed)
        updates = [fed.ClientUpdate(k, rng.normal(size=nn.PARAM_COUNT) * 10.0 ** log_scale,
                                    int(rng.integers(1, 100))) for k in range(n_clients)]
        mask = nn.bn_mask()
        result = fed.fedbn_aggregate(updates, mask, weighted)
        for update, own in zip(updates, result.per_client):
            assert own[mask].tobytes() == update.params[mask].tobytes()


class TestFedBn:
    def test_identical_bn_equals_fedavg(self, rng):
        mask = nn.bn_mask()
        updates = make_updates(rng, 4)
        shared_bn = rng.normal(size=int(mask.sum()))
        for u in updates:
            u.params[mask] = shared_bn
        res = fed.fedbn_aggregate(updates, mask)
        avg = fed.fedavg_aggregate(updates)
        for vec in res.per_client:
            assert np.max(np.abs(vec - avg)) <= 1e-15

    def test_bn_slots_untouched_per_client(self, rng):
        mask = nn.bn_mask()
        updates = make_updates(rng, 5)
        res = fed.fedbn_aggregate(updates, mask)
        avg = fed.fedavg_aggregate(updates)
        for u, vec in zip(updates, res.per_client):
            assert np.array_equal(vec[mask], u.params[mask])
            assert np.max(np.abs(vec[~mask] - avg[~mask])) <= 1e-15

    def test_eval_params_use_client0_bn(self, rng):
        mask = nn.bn_mask()
        updates = make_updates(rng, 3)
        res = fed.fedbn_aggregate(updates, mask)
        assert np.array_equal(res.eval_params[mask], updates[0].params[mask])
        assert mask.sum() == 128


class TestFedProx:
    def test_zero_at_anchor(self, rng):
        w = rng.normal(size=20)
        value, grad = fed.fedprox_penalty(w, w.copy(), 0.1)
        assert value == 0.0
        assert np.all(grad == 0.0)

    def test_direct_formula(self):
        value, grad = fed.fedprox_penalty(np.array([1.0, 2.0]), np.zeros(2), 0.1)
        assert value == pytest.approx(0.25, abs=1e-15)
        assert np.allclose(grad, [0.1, 0.2], atol=1e-15)

    def test_gradient_vs_finite_difference(self, rng):
        w = rng.normal(size=30)
        wt = rng.normal(size=30)
        mu = 0.7
        _, grad = fed.fedprox_penalty(w, wt, mu)
        h = 1e-6
        fd = np.empty(30)
        for i in range(30):
            wp = w.copy(); wp[i] += h
            wm = w.copy(); wm[i] -= h
            fd[i] = (fed.fedprox_penalty(wp, wt, mu)[0] - fed.fedprox_penalty(wm, wt, mu)[0]) / (2 * h)
        assert rel_err(grad, fd) <= 1e-6

    @pytest.mark.parametrize("mu", [1e-5, 0.01, 0.5, 3.7])
    def test_is_the_quadratic_penalty_with_unit_importance(self, rng, mu):
        # local training applies FedProx as the quadratic penalty with an
        # importance of 1 on the optimized slots; on the running statistics
        # both gradients are a signed zero
        unit = cl.PENALIZED_MASK.astype(np.float64)
        theta = rng.normal(size=(3, nn.PARAM_COUNT))
        anchor = rng.normal(size=(3, nn.PARAM_COUNT))
        _, grad = cl.quadratic_penalty(theta[0], [cl.AnchorParams(anchor[0], 0)], [unit], mu)
        assert np.array_equal(grad, fed.fedprox_penalty(theta[0], anchor[0], mu)[1]
                              * cl.PENALIZED_MASK)
        mus = np.array([mu, 2.0 * mu, mu / 3.0])
        _, grad = cl.quadratic_penalty(theta, [cl.AnchorParams(anchor, 0)],
                                       [np.tile(unit, (3, 1))], mus)
        expected = np.stack([fed.fedprox_penalty(t, a, m)[1]
                             for t, a, m in zip(theta, anchor, mus)]) * cl.PENALIZED_MASK
        assert np.array_equal(grad, expected)


class TestFedOpt:
    def test_sgd_lr1_equals_fedavg(self, rng):
        updates = make_updates(rng, 6)
        global_params = rng.normal(size=nn.PARAM_COUNT)
        server = nn.Optimizer("sgd", 1.0)
        out = fed.fedopt_server_step(global_params, updates, server)
        avg = fed.fedavg_aggregate(updates)
        assert np.max(np.abs(out - avg)) <= 1e-15

    def test_zero_delta_no_move(self, rng):
        global_params = rng.normal(size=50)
        updates = [fed.ClientUpdate(i, global_params.copy(), 10) for i in range(4)]
        out = fed.fedopt_server_step(global_params, updates, nn.Optimizer("sgd", 0.5))
        assert np.array_equal(out, global_params)
        out_adam = fed.fedopt_server_step(global_params, updates, nn.Optimizer("adam", 0.5))
        assert np.max(np.abs(out_adam - global_params)) <= 1e-12

    def test_adam_server_matches_reference(self, rng):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8  # nn.ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        server = nn.Optimizer("adam", lr)
        g = rng.normal(size=12)
        m = np.zeros(12)
        v = np.zeros(12)
        g_ref = g.copy()
        for t in range(1, 4):
            updates = make_updates(rng, 3, length=12)
            out = fed.fedopt_server_step(g, updates, server)
            delta = g_ref - pairwise_mean([u.params for u in updates])
            m = b1 * m + (1 - b1) * delta
            v = b2 * v + (1 - b2) * delta ** 2
            g_ref = g_ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert np.max(np.abs(out - g_ref)) <= 1e-12
            g = out


class TestDistill:
    def test_weight_zero_returns_labels(self, rng):
        labels = rng.uniform(1, 5, size=(4, 8))
        teacher = rng.normal(size=(4, 8))
        assert fed.distill_target(labels, teacher, 0.0) is labels

    def test_weight_one_returns_teacher(self, rng):
        labels = rng.uniform(1, 5, size=(4, 8))
        teacher = rng.normal(size=(4, 8))
        assert np.allclose(fed.distill_target(labels, teacher, 1.0), teacher, atol=1e-15)

    def test_blended_gradient_equivalence(self, rng):
        # gradient of (1-w) MSE(p, y) + w MSE(p, t) equals MSE toward the blend
        p = rng.normal(size=(6, 8))
        y = rng.uniform(1, 5, size=(6, 8))
        t = rng.normal(size=(6, 8))
        w = 0.3
        blend = fed.distill_target(y, t, w)
        g_blend = 2 * (p - blend) / p.size
        g_sum = (1 - w) * 2 * (p - y) / p.size + w * 2 * (p - t) / p.size
        assert np.max(np.abs(g_blend - g_sum)) <= 1e-15


class TestStrategyConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            fed.StrategyConfig(kind="fedmagic")

    def test_rejects_bad_distill_weight(self):
        with pytest.raises(ValueError):
            fed.StrategyConfig(kind="feddistill", distill_weight=1.5)
