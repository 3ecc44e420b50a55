import numpy as np
import pytest

from fedcl import metrics
from fedcl.metrics import DEGENERATE_STD, compute_report, pcc


def two_pass_pcc(x, y):
    """High-precision reference: explicit two-pass covariance computation."""
    n = len(x)
    mx = sum(float(v) for v in x) / n
    my = sum(float(v) for v in y) / n
    cov = sum((float(a) - mx) * (float(b) - my) for a, b in zip(x, y)) / n
    vx = sum((float(a) - mx) ** 2 for a in x) / n
    vy = sum((float(b) - my) ** 2 for b in y) / n
    return cov / np.sqrt(vx * vy)


def column_pcc(x, y):
    """Reference: the one-column computation, in 1-d numpy calls; None when
    degenerate."""
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt((xc ** 2).mean())
    sy = np.sqrt((yc ** 2).mean())
    if sx < DEGENERATE_STD or sy < DEGENERATE_STD:
        return None
    return float((xc * yc).mean() / (sx * sy))


class TestPcc:
    def test_self_correlation(self, rng):
        x = rng.normal(size=50)
        assert pcc(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance_sign(self, rng):
        x = rng.normal(size=40)
        assert pcc(x, 2.5 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert pcc(x, -0.3 * x + 7.0) == pytest.approx(-1.0, abs=1e-12)

    def test_against_two_pass_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 60))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            r = pcc(x, y)
            assert abs(r - two_pass_pcc(x, y)) <= 1e-12
            assert abs(r) <= 1.0 + 1e-12

    def test_degenerate_constant(self, rng):
        assert pcc(np.ones(10), rng.normal(size=10)) is None

    def test_too_short(self):
        with pytest.raises(ValueError):
            pcc(np.array([1.0]), np.array([2.0]))


class TestReport:
    def test_perfect_prediction(self, rng):
        t = rng.uniform(1, 5, size=(20, 8))
        rep = compute_report(t, t)
        assert rep.avg_mse == 0.0
        assert rep.avg_rmse == 0.0
        assert np.all(np.abs(rep.per_action_pcc - 1.0) <= 1e-12)

    def test_anticorrelation(self, rng):
        t = rng.normal(size=(20, 8))
        t -= t.mean(axis=0)
        rep = compute_report(-t, t)
        assert np.all(np.abs(rep.per_action_pcc + 1.0) <= 1e-12)

    def test_rmse_is_sqrt_of_loss(self, rng):
        pred = rng.normal(size=(30, 8))
        target = rng.normal(size=(30, 8))
        rep = compute_report(pred, target)
        assert abs(rep.avg_rmse ** 2 - rep.avg_mse) <= 1e-12
        # the published (0.219, 0.468) pair satisfies the same identity
        assert round(float(np.sqrt(0.219)), 3) == 0.468

    def test_avg_mse_is_mean_of_per_action(self, rng):
        pred = rng.normal(size=(15, 8))
        target = rng.normal(size=(15, 8))
        rep = compute_report(pred, target)
        assert rep.avg_mse == pytest.approx(rep.per_action_mse.mean(), abs=1e-15)

    def test_degenerate_actions_excluded_from_average(self, rng):
        pred = rng.normal(size=(25, 8))
        pred[:, 3] = 2.0  # constant predictor for one action
        target = rng.uniform(1, 5, size=(25, 8))
        rep = compute_report(pred, target)
        assert rep.degenerate_actions == [3]
        assert np.isnan(rep.per_action_pcc[3])
        finite = np.delete(rep.per_action_pcc, 3)
        assert rep.avg_pcc == pytest.approx(finite.mean(), abs=1e-15)

    def test_constant_predictor_loss_decomposition(self, rng):
        # loss = label variance + squared bias per action, vs direct oracle
        target = rng.uniform(1, 5, size=(100, 8))
        pred = np.full((100, 8), 3.0)
        rep = compute_report(pred, target)
        direct = target.var(axis=0) + (target.mean(axis=0) - 3.0) ** 2
        assert np.max(np.abs(rep.per_action_mse - direct)) <= 1e-12

    def test_permutation_invariance(self, rng):
        pred = rng.normal(size=(40, 8))
        target = rng.normal(size=(40, 8))
        perm = rng.permutation(40)
        a = compute_report(pred, target)
        b = compute_report(pred[perm], target[perm])
        assert a.avg_mse == pytest.approx(b.avg_mse, abs=1e-12)
        assert a.avg_pcc == pytest.approx(b.avg_pcc, abs=1e-12)

    def test_bit_equal_to_per_column_pcc(self, rng):
        for case in range(300):
            n = int(rng.integers(2, 200))
            pred = rng.normal(size=(n, 8)) * rng.uniform(0.0, 10.0, size=8)
            target = rng.uniform(1, 5, size=(n, 8))
            pred[:, case % 8] = 2.0  # a constant (degenerate) column
            if case % 3 == 0:
                target[:, (case + 1) % 8] = 3.0
            rep = compute_report(pred, target)
            expected = [column_pcc(pred[:, a], target[:, a]) for a in range(8)]
            assert rep.degenerate_actions == [a for a, r in enumerate(expected) if r is None]
            for a, r in enumerate(expected):
                if r is None:
                    assert np.isnan(rep.per_action_pcc[a])
                    assert pcc(pred[:, a], target[:, a]) is None
                else:
                    assert rep.per_action_pcc[a] == r
                    assert pcc(pred[:, a], target[:, a]) == r
            finite = [r for r in expected if r is not None]
            assert rep.avg_pcc == float(np.array(finite).mean())

    def test_means_bit_equal_to_ndarray_mean(self, rng):
        for _ in range(200):
            shape = tuple(int(v) for v in rng.integers(1, 40, size=int(rng.integers(1, 4))))
            a = rng.normal(size=shape) * rng.uniform(0.0, 1e3)
            for axis in range(len(shape)):
                for keepdims in (False, True):
                    got = metrics._mean(a, axis=axis, keepdims=keepdims)
                    assert np.array_equal(got, a.mean(axis=axis, keepdims=keepdims))
            n = int(rng.integers(2, 300))
            pred, target = rng.normal(size=(n, 8)), rng.uniform(1, 5, size=(n, 8))
            rep = compute_report(pred, target)
            per_action = ((pred - target) ** 2).mean(axis=0)
            assert np.array_equal(rep.per_action_mse, per_action)
            assert rep.avg_mse == float(per_action.mean())
            assert rep.mean_per_action_rmse == float(np.sqrt(per_action).mean())

    def test_shape_and_size_validation(self, rng):
        with pytest.raises(ValueError):
            compute_report(rng.normal(size=(5, 8)), rng.normal(size=(5, 7)))
        with pytest.raises(ValueError):
            compute_report(rng.normal(size=(1, 8)), rng.normal(size=(1, 8)))
