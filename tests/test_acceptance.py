"""Acceptance suite: ten gate criteria, one printed PASS/FAIL line each.

Run with output enabled to see the lines:

    pytest tests/test_acceptance.py -s
"""

import math
import os
import time

import numpy as np
import pytest

from conftest import finite_difference, random_model, rel_err
import fedcl.orchestrator as orch
from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import nn
from fedcl import strategies as fed
from fedcl.config import parse_config
from fedcl.metrics import compute_report, pcc
from fedcl.orchestrator import ExperimentConfig, run_fcl, run_fl, evaluate
from fedcl.store import ResultsStore, emit_table, run_suite

REAL_DATASET = os.environ.get("FEDCL_DATA", os.path.join("data", "real.csv"))


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {number:02d}] {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def small_fl_config(**kw):
    defaults = dict(n_clients=2, n_rounds=3, local_epochs=1, batch_size=16, seed=7)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_criterion_01_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for draw in range(100):
        model = random_model(rng)
        x = rng.uniform(0, 1, size=(8, 29))
        y = rng.uniform(1, 5, size=(8, 8))
        theta = nn.extract_params(model)
        anchors = [cl.AnchorParams(theta + rng.normal(0, 0.1, nn.PARAM_COUNT), 0)]
        importances = [rng.uniform(0, 1, nn.PARAM_COUNT)]
        lam = float(rng.uniform(0.1, 2.0))

        _, pgrad = cl.quadratic_penalty(theta, anchors, importances, lam)
        analytic = nn.backward(model, x, y, pgrad)

        probe = model.clone()

        def loss_fn(params):
            nn.inject_params(probe, params)
            pred, _ = probe._forward_cached(x, "train")
            value, _ = cl.quadratic_penalty(params, anchors, importances, lam)
            return nn.mse_loss(pred, y)[0] + value

        # full-slot check on the first draws, a random slice afterwards
        if draw < 5:
            fd = finite_difference(loss_fn, theta)
            worst = max(worst, rel_err(analytic, fd))
        else:
            idx = rng.choice(nn.PARAM_COUNT, size=60, replace=False)
            for i in idx:
                p_plus = theta.copy(); p_plus[i] += 1e-5
                p_minus = theta.copy(); p_minus[i] -= 1e-5
                fd_i = (loss_fn(p_plus) - loss_fn(p_minus)) / 2e-5
                worst = max(worst, rel_err(np.array([analytic[i]]), np.array([fd_i])))
    elapsed = time.time() - t0
    report_line(1, worst <= 1e-5 and elapsed < 30,
                f"gradient oracle: 100 draws, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_strategy_equivalences():
    t0 = time.time()
    ds, _ = dataio.synthetic_generate(400, seed=0, noise_std=0.1)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    base = run_fl(small_fl_config(), train, test)
    prox = run_fl(small_fl_config(strategy=fed.StrategyConfig("fedprox", mu=0.0)),
                  train, test)
    dist = run_fl(small_fl_config(strategy=fed.StrategyConfig("feddistill",
                                                              distill_weight=0.0)),
                  train, test)
    base_sgd = run_fl(small_fl_config(client_optimizer="sgd"), train, test)
    opt = run_fl(small_fl_config(client_optimizer="sgd",
                                 strategy=fed.StrategyConfig("fedopt",
                                                             server_optimizer="sgd",
                                                             server_learning_rate=1.0)),
                 train, test)
    ok = (np.array_equal(base.final_params, prox.final_params)
          and np.array_equal(base.final_params, dist.final_params)
          and np.array_equal(base_sgd.final_params, opt.final_params))
    elapsed = time.time() - t0
    report_line(2, ok and elapsed < 60,
                f"bit-exact equivalences (fedprox mu=0, fedopt sgd lr=1, "
                f"feddistill w=0), {elapsed:.1f}s")


def test_criterion_03_aggregation_correctness():
    rng = np.random.default_rng(303)

    def pairwise_sum(vs):
        if len(vs) == 1:
            return vs[0]
        mid = len(vs) // 2
        return pairwise_sum(vs[:mid]) + pairwise_sum(vs[mid:])

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        updates = [fed.ClientUpdate(i, rng.normal(size=nn.PARAM_COUNT), 10)
                   for i in range(n)]
        out = fed.fedavg_aggregate(updates)
        oracle = pairwise_sum([u.params for u in updates]) / n
        worst = max(worst, float(np.max(np.abs(out - oracle))))
        perm = fed.fedavg_aggregate(updates[::-1])
        worst = max(worst, float(np.max(np.abs(out - perm))))

    mask = nn.bn_mask()
    updates = [fed.ClientUpdate(i, rng.normal(size=nn.PARAM_COUNT), 10) for i in range(4)]
    res = fed.fedbn_aggregate(updates, mask)
    bn_ok = (int(mask.sum()) == 128
             and all(np.array_equal(v[mask], u.params[mask])
                     for u, v in zip(updates, res.per_client)))
    report_line(3, worst <= 1e-12 and bn_ok,
                f"aggregation: max dev vs pairwise oracle {worst:.2e}, "
                f"FedBN keeps 128 BN slots local")


def test_criterion_04_synthetic_convergence():
    t0 = time.time()
    ds, _ = dataio.synthetic_generate(2000, seed=0, noise_std=0.1)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)

    # closed-form least-squares oracle (features plus intercept)
    X = np.hstack([train.features, np.ones((len(train), 1))])
    W, *_ = np.linalg.lstsq(X, train.labels, rcond=None)
    Xt = np.hstack([test.features, np.ones((len(test), 1))])
    ls_mse = float(np.mean((Xt @ W - test.labels) ** 2))

    results = {}
    for n_clients in (2, 10):
        cfg = ExperimentConfig(n_clients=n_clients, n_rounds=50, local_epochs=1,
                               batch_size=32, seed=4, learning_rate=1e-2)
        best = min(log.report.avg_mse for log in run_fl(cfg, train, test).round_logs)
        results[n_clients] = best
    elapsed = time.time() - t0
    ok = all(mse <= ls_mse + 0.01 for mse in results.values()) and elapsed < 120
    report_line(4, ok, f"synthetic convergence: LS oracle {ls_mse:.4f}, "
                       f"2 clients {results[2]:.4f}, 10 clients {results[10]:.4f}, "
                       f"{elapsed:.1f}s")


def test_criterion_05_reference_reproduction():
    if not os.path.isfile(REAL_DATASET):
        print(f"\n[criterion 05] SKIPPED - real dataset not present at {REAL_DATASET}")
        pytest.skip("real dataset not available")
    t0 = time.time()
    ds = dataio.load_csv(REAL_DATASET)
    train, test = dataio.train_test_split(ds, 0.75, seed=42)
    cfg = ExperimentConfig(n_clients=2, n_rounds=10, local_epochs=1,
                           batch_size=32, seed=42, learning_rate=1e-3)
    rep = run_fl(cfg, train, test).final_report
    elapsed = time.time() - t0
    ok = abs(rep.avg_mse - 0.219) <= 0.05 and abs(rep.avg_rmse - 0.468) <= 0.05
    report_line(5, ok and elapsed < 120,
                f"reproduction: Loss {rep.avg_mse:.3f} (target 0.219±0.05), "
                f"RMSE {rep.avg_rmse:.3f} (target 0.468±0.05), "
                f"PCC {rep.avg_pcc:.3f} (reported, ungated), {elapsed:.1f}s")


def _forgetting_run(method, lambda_=None):
    ds, _ = dataio.synthetic_two_task(400, seed=3, noise_std=0.2)
    train, test = dataio.train_test_split(ds, 0.75, seed=3)
    cfg = ExperimentConfig(n_clients=2, n_rounds=15, local_epochs=2, batch_size=32,
                           seed=11, learning_rate=1e-2, cl_method=method,
                           penalty=cl.PenaltyConfig(lambda_=lambda_))
    result = run_fcl(cfg, train, test)
    circle = dataio.split_tasks(test).task1
    return result, evaluate(result.final_params, circle).avg_mse


def test_criterion_06_fcl_forgetting_ordering():
    t0 = time.time()
    baseline_result, baseline = _forgetting_run("none")

    zero_ok = all(
        np.array_equal(_forgetting_run(m, lambda_=0.0)[0].final_params,
                       baseline_result.final_params)
        for m in ("ewc", "ewc_online", "si", "mas"))

    after = {m: _forgetting_run(m)[1] for m in ("ewc", "ewc_online", "si", "mas", "nr")}
    reg_ok = all(after[m] <= baseline + 1e-3 for m in ("ewc", "ewc_online", "si", "mas"))
    nr_strict = after["nr"] < baseline
    best_reg = min(after[m] for m in ("ewc", "ewc_online", "si", "mas"))
    nr_best = after["nr"] <= best_reg + 1e-3
    elapsed = time.time() - t0
    detail = (f"forgetting: baseline {baseline:.4f}, "
              + ", ".join(f"{m} {v:.4f}" for m, v in after.items())
              + f"; lambda=0 bit-identical: {zero_ok}, {elapsed:.1f}s")
    report_line(6, zero_ok and reg_ok and nr_strict and nr_best and elapsed < 300, detail)


def test_criterion_07_importance_properties():
    rng = np.random.default_rng(707)
    ds, _ = dataio.synthetic_generate(120, seed=7, noise_std=0.1)
    model = random_model(rng)
    theta = nn.extract_params(model)

    fisher_a = cl.compute_fisher(model, ds, 8, seed=1)
    fisher_b = cl.compute_fisher(model, ds, 8, seed=2)
    mas_map = cl.mas_importance(model, ds.features[:32], seed=3)
    nonneg = bool((fisher_a >= 0).all() and (fisher_b >= 0).all() and (mas_map >= 0).all())

    anchors = [cl.AnchorParams(theta.copy(), 0)]
    value_at_anchor, _ = cl.quadratic_penalty(theta, anchors, [fisher_a], 100.0)

    shifted = theta + rng.normal(0, 0.1, nn.PARAM_COUNT)
    _, grad = cl.quadratic_penalty(shifted, anchors, [fisher_a], 100.0)
    # central differences are exact for quadratics; h sized against the value scale
    fd = finite_difference(
        lambda p: cl.quadratic_penalty(p, anchors, [fisher_a], 100.0)[0], shifted, h=0.05)
    grad_err = rel_err(grad, fd)

    merged = cl.ewc_online_update(cl.ewc_online_update(None, fisher_a, 1.0), fisher_b, 1.0)
    online_dev = float(np.max(np.abs(merged - (fisher_a + fisher_b))))

    ok = (nonneg and value_at_anchor == 0.0 and grad_err <= 1e-6 and online_dev <= 1e-12)
    report_line(7, ok, f"importance maps: nonneg {nonneg}, penalty at anchor "
                       f"{value_at_anchor}, grad FD rel err {grad_err:.2e}, "
                       f"online gamma=1 sum dev {online_dev:.2e}")


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(808)

    def pcc_two_pass(x, y):
        mx, my = x.mean(), y.mean()
        cov = ((x - mx) * (y - my)).sum()
        return cov / math.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        ours = pcc(x, y)
        worst = max(worst, abs(ours - pcc_two_pass(x, y)))
        assert abs(ours) <= 1.0 + 1e-15

    rmse_dev = 0.0
    for _ in range(20):
        pred = rng.normal(3, 1, size=(40, 8))
        target = rng.uniform(1, 5, size=(40, 8))
        rep = compute_report(pred, target)
        rmse_dev = max(rmse_dev, abs(rep.avg_rmse ** 2 - rep.avg_mse))

    identity = round(math.sqrt(0.219), 3) == 0.468
    ok = worst <= 1e-12 and rmse_dev <= 1e-12 and identity
    report_line(8, ok, f"metrics: PCC oracle dev {worst:.2e}, RMSE^2 vs MSE dev "
                       f"{rmse_dev:.2e}, sqrt(0.219)=0.468 identity {identity}")


def test_criterion_09_determinism_across_worker_pools(monkeypatch):
    # results do not depend on how clients are scheduled: each round's
    # clients train as stacked cohorts of 1, 3 or all of them
    original = orch.local_train

    def run_in_chunks(size, run):
        def chunked(clients, *args):
            updates, losses = [], []
            for i in range(0, len(clients), size):
                u, l = original(clients[i:i + size], *args)
                updates += u
                losses += l
            return updates, losses

        with monkeypatch.context() as patch:
            patch.setattr(orch, "local_train", chunked)
            res = run()
        return res.final_params, res.final_report.per_action_mse

    def identical(finals):
        return all(np.array_equal(finals[0][0], p) and np.array_equal(finals[0][1], m)
                   for p, m in finals[1:])

    ds, _ = dataio.synthetic_generate(400, seed=0, noise_std=0.1)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    fl_ok = identical([run_in_chunks(size, lambda: run_fl(small_fl_config(n_clients=8),
                                                          train, test))
                       for size in (1, 3, 8)])

    ds2, _ = dataio.synthetic_two_task(200, seed=1, noise_std=0.1)
    train2, test2 = dataio.train_test_split(ds2, 0.75, seed=1)
    fcl_ok = identical([run_in_chunks(size, lambda: run_fcl(
        small_fl_config(n_clients=4, cl_method="nr"), train2, test2)) for size in (1, 3, 4)])
    report_line(9, fl_ok and fcl_ok,
                f"determinism: cohorts of 1/3/all clients bit-identical (FL {fl_ok}, FCL {fcl_ok})")


FL_GRID = """
[experiment]
rounds = 10
batch_size = 32
seed = 42

[sweep]
strategies = fedavg, fedbn, fedprox, fedopt, feddistill
clients = 2, 10
augmentation = false, true

[suite]
synthetic_n = 1000
"""

FCL_GRID = """
[experiment]
rounds = 10
batch_size = 32
seed = 42

[sweep]
cl_methods = ewc, ewc_online, si, mas, nr
clients = 2, 10
augmentation = false, true

[suite]
synthetic_n = 1000
"""


def test_criterion_10_full_grid(tmp_path):
    t0 = time.time()
    fl_cfg = tmp_path / "fl.ini"
    fl_cfg.write_text(FL_GRID)
    fcl_cfg = tmp_path / "fcl.ini"
    fcl_cfg.write_text(FCL_GRID)
    ds, _ = dataio.synthetic_generate(1000, seed=0, noise_std=0.1)
    out = str(tmp_path / "grid")

    suite_fl = parse_config(str(fl_cfg))
    suite_fcl = parse_config(str(fcl_cfg))
    assert len(suite_fl.experiments) == 20
    assert len(suite_fcl.experiments) == 20
    _, fail_fl = run_suite(suite_fl, ds, out)
    _, fail_fcl = run_suite(suite_fcl, ds, out)

    store = ResultsStore(out)
    table = emit_table(store, "markdown")
    elapsed = time.time() - t0
    ok = (not fail_fl and not fail_fcl and len(store.list_runs()) == 40
          and "## Federated Learning" in table
          and "## Federated Continual Learning" in table
          and elapsed < 900)
    report_line(10, ok, f"full grid: 40 runs, {len(fail_fl) + len(fail_fcl)} failures, "
                        f"tables emitted, {elapsed:.1f}s")
