"""Acceptance gate: twelve end-to-end checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; without -s pytest still reports each as a test. The whole file takes
a few minutes, dominated by the stock-configuration flow training run.
"""

import time
from contextlib import contextmanager

import numpy as np

from otconvert.cli import entry
from otconvert.convert import sinkvc_convert
from otconvert.discrete import (SinkhornConfig, cost_matrix, exact_ot,
                                project_to_marginals, sinkhorn,
                                uniform_marginal)
from otconvert.flow import FlowConfig, fm_apply, fm_pipeline, fm_train
from otconvert.metrics import (GaussianStats, frechet_distance, gaussian_fit,
                               w2_squared_gaussian)
from otconvert.neural import (NotConfig, apply_map, dataset_from_arrays,
                              not_loss_map, not_loss_potential, not_train)
from otconvert.nn import init_mlp, mlp_backward, mlp_forward
from otconvert.rng import make_rng
from otconvert.synth import (clusters_outlier, conversion_clusters,
                             gauss_affine, gauss_shift, nearest_direction,
                             two_conditions)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"\n[criterion {num:02d}] {name}: PASS")


SHARP = SinkhornConfig(epsilon=0.005, max_iterations=20_000, tolerance=1e-9)


def test_01_sinkhorn_feasibility():
    with criterion(1, "sinkhorn marginal feasibility on 50 random 64x64 problems"):
        rng = make_rng(11)
        cfg = SinkhornConfig(epsilon=0.1, max_iterations=10_000, tolerance=1e-6)
        start = time.perf_counter()
        for _ in range(50):
            cost = rng.uniform(size=(64, 64))
            a = rng.uniform(0.5, 1.5, size=64)
            b = rng.uniform(0.5, 1.5, size=64)
            plan = sinkhorn(cost, a / a.sum(), b / b.sum(), cfg=cfg)
            row_dev = np.abs(plan.coupling.sum(axis=1) - a / a.sum()).max()
            col_dev = np.abs(plan.coupling.sum(axis=0) - b / b.sum()).max()
            assert max(row_dev, col_dev) < 1e-6
        assert time.perf_counter() - start < 10.0


def test_02_entropic_plan_matches_exact_optimum():
    with criterion(2, "entropic cost within 1% of exact optimum, never below"):
        rng = make_rng(123)
        cfg = SinkhornConfig(epsilon=0.005, max_iterations=10_000, tolerance=1e-6)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            cost = rng.uniform(size=(n, n))
            plan = sinkhorn(cost, cfg=cfg)
            a = uniform_marginal(n)
            feasible = project_to_marginals(plan.coupling, a, a)
            entropic = float(np.sum(feasible * cost))
            _, exact_cost = exact_ot(cost)
            assert entropic >= exact_cost - 1e-9
            assert entropic <= 1.01 * exact_cost


def _flat_fd_gradient(loss_fn, params, step=1e-5):
    grads = [np.zeros_like(p) for p in params]
    for p, g in zip(params, grads):
        flat_p = p.ravel()
        flat_g = g.ravel()
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + step
            hi = loss_fn()
            flat_p[i] = keep - step
            lo = loss_fn()
            flat_p[i] = keep
            flat_g[i] = (hi - lo) / (2.0 * step)
    return grads


def _assert_grads_close(analytic, numeric, rtol=1e-4, atol=1e-8):
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def _random_pair(rng, dim=2, cond=1, transform=False):
    from otconvert.neural import NotModelPair

    map_model = init_mlp((dim, 5, dim), rng, activation="tanh", condition_dim=cond)
    pot_model = init_mlp((dim, 5, 1), rng, activation="tanh", condition_dim=cond)
    return NotModelPair(map_model=map_model, potential_model=pot_model,
                        nonpositivity_transform=transform)


def test_03_gradients_match_finite_differences():
    with criterion(3, "all trainable losses pass finite-difference checks"):
        for case in range(20):
            rng = make_rng(300 + case)
            x = rng.normal(size=(6, 2))
            y = rng.normal(size=(6, 2))
            s = rng.normal(size=2)
            for extremal in (False, True):
                cfg = NotConfig(extremal=extremal)
                pair = _random_pair(rng, transform=extremal, cond=2)
                _, pot_grads = not_loss_potential(pair, x, y, s, cfg)
                numeric = _flat_fd_gradient(
                    lambda: not_loss_potential(pair, x, y, s, cfg)[0],
                    [pair.potential_model.params])
                _assert_grads_close([pot_grads], numeric)
                _, map_grads = not_loss_map(pair, x, s, cfg)
                numeric = _flat_fd_gradient(
                    lambda: not_loss_map(pair, x, s, cfg)[0],
                    [pair.map_model.params])
                _assert_grads_close([map_grads], numeric)

            # interpolant-regression loss of the velocity field
            model = init_mlp((2, 5, 2), rng, activation="tanh",
                             time_conditioned=True)
            t = rng.uniform(size=6)
            xt = (1.0 - t)[:, None] * x + t[:, None] * y
            target = y - x

            def flow_loss():
                diff = mlp_forward(model, xt, t=t) - target
                return float(np.mean(np.sum(diff * diff, axis=1)))

            diff = mlp_forward(model, xt, t=t) - target
            analytic, _ = mlp_backward(model, xt, t=t,
                                       upstream=2.0 * diff / len(xt))
            numeric = _flat_fd_gradient(flow_loss, [model.params])
            _assert_grads_close([analytic], numeric)


NOT_RECOVERY = dict(hidden_dims=(64, 64), batch_size=128, lr_decay="cosine",
                    total_outer_iterations=1000, checkpoint_every=1000)


def test_04_not_recovers_gaussian_shift():
    with criterion(4, "neural OT recovers a 2-d Gaussian shift, 3/3 seeds"):
        for seed in (1, 2, 3):
            start = time.perf_counter()
            task = gauss_shift(2000, 2, make_rng(seed))
            shift = np.array(task.truth["shift"])
            ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
            pair, _ = not_train(ds, NotConfig(**NOT_RECOVERY),
                                make_rng(seed, "train"))
            held = make_rng(1000 + seed).normal(size=(500, 2))
            mapped = apply_map(pair, held, np.array([1.0]))
            err = np.linalg.norm(mapped - (held + shift), axis=1).mean()
            assert err < 0.15, f"seed {seed}: mean map error {err:.4f}"
            assert time.perf_counter() - start < 120.0


def test_05_conditional_maps_learn_their_own_shifts():
    with criterion(5, "two-condition maps each match their own shift to 5%"):
        task = two_conditions(2000, 2, make_rng(7))
        ds = dataset_from_arrays(task.entries)
        cfg = NotConfig(hidden_dims=(64, 64), batch_size=256, lr_decay="cosine",
                        total_outer_iterations=3000, checkpoint_every=3000)
        pair, _ = not_train(ds, cfg, make_rng(7, "train"))
        held = make_rng(1007).normal(size=(500, 2))
        for label, vector, _, _ in task.entries:
            shift = np.array(task.truth["shifts"][label])
            mapped = apply_map(pair, held, np.asarray(vector))
            err = np.linalg.norm(mapped - (held + shift), axis=1).mean()
            assert err < 0.05 * np.linalg.norm(shift), \
                f"condition {label}: error {err:.4f}"


def test_06_extremal_weight_rejects_the_outlier_arm():
    with criterion(6, "extremal w=12 lands in the near cluster at no extra cost"):
        def train_and_eval(seed, w):
            task = clusters_outlier(1000, 2, make_rng(seed))
            ds = dataset_from_arrays([("c", [1.0], task.source, task.target)])
            cfg = NotConfig(hidden_dims=(64, 64), batch_size=128, extremal=True,
                            w=w, total_outer_iterations=2000,
                            checkpoint_every=2000)
            pair, _ = not_train(ds, cfg, make_rng(seed, "train"))
            held = 0.3 * make_rng(2000 + seed).normal(size=(500, 2))
            mapped = apply_map(pair, held, np.array([1.0]))
            near = np.array(task.truth["near_center"])
            far = np.array(task.truth["outlier_center"])
            nearer = (np.linalg.norm(mapped - near, axis=1)
                      < np.linalg.norm(mapped - far, axis=1))
            mean_cost = float(np.mean(0.5 * np.sum((held - mapped) ** 2, axis=1)))
            return float(np.mean(nearer)), mean_cost

        for seed in (1, 2, 3):
            frac_near, cost_heavy = train_and_eval(seed, 12.0)
            _, cost_plain = train_and_eval(seed, 1.0)
            assert frac_near >= 0.90, f"seed {seed}: near fraction {frac_near:.3f}"
            assert cost_heavy <= cost_plain + 1e-3, \
                f"seed {seed}: {cost_heavy:.4f} vs {cost_plain:.4f}"


def test_07_flow_learns_constant_shift_at_stock_config():
    with criterion(7, "stock flow configuration masters a constant shift"):
        c = np.array([2.0, -1.0, 1.5, 1.0])
        c *= 3.0 / np.linalg.norm(c)

        def sampler(count, rng):
            x = rng.normal(size=(count, len(c)))
            return x, x + c

        cfg = FlowConfig(hidden_dims=(512, 512, 512), batch_size=1000,
                         iterations=1000, learning_rate=0.001,
                         ode_steps=100, ode_method="euler")
        field = fm_train(sampler, cfg, make_rng(1, "train"))
        ev = make_rng(99, "eval")
        x0 = ev.normal(size=(400, len(c)))
        t = ev.uniform(size=400)
        xt = x0 + t[:, None] * c
        v_err = np.linalg.norm(field.velocity(t, xt) - c, axis=1).mean()
        assert v_err < 0.05 * np.linalg.norm(c), f"velocity error {v_err:.4f}"
        endpoint_err = np.linalg.norm(fm_apply(field, x0, cfg) - (x0 + c),
                                      axis=1).mean()
        assert endpoint_err < 0.05 * np.linalg.norm(c), \
            f"endpoint error {endpoint_err:.4f}"


def test_08_flow_reaches_an_affine_gaussian_target():
    with criterion(8, "flow cuts Gaussian-oracle W2^2 to target by 10x"):
        start = time.perf_counter()
        task = gauss_affine(800, 3, make_rng(21))
        truth = GaussianStats(mean=np.array(task.truth["mean"]),
                              covariance=np.array(task.truth["cov"]),
                              sample_count=0)
        sink = SinkhornConfig(epsilon=0.1, max_iterations=10_000, tolerance=1e-6)
        flow = FlowConfig(hidden_dims=(128, 128), batch_size=256, iterations=800,
                          learning_rate=1e-3, ode_steps=100, ode_method="euler")
        field, _, _ = fm_pipeline(task.source, task.target, sink, flow,
                                  make_rng(21, "train"),
                                  cost_kind="squared_euclidean")
        x_test = make_rng(2021).normal(size=(800, 3))
        moved = fm_apply(field, x_test, flow)
        after = w2_squared_gaussian(gaussian_fit(moved), truth)
        before = w2_squared_gaussian(gaussian_fit(x_test), truth)
        assert after < 0.1 * before, f"ratio {after / before:.4f}"
        assert time.perf_counter() - start < 60.0


def _w2sq_subsample(x, y, rng, reps=10, m=64):
    """Unit-convention W2^2 estimate: exact assignment on random subsamples."""
    values = []
    for _ in range(reps):
        xi = x[rng.choice(len(x), size=m, replace=False)]
        yi = y[rng.choice(len(y), size=m, replace=False)]
        _, half_cost = exact_ot(cost_matrix(xi, yi, "squared_euclidean"))
        values.append(2.0 * half_cost)
    values = np.asarray(values)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(reps))


def test_09_gaussian_bound_never_exceeds_transport():
    with criterion(9, "FD <= 2*W2^2 across 200 random instances"):
        rng = make_rng(42)
        for case in range(200):
            d = int(rng.integers(2, 9))
            x = rng.normal(size=(500, d))
            kind = case % 4
            if kind == 0:
                y = rng.normal(size=(500, d)) + rng.normal(size=d)
            elif kind == 1:
                a = rng.normal(size=(d, d)) * 0.5 + np.eye(d)
                y = rng.normal(size=(500, d)) @ a.T + rng.normal(size=d)
            elif kind == 2:
                centers = rng.normal(size=(3, d)) * 2.0
                y = centers[rng.integers(3, size=500)] \
                    + 0.5 * rng.normal(size=(500, d))
            else:
                y = rng.normal(size=(500, d))
            fd = frechet_distance(x, y)
            estimate, sem = _w2sq_subsample(x, y, rng)
            assert fd <= estimate + 1e-8 + 3.0 * sem, \
                f"case {case}: FD {fd:.4f} vs bound {estimate:.4f}+3*{sem:.4f}"


def test_10_sinkvc_agrees_with_exact_assignment_and_clusters():
    with criterion(10, "sinkvc matches exact assignment and keeps clusters"):
        total = agree = 0
        for seed in range(10):
            rng = make_rng(500 + seed)
            task = conversion_clusters(48, 48, 6, rng)
            cost = cost_matrix(task.source, task.target, kind="cosine_distance")
            plan, _ = exact_ot(cost)
            assignment = np.argmax(plan.coupling, axis=1)
            out, _ = sinkvc_convert(task.source, task.target, cfg=SHARP, k=1)
            matched = np.all(np.isclose(out, task.target[assignment],
                                        atol=1e-12), axis=1)
            agree += int(matched.sum())
            total += 48
        assert agree / total >= 0.95, f"agreement {agree / total:.3f}"

        task = conversion_clusters(120, 480, 6, make_rng(21), n_clusters=3)
        out, _ = sinkvc_convert(task.source, task.target)  # paper defaults
        got = nearest_direction(out, np.array(task.truth["shifted_directions"]))
        rate = float(np.mean(got == task.source_labels))
        assert rate >= 0.95, f"correct-cluster rate {rate:.3f}"


def test_11_cli_runs_reproduce_from_their_emitted_config(tmp_path, capsys):
    with criterion(11, "reruns from emitted run configs are byte-identical"):
        def cli(*argv):
            code = entry([str(a) for a in argv])
            capsys.readouterr()
            assert code == 0
            return code

        data = tmp_path / "data"
        cli("synth", "--task", "gauss_shift", "--n", 80, "--dim", 2,
            "--seed", 5, "--out-dir", data)
        overrides = tmp_path / "small.cfg"
        overrides.write_text("command = convert\nfm_hidden_dims = 16,16\n"
                             "fm_batch_size = 64\nfm_iterations = 120\n")
        out = tmp_path / "converted.otf"
        model = tmp_path / "field.otm"
        cli("convert", "--source", data / "source.otf",
            "--reference", data / "target.otf", "--method", "fmvc",
            "--cost", "squared_euclidean", "--model", model, "--out", out,
            "--seed", 9, "--config", overrides)
        produced = ["converted.otf", "converted.otf.report.json", "field.otm"]
        first = {name: (tmp_path / name).read_bytes() for name in produced}
        for name in produced:
            (tmp_path / name).unlink()
        cli("convert", "--config", tmp_path / "converted.otf.run.cfg")
        for name in produced:
            assert (tmp_path / name).read_bytes() == first[name], name

        spec = data / "dataset.spec"
        pair_model = tmp_path / "pair.otm"
        not_cfg = tmp_path / "not.cfg"
        not_cfg.write_text(
            "command = train-not\nseed = 3\n"
            f"dataset_spec = {spec}\nout_model = {pair_model}\n"
            "hidden_dims = 16,16\nbatch_size = 32\n"
            "total_outer_iterations = 40\ncheckpoint_every = 20\n"
            "eval_samples = 16\n")
        cli("train-not", "--config", not_cfg)
        trained = {name: (tmp_path / name).read_bytes()
                   for name in ("pair.otm", "pair.otm.loss.csv")}
        for name in trained:
            (tmp_path / name).unlink()
        cli("train-not", "--config", tmp_path / "pair.otm.run.cfg")
        for name, blob in trained.items():
            assert (tmp_path / name).read_bytes() == blob, name


def test_12_flow_conversion_survives_a_short_reference():
    with criterion(12, "50-frame reference: flow degrades <=10pp, k=1 >=25pp"):
        flow = FlowConfig(hidden_dims=(64, 64), batch_size=256, iterations=600,
                          learning_rate=1e-3, ode_steps=100, ode_method="euler")
        sink = SinkhornConfig(epsilon=0.1, max_iterations=10_000, tolerance=1e-6)
        theta = 0.12  # cosine tolerance defining "assigned to the right spot"

        def accuracies(n_reference):
            task = conversion_clusters(600, n_reference, 6, make_rng(0))
            directions = np.array(task.truth["directions"])
            shifted = np.array(task.truth["shifted_directions"])
            ideal = (task.source - directions[task.source_labels]
                     + shifted[task.source_labels])

            def fidelity(outputs):
                on = outputs / np.linalg.norm(outputs, axis=1, keepdims=True)
                idn = ideal / np.linalg.norm(ideal, axis=1, keepdims=True)
                return float(np.mean(1.0 - np.sum(on * idn, axis=1) <= theta))

            discrete_out, _ = sinkvc_convert(task.source, task.target,
                                             cfg=SHARP, k=1)
            _, flow_out, _ = fm_pipeline(task.source, task.target, sink, flow,
                                         make_rng(0, "train"),
                                         cost_kind="cosine_distance")
            return fidelity(discrete_out), fidelity(flow_out)

        discrete_full, flow_full = accuracies(1500)
        discrete_small, flow_small = accuracies(50)
        assert discrete_full >= 0.9 and flow_full >= 0.95  # anchors
        flow_drop = (flow_full - flow_small) * 100.0
        discrete_drop = (discrete_full - discrete_small) * 100.0
        assert flow_drop <= 10.0, f"flow degraded {flow_drop:.1f}pp"
        assert discrete_drop >= 25.0, f"k=1 degraded only {discrete_drop:.1f}pp"
