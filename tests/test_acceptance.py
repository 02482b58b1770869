"""Acceptance gate: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines; any failure shows up as a normal pytest failure.
"""

import os
import time

import numpy as np
import pytest

from conftest import (
    assert_close_rel,
    dense_normalized_adjacency,
    edge_energy,
    finite_diff,
    forward,
    loss_gradient,
    random_graph,
)
from fairprop import debias
from fairprop.data import Dataset, SynthConfig, synth_generate
from fairprop.graph import build_graph, incident_vector, smoothness_energy
from fairprop.nn import MlpConfig, init_weights
from fairprop.train import RunConfig, load_dataset, run


def report(num, detail):
    print(f"\n[criterion {num}] PASS: {detail}")


def random_group_instance(rng, n_max=20, d_max=5):
    n = int(rng.integers(4, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    s = rng.choice([-1, 1], size=n)
    s[:2] = [1, -1]
    return n, d, s


class TestCriterion1:
    def test_fairness_gradient_matches_finite_differences(self, rng):
        start = time.perf_counter()
        worst = 0.0
        for _ in range(100):
            n, d, s = random_group_instance(rng)
            delta = incident_vector(s)
            F = rng.standard_normal((n, d)) * 2
            u = rng.standard_normal(d)

            def objective(Fv):
                p = delta.values @ debias.row_softmax(Fv)
                return float(p @ u)

            fd = finite_diff(objective, F)
            got = debias.fairness_grad(F, u, delta)
            assert_close_rel(got, fd, rtol=1e-6, afloor=1e-9)
            worst = max(worst, np.abs(got - fd).max())
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report(1, f"100 instances, max abs deviation {worst:.2e}, {elapsed:.2f}s < 5s")


class TestCriterion2:
    def test_prox_is_linf_ball_projection(self, rng):
        start = time.perf_counter()
        for _ in range(1000):
            d = int(rng.integers(1, 8))
            lam = float(rng.uniform(0.0, 5.0))
            u = rng.standard_normal(d) * 5
            out = debias.prox_dual(u, lam)
            assert np.abs(out).max() <= lam + 1e-15
            np.testing.assert_array_equal(debias.prox_dual(out, lam), out)
            inside = np.abs(u) <= lam
            np.testing.assert_array_equal(out[inside], u[inside])

        # grid-search argmin of ||y - u||^2 over the radius-lam ball, d = 2
        for _ in range(5):
            lam = float(rng.uniform(0.5, 2.0))
            u = rng.standard_normal(2) * 3
            axis = np.arange(-lam, lam + 1e-12, 1e-3)
            y1 = axis[np.abs(axis - u[1]).argmin()]
            best = None
            for y0 in axis:
                cost = (y0 - u[0]) ** 2 + (y1 - u[1]) ** 2
                if best is None or cost < best[0]:
                    best = (cost, y0, y1)
            got = debias.prox_dual(u, lam)
            assert np.abs(got - np.array(best[1:])).max() <= 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        report(2, f"1000 projections + grid argmin agree, {elapsed:.2f}s < 5s")


class TestCriterion3:
    def test_gap_vector_is_group_mean_probability_difference(self, rng):
        worst = 0.0
        for _ in range(100):
            n, d, s = random_group_instance(rng)
            F = rng.standard_normal((n, d)) * 3
            probs = debias.row_softmax(F)
            p = incident_vector(s).values @ probs
            oracle = probs[s == 1].mean(axis=0) - probs[s == -1].mean(axis=0)
            worst = max(worst, np.abs(p - oracle).max())
            assert worst <= 1e-12
        report(3, f"100 instances, max abs deviation {worst:.2e} <= 1e-12")


class TestCriterion4:
    @staticmethod
    def _forward(scheme, lam_s, layers, mlp, dataset, delta):
        cfg = RunConfig.from_dict(
            dict(
                dataset={},
                scheme=scheme,
                lambda_s=lam_s,
                lambda_f=0.0,
                num_layers=layers,
                alpha=1.0 / (1.0 + lam_s),
                prop_k=layers,
                hidden=list(mlp.config.hidden),
                seeds=[0],
                standardize=False,
            )
        )
        from fairprop.train import prepare

        features, forward = prepare(cfg, dataset, None, delta)
        return forward(mlp, features)[0]

    def test_zero_radius_reduces_to_teleport_propagation(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=15)
            d_in, d_out = int(rng.integers(2, 5)), 2
            s = rng.choice([-1, 1], size=g.n)
            s[:2] = [1, -1]
            dataset = Dataset(
                graph=g,
                features=rng.standard_normal((g.n, d_in)),
                sensitive=s,
                labels=rng.integers(0, d_out, size=g.n),
            )
            delta = incident_vector(s)
            lam_s = float(rng.uniform(0.1, 5.0))
            layers = int(rng.integers(1, 4))
            mlp = init_weights(
                MlpConfig(in_dim=d_in, hidden=[4], out_dim=d_out), int(rng.integers(100))
            )
            a = self._forward("fair", lam_s, layers, mlp, dataset, delta)
            b = self._forward("appnp", lam_s, layers, mlp, dataset, delta)
            assert np.array_equal(a, b), "forward passes differ bitwise"

        # full training under both code paths, same seed, identical metrics
        ds = synth_generate(SynthConfig(n=50, mean_degree=4.0, feat_dim=6, seed=0))
        lam_s = 1.0
        fair_cfg = RunConfig.from_dict(
            dict(dataset={}, scheme="fair", lambda_s=lam_s, lambda_f=0.0,
                 num_layers=2, hidden=[8], epochs=3, seeds=[0])
        )
        base_cfg = RunConfig.from_dict(
            dict(dataset={}, scheme="appnp", alpha=1.0 / (1.0 + lam_s),
                 prop_k=2, hidden=[8], epochs=3, seeds=[0])
        )
        (r1,), _, _ = run(fair_cfg, dataset=ds, save=False)
        (r2,), _, _ = run(base_cfg, dataset=ds, save=False)
        assert (r1.accuracy, r1.dp, r1.eo) == (r2.accuracy, r2.dp, r2.eo)
        report(4, "20 forward instances bitwise equal; trained metrics identical")


class TestCriterion5:
    def test_smoothness_energy_identities(self, rng):
        worst = 0.0
        for _ in range(200):
            g = random_graph(rng, n_max=25)
            F = rng.standard_normal((g.n, int(rng.integers(1, 5)))) * 2
            A = dense_normalized_adjacency(g.n, g.edges)
            oracle = float(np.trace(F.T @ (np.eye(g.n) - A) @ F))
            got = smoothness_energy(g, F)
            worst = max(worst, abs(got - oracle))
            assert worst <= 1e-9
        for n in (3, 5, 8, 12):
            g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
            F = rng.standard_normal((n, 3))
            diff = abs(
                smoothness_energy(g, F)
                - edge_energy(g, F)
            )
            assert diff <= 1e-9
        report(5, f"200 dense-oracle checks (max dev {worst:.2e}) + cycle edge form")


class TestCriterion6:
    def test_end_to_end_gradients_match_finite_differences(self, rng):
        start = time.perf_counter()
        n, d_in, hidden, d_out = 8, 4, 5, 2
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ] or [(0, 1)]
        g = build_graph(n, edges)
        s = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        delta = incident_vector(s)
        X = rng.standard_normal((n, d_in))
        labels = rng.integers(0, d_out, size=n)
        mask = np.ones(n, dtype=bool)
        cfg = RunConfig(lambda_s=1.0, lambda_f=2.0, num_layers=2)
        mlp = init_weights(MlpConfig(in_dim=d_in, hidden=[hidden], out_dim=d_out), 0)

        _, _, grad = loss_gradient(forward, mlp, X, labels, mask, g, delta, cfg)

        def f(theta_value):
            probe = mlp.copy()
            probe.theta[:] = theta_value
            return loss_gradient(forward, probe, X, labels, mask, g, delta, cfg)[1]

        fd = finite_diff(f, mlp.theta)
        assert_close_rel(grad, fd, rtol=1e-4, afloor=1e-7)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(6, f"all MLP parameter gradients within 1e-4, {elapsed:.2f}s < 30s")


class TestCriterion7:
    # unbalanced groups amplify the per-node correction (the incident vector
    # scales inversely with group size), making the effect measurable at this
    # scale
    GRAPH = SynthConfig(
        n=2000,
        eps_sens=0.9,
        eps_label=0.7,
        mean_degree=10.0,
        feat_dim=16,
        class_shift=0.15,
        group_shift=0.8,
        label_group_corr=0.75,
        group_frac=0.15,
        seed=0,
    )

    def test_synthetic_debiasing_lowers_parity_gap(self):
        start = time.perf_counter()
        ds = synth_generate(self.GRAPH)
        results = {}
        for lam_f in (0.0, 30.0):
            cfg = RunConfig.from_dict(
                dict(
                    dataset={},
                    scheme="fair",
                    lambda_s=1.0,
                    lambda_f=lam_f,
                    num_layers=32,
                    hidden=[64],
                    epochs=100,
                    seeds=[0, 1, 2, 3, 4],
                )
            )
            reports, _, _ = run(cfg, dataset=ds, save=False)
            results[lam_f] = (
                float(np.mean([r.accuracy for r in reports])),
                float(np.mean([r.dp for r in reports])),
            )
        elapsed = time.perf_counter() - start
        acc0, dp0 = results[0.0]
        acc30, dp30 = results[30.0]
        assert dp30 < dp0, f"parity gap not reduced: {dp30:.4f} vs {dp0:.4f}"
        assert acc0 - acc30 <= 0.05, f"accuracy dropped {acc0 - acc30:.4f} > 5pp"
        assert elapsed < 180.0
        report(
            7,
            f"mean dp {dp0:.4f} -> {dp30:.4f}, acc {acc0:.4f} -> {acc30:.4f}, "
            f"{elapsed:.0f}s < 180s",
        )

    @pytest.mark.xfail(
        strict=True,
        reason="the dual step beta = (1 + lambda_s) / 2 with |p| <= 1 keeps |u| <= 2 "
        "over 2 layers at lambda_s = 1, so the prox never binds at either radius",
    )
    def test_radius_past_the_dual_step_reach_changes_the_logits(self):
        # every lambda_f past the dual's reach is one run: a live knob gives
        # other logits at 1000 than at 30 for the same weights
        ds = synth_generate(self.GRAPH)
        delta = incident_vector(ds.sensitive)
        mlp = init_weights(MlpConfig(in_dim=ds.features.shape[1], hidden=[64], out_dim=2), 0)
        logits = []
        for lam_f in (30.0, 1000.0):
            cfg = RunConfig(lambda_s=1.0, lambda_f=lam_f, num_layers=2)
            out, _ = forward(mlp, ds.features, ds.graph, delta, cfg)
            logits.append(out)
        assert not np.array_equal(*logits)


NBA_DIR = os.environ.get("FAIRPROP_NBA_DIR", os.path.join("data", "nba"))


class TestCriterion8:
    def test_nba_reproduction(self):
        nodes = os.path.join(NBA_DIR, "nba.csv")
        edges = os.path.join(NBA_DIR, "nba_relationship.txt")
        if not (os.path.exists(nodes) and os.path.exists(edges)):
            msg = (
                f"[criterion 8] SKIP: released NBA files not found under "
                f"{NBA_DIR!r} (set FAIRPROP_NBA_DIR)"
            )
            print("\n" + msg)
            pytest.skip(msg)
        start = time.perf_counter()
        schema = {
            "id": "user_id",
            "sensitive": "country",
            "sensitive_pos_value": "1",
            "label": "SALARY",
        }
        dataset = load_dataset(nodes, edges, schema, name="nba")

        def point(lam_s, lam_f, seeds):
            cfg = RunConfig.from_dict(
                dict(
                    dataset={},
                    scheme="fair",
                    lambda_s=lam_s,
                    lambda_f=lam_f,
                    num_layers=2,
                    hidden=[64],
                    epochs=300,
                    lr=0.001,
                    weight_decay=1e-5,
                    seeds=list(seeds),
                )
            )
            reports, _, _ = run(cfg, dataset=dataset, save=False)
            return reports

        # grid tuning by validation accuracy on one seed, then 5 seeds at
        # the selected point
        lambda_s_grid = [0, 0.01, 0.1, 0.5, 1, 2, 3, 5, 10, 15, 20]
        lambda_f_grid = [0, 5, 10, 15, 20, 30, 100]
        best = None
        for lam_s in lambda_s_grid:
            for lam_f in lambda_f_grid:
                (r,) = point(lam_s, lam_f, [0])
                if best is None or r.accuracy > best[0]:
                    best = (r.accuracy, lam_s, lam_f)
        _, lam_s, lam_f = best
        reports = point(lam_s, lam_f, range(5))
        acc = float(np.mean([r.accuracy for r in reports]))
        dp = float(np.mean([r.dp for r in reports]))
        base = point(lam_s, 0, range(5))
        base_acc = float(np.mean([r.accuracy for r in base]))
        base_dp = float(np.mean([r.dp for r in base]))
        elapsed = time.perf_counter() - start
        assert acc >= 0.68
        assert dp <= 0.25
        if abs(acc - base_acc) <= 0.03:
            assert dp < base_dp
        assert elapsed < 600.0
        report(
            8,
            f"acc {acc:.4f} >= 0.68, dp {dp:.4f} <= 0.25 "
            f"(baseline dp {base_dp:.4f}), {elapsed:.0f}s < 600s",
        )


class TestCriterion9:
    def test_fairness_gradient_memory_and_speed(self, rng, monkeypatch):
        n, d = 50_000, 2
        s = rng.choice([-1, 1], size=n)
        s[:2] = [1, -1]
        delta = incident_vector(s)
        F = rng.standard_normal((n, d))
        u = rng.standard_normal(d)
        debias.fairness_grad(F, u, delta)  # warm-up

        start = time.perf_counter()
        debias.fairness_grad(F, u, delta)
        elapsed = time.perf_counter() - start

        # the buffers a call allocates: S = softmax(F), S * delta and the gradient
        alloc_log = []
        softmax, fair_grad = debias._softmax, debias._fair_grad

        def logged_softmax(F):
            S = softmax(F)
            alloc_log.append(S.shape)
            return S

        def logged_fair_grad(S, Sd, u):
            grad = fair_grad(S, Sd, u)
            alloc_log.extend([Sd.shape, grad.shape])
            return grad

        monkeypatch.setattr(debias, "_softmax", logged_softmax)
        monkeypatch.setattr(debias, "_fair_grad", logged_fair_grad)
        debias.fairness_grad(F, u, delta)
        assert len(alloc_log) == 3

        cap = 2 * n * d  # fixed small constant c = 2
        biggest = max(int(np.prod(shape)) for shape in alloc_log)
        assert biggest <= cap, f"buffer of {biggest} elements exceeds {cap}"
        assert elapsed < 0.1
        report(
            9,
            f"largest buffer {biggest} <= {cap} elements, "
            f"{elapsed * 1000:.1f}ms < 100ms",
        )
