"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime.  Run with ``pytest -v -s tests/test_acceptance.py``.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy import stats

from ima_lab.cli import run as cli_run
from ima_lab.contrast import (
    hadamard_gap_upper_bound,
    local_ima_contrast,
    offdiag_coherence,
)
from ima_lab.distributions import (
    FactorialDistribution,
    Gaussian,
    Laplace,
    Uniform,
    sample_factorial,
)
from ima_lab.errors import TrivialRotationError
from ima_lab.experiments import (
    AffineTransform,
    CubeTransform,
    TanhTransform,
    concentration_sweep,
    expected_boundary_fraction,
    genericity_experiment,
    reparam_invariance_check,
    spurious_gap_experiment,
    trend_nondecreasing,
)
from ima_lab.mixing import (
    LinearMap,
    injectivity_probe,
    jacobian_fd,
    make_two_piece,
    random_conformal_map,
    sample_grid_map,
)
from ima_lab.mpa import RotatedGaussianMPA, darmois_build, rotation_matrix_2d
from darmois_oracles import CorrelatedGaussian


class _Clock:
    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False


def _report(number, description, clock, budget=None):
    line = f"[PASS] criterion {number}: {description} ({clock.elapsed:.1f}s"
    if budget is not None:
        line += f" / budget {budget:.0f}s"
    print(line + ")")


def _corpus(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(2, 65))
        d = int(rng.integers(1, min(m, 8) + 1))
        yield rng.standard_normal((m, d)), rng


def test_criterion_01_contrast_axioms():
    with _Clock() as clock:
        rng_aux = np.random.default_rng(1001)
        n_invariance = 0
        for i, (J, _) in enumerate(_corpus(10000, seed=1000)):
            c = local_ima_contrast(J)
            assert c >= 0.0
            # invariances spot-checked on a rotating subset to stay in budget
            if i % 10 == 0:
                m, d = J.shape
                Q, _ = np.linalg.qr(rng_aux.standard_normal((m, m)))
                assert abs(local_ima_contrast(Q @ J) - c) <= 1e-8
                P = np.eye(d)[rng_aux.permutation(d)]
                D = np.diag(rng_aux.uniform(0.1, 10.0, size=d))
                assert abs(local_ima_contrast(J @ P @ D) - c) <= 1e-8
                n_invariance += 1
            # zero-contrast -> orthogonality
            if c <= 1e-10:
                assert offdiag_coherence(J) <= 1e-4
        assert n_invariance == 1000
        # orthogonality -> zero contrast (orthonormalized columns carry
        # ~1e-16 residual coherence, so allow log-sum rounding noise)
        for k in range(200):
            m = int(rng_aux.integers(2, 65))
            d = int(rng_aux.integers(1, min(m, 8) + 1))
            Q, _ = np.linalg.qr(rng_aux.standard_normal((m, d)))
            D = np.diag(rng_aux.uniform(0.1, 10.0, size=d))
            assert local_ima_contrast(Q @ D) <= 1e-12
        # and exactly representable orthogonal columns give exactly zero
        assert local_ima_contrast(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])) == 0.0
    assert clock.elapsed < 10.0
    _report(1, "contrast axioms on 10^4 random Jacobians", clock, budget=10)


def test_criterion_02_bound_consistency():
    with _Clock() as clock:
        checked = 0
        for J, _ in _corpus(10000, seed=2000):
            d = J.shape[1]
            eps = offdiag_coherence(J)
            if (d - 1) * eps >= 1.0:
                continue
            assert local_ima_contrast(J) <= hadamard_gap_upper_bound(d, eps) + 1e-9
            checked += 1
        assert checked > 2000
    _report(2, f"contrast bounded by the coherence gap bound ({checked} cases)", clock)


def test_criterion_03_concentration_sweep():
    with _Clock() as clock:
        rows = concentration_sweep(
            d=3, delta=0.1, m_list=[8, 32, 128, 512, 2048], trials=2000,
            kappa=1.0, seed=20250809,
        )
        successes = [r.empirical_success for r in rows]
        assert trend_nondecreasing(successes, 2000, n_sigma=2.0)
        assert successes[-1] >= 0.99
    assert clock.elapsed < 60.0
    _report(3, f"concentration sweep successes {successes}", clock, budget=60)


def test_criterion_04_genericity():
    with _Clock() as clock:
        rows = genericity_experiment(
            d=2, m_list=[16, 64, 256, 1024], delta_grid=0.5, eps=0.01,
            delta_contrast=0.1, trials=200, n_mc=2000, seed=20250809,
        )
        successes = [r.empirical_success for r in rows]
        assert trend_nondecreasing(successes, 200, n_sigma=2.0)
        expected = expected_boundary_fraction(2, 0.5, 0.01)
        three_sigma = 3.0 * np.sqrt(expected * (1.0 - expected) / (2000 * 200))
        for r in rows:
            assert abs(r.boundary_fraction_mean - expected) <= three_sigma
    assert clock.elapsed < 300.0
    _report(4, f"genericity successes {successes}, boundary ~ {expected:.4f}", clock, budget=300)


def test_criterion_05_smooth_map_calculus():
    with _Clock() as clock:
        rng = np.random.default_rng(5000)
        for idx, (delta, eps) in enumerate([(0.5, 0.01), (0.25, 0.05), (1.0, 0.2), (0.5, 0.1)]):
            g = sample_grid_map(d=2, m=20, delta=delta, eps=eps, seed=500 + idx)
            # analytic vs central differences at 100 interior points
            for _ in range(100):
                s = 1e-4 + (1.0 - 2e-4) * rng.random(2)
                assert np.max(np.abs(g.jacobian(s) - jacobian_fd(g, s, 1e-6))) <= 1e-4
            # knot-column formula and full rank across the blend window
            interior_knots = [k for k in g.knots if 0.0 < k < 1.0 + 1e-12]
            for knot in interior_knots:
                t = int(round(knot / delta))
                s = np.array([min(knot, 1.0), 0.5 * delta])
                J = g.jacobian(s)
                expected = 0.5 * (g.blocks[t - 1][:, 0] + g.blocks[t][:, 0])
                assert np.max(np.abs(J[:, 0] - expected)) <= 1e-8
                for off in np.linspace(-0.9 * eps, 0.9 * eps, 7):
                    p = np.clip(knot + off, 0.0, 1.0)
                    sv = np.linalg.svd(g.jacobian(np.array([p, 0.5 * delta])), compute_uv=False)
                    assert sv[-1] > 1e-8 * sv[0]
    _report(5, "grid-map analytic calculus (FD, knot columns, boundary rank)", clock)


def test_criterion_06_injectivity():
    with _Clock() as clock:
        for k in range(20):
            g = sample_grid_map(d=2, m=20, delta=0.25, eps=0.01, seed=600 + k)
            report = injectivity_probe(g, 10000, seed=6000 + k)
            assert report.injective
            assert not report.suspect_rank_deficiency
        rng = np.random.default_rng(6100)
        for k in range(20):
            J0 = rng.standard_normal((12, 3))
            tp = make_two_piece(J0, k % 3, rng.standard_normal(12), c=rng.normal(), eps=0.02)
            report = injectivity_probe(tp, 10000, seed=6200 + k, bounding_box=(-3.0, 3.0))
            assert report.injective
            assert not report.suspect_rank_deficiency
        # the constructed counterexample is flagged
        col = np.array([1.0, 2.0, 0.5])
        bad = LinearMap(np.column_stack([col, col]))
        report = injectivity_probe(bad, 100000, seed=6300, bounding_box=(-1.0, 1.0))
        assert report.violation_count > 0
        assert report.suspect_rank_deficiency
    _report(6, "injectivity probes clean; rank-deficient map flagged", clock)


def test_criterion_07_mpa_correctness():
    with _Clock() as clock:
        R = rotation_matrix_2d(np.radians(30.0))
        gaussian_src = FactorialDistribution.iid(Gaussian(0, 1), 2)
        a = RotatedGaussianMPA(gaussian_src, R)
        pts = sample_factorial(gaussian_src, 1000, seed=700)
        worst = max(np.max(np.abs(a.evaluate(s) - R @ s)) for s in pts)
        assert worst <= 1e-9
        # analytic Jacobian vs finite differences (non-Gaussian sources)
        laplace_src = FactorialDistribution.iid(Laplace(0, 1), 2)
        a2 = RotatedGaussianMPA(laplace_src, R)
        h = 1e-6
        rng = np.random.default_rng(701)
        for _ in range(100):
            s = rng.laplace(size=2)
            fd = np.column_stack(
                [(a2.evaluate(s + h * e) - a2.evaluate(s - h * e)) / (2 * h) for e in np.eye(2)]
            )
            assert np.max(np.abs(a2.jacobian(s) - fd)) <= 1e-5
        # measure preservation at the 1% KS level
        for law in (Uniform(0, 1), Laplace(0, 1)):
            src = FactorialDistribution.iid(law, 2)
            am = RotatedGaussianMPA(src, R)
            S = sample_factorial(src, 100000, seed=702)
            Y = am.evaluate(S)
            crit = 1.628 / np.sqrt(len(Y))
            for i in range(2):
                assert stats.kstest(Y[:, i], lambda x: np.asarray(law.cdf(x))).statistic < crit
    _report(7, "rotated-Gaussian automorphism identities and measure preservation", clock)


def test_criterion_08_darmois_correctness():
    with _Clock() as clock:
        spec = CorrelatedGaussian(0.6)
        dm = darmois_build(spec, 1024)
        rng = np.random.default_rng(800)
        for _ in range(300):
            x = rng.normal(size=2) * 1.5
            assert abs(dm.evaluate(x)[1] - spec.conditional_cdf(x[0], x[1])) <= 1e-4
            assert dm.jacobian(x)[0, 1] == 0.0
        X = spec.sample(100000, seed=801)
        U = dm.evaluate(X)
        H, _, _ = np.histogram2d(U[:, 0], U[:, 1], bins=10, range=[[0, 1], [0, 1]])
        expected = len(X) / 100
        chi2 = float(((H - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.99, 99)
    _report(8, f"Darmois tables vs closed form; uniformity chi2={chi2:.1f}", clock)


def test_criterion_09_spurious_gaps():
    with _Clock() as clock:
        report = spurious_gap_experiment(m=5, n_mc=2000, darmois_resolution=512, seed=20250809)
        assert report.truth_mpa.mean <= 1e-6
        assert report.truth_darmois.mean <= 1e-6
        for branch in (report.spurious_mpa, report.spurious_darmois):
            assert branch.mean > max(1e-3, 10.0 * branch.stderr)
        assert report.passed
        control = spurious_gap_experiment(
            m=5, source=FactorialDistribution.iid(Gaussian(0, 1), 2),
            n_mc=2000, darmois_resolution=512, seed=20250809,
        )
        assert control.spurious_mpa.mean <= 1e-6
        assert control.spurious_darmois.mean <= 1e-6
        assert not control.passed
        with pytest.raises(TrivialRotationError):
            spurious_gap_experiment(rotation=np.eye(2), n_mc=100, seed=1)
        with pytest.raises(TrivialRotationError):
            spurious_gap_experiment(
                rotation=np.array([[0.0, 1.0], [1.0, 0.0]]), n_mc=100, seed=1
            )
    assert clock.elapsed < 120.0
    _report(
        9,
        f"gaps: mpa {report.spurious_mpa.mean:.3f}, "
        f"darmois {report.spurious_darmois.mean:.3f}; Gaussian control flat",
        clock,
        budget=120,
    )


def test_criterion_10_reparam_invariance():
    with _Clock() as clock:
        rng = np.random.default_rng(10_000)
        gauss2 = FactorialDistribution.iid(Gaussian(0, 1), 2)
        cube3 = FactorialDistribution.iid(Uniform(0.01, 0.99), 3)
        configs = [
            (LinearMap(rng.standard_normal((6, 2))), gauss2, [0, 1],
             [AffineTransform(1.0, 0.0), AffineTransform(1.0, 0.0)]),
            (LinearMap(rng.standard_normal((6, 2))), gauss2, [1, 0],
             [AffineTransform(2.0, 0.5), TanhTransform()]),
            (random_conformal_map(2, 7, seed=42), gauss2, [1, 0],
             [TanhTransform(), AffineTransform(-1.5, 0.2)]),
            (sample_grid_map(d=3, m=40, delta=0.5, eps=0.02, seed=43), cube3, [2, 0, 1],
             [CubeTransform(), AffineTransform(0.5, 0.25), CubeTransform()]),
            (sample_grid_map(d=2, m=24, delta=0.25, eps=0.02, seed=44),
             FactorialDistribution.iid(Uniform(0.01, 0.99), 2), [1, 0],
             [AffineTransform(0.9, 0.05), CubeTransform()]),
        ]
        for i, (mapping, p_s, perm, transforms) in enumerate(configs):
            rep = reparam_invariance_check(mapping, p_s, perm, transforms, 2000, seed=10_100 + i)
            assert rep.abs_difference <= 3.0 * max(rep.combined_stderr, 1e-12), (
                f"config {i}: diff={rep.abs_difference:.3e} stderr={rep.combined_stderr:.3e}"
            )
    _report(10, "paired invariance holds across 5 (map, h, P) configurations", clock)


def test_criterion_11_reproducibility(tmp_path):
    with _Clock() as clock:
        config = {
            "command": "sweep",
            "params": {"d": 2, "delta": 0.2, "m_list": [8, 32], "trials": 200},
            "master_seed": 20250809,
        }

        def digest(out_dir, threads):
            cfg = dict(config, output_dir=str(out_dir), threads=threads)
            assert cli_run(cfg) == 0
            with open(out_dir / "sweep.csv", "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()

        first = digest(tmp_path / "a", 1)
        second = digest(tmp_path / "b", 1)
        threaded = digest(tmp_path / "c", 4)
        assert first == second == threaded
        genericity_cfg = {
            "command": "genericity",
            "params": {"d": 2, "m_list": [16], "delta_grid": 0.5, "eps": 0.01,
                        "delta_contrast": 0.1, "trials": 10, "n_mc": 500},
            "master_seed": 7,
        }

        def digest_gen(out_dir, threads):
            cfg = dict(genericity_cfg, output_dir=str(out_dir), threads=threads)
            assert cli_run(cfg) == 0
            with open(out_dir / "genericity.csv", "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()

        assert digest_gen(tmp_path / "g1", 1) == digest_gen(tmp_path / "g4", 4)
        # manifest echoes a config that revalidates
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        from ima_lab.cli import validate_run_config

        validate_run_config(manifest["config"])
    _report(11, "byte-identical CSVs across repeats and thread counts", clock)
