"""Dual norm, mesh constants and rate-bound tests.

Continuum oracles: for s = cos(pi x) on the unit square the weighted dual
norm (m = 1) is 1/(pi sqrt(2)), and the Poincare constant of the mean-zero
space is 1/pi, both approached at second order as the mesh is refined.
"""

import numpy as np
import pytest

from cahnlarche import analysis, grid, materials


def test_dual_norm_continuum_benchmark():
    mesh = grid.build_mesh(32)
    s = np.cos(np.pi * mesh.nodes[:, 0])
    dn = analysis.dual_norm(s, mesh)
    exact = 1.0 / (np.pi * np.sqrt(2.0))
    assert dn == pytest.approx(exact, rel=5e-3)


def test_dual_norm_mobility_scaling():
    # ||s||_{Q*,m} = ||s||_{Q*,1} / sqrt(m)
    mesh = grid.build_mesh(16)
    s = np.cos(np.pi * mesh.nodes[:, 0])
    d1 = analysis.dual_norm(s, mesh, mobility=1.0)
    d4 = analysis.dual_norm(s, mesh, mobility=4.0)
    assert d4 == pytest.approx(d1 / 2.0, rel=1e-10)


def test_dual_norm_rejects_nonzero_mean():
    mesh = grid.build_mesh(8)
    with pytest.raises(ValueError):
        analysis.dual_norm(np.ones(mesh.node_count), mesh)


def test_dual_norm_cached_factorization_consistent():
    mesh = grid.build_mesh(8)
    s = np.cos(np.pi * mesh.nodes[:, 0])
    a = analysis.dual_norm(s, mesh)
    b = analysis.dual_norm(s, mesh)
    assert a == b


def test_poincare_constant_convergence():
    vals = []
    for n in (8, 16, 32):
        mesh = grid.build_mesh(n)
        c = analysis.estimate_constants(mesh)
        vals.append(c.poincare)
    exact = 1.0 / np.pi
    errs = [abs(v - exact) for v in vals]
    assert errs[2] < errs[0]
    assert vals[2] == pytest.approx(exact, rel=1e-3)


def test_inverse_constant_h_uniform():
    # C_inv = h sqrt(lambda_max(K, M)) is mesh-size independent for this
    # family of uniform meshes
    c8 = analysis.estimate_constants(grid.build_mesh(8))
    c16 = analysis.estimate_constants(grid.build_mesh(16))
    assert c8.inverse == pytest.approx(c16.inverse, rel=1e-6)


def test_inverse_estimate_holds_for_random_mean_zero_fields():
    # |s|_{L2} <= (C_inv / h) |s|_{Q*} for mean-zero s
    mesh = grid.build_mesh(8)
    c = analysis.estimate_constants(mesh)
    M = grid.assemble_mass(mesh)
    ones = np.ones(mesh.node_count)
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(5):
        s = rng.normal(size=mesh.node_count)
        s -= (ones @ (M @ s)) / (ones @ (M @ ones))
        l2 = np.sqrt(s @ (M @ s))
        dn = analysis.dual_norm(s, mesh)
        assert l2 <= (c.inverse / c.h) * dn * (1 + 1e-10)


def test_constants_match_dense_2d_pencil():
    # the 1-D pencil against the dense generalized eigenproblem of the
    # assembled 2-D (K, M)
    from scipy.linalg import eigh

    for n in (8, 20):
        mesh = grid.build_mesh(n)
        K, M = mesh.stiffness.toarray(), mesh.mass.toarray()
        vals = eigh(K, M, eigvals_only=True)
        c = analysis.estimate_constants(mesh, mobility=2.0)
        assert c.poincare == pytest.approx(1.0 / np.sqrt(vals[1]), rel=1e-10)
        assert c.inverse == pytest.approx(c.h * np.sqrt(2.0 * vals[-1]), rel=1e-10)


class TestRateBound:
    def params(self, het=True, gamma=5.0, xi=1.0):
        law = materials.ElasticLaw(xi=xi, heterogeneous=het)
        return materials.ModelParams(gamma=gamma, elastic=law)

    def test_bound_in_unit_interval(self):
        mesh = grid.build_mesh(16)
        c = analysis.estimate_constants(mesh)
        b = analysis.rate_bound(self.params(), c)
        assert 0 < b.contraction < 1
        assert 0 < b.beta_ch < 1
        assert b.lipschitz_ch >= 1

    def test_bound_decreases_with_gamma(self):
        mesh = grid.build_mesh(16)
        c = analysis.estimate_constants(mesh)
        b1 = analysis.rate_bound(self.params(gamma=1.0), c)
        b2 = analysis.rate_bound(self.params(gamma=100.0), c)
        assert b2.contraction < b1.contraction

    def test_bound_increases_with_xi(self):
        mesh = grid.build_mesh(16)
        c = analysis.estimate_constants(mesh)
        b1 = analysis.rate_bound(self.params(xi=0.1), c)
        b2 = analysis.rate_bound(self.params(xi=2.0), c)
        assert b2.contraction > b1.contraction

    def test_homogeneous_uses_exact_coupling(self):
        mesh = grid.build_mesh(16)
        c = analysis.estimate_constants(mesh)
        b = analysis.rate_bound(self.params(het=False), c)
        assert 0 < b.contraction < 1


def test_observed_rate_geometric_sequence():
    # potential converging geometrically with ratio 0.5 to a limit
    p = 10.0 + 4.0 * 0.5 ** np.arange(12)
    r = analysis.observed_rate(p)
    good = np.isfinite(r)
    assert np.allclose(r[good][:6], 0.5, atol=0.05)


def test_observed_rate_noise_floor():
    p = np.array([1.0, 1e-13, 0.0])
    r = analysis.observed_rate(p, floor=1e-12)
    assert np.isnan(r[-1]) or r[-1] >= 0


def test_monotonicity_violations():
    v = [3.0, 2.0, 2.5, 1.0]
    idx = analysis.monotonicity_violations(v)
    assert list(idx) == [1]
    assert len(analysis.monotonicity_violations([3.0, 2.0, 1.0])) == 0
