"""Double-well splitting, stiffness interpolation and parameter checks."""

import dataclasses

import numpy as np
import pytest

from cahnlarche import materials


class TestDoubleWell:
    dw = materials.DoubleWell(theta=2.0)

    def test_inner_values(self):
        # inside (-theta, theta): Psi = (1 - phi^2)^2
        phi = np.linspace(-1.9, 1.9, 41)
        assert np.allclose(self.dw.psi(phi), (1 - phi**2) ** 2)
        assert np.allclose(self.dw.psi_c(phi), phi**4 + 1)
        assert np.allclose(self.dw.psi_e(phi), 2 * phi**2)

    def test_outer_quadratic_growth(self):
        th = 2.0
        phi = np.array([-3.0, 2.5, 4.0])
        assert np.allclose(
            self.dw.psi(phi), 2 * (th**2 - 1) * phi**2 - (th**4 - 1)
        )
        assert np.allclose(
            self.dw.psi_c(phi), 2 * th**2 * phi**2 - (th**4 - 1)
        )

    def test_split_consistency(self):
        # Psi = Psi_c - Psi_e everywhere, including across the matching point
        phi = np.linspace(-4, 4, 201)
        assert np.allclose(self.dw.psi(phi), self.dw.psi_c(phi) - self.dw.psi_e(phi))

    def test_c1_matching_at_theta(self):
        # value and first derivative continuous at |phi| = theta
        for s in (-1, 1):
            th = 2.0 * s
            inner = self.dw.psi_c(np.array([th - s * 1e-9]))
            outer = self.dw.psi_c(np.array([th + s * 1e-9]))
            assert inner == pytest.approx(outer, rel=1e-7)
            di = self.dw.psi_c_prime(np.array([th - s * 1e-9]))
            do = self.dw.psi_c_prime(np.array([th + s * 1e-9]))
            assert di == pytest.approx(do, rel=1e-7)

    def test_derivative_against_finite_differences(self):
        phi = np.linspace(-3.5, 3.5, 101)
        eps = 1e-6
        fd = (self.dw.psi_c(phi + eps) - self.dw.psi_c(phi - eps)) / (2 * eps)
        assert np.allclose(self.dw.psi_c_prime(phi), fd, atol=1e-4)
        fd2 = (self.dw.psi_c_prime(phi + eps) - self.dw.psi_c_prime(phi - eps)) / (
            2 * eps
        )
        assert np.allclose(self.dw.psi_c_second(phi), fd2, atol=1e-3)

    def test_both_parts_convex(self):
        phi = np.linspace(-5, 5, 400)
        assert np.all(self.dw.psi_c_second(phi) >= 0)
        assert np.all(self.dw.psi_e_second(phi) >= 0)

    def test_measured_lipschitz(self):
        # sup |Psi_c''| = 12 theta^2 at phi -> theta from inside; the
        # quadratic-growth region has Psi_c'' = 4 theta^2
        L = self.dw.measured_lipschitz()
        assert L == pytest.approx(12 * 4.0, rel=1e-2)


class TestInterpolation:
    def test_clamp_values(self):
        assert materials.pi_interp(np.array([-2.0]))[0] == 0.0
        assert materials.pi_interp(np.array([2.0]))[0] == 1.0
        assert materials.pi_interp(np.array([-1.0]))[0] == pytest.approx(0.0)
        assert materials.pi_interp(np.array([1.0]))[0] == pytest.approx(1.0)
        assert materials.pi_interp(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_monotone_and_smooth(self):
        phi = np.linspace(-1.5, 1.5, 301)
        p = materials.pi_interp(phi)
        assert np.all(np.diff(p) >= -1e-15)
        assert np.all(materials.pi_interp_prime(phi) >= -1e-15)
        # derivative vanishes at the clamp boundaries
        assert materials.pi_interp_prime(np.array([-1.0]))[0] == pytest.approx(0.0)
        assert materials.pi_interp_prime(np.array([1.0]))[0] == pytest.approx(0.0)

    def test_product_form_matches_the_cubic(self):
        phi = np.linspace(-1.5, 1.5, 3001)
        p = np.clip(phi, -1.0, 1.0)
        cubic = 0.25 * (-(p**3) + 3.0 * p + 2.0)
        assert np.abs(materials.pi_interp(phi) - cubic).max() <= 1e-15
        assert materials.pi_interp(np.array([-1.0]))[0] == 0.0
        assert materials.pi_interp(np.array([1.0]))[0] == 1.0
        outside = np.abs(phi) > 1.0
        assert np.all(materials.pi_interp(phi[outside]) == (phi[outside] > 0))

    def test_prime_fd(self):
        phi = np.linspace(-0.99, 0.99, 51)
        eps = 1e-7
        fd = (materials.pi_interp(phi + eps) - materials.pi_interp(phi - eps)) / (
            2 * eps
        )
        assert np.allclose(materials.pi_interp_prime(phi), fd, atol=1e-6)


class TestElasticLaw:
    def test_default_tensors(self):
        law = materials.ElasticLaw()
        assert np.allclose(
            law.c_minus, [[100, 20, 0], [20, 100, 0], [0, 0, 200]]
        )
        assert np.allclose(law.c_plus, [[1, 0.1, 0], [0.1, 1, 0], [0, 0, 2]])

    def test_tensor_interpolation_endpoints(self):
        law = materials.ElasticLaw()
        C = law.tensor(np.array([-1.0, 1.0]))
        assert np.allclose(C[0], law.c_minus)
        assert np.allclose(C[1], law.c_plus)

    def test_homogeneous_constant(self):
        law = materials.ElasticLaw(c_plus=materials.C_MINUS_DEFAULT)
        C = law.tensor(np.array([-1.0, 0.3, 1.0]))
        assert np.allclose(C, law.c_minus)
        assert np.allclose(law.tensor_prime(np.array([0.3])), 0.0)

    def test_heterogeneous_is_delta_c_nonzero(self):
        # worked out from the law's data, not a constructor field
        assert materials.ElasticLaw().heterogeneous is True
        assert materials.ElasticLaw(c_plus=materials.C_MINUS_DEFAULT).heterogeneous is False
        names = [f.name for f in dataclasses.fields(materials.ElasticLaw)]
        assert names == ["c_minus", "c_plus", "xi"]

    def test_i_c_i_value(self):
        # I : C_plus I = 1 + 0.1 + 0.1 + 1 = 2.2 in Voigt convention
        law = materials.ElasticLaw()
        assert law.i_c_i(np.array([1.0]))[0] == pytest.approx(2.2)

    def test_eigenvalue_bounds_bracket_endpoints(self):
        law = materials.ElasticLaw()
        lo, hi = law.eigenvalue_bounds()
        evs = np.concatenate(
            [np.linalg.eigvalsh(law.c_minus), np.linalg.eigvalsh(law.c_plus)]
        )
        assert lo <= evs.min() + 1e-9
        assert hi >= evs.max() - 1e-9
        assert lo > 0

    def test_rejects_nonspd(self):
        bad = np.array([[1.0, 3.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            materials.ElasticLaw(c_minus=bad)


class TestModelParams:
    def test_defaults(self):
        p = materials.ModelParams(elastic=materials.ElasticLaw())
        assert p.m == 1.0 and p.tau == 1e-5 and p.ell == 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            materials.ModelParams(elastic=materials.ElasticLaw(), tau=0.0)

    def test_double_well_theta(self):
        p = materials.ModelParams(elastic=materials.ElasticLaw(), theta=3.0)
        assert p.double_well.theta == 3.0
