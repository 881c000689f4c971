"""Anderson acceleration oracle tests.

The independent oracle is the affine fixed-point map x -> A x + b with
spectral radius < 1: depth-m Anderson with m >= dimension of the Krylov
space solves it essentially exactly after m+1 iterations, and depth 0 must
reproduce the plain Picard iterates bitwise.
"""

import numpy as np
import pytest

from cahnlarche.acceleration import AndersonWindow


def affine_map(rng, n=8, rho=0.9):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = rng.uniform(0.1, rho, n)
    A = Q @ np.diag(d) @ Q.T
    b = rng.normal(size=n)
    x_star = np.linalg.solve(np.eye(n) - A, b)
    return (lambda x: A @ x + b), x_star


def test_depth_zero_is_identity_passthrough():
    rng = np.random.Generator(np.random.PCG64(1))
    g, _ = affine_map(rng)
    w = AndersonWindow(0)
    x = rng.normal(size=8)
    xs_plain, xs_acc = [x.copy()], [x.copy()]
    for _ in range(5):
        xs_plain.append(g(xs_plain[-1]))
    x = xs_acc[-1]
    for _ in range(5):
        x = w.update(x, g(x))
        xs_acc.append(x)
    for a, b in zip(xs_plain, xs_acc):
        assert np.array_equal(a, b)  # bitwise


def test_accelerates_linear_fixed_point():
    rng = np.random.Generator(np.random.PCG64(2))
    g, x_star = affine_map(rng, n=6, rho=0.95)
    x_plain = rng.normal(size=6)
    x_acc = x_plain.copy()
    w = AndersonWindow(3)
    for _ in range(12):
        x_plain = g(x_plain)
        x_acc = w.update(x_acc, g(x_acc))
    assert np.linalg.norm(x_acc - x_star) < 1e-2 * np.linalg.norm(
        x_plain - x_star
    )


def test_full_depth_solves_affine_exactly():
    # with depth >= n the constrained least squares spans the full space
    rng = np.random.Generator(np.random.PCG64(3))
    g, x_star = affine_map(rng, n=4, rho=0.8)
    w = AndersonWindow(5)
    x = rng.normal(size=4)
    for _ in range(7):
        x = w.update(x, g(x))
    assert np.linalg.norm(x - x_star) < 1e-8


def test_weights_sum_to_one_effect():
    # a fixed point is preserved: update(x*, x*) returns x*
    rng = np.random.Generator(np.random.PCG64(4))
    g, x_star = affine_map(rng)
    w = AndersonWindow(3)
    w.update(x_star + 1e-3, g(x_star + 1e-3))
    out = w.update(x_star, x_star)
    assert np.allclose(out, x_star, atol=1e-10)


def test_rejects_negative_depth():
    with pytest.raises(ValueError):
        AndersonWindow(-1)
