"""Sphere integrals and tangential derivatives of fields constant in phi,
and root bisection.

On the Gauss-Legendre theta grid a field constant in phi is one value per
node; the tangential operators take a stack of such fields at once, each
row equal to the same field alone.
"""

import numpy as np
import pytest

from photonsphere import quadrature as quad

N_THETA, N_LEAVES = 24, 48


def _theta_only_field():
    _, x, _ = quad.sphere_grid(N_THETA)
    return x, np.exp(0.7 * x) + x ** 3


@pytest.mark.parametrize("op", [quad.sphere_laplacian, quad.sphere_grad_sq])
def test_theta_only_field_matches_the_dense_grid(op):
    # the field on every meridian of a dense grid, one meridian per row of a
    # stack: each row equals the field alone bit for bit
    x, f = _theta_only_field()
    dense = op(np.broadcast_to(f, (N_LEAVES, N_THETA)), x, 2.5)
    thin = op(f, x, 2.5)
    assert thin.shape == (N_THETA,)
    assert np.array_equal(dense, np.broadcast_to(thin, dense.shape))


def test_laplacian_of_a_zonal_harmonic():
    # Lap P_2(cos theta) = -6 P_2 / r^2 on a round sphere of radius r
    _, x, _ = quad.sphere_grid(N_THETA)
    p2 = 0.5 * (3.0 * x ** 2 - 1.0)
    lap = quad.sphere_laplacian(p2, x, 2.0)
    assert np.max(np.abs(lap + 6.0 * p2 / 4.0)) < 1e-11


def test_sphere_integral_of_a_theta_only_field():
    # the weights carry the phi integral: Int 1 dmu = 4 pi and
    # Int x^2 dmu = 4 pi / 3 on the unit sphere, x = cos theta
    _, x, w = quad.sphere_grid(N_THETA)
    assert abs(np.sum(w) - 4.0 * np.pi) < 1e-13
    assert abs(np.sum(x ** 2 * w) - 4.0 * np.pi / 3.0) < 1e-14


# ---------------------------------------------------------------------------
# Root bisection on arrays of brackets
# ---------------------------------------------------------------------------

def _damped_sine(x):
    return np.sin(x) * np.exp(-0.1 * x)


BRACKETS = np.array([[3.0, 4.0], [6.0, 7.0], [9.0, 10.0], [-1.0, 0.5],
                     [12.0, 13.0], [-7.0, -6.0]])


def test_bisect_array_equals_each_bracket_alone():
    both = quad.bisect(_damped_sine, BRACKETS[:, 0], BRACKETS[:, 1])
    alone = [quad.bisect(_damped_sine, [a], [b])[0] for a, b in BRACKETS]
    assert both.tobytes() == np.array(alone).tobytes()


def test_bisect_result_is_next_to_a_sign_change():
    roots = quad.bisect(_damped_sine, BRACKETS[:, 0], BRACKETS[:, 1])
    for x in roots:
        fx = _damped_sine(x)
        neighbours = _damped_sine(np.array([np.nextafter(x, -np.inf),
                                            np.nextafter(x, np.inf)]))
        assert fx == 0.0 or np.any(np.sign(neighbours) == -np.sign(fx))
    assert np.allclose(roots, np.pi * np.round(roots / np.pi), rtol=0, atol=1e-14)


def test_bisect_returns_an_exact_zero():
    f = lambda x: x - 0.75
    # at an end, and hit by a midpoint: 0.75 = (0 + 1)/2 + 1/4
    roots = quad.bisect(f, [0.75, -1.0, 0.0], [2.0, 0.75, 1.0])
    assert roots.tolist() == [0.75, 0.75, 0.75]


def test_bisect_of_no_brackets_is_empty():
    roots = quad.bisect(np.sin, np.empty(0), np.empty(0))
    assert roots.shape == (0,)


def test_bisect_names_a_bracket_with_no_sign_change():
    with pytest.raises(ValueError, match=r"bracket 1, \[4\.0, 5\.0\]"):
        quad.bisect(np.sin, [3.0, 4.0], [4.0, 5.0])


def test_bisect_of_the_widest_bracket_terminates():
    (root,) = quad.bisect(np.log, [1e-300], [1e300])
    assert abs(root - 1.0) <= np.spacing(1.0)


# ---------------------------------------------------------------------------
# The level-derivative matrix: barycentric, on Chebyshev points of [0, 1]
# ---------------------------------------------------------------------------

def _level_matrix(n):
    s = quad.chebyshev_nodes(n, 0.0, 1.0)
    return s, quad.barycentric_diff_matrix(s)


@pytest.mark.parametrize("n", [8, 24, 64])
def test_level_matrix_is_exact_on_polynomials(n):
    s, d = _level_matrix(n)
    for k in range(n):
        exact = k * s ** max(k - 1, 0)
        err = np.abs(quad.level_derivative(s ** k, d) - exact)
        assert np.all(err <= 1e-11 * max(1.0, np.max(np.abs(exact)))), k


def test_level_matrix_rows_sum_to_zero():
    _, d = _level_matrix(64)
    row_sum = np.abs(d.sum(axis=1))
    assert np.all(row_sum <= 1e-15 * np.abs(d).sum(axis=1))


def test_level_matrix_converges_spectrally_on_exp():
    # the error of d/ds e^s falls by more than 100x with every two nodes
    # until rounding, then stays near it
    err = {}
    for n in (4, 6, 8, 10, 12, 16, 32, 64):
        s, d = _level_matrix(n)
        err[n] = np.max(np.abs(quad.level_derivative(np.exp(s), d)
                               - np.exp(s)))
    for n in (4, 6, 8, 10):
        assert err[n + 2] < err[n] / 100.0, n
    assert err[12] < 1e-12
    assert max(err[16], err[32], err[64]) < 1e-11


def test_many_level_nodes_keep_finite_weights():
    # the products of 599 differences on [0, 1] underflow unscaled
    s, d = _level_matrix(600)
    assert np.all(np.isfinite(d))
    err = np.abs(quad.level_derivative(s ** 3, d) - 3.0 * s ** 2)
    assert np.max(err) < 1e-9
