"""Sphere quadrature and tangential derivatives on a field constant in phi.

A leaf field of a radial profile is stored with a length-1 phi axis; the
tangential operators must treat it as the same field on the full grid.
"""

import numpy as np
import pytest

from photonsphere import quadrature as quad

N_THETA, N_PHI = 24, 48


def _theta_only_field():
    _, x, _, _ = quad.sphere_grid(N_THETA, N_PHI)
    return x, (np.exp(0.7 * x) + x ** 3)[:, None]


def test_phi_derivatives_vanish_on_a_length_one_phi_axis():
    _, f = _theta_only_field()
    d1, d2 = quad.phi_derivatives(f)
    assert d1.shape == d2.shape == (N_THETA, 1)
    assert np.all(d1 == 0.0) and np.all(d2 == 0.0)


@pytest.mark.parametrize("op", [quad.sphere_laplacian, quad.sphere_grad_sq])
def test_theta_only_field_matches_the_dense_grid(op):
    x, f = _theta_only_field()
    dense = op(np.broadcast_to(f, (N_THETA, N_PHI)).copy(), x, 2.5)
    thin = op(f, x, 2.5)
    assert thin.shape == (N_THETA, 1)
    assert np.max(np.abs(thin - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_laplacian_of_a_zonal_harmonic():
    # Lap P_2(cos theta) = -6 P_2 / r^2 on a round sphere of radius r
    _, x, _, _ = quad.sphere_grid(N_THETA, N_PHI)
    p2 = (0.5 * (3.0 * x ** 2 - 1.0))[:, None]
    lap = quad.sphere_laplacian(p2, x, 2.0)
    assert np.max(np.abs(lap + 6.0 * p2 / 4.0)) < 1e-11
