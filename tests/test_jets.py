"""Algebraic properties of the forward-mode jets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonsphere.jets import Jet, compose_scalar, variables

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
nonzero = st.floats(min_value=0.2, max_value=10.0)


@given(finite, finite, finite, finite)
@settings(max_examples=50, deadline=None)
def test_product_rule(a, b, c, d):
    x, y = variables([a, b])
    f = (x * c + y) * (x - y * d)
    gx = c * (a - b * d) + (a * c + b)
    gy = (a - b * d) - d * (a * c + b)
    assert np.allclose(f.grad, [gx, gy], atol=1e-12)
    assert np.allclose(f.hess, f.hess.swapaxes(-1, -2))


@given(nonzero, nonzero)
@settings(max_examples=50, deadline=None)
def test_quotient_against_product(a, b):
    x, y = variables([a, b])
    lhs = x / y
    rhs = x * y ** -1.0
    assert np.allclose(lhs.val, rhs.val)
    assert np.allclose(lhs.grad, rhs.grad, atol=1e-12)
    assert np.allclose(lhs.hess, rhs.hess, atol=1e-12)


@given(nonzero)
@settings(max_examples=30, deadline=None)
def test_chain_rule_sqrt_log(a):
    (x,) = variables([a])
    f = np.sqrt(x).log() * 2.0
    assert np.isclose(f.val, np.log(a))
    assert np.isclose(f.grad[0], 1.0 / a)
    assert np.isclose(f.hess[0, 0], -1.0 / a ** 2)


def test_second_derivatives_match_finite_differences():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.5, 3.0, size=(50, 2))

    def f(u, v):
        return np.sin(u * v) / (u + v) + np.sqrt(u) * np.sin(2.0 * v)

    x, y = variables([pts[:, 0], pts[:, 1]])
    jet = f(x, y)
    h = 1e-5
    u, v = pts[:, 0], pts[:, 1]
    assert np.allclose(jet.grad[:, 0], (f(u + h, v) - f(u - h, v)) / (2 * h),
                       atol=1e-8)
    mixed = (f(u + h, v + h) - f(u + h, v - h)
             - f(u - h, v + h) + f(u - h, v - h)) / (4 * h * h)
    assert np.allclose(jet.hess[:, 0, 1], mixed, atol=1e-5)


def test_numpy_ufunc_dispatch_both_orders():
    (x,) = variables([2.0])
    assert np.isclose((3.0 - x).val, 1.0)
    assert np.isclose(np.divide(6.0, x).val, 3.0)
    assert np.isclose(np.multiply(np.float64(2.0), x).val, 4.0)
    assert np.isclose(np.power(x, 3).grad[0], 12.0)
    # ndarray ** Jet reaches Jet.__rpow__: d/dx 3^x = 3^x log 3
    y = np.array([3.0]) ** x
    assert np.allclose(y.val, 9.0) and np.allclose(y.grad[..., 0], 9.0 * np.log(3.0))
    z = np.subtract(np.float64(5.0), x)
    assert np.isclose(z.val, 3.0) and z.grad[0] == -1.0
    for ufunc, method in ((np.sqrt, Jet.sqrt), (np.sin, Jet.sin)):
        a, b = ufunc(x), method(x)
        for u, v in ((a.val, b.val), (a.grad, b.grad), (a.hess, b.hess)):
            assert np.array_equal(u, v)
    assert +x is x
    # only the ufuncs that package code applies to a jet dispatch
    for ufunc in (np.tan, np.exp, np.log, np.cos):
        with pytest.raises(TypeError):
            ufunc(x)


def test_integer_power_edge_cases():
    (x,) = variables([0.0])
    assert (x ** 1).grad[0] == 1.0
    assert (x ** 2).hess[0, 0] == 2.0
    assert (x ** 0).val == 1.0


def test_compose_scalar_matches_direct():
    (x,) = variables([1.3])
    y = x * x + 1.0
    direct = np.sqrt(y)
    composed = compose_scalar(y, np.sqrt(y.val), 0.5 / np.sqrt(y.val),
                              -0.25 * y.val ** -1.5)
    assert np.isclose(direct.val, composed.val)
    assert np.allclose(direct.grad, composed.grad)
    assert np.allclose(direct.hess, composed.hess)


def test_first_order_jets_skip_hessian():
    xs = variables([1.0, 2.0], order=1)
    f = xs[0] * xs[1] + np.sqrt(xs[1])
    assert f.hess is None
    assert np.allclose(f.grad, [2.0, 1.0 + 0.5 / np.sqrt(2.0)])



def _sparse_coords(n=5, m=7):
    rng = np.random.default_rng(3)
    return (2.7, rng.uniform(0.3, 2.8, (n, 1)), rng.uniform(0.0, 6.2, (1, m)))


def test_seeds_keep_their_own_shapes():
    r, th, ph = variables(_sparse_coords())
    assert [x.val.shape for x in (r, th, ph)] == [(), (5, 1), (1, 7)]
    assert [x.grad.shape for x in (r, th, ph)] == [(3,), (5, 1, 3), (1, 7, 3)]
    assert [x.hess.shape for x in (r, th, ph)] == [(3, 3), (5, 1, 3, 3),
                                                   (1, 7, 3, 3)]
    assert np.array_equal(th.grad[..., 1], np.ones((5, 1)))
    assert np.array_equal(ph.grad[..., [0, 1]], np.zeros((1, 7, 2)))


def test_lazy_broadcast_matches_dense_seeds_bit_for_bit():
    def f(r, th, ph):
        return (np.sqrt(r) * np.sin(th) ** 2 / (r + ph) + (r * th) ** 1.5
                - 3.0 / (th * ph + r) ** 0.5)

    coords = _sparse_coords()
    lazy = f(*variables(coords))
    dense = f(*variables(np.broadcast_arrays(*coords)))
    assert lazy.val.shape == (5, 7)
    for a, b in ((lazy.val, dense.val), (lazy.grad, dense.grad),
                 (lazy.hess, dense.hess)):
        assert np.array_equal(np.broadcast_to(a, b.shape), b)
    # a quantity that reads only r and theta stays one value per theta row
    assert f(*variables(coords[:2] + (0.4,))).val.shape == (5, 1)


def test_constant_larger_than_the_jet_lifts():
    (x,) = variables([2.0])
    c = np.arange(12.0).reshape(3, 4)
    for y in (x * c, c * x, x + c, c / x):
        assert y.val.shape == (3, 4)
        assert y.grad.shape == (3, 4, 1) and y.hess.shape == (3, 4, 1, 1)
    assert np.array_equal((x * c).grad[..., 0], c)
    assert np.array_equal((c / x).val, c / 2.0)
