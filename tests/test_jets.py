"""Jet arithmetic against closed-form Maclaurin coefficients and FD oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bertrand_kit import expr as ex
from bertrand_kit.bertrand import sphere_preset
from bertrand_kit.curves import AnalyticCurve
from bertrand_kit.errors import DomainError
from bertrand_kit.jets import (
    Jet,
    compose,
    evaluate_jet,
    evaluate_jets,
    invert_series,
    jcos,
    jexp,
    jlog,
    jsin,
    jsqrt,
)


def jet_of(text, t0, order):
    return evaluate_jet(ex.parse_expression(text), t0, order)


def richardson_derivative(f, t, k, h=None):
    """k-th derivative by central differences with one Richardson step."""
    if h is None:
        h = 1e-2 * max(1.0, abs(t))

    def fd(hh):
        if k == 1:
            return (f(t + hh) - f(t - hh)) / (2 * hh)
        if k == 2:
            return (f(t + hh) - 2 * f(t) + f(t - hh)) / hh**2
        if k == 3:
            return (f(t + 2 * hh) - 2 * f(t + hh) + 2 * f(t - hh) - f(t - 2 * hh)) / (
                2 * hh**3
            )
        if k == 4:
            return (
                f(t + 2 * hh) - 4 * f(t + hh) + 6 * f(t) - 4 * f(t - hh) + f(t - 2 * hh)
            ) / hh**4
        raise ValueError(k)

    # all stencils above are 2nd order, so one step eliminates the h^2 term
    a, b = fd(h), fd(h / 2)
    return (4 * b - a) / 3


def test_exp_maclaurin():
    j = jexp(Jet.variable(0.0, 6))
    assert np.allclose(j.coeffs, [1 / math.factorial(k) for k in range(7)])


def test_sin_cos_maclaurin():
    t = Jet.variable(0.0, 7)
    s, c = jsin(t), jcos(t)
    assert np.allclose(s.coeffs, [0, 1, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040])
    assert np.allclose(c.coeffs, [1, 0, -1 / 2, 0, 1 / 24, 0, -1 / 720, 0])


def test_geometric_series():
    t = Jet.variable(0.0, 6)
    j = 1.0 / (1.0 - t)
    assert np.allclose(j.coeffs, np.ones(7))


def test_log1p_series():
    t = Jet.variable(0.0, 5)
    j = jlog(1.0 + t)
    assert np.allclose(j.coeffs, [0, 1, -1 / 2, 1 / 3, -1 / 4, 1 / 5])


def test_sqrt_binomial_series():
    t = Jet.variable(0.0, 4)
    j = jsqrt(1.0 + t)
    assert np.allclose(j.coeffs, [1, 1 / 2, -1 / 8, 1 / 16, -5 / 128])


def test_product_rule_leibniz():
    a = jet_of("sin(t)", 0.7, 6)
    b = jet_of("exp(t)", 0.7, 6)
    prod = a * b
    ref = jet_of("sin(t)*exp(t)", 0.7, 6)
    assert np.allclose(prod.coeffs, ref.coeffs, rtol=1e-13)


def test_compose_matches_direct():
    inner = jet_of("t^2+1", 0.5, 6)
    outer = jet_of("log(t)", inner.coeffs[0], 6)
    comp = compose(outer, inner)
    ref = jet_of("log(t^2+1)", 0.5, 6)
    assert np.allclose(comp.coeffs, ref.coeffs, rtol=1e-12)


def test_invert_series_round_trip():
    fwd = jet_of("t+t^3", 0.4, 6)
    inv = invert_series(fwd)
    back = compose(inv, Jet(0.4, fwd.coeffs.copy()))
    # f^{-1}(f(t)) = t near the base point
    assert back.coeffs[0] == pytest.approx(0.4, abs=1e-12)
    assert back.coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(back.coeffs[2:], 0.0, atol=1e-10)


def test_domain_errors():
    with pytest.raises(DomainError):
        jet_of("log(t)", -1.0, 2)
    with pytest.raises(DomainError):
        jet_of("sqrt(t)", -0.5, 2)
    with pytest.raises(DomainError):
        jet_of("1/(t-1)", 1.0, 2)


EXPRS = [
    "sin(2*t)*cos(3*t)",
    "exp(-t^2/2)",
    "sqrt(1+t^2)",
    "t^4 - t/(2+t)",
    "log(2+sin(t))",
]


@pytest.mark.parametrize("text", EXPRS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivatives_match_richardson(text, k):
    t0 = 0.8
    node = ex.parse_expression(text)
    jet = evaluate_jet(node, t0, k)
    exact = jet.coeffs[k] * math.factorial(k)

    def f(t):
        return evaluate_jet(node, t, 0).coeffs[0]

    # larger steps at higher order: roundoff grows like eps/h^k
    h = {1: 1e-3, 2: 1e-3, 3: 2e-2, 4: 5e-2}[k]
    approx = richardson_derivative(f, t0, k, h=h)
    scale = max(1.0, abs(exact))
    assert abs(exact - approx) < 1e-4 * scale


@given(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
)
@settings(max_examples=60)
def test_add_mul_consistent_with_scalars(a, b):
    ja = Jet.constant(a, 0.0, 3)
    jb = Jet.constant(b, 0.0, 3)
    assert (ja + jb).coeffs[0] == a + b
    assert (ja * jb).coeffs[0] == a * b


@given(st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
@settings(max_examples=60)
def test_exp_log_inverse_property(x):
    j = jet_of("t", x, 5)
    back = jlog(jexp(j))
    assert np.allclose(back.coeffs, j.coeffs, atol=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
@settings(max_examples=60)
def test_pythagorean_identity_all_orders(x):
    t = jet_of("t", x, 6)
    s, c = jsin(t), jcos(t)
    one = s * s + c * c
    assert one.coeffs[0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(one.coeffs[1:], 0.0, atol=1e-13)


# the four analytic families of the benchmark's Frenet tables, one
# parameter choice each
FAMILY_TEXTS = {
    "helix": (("2.5*cos(t)", "2.5*sin(t)", "1.3*t"), (0.0, 6.0)),
    "twisted_cubic": (("0.7*t", "1.2*t^2", "1.9*t^3"), (-1.0, 1.0)),
    "conical_helix": (
        ("exp(0.2*t)*cos(t)", "exp(0.2*t)*sin(t)", "1.1*exp(0.2*t)"),
        (0.0, 6.0),
    ),
    "trefoil": (
        ("sin(t) + 2.1*sin(2*t)", "cos(t) - 2.1*cos(2*t)", "-sin(3*t)"),
        (0.0, 6.0),
    ),
}


def _interned_and_plain(name):
    if name in FAMILY_TEXTS:
        texts, domain = FAMILY_TEXTS[name]
        curve = AnalyticCurve(*texts, domain)
    else:
        curve = sphere_preset(name)
        texts = [ex.to_text(c) for c in (curve.x, curve.y, curve.z)]
    return curve, [ex.parse_expression(text) for text in texts]


@pytest.mark.parametrize(
    "name",
    ["wobble", "tilt", "bean", "smallcircle", "greatcircle", *FAMILY_TEXTS],
)
def test_shared_evaluation_is_exact(name):
    """Jets of the interned components, evaluated together, equal the
    jets of each separately parsed component, bit for bit."""
    curve, plain = _interned_and_plain(name)
    nodes = (curve.x, curve.y, curve.z)
    assert list(nodes) == plain  # interning keeps the structure
    lo, hi = curve.domain
    for t in (lo, 0.7 * lo + 0.3 * hi, 0.5 * (lo + hi), hi):
        for order in range(11):
            shared = evaluate_jets(nodes, t, order, max_order=10)
            assert len(shared) == 3
            for got, node in zip(shared, plain):
                ref = evaluate_jet(node, t, order, max_order=10)
                assert np.array_equal(got.coeffs, ref.coeffs)
            for got, ref in zip(curve.jet(t, order), shared):
                assert np.array_equal(got.coeffs, ref.coeffs)


def test_intern_shares_the_normaliser():
    curve = sphere_preset("wobble")
    assert curve.x.right is curve.y.right is curve.z.right
    # sin(t) of y is the one in the normaliser's y^2 term
    assert curve.x.right.child.left.right.base is curve.y.left


def test_intern_keeps_signed_zeros_apart():
    table = {}
    node = ex.intern(ex.Binary("add", ex.Const(-0.0), ex.Const(0.0)), table)
    assert node.left is not node.right
    assert math.copysign(1.0, node.left.value) == -1.0
    pw = ex.intern(ex.Binary("mul", ex.PowConst(ex.Var(), -0.0), ex.PowConst(ex.Var(), 0.0)),
                   table)
    assert pw.left is not pw.right
    assert pw.left.base is pw.right.base
    assert ex.intern(ex.Const(-0.0), table) is node.left
    assert ex.intern(ex.Const(0.0), table) is node.right


def test_evaluate_jets_checks_each_component():
    with pytest.raises(DomainError):
        evaluate_jets((ex.parse_expression("t"), ex.parse_expression("log(t)")), -1.0, 2)
    with pytest.raises(DomainError, match="tan pole"):
        evaluate_jets((ex.parse_expression("sin(t)"), ex.parse_expression("tan(t)")),
                      math.pi / 2, 2)


# Taylor recurrences on Python floats, one basepoint at a time, in the
# textbook order; the jets sum the same terms in another order
def _ref_mul(a, b):
    return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


def _ref_div(a, b):
    q = []
    for k in range(len(a)):
        q.append((a[k] - sum(q[j] * b[k - j] for j in range(k))) / b[0])
    return q


def _ref_sqrt(c):
    w = [math.sqrt(c[0])]
    for k in range(1, len(c)):
        w.append((c[k] - sum(w[j] * w[k - j] for j in range(1, k))) / (2.0 * w[0]))
    return w


def _ref_exp(c):
    v = [math.exp(c[0])]
    for k in range(1, len(c)):
        v.append(sum(j * c[j] * v[k - j] for j in range(1, k + 1)) / k)
    return v


def _ref_log(c):
    v = [math.log(c[0])]
    for k in range(1, len(c)):
        acc = k * c[k] - sum(j * v[j] * c[k - j] for j in range(1, k))
        v.append(acc / (k * c[0]))
    return v


def _ref_pow(c, r):
    w = [c[0] ** r]
    for k in range(1, len(c)):
        acc = sum((r * j - (k - j)) * c[j] * w[k - j] for j in range(1, k + 1))
        w.append(acc / (k * c[0]))
    return w


def _ref_sincos(c):
    s, co = [math.sin(c[0])], [math.cos(c[0])]
    for k in range(1, len(c)):
        s.append(sum(j * c[j] * co[k - j] for j in range(1, k + 1)) / k)
        co.append(-sum(j * c[j] * s[k - j] for j in range(1, k + 1)) / k)
    return s, co


def test_recurrences_match_scalar_reference():
    """Each batched recurrence against its one-point reference on floats,
    column by column, to a tolerance of 64 ulp of the column's largest
    coefficient (summation order differs, the terms do not)."""
    rng = np.random.default_rng(11)
    K, N = 10, 16
    a = rng.uniform(-1.0, 1.0, (K + 1, N))
    b = rng.uniform(-1.0, 1.0, (K + 1, N))
    a[0] = rng.uniform(0.5, 2.0, N)
    b[0] = rng.uniform(0.5, 2.0, N)
    ja, jb = Jet(np.zeros(N), a), Jet(np.zeros(N), b)
    cases = [
        (ja * jb, lambda i: _ref_mul(a[:, i], b[:, i])),
        (ja / jb, lambda i: _ref_div(a[:, i], b[:, i])),
        (jsqrt(ja), lambda i: _ref_sqrt(a[:, i])),
        (jexp(ja), lambda i: _ref_exp(a[:, i])),
        (jlog(ja), lambda i: _ref_log(a[:, i])),
        (ja ** 0.37, lambda i: _ref_pow(a[:, i], 0.37)),
        (jsin(ja), lambda i: _ref_sincos(a[:, i])[0]),
        (jcos(ja), lambda i: _ref_sincos(a[:, i])[1]),
    ]
    tol = 64 * np.finfo(float).eps
    for got, ref in cases:
        for i in range(N):
            want = np.array(ref(i))
            assert np.max(np.abs(got.coeffs[:, i] - want)) <= tol * np.max(np.abs(want))
