"""Jet arithmetic against closed-form Maclaurin coefficients and FD oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bertrand_kit import expr as ex
from bertrand_kit.bertrand import sphere_preset
from bertrand_kit.curves import AnalyticCurve
from bertrand_kit.errors import DomainError, OrderOverflowError
from bertrand_kit.jets import (
    Jet,
    compose,
    evaluate_jet,
    evaluate_jets,
    invert_series,
    jcos,
    jcross,
    jdot,
    jexp,
    jlog,
    jsin,
    jsqrt,
    jstack,
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


def _components(v):
    return [Jet(v.basepoint, v.coeffs[:, i]) for i in range(v.coeffs.shape[1])]


def _compose_reference(outer, inner):
    """Horner evaluation of one scalar outer series in jet arithmetic."""
    n = min(outer.order, inner.order)
    shifted = Jet(inner.basepoint, inner.coeffs[: n + 1].copy())
    shifted.coeffs[0] = 0.0
    acc = Jet.constant(outer.coeffs[n], inner.basepoint, n)
    for k in range(n - 1, -1, -1):
        acc = acc * shifted + outer.coeffs[k]
    return acc


def _invert_reference(fwd):
    """Newton's iteration on truncated series, s and s' composed apart."""
    n = fwd.order
    inv = np.zeros_like(fwd.coeffs)
    inv[0] = fwd.basepoint
    inv[1] = 1.0 / fwd.coeffs[1]
    u = Jet(fwd.coeffs[0], inv)
    ident = Jet.variable(fwd.coeffs[0], n)
    dfwd = Jet(fwd.basepoint, np.concatenate((fwd.deriv().coeffs, np.zeros_like(fwd.coeffs[:1]))))
    order_reached = 1
    while order_reached < n:
        u = u - (_compose_reference(fwd, u) - ident) / _compose_reference(dfwd, u)
        order_reached *= 2
    return u


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("order", [6, 8, 10])
@pytest.mark.parametrize("n", [1, 24])
def test_vector_jet_operations_match_the_component_formulas(order, n):
    """Cross, dot, scaling and quotient by a scalar jet, the composition of
    a stacked outer series with one inner series, and series inversion
    give, bit for bit, what the scalar jet formulas give component by
    component."""
    rng = np.random.default_rng(order * 100 + n)
    t0 = rng.uniform(-1.0, 1.0, n)
    a = Jet(t0, rng.normal(size=(order + 1, 3, n)))
    b = Jet(t0, rng.normal(size=(order + 1, 3, n)))
    s = Jet(t0, rng.normal(size=(order + 1, n)) + np.r_[3.0, np.zeros(order)][:, None])
    A, B = _components(a), _components(b)

    cross = [A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2], A[0] * B[1] - A[1] * B[0]]
    _assert_same_bits(jcross(a, b).coeffs, jstack(cross).coeffs)
    # operands of two orders are cut to the lower, as in a x a'
    Bd = [c.deriv() for c in B]
    cross = [A[1] * Bd[2] - A[2] * Bd[1], A[2] * Bd[0] - A[0] * Bd[2], A[0] * Bd[1] - A[1] * Bd[0]]
    _assert_same_bits(jcross(a, b.deriv()).coeffs, jstack(cross).coeffs)
    _assert_same_bits(jdot(a, b).coeffs, (A[0] * B[0] + A[1] * B[1] + A[2] * B[2]).coeffs)
    _assert_same_bits((a / s).coeffs, jstack([c / s for c in A]).coeffs)
    _assert_same_bits((s * a).coeffs, jstack([s * c for c in A]).coeffs)
    _assert_same_bits((a * s).coeffs, jstack([c * s for c in A]).coeffs)

    # the inner series starts where the outer ones are centred
    inner = Jet(rng.uniform(-1.0, 1.0, n), rng.normal(size=(order + 1, n)))
    inner.coeffs[0] = t0
    _assert_same_bits(compose(a, inner).coeffs,
                      jstack([_compose_reference(c, inner) for c in A]).coeffs)
    fwd = Jet(t0, s.coeffs.copy())
    fwd.coeffs[1] = rng.uniform(0.5, 2.0, n)
    _assert_same_bits(invert_series(fwd).coeffs, _invert_reference(fwd).coeffs)
    assert [c.coeffs.tolist() for c in a] == [c.coeffs.tolist() for c in A]


def test_domain_errors():
    with pytest.raises(DomainError):
        jet_of("log(t)", -1.0, 2)
    with pytest.raises(DomainError):
        jet_of("sqrt(t)", -0.5, 2)
    with pytest.raises(DomainError):
        jet_of("1/(t-1)", 1.0, 2)


def test_only_evaluate_jet_caps_the_order():
    """``evaluate_jet`` refuses an order above its ``max_order``; a curve's
    own jets have no cap."""
    node = ex.parse_expression("sin(t)")
    with pytest.raises(OrderOverflowError):
        evaluate_jet(node, 0.3, 9)
    with pytest.raises(OrderOverflowError):
        evaluate_jet(node, 0.3, 3, max_order=2)
    assert evaluate_jet(node, 0.3, 9, max_order=9).coeffs.shape == (10,)
    curve = AnalyticCurve("sin(t)", "cos(t)", "t", (0.0, 1.0))
    assert curve.jet(0.3, 12).coeffs.shape == (13, 3)


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


def _mp_value(node, t):
    """The expression at ``t`` in mpmath arithmetic."""
    if isinstance(node, ex.Const):
        return mpmath.mpf(node.value)
    if isinstance(node, ex.Var):
        return t
    if isinstance(node, ex.PowConst):
        r = node.exponent
        return _mp_value(node.base, t) ** (int(r) if r == int(r) else mpmath.mpf(r))
    if isinstance(node, ex.Unary):
        v = _mp_value(node.child, t)
        return -v if node.op == "neg" else getattr(mpmath, node.op)(v)
    a, b = _mp_value(node.left, t), _mp_value(node.right, t)
    if node.op == "add":
        return a + b
    if node.op == "sub":
        return a - b
    if node.op == "mul":
        return a * b
    return a / b


# worst error measured over these curves and points, relative to the
# largest coefficient of the component's order-10 series: 2.2e-16 for the
# values (conical helix, y) and 3.1e-16 for the coefficients (wobble, z,
# order 3); the bound, 3.6e-15, leaves a factor above 10
ORACLE_TOL = 16 * np.finfo(float).eps


@pytest.mark.parametrize("name", ["wobble", *FAMILY_TEXTS])
def test_jets_and_values_match_a_50_digit_oracle(name):
    """``point`` (the program in value arithmetic) and ``evaluate_jet`` at
    orders 0-10 against ``mpmath.taylor`` at 50 digits, whose own error
    is below 1e-50."""
    curve, _ = _interned_and_plain(name)
    lo, hi = curve.domain
    for t in (lo, 0.6 * lo + 0.4 * hi, hi):
        point = curve.point(t)
        for node, value in zip((curve.x, curve.y, curve.z), point):
            with mpmath.workdps(50):
                ref = mpmath.taylor(lambda s: _mp_value(node, s), mpmath.mpf(t), 10)
                scale = max(abs(c) for c in ref)
                assert abs(value - ref[0]) <= ORACLE_TOL * scale
                for order in range(11):
                    got = evaluate_jet(node, t, order, max_order=10).coeffs
                    err = max(abs(mpmath.mpf(g) - r) for g, r in zip(got, ref))
                    assert err <= ORACLE_TOL * scale, (order, float(err / scale))
