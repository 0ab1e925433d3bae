"""Jet arithmetic against closed-form Maclaurin coefficients and FD oracles."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bertrand_kit import expr as ex
from bertrand_kit import jets
from bertrand_kit.bertrand import (
    DEFAULT_OMEGA,
    SPHERE_PRESETS,
    construct_mate,
    generate_bertrand_curve,
    sphere_preset,
)
from bertrand_kit.curves import AnalyticCurve, SampledCurve
from bertrand_kit.errors import DomainError, OrderOverflowError, OutOfDomainError
from bertrand_kit.jets import (
    Jet,
    evaluate_jet,
    evaluate_jets,
    jcross,
    jdot,
    jexp,
    jlog,
    jpow,
    jsincos,
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
    s, c = jsincos(t)
    assert np.allclose(s.coeffs, [0, 1, 0, -1 / 6, 0, 1 / 120, 0, -1 / 5040])
    assert np.allclose(c.coeffs, [1, 0, -1 / 2, 0, 1 / 24, 0, -1 / 720, 0])


def test_geometric_series():
    t = Jet.variable(0.0, 6)
    j = Jet.constant(1.0, 0.0, 6) / (1.0 - t)
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


def _components(v):
    return [Jet(v.basepoint, v.coeffs[:, i]) for i in range(v.coeffs.shape[1])]


def _stacked(components):
    """The coefficients of a vector jet from its component jets."""
    return np.stack([c.coeffs for c in components], axis=1)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("order", [6, 8, 10])
@pytest.mark.parametrize("n", [1, 24, 256])
def test_vector_jet_operations_match_the_component_formulas(order, n):
    """Cross, dot, and scaling and quotient by a scalar jet give, bit for
    bit, what the scalar jet formulas give component by component."""
    rng = np.random.default_rng(order * 100 + n)
    t0 = rng.uniform(-1.0, 1.0, n)
    a = Jet(t0, rng.normal(size=(order + 1, 3, n)))
    b = Jet(t0, rng.normal(size=(order + 1, 3, n)))
    s = Jet(t0, rng.normal(size=(order + 1, n)) + np.r_[3.0, np.zeros(order)][:, None])
    A, B = _components(a), _components(b)

    cross = [A[1] * B[2] - A[2] * B[1], A[2] * B[0] - A[0] * B[2], A[0] * B[1] - A[1] * B[0]]
    _assert_same_bits(jcross(a, b).coeffs, _stacked(cross))
    # operands of two orders are cut to the lower, as in a x a'
    Bd = [c.deriv() for c in B]
    cross = [A[1] * Bd[2] - A[2] * Bd[1], A[2] * Bd[0] - A[0] * Bd[2], A[0] * Bd[1] - A[1] * Bd[0]]
    _assert_same_bits(jcross(a, b.deriv()).coeffs, _stacked(cross))
    _assert_same_bits(jdot(a, b).coeffs, (A[0] * B[0] + A[1] * B[1] + A[2] * B[2]).coeffs)
    _assert_same_bits((a / s).coeffs, _stacked([c / s for c in A]))
    _assert_same_bits((s * a).coeffs, _stacked([s * c for c in A]))
    _assert_same_bits((a * s).coeffs, _stacked([c * s for c in A]))
    assert [c.coeffs.tolist() for c in a] == [c.coeffs.tolist() for c in A]


def test_domain_errors():
    with pytest.raises(DomainError):
        jet_of("log(t)", -1.0, 2)
    with pytest.raises(DomainError):
        jet_of("sqrt(t)", -0.5, 2)
    with pytest.raises(DomainError):
        jet_of("1/(t-1)", 1.0, 2)


def test_jet_errors_of_public_inputs():
    """The derivative of an order-0 jet and a negative order each raise."""
    with pytest.raises(OrderOverflowError):
        Jet.variable(0.5, 0).deriv()
    with pytest.raises(ValueError, match="^order must be >= 0$"):
        evaluate_jet(ex.parse_expression("sin(t)"), 0.3, -1)


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
    s, c = jsincos(t)
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


def _curve_and_parsed(name):
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
    """Jets of a curve's components, evaluated together with their shared
    subtrees evaluated once, equal the jets of each separately parsed
    component, bit for bit."""
    curve, plain = _curve_and_parsed(name)
    nodes = (curve.x, curve.y, curve.z)
    assert list(nodes) == plain  # the curve keeps its parsed trees
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


def _slot_steps(program):
    """The step that fills each slot of a program, in slot order."""
    slots = []
    for step in program:
        if step[0] != "out":
            slots += [step] * (2 if step[0] == "sincos" else 1)
    return slots


def test_program_shares_the_normaliser():
    """x, y and z of the wobble preset are divided by one normaliser slot,
    the one sqrt step, and its y^2 term squares y's sin(t) slot."""
    program = sphere_preset("wobble")._program
    slot = _slot_steps(program)
    outs = [slot[k] for op, k, _ in program if op == "out"]
    assert [op for op, _, _ in outs] == ["div"] * 3
    assert len({m for _, _, m in outs}) == 1
    assert [op for op, _, _ in program].count("sqrt") == 1
    # sqrt(cos(t)^2 + sin(t)^2 + (0.3*sin(2t))^2): its sum's left sum's right term
    total = slot[slot[outs[0][2]][1]]
    assert slot[slot[total[1]][2]] == ("pow", outs[1][1], 2.0)


def test_program_keeps_signed_zeros_apart():
    """-0.0 and 0.0 get one const step each, and t^-0.0 and t^0.0 one pow
    step each of one t; a later tree's constant reads the slot of its own
    sign."""
    program = ex.program([
        ex.Binary("add", ex.Const(-0.0), ex.Const(0.0)),
        ex.Binary("mul", ex.PowConst(ex.Var(), -0.0), ex.PowConst(ex.Var(), 0.0)),
        ex.Const(-0.0),
        ex.Const(0.0),
    ])
    slot = _slot_steps(program)
    consts = [k for k, step in enumerate(slot) if step[0] == "const"]
    assert [math.copysign(1.0, slot[k][1]) for k in consts] == [-1.0, 1.0]
    pows = [step for step in slot if step[0] == "pow"]
    assert [math.copysign(1.0, r) for _, _, r in pows] == [-1.0, 1.0]
    assert pows[0][1] == pows[1][1]
    outs = [slot[k] for op, k, _ in program if op == "out"]
    assert outs[2:] == [("lift", consts[0], None), ("lift", consts[1], None)]


def test_program_of_a_dag_visits_each_node_object_once():
    """A node object reached twice is keyed once, so a doubling DAG 40
    deep, with 2^40 paths from its root to t, is one var step, 40 adds and
    one out, for ``evaluate_jet`` and for a curve built from it; its
    order-1 jet at 0.5 is (2^39, 2^40)."""
    e = ex.Var()
    for _ in range(40):
        e = ex.Binary("add", e, e)
    assert len(ex.program((e,))) == 42
    assert evaluate_jet(e, 0.5, 1).coeffs.tolist() == [2.0**39, 2.0**40]
    curve = AnalyticCurve(e, e, e, (0.0, 1.0))
    assert len(curve._program) == 44
    assert curve.jet(0.5, 1).coeffs.tolist() == [[2.0**39] * 3, [2.0**40] * 3]


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
        (jpow(ja, 0.37), lambda i: _ref_pow(a[:, i], 0.37)),
        (jsincos(ja)[0], lambda i: _ref_sincos(a[:, i])[0]),
        (jsincos(ja)[1], lambda i: _ref_sincos(a[:, i])[1]),
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
    """``point`` (the program's value function) and ``evaluate_jet`` at
    orders 0-10 against ``mpmath.taylor`` at 50 digits, whose own error
    is below 1e-50."""
    curve, _ = _curve_and_parsed(name)
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


def test_program_compiles_once(monkeypatch):
    """One compile per distinct program: a curve's program serves 1025
    scalar points, jets at orders 0, 4 and 8 and a second curve built from
    the same texts; one node's program, compiled at its first
    ``evaluate_jet`` call, serves every later call on it."""
    monkeypatch.setattr(jets, "_COMPILED", {})
    compiles = Counter()
    real_compile = jets._compile

    def counting_compile(program):
        compiles[program] += 1
        return real_compile(program)

    monkeypatch.setattr(jets, "_compile", counting_compile)
    texts, domain = FAMILY_TEXTS["trefoil"]
    curve = AnalyticCurve(*texts, domain)
    ts = np.linspace(*domain, 1025)
    for t in ts:
        curve.point(float(t))
    for order in (0, 4, 8):
        curve.jet(0.3, order)
        curve.jet(ts, order)
    again = AnalyticCurve(*texts, domain)
    again.point(0.3)
    again.jet(ts, 4)
    assert list(compiles.values()) == [1]
    for _ in range(5):
        for order in (2, 6, 10):
            evaluate_jet(curve.x, 0.3, order, max_order=10)
    assert list(compiles.values()) == [1, 1]


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_signed_zero_constants_keep_their_programs_apart(monkeypatch, first):
    """Two curves whose ASTs differ only in ``Const(0.0)`` against
    ``Const(-0.0)`` have programs that compare equal; each still gives
    its own signed zero from ``point`` and from ``jet``, at a float and on
    a grid, whichever is built and evaluated first."""
    monkeypatch.setattr(jets, "_COMPILED", {})
    ts = np.linspace(-1.0, 1.0, 5)
    for zero in (first, -first):
        curve = AnalyticCurve(ex.Var(), ex.Binary("mul", ex.Const(zero), ex.Var()),
                              ex.Const(zero), (-1.0, 1.0))
        sign = math.copysign(1.0, zero) < 0
        for t in (0.5, ts[3:]):
            # z = zero, y = zero*t and its slope zero*1
            jet = curve.jet(t, 4).coeffs
            for v in (curve.point(t)[1:], curve.jet(t, 0).coeffs[0, 1:], jet[0, 1:], jet[1, 1]):
                assert np.all(np.signbit(v) == sign), (zero, t)


_UNARY_OPS = ("neg", "sin", "cos", "tan", "exp", "log", "sqrt")
_BINARY_OPS = ("add", "sub", "mul", "div")
_CONSTANTS = (0.0, -0.0, 1.0, -1.0, 0.5, 0.7, 2.0, -3.0)
_EXPONENTS = (0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, 2.5)
_UNDERFLOW = mpmath.mpf(2) ** -1022


@st.composite
def _shared_trees(draw):
    """x, y and z drawn from one pool of nodes: each new node applies one
    step kind to nodes of the pool, so later nodes share earlier
    subtrees, and a constant operand makes a plain-number step such as
    ``div_const``."""
    pool = [ex.Var(), ex.Const(draw(st.sampled_from(_CONSTANTS)))]
    for _ in range(draw(st.integers(1, 8))):
        operand = st.sampled_from(tuple(pool))
        kind = draw(st.sampled_from(("const", "unary", "binary", "pow")))
        if kind == "const":
            node = ex.Const(draw(st.sampled_from(_CONSTANTS)))
        elif kind == "unary":
            node = ex.Unary(draw(st.sampled_from(_UNARY_OPS)), draw(operand))
        elif kind == "binary":
            node = ex.Binary(draw(st.sampled_from(_BINARY_OPS)), draw(operand), draw(operand))
        else:
            node = ex.PowConst(draw(operand), draw(st.sampled_from(_EXPONENTS)))
        pool.append(node)
    return [draw(st.sampled_from(tuple(pool))) for _ in range(3)]


def _mp_error_scale(node, t):
    """A first-order bound on the rounding error of the float evaluation
    of ``node`` at ``t``, in units of the machine epsilon, in mpmath
    arithmetic: each step adds the error it inherits, times its
    derivative, to a few ulps of its own value (one for ``+ - * /``, four
    for numpy's functions, nine for tan as sin/cos, |m|+1 for an integer
    power by squaring) and to the error of an underflow, half the
    smallest subnormal, which is the smallest normal number in units of
    the epsilon's half.  None where the exact value is singular."""

    def walk(node):
        if isinstance(node, ex.Const):
            return mpmath.mpf(node.value), mpmath.mpf(0)
        if isinstance(node, ex.Var):
            return t, mpmath.mpf(0)
        if isinstance(node, ex.PowConst):
            v, e = walk(node.base)
            r = node.exponent
            if r == int(r) and abs(r) <= 64:
                m = int(r)
                if m == 0:
                    return mpmath.mpf(1), mpmath.mpf(0)
                if m < 0 and v == 0:
                    raise ZeroDivisionError
                y = v**m
                return y, abs(m * v ** (m - 1)) * e + (abs(m) + 1) * abs(y) + _UNDERFLOW
            if v <= 0:
                raise ZeroDivisionError
            y = v ** mpmath.mpf(r)
            return y, abs(r * y / v) * e + 4 * abs(y) + _UNDERFLOW
        if isinstance(node, ex.Unary):
            v, e = walk(node.child)
            op = node.op
            if op == "neg":
                return -v, e
            if op in ("log", "sqrt") and v <= 0:
                raise ZeroDivisionError
            y = getattr(mpmath, op)(v)
            slope = {"sin": lambda: mpmath.cos(v), "cos": lambda: mpmath.sin(v),
                     "tan": lambda: 1 + y * y, "exp": lambda: y,
                     "log": lambda: 1 / v, "sqrt": lambda: 1 / (2 * y)}[op]()
            return y, abs(slope) * e + (9 if op == "tan" else 4) * abs(y) + _UNDERFLOW
        (a, ea), (b, eb) = walk(node.left), walk(node.right)
        if node.op == "add":
            y, e = a + b, ea + eb
        elif node.op == "sub":
            y, e = a - b, ea + eb
        elif node.op == "mul":
            y, e = a * b, ea * abs(b) + eb * abs(a)
        else:
            y = a / b
            e = ea / abs(b) + eb * abs(y / b)
        return y, e + abs(y) + _UNDERFLOW

    try:
        with mpmath.workdps(50):
            return walk(node)[1]
    except ZeroDivisionError:
        return None


def _assert_near_the_oracle(values, nodes, t):
    for value, node in zip(values, nodes):
        scale = _mp_error_scale(node, mpmath.mpf(t))
        if scale is None:  # the exact value is singular; rounding avoided it
            continue
        with mpmath.workdps(50):
            ref = _mp_value(node, mpmath.mpf(t))
            assert abs(mpmath.mpf(float(value)) - ref) <= ORACLE_TOL * scale, (node, t)


@given(_shared_trees(), st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
@example([ex.Var(), ex.Var(), ex.parse_expression("1/t^(-1)")], 2.2250738585e-313)
@example([ex.Var(), ex.Var(), ex.parse_expression("exp(-exp(1000*t))")], 1.0)
def test_point_matches_the_oracle_or_raises_as_the_jet(trees, t):
    """Random shared trees over every step kind: ``point`` at a float
    and on a one-point grid is within ORACLE_TOL of the 50-digit oracle,
    relative to the bound ``_mp_error_scale`` puts on the rounding error,
    and has the bits of the order-0 jet about the float; or it raises the
    ``DomainError`` that ``jet(t, 0)`` raises, class and message."""
    curve = AnalyticCurve(*trees, (-2.0, 2.0))
    nodes = (curve.x, curve.y, curve.z)
    # overflow and inf - inf are domain errors here, not warnings
    with np.errstate(all="ignore"):
        for at in (t, np.array([t])):
            try:
                got = curve.point(at)
            except DomainError as e:
                with pytest.raises(DomainError) as want:
                    curve.jet(t, 0)
                assert type(e) is type(want.value) and str(e) == str(want.value)
                continue
            assert np.array_equal(np.ravel(got).view(np.uint64),
                                  curve.jet(t, 0).coeffs[0].view(np.uint64))
            _assert_near_the_oracle(np.ravel(got), nodes, t)


# an overflow that a later step would turn into a finite 0, 1/inf or
# exp(-inf): the examples of the oracle test above
_HIDDEN_OVERFLOWS = [("1/t^(-1)", 2.2250738585e-313), ("exp(-exp(1000*t))", 1.0)]


@pytest.mark.parametrize("text, t", _HIDDEN_OVERFLOWS, ids=[row[0] for row in _HIDDEN_OVERFLOWS])
def test_order_0_does_not_hide_an_overflow(text, t):
    """Where a step overflows and a later one would make the inf a finite
    0, ``point``, the order-0 jet at a float and on a grid, and the
    order-1 jet all raise the one ``DomainError``: a divisor and an
    ``exp`` argument or value must be finite."""
    curve = AnalyticCurve("t", "t", text, (-2.0, 2.0))
    message = f"non-finite jet coefficients at t={t}"
    with np.errstate(all="ignore"):
        for run in (lambda: curve.point(t), lambda: curve.jet(t, 0),
                    lambda: curve.jet(np.array([-1.0, t]), 0), lambda: curve.jet(t, 1)):
            with pytest.raises(DomainError) as got:
                run()
            assert type(got.value) is DomainError and str(got.value) == message


_ARITHMETIC = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y, "mul": lambda x, y: x * y,
               "div_const": lambda x, y: x / y}
_FUNCTIONS = {"exp": jexp, "log": jlog, "sqrt": jsqrt}


def _one_step_at_a_time(program, t0, order):
    """The reference for a compiled jet function: the steps of
    ``expr.program`` run one by one with ``Jet`` arithmetic, each domain
    check where its step stands, and the outputs' coefficients stacked on
    axis 1.  A divisor's constant term must be nonzero and then finite;
    an output's coefficients must be finite."""
    t = Jet.variable(t0, order)
    v, outs = [], []
    for op, a, b in program:
        if op == "const":
            v.append(a)
        elif op == "var":
            v.append(t)
        elif op == "lift":
            v.append(Jet.constant(v[a], t.basepoint, order))
        elif op == "neg":
            v.append(-v[a])
        elif op in _ARITHMETIC:
            v.append(_ARITHMETIC[op](v[a], v[b]))
        elif op == "div":
            divisor = v[b].coeffs[0]
            if np.any(divisor == 0.0):
                raise DomainError("division by a function vanishing at the basepoint")
            jets._require_finite(~np.isfinite(divisor), t0)
            top = v[a] if isinstance(v[a], Jet) else Jet.constant(v[a], t.basepoint, order)
            v.append(top / v[b])
        elif op == "pow":
            v.append(jpow(v[a], b))
        elif op in _FUNCTIONS:
            v.append(_FUNCTIONS[op](v[a]))
        elif op == "sincos":
            v.extend(jsincos(v[a]))
        elif op == "tan":
            jets._require_no_pole(v[a + 1].coeffs[0], t0)
            v.append(v[a] / v[a + 1])
        else:
            jets._require_finite(~np.isfinite(v[a].coeffs).all(axis=0), t0)
            outs.append(v[a].coeffs)
    return np.stack(outs, axis=1)


def _assert_batched_is_one_step_at_a_time(program, t0, order):
    """The compiled jet function of ``program`` about ``t0`` has the
    uint64 bits of ``_one_step_at_a_time``, C-ordered, or raises its
    ``DomainError``, class and message; returns that message, or None."""
    compiled = jets.compile_program(program)
    # overflow and inf - inf are domain errors here, not warnings
    with np.errstate(all="ignore"):
        try:
            want = _one_step_at_a_time(program, t0, order)
        except DomainError as e:
            with pytest.raises(DomainError) as got:
                jets.program_jets(compiled, t0, order)
            assert type(got.value) is type(e) and str(got.value) == str(e), (program, t0)
            return str(e)
        got = jets.program_jets(compiled, t0, order)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (program, t0, order)
    return None


@given(_shared_trees(), st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1,
                                 max_size=5))
@settings(max_examples=150, deadline=None)
@example([ex.parse_expression("(t + 1)^2 + t*(t - 1)"), ex.Var(), ex.Var()], [0.5, -1.5])
def test_batched_programs_have_the_bits_of_one_step_at_a_time(trees, ts):
    """Random shared trees over every step kind, at orders 0-10, about
    one basepoint and on a grid: the batched jet function has the bits of
    the steps run one by one, or raises their first ``DomainError``.  A
    square is a product, so the example runs a square and a product of
    two other factors in one stacked call."""
    program = ex.program(trees)
    for order in range(11):
        for t0 in (ts[0], np.array(ts)):
            _assert_batched_is_one_step_at_a_time(program, t0, order)


@pytest.mark.parametrize("name", sorted(SPHERE_PRESETS))
def test_preset_programs_have_the_bits_of_one_step_at_a_time(name):
    """Each sphere preset's program at orders 0-10, about one basepoint
    and on grids of 2, 26 and 66 points over its domain."""
    curve = sphere_preset(name)
    lo, hi = curve.domain
    for order in range(11):
        for t0 in (0.6 * lo + 0.4 * hi, *(np.linspace(lo, hi, n) for n in (2, 26, 66))):
            assert _assert_batched_is_one_step_at_a_time(curve._program, t0, order) is None


# One tree each, so that checked steps of one kind stand on both sides of
# a check of another kind (the outputs' checks part the trees), and the
# first error the steps run one by one meet, at each of the t values
_FIRST_ERRORS = [
    # sqrt, log, sqrt: at 1.5 the second sqrt's error would come first if
    # it ran with the first one
    ("sqrt(t - 1) + log(t - 2) + sqrt(t - 3)", (1.5, [2.5, 1.5], 0.5),
     ("log of non-positive value -0.5", "log of non-positive value -0.5",
      "sqrt of non-positive value -0.5")),
    ("log(t - 1) * sqrt(t - 2) * log(t - 3)", (1.5, [3.5, 1.5], 0.5),
     ("sqrt of non-positive value -0.5", "sqrt of non-positive value -0.5",
      "log of non-positive value -0.5")),
    # two divisions by one denominator share one check
    ("t/(t - 1) + 1/(t - 1) + log(t - 2)", (1.0, [3.0, 1.0], 1.5),
     ("division by a function", "division by a function", "log of non-positive value -0.5")),
    # an overflow, a non-integer power and a whole negative power; at -8
    # the second power's error would come first if it ran with the first
    ("(2 - t)^0.5 + exp(-100*t) + (3 + t)^0.5", (-8.0, 2.5, [-2.0, -3.5]),
     ("non-finite jet coefficients at t=-8.0", "non-integer power of non-positive value -0.5",
      "non-integer power of non-positive value -0.5")),
    ("exp(100*t) + (t - 2)^0.5 + (t - 3)^-1", (8.0, 1.5, [4.0, 3.0]),
     ("non-finite jet coefficients at t=8.0", "non-integer power of non-positive value -0.5",
      "division by a function")),
    ("tan(t) + sqrt(t - 2) + tan(2*t)", (math.pi / 2, 1.0, [2.5, 3 * math.pi / 4]),
     ("tan pole near t=1.57", "sqrt of non-positive value -1.0", "tan pole near t=2.35")),
]


@pytest.mark.parametrize("text, ts, messages", _FIRST_ERRORS,
                         ids=[row[0] for row in _FIRST_ERRORS])
def test_batched_programs_raise_the_first_domain_error(text, ts, messages):
    """At every order and each t value or grid, the batched jet function
    raises the first ``DomainError`` of the steps run one by one, which
    is the one named."""
    program = ex.program([ex.Var(), ex.parse_expression(text), ex.Var()])
    for t0, start in zip(ts, messages):
        for order in range(11):
            t0 = np.array(t0) if isinstance(t0, list) else t0
            message = _assert_batched_is_one_step_at_a_time(program, t0, order)
            assert message is not None and message.startswith(start), (t0, order, message)


def _assert_point_is_the_jet_constant(curve, t):
    """``point(t)`` has the uint64 bits of ``jet(np.array([float(t)]), 0)``,
    or raises its exception class and message; returns that message, or
    None."""
    try:
        got = curve.point(t)
    except (DomainError, OutOfDomainError) as e:
        with pytest.raises(type(e)) as want:
            curve.jet(np.array([float(t)]), 0)
        assert type(want.value) is type(e) and str(want.value) == str(e), t
        return str(e)
    want = curve.jet(np.array([float(t)]), 0).coeffs[0][:, 0]
    assert got.shape == (3,)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t
    return None


_WHOLE_EXPONENTS = ("0", "1", "-1", "2", "3", "5", "7", "8", "63", "64", "-64")
_POWER_EXPONENTS = ("0.5", "1.5", "65", "-65")
_HALF_PI = math.pi / 2
# t values for every row: signed zeros, tiny powers that underflow, values
# that overflow a power or exp, and numbers whose powers round differently
# under another order of the products
_PARITY_TS = (-1e5, -2.6, -1.7, -1.0, -0.6, -0.0, 0.0, 1e-6, 1e-5, 0.3, 0.5, 0.7, 1.0,
              1.3, 1.9, 2.6, 5.0, 709.0, 710.0, 1e5, 1e200)
# (expression, extra t values): every step kind of ``expr.program``, each
# whole exponent that goes by repeated squaring and each that takes
# np.power, and every domain check of the value function
_PARITY_TABLE = [
    ("2.5", ()),  # const, lift, out
    ("-t + 2*t - t*t", ()),  # var, neg, add, sub, mul
    ("-(3)*t + exp(2)", ()),  # neg of a plain number, a plain number lifted into exp
    ("1/t", ()),  # div with a plain numerator, by zero at +-0
    ("t/(t - 0.5)", ()),  # div by a function vanishing at 0.5
    ("1/(2 - 2) + t", ()),  # two constants: the left one becomes a function of t
    ("t/7", ()), ("t/0", ()), ("t/-0.0", ()),  # div_const, by zero too
    *((f"t^({e})", ()) for e in _WHOLE_EXPONENTS + _POWER_EXPONENTS),
    ("(t - 0.5)^-3", ()),  # a whole negative power of a function vanishing at 0.5
    ("exp(t)", ()), ("exp(t) - exp(t)", ()),  # overflow to inf, and inf - inf
    ("log(t)", ()), ("sqrt(t)", ()), ("log(exp(t))", ()),
    ("sin(t)*cos(t) + tan(t)", ()),  # one sincos feeds sin, cos and tan
    # the tan pole floor: |cos t| below 1e-12 is a pole, at or above it not
    ("tan(t)", (_HALF_PI, -_HALF_PI, 3 * _HALF_PI, _HALF_PI - 0.99e-12,
                _HALF_PI - 1.01e-12, _HALF_PI + 2e-12)),
]


@pytest.mark.parametrize("text, extra", _PARITY_TABLE, ids=[row[0] for row in _PARITY_TABLE])
def test_value_function_has_the_bits_of_the_jet(text, extra):
    """The compiled value function against the jet path, step kind by step
    kind: with the expression as x, y and z in turn, ``point(t)`` has the
    bits of the order-0 jet about ``t`` or raises its ``DomainError``,
    class and message.  Whole exponents up to 64 in size are written out
    as the products of ``_repeated_squaring``, so an exponent such as 7
    pins their order; the others take np.power."""
    with np.errstate(all="ignore"):
        for where in range(3):
            texts = ["t"] * 3
            texts[where] = text
            curve = AnalyticCurve(*texts, (-1e300, 1e300))
            for t in _PARITY_TS + extra:
                _assert_point_is_the_jet_constant(curve, t)


def test_parity_table_reaches_every_domain_check():
    """The rows of ``_PARITY_TABLE`` raise each domain error of the value
    function at least once, so the table tests each check."""
    messages = set()
    with np.errstate(all="ignore"):
        for text, extra in _PARITY_TABLE:
            curve = AnalyticCurve(text, "t", "t", (-1e300, 1e300))
            for t in _PARITY_TS + extra:
                message = _assert_point_is_the_jet_constant(curve, t)
                messages.add(message)
    for start in ("log of", "sqrt of", "non-integer power of", "division by a function",
                  "division by zero", "tan pole", "non-finite"):
        assert any(m and m.startswith(start) for m in messages), start


@pytest.mark.parametrize(
    "t", [1, True, np.int64(1), np.float32(0.3), np.array(0.3), np.float64(0.3), 0.3],
    ids=["int", "bool", "int64", "float32", "0-d array", "float64", "float"],
)
def test_point_takes_every_kind_of_number(t):
    """``point`` of a Python int, a bool, numpy integers and floats of
    either width, a 0-d array and a float is one (3,) array with the bits
    of the order-0 jet about ``float(t)``."""
    texts, domain = FAMILY_TEXTS["conical_helix"]
    curve = AnalyticCurve(*texts, domain, label="conical_helix")
    assert _assert_point_is_the_jet_constant(curve, t) is None


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1e-11, 6.0 + 2e-12, 7.5])
def test_point_outside_the_domain_raises_out_of_domain(t):
    """NaN, +-inf and floats beyond the domain's 1e-12 slack raise
    ``OutOfDomainError``, with the message of the jet path; a float inside
    the slack is a point."""
    texts, domain = FAMILY_TEXTS["conical_helix"]
    curve = AnalyticCurve(*texts, domain, label="conical_helix")
    message = f"t={t} outside [0.0, 6.0] of curve 'conical_helix'"
    with pytest.raises(OutOfDomainError) as got:
        curve.point(t)
    assert str(got.value) == message
    assert _assert_point_is_the_jet_constant(curve, t) == message
    for inside in (-5e-13, 6.0 + 5e-13):
        assert _assert_point_is_the_jet_constant(curve, inside) is None


def _sincos_two_arrays(u):
    """sin u and cos u by the recurrence on two arrays, one update and one
    division each per order: the reference for the stacked ``jsincos``."""
    c = u.coeffs
    n = u.order
    jc = jets._per_order(np.arange(1, n + 1), c) * c[1:]
    s = np.zeros(c.shape)
    co = np.zeros(c.shape)
    s[0] = np.sin(c[0])
    co[0] = np.cos(c[0])
    for m in range(n):
        s[m + 1 :] += jc[: n - m] * co[m]
        co[m + 1 :] -= jc[: n - m] * s[m]
        s[m + 1] /= m + 1
        co[m + 1] /= m + 1
    return s, co


def _with_signed_zeros(rng, shape):
    """Random coefficients of ``shape`` with about a third of them +0.0
    or -0.0."""
    c = rng.normal(size=shape)
    zero = rng.random(shape) < 0.35
    c[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return c


@pytest.mark.parametrize("order", range(11))
@pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=["point", "grid", "vector"])
def test_stacked_sincos_has_the_bits_of_two_arrays(order, shape):
    """``jsincos`` keeps sin and cos in one stacked array; on one-point,
    grid and vector jets of orders 0-10, with +0.0 and -0.0 among the
    coefficients and as whole jets, both series have the bits of the
    two-array recurrence."""
    rng = np.random.default_rng(100 * order + len(shape))
    t0 = 0.3 if not shape else rng.uniform(-1.0, 1.0, shape[-1])
    for coeffs in (_with_signed_zeros(rng, (order + 1,) + shape),
                   np.zeros((order + 1,) + shape), np.full((order + 1,) + shape, -0.0)):
        s, c = jets.jsincos(Jet(t0, coeffs))
        want_s, want_c = _sincos_two_arrays(Jet(t0, coeffs))
        _assert_same_bits(s.coeffs, want_s)
        _assert_same_bits(c.coeffs, want_c)


def test_cross_products_have_the_bits_of_numpy_cross():
    """The one cross product formula: ``jets._cross_rows`` on (N, 3) rows
    and the constant term of ``jcross`` (the rows' N in the Frenet pass,
    the seed's c x c' in the sphere checks) have the bits of
    ``np.cross``, on random rows with +0.0 and -0.0 among the entries."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 64):
        a, b = _with_signed_zeros(rng, (n, 3)), _with_signed_zeros(rng, (n, 3))
        want = np.cross(a, b)
        _assert_same_bits(jets._cross_rows(a, b), want)
        ja, jb = Jet(np.zeros(n), a.T[None]), Jet(np.zeros(n), b.T[None])
        _assert_same_bits(jcross(ja, jb).coeffs[0].T, want)
        ja = Jet(np.zeros(n), np.concatenate((a.T[None], rng.normal(size=(4, 3, n)))))
        jb = Jet(np.zeros(n), np.concatenate((b.T[None], rng.normal(size=(4, 3, n)))))
        _assert_same_bits(jcross(ja, jb).coeffs[0].T, want)


@pytest.mark.parametrize("shape", [(5, 11), (5, 3, 11)], ids=["scalar", "vector"])
def test_take_and_column_have_the_bits_of_the_fancy_index(shape):
    """``Jet.take`` with positions (repeats included, as a generated
    curve's segment lookup passes them), a boolean mask and a step slice,
    and ``Jet.column``, give the bits of ``coeffs[..., idx]`` and
    ``basepoint[idx]``.  The mask is true off the positions 0 and 1,
    which ``np.take`` would read a bool array as."""
    rng = np.random.default_rng(7)
    t0 = rng.uniform(-1.0, 1.0, shape[-1])
    jet = Jet(t0, _with_signed_zeros(rng, shape))
    mask = np.zeros(shape[-1], dtype=bool)
    mask[[2, 5, 6, 10]] = True
    for idx in (np.array([3, 3, 0, 10, 7, 7]), mask, slice(1, None, 3), np.arange(0)):
        got = jet.take(idx)
        _assert_same_bits(got.coeffs, jet.coeffs[..., idx])
        _assert_same_bits(got.basepoint, t0[idx])
    for i in (*range(shape[-1]), -1):
        got = jet.column(i)
        _assert_same_bits(got.coeffs, jet.coeffs[..., i])
        assert got.basepoint == t0[i]


def _assert_unit_stride(coeffs):
    assert coeffs.strides[-1] == coeffs.itemsize
    assert coeffs.flags.c_contiguous


def test_jets_keep_the_column_axis_unit_stride():
    """A grid jet's coefficients are C-ordered, the column axis innermost
    in memory, on an analytic, a sampled, a generated and a mate curve,
    and so are ``take``'s and ``jcross``'s: a fancy index on the last axis
    would make it the outermost, and every ufunc after it would keep
    that layout."""
    base = generate_bertrand_curve(sphere_preset("wobble"), 1.0, DEFAULT_OMEGA["wobble"], n=64)
    curves = (
        AnalyticCurve("cos(t)", "sin(t)", "t*t", (0.0, 1.0)),
        SampledCurve(base.params, base.points),
        base,
        construct_mate(base, 1.0, n=64),
    )
    for curve in curves:
        ts = np.linspace(*curve.domain, 37)
        P = curve.jet(ts, 4)
        _assert_unit_stride(P.coeffs)
        D1 = P.deriv()
        keep = np.ones(len(ts), dtype=bool)
        keep[::5] = False
        for idx in (np.flatnonzero(keep), keep, slice(None, None, 2)):
            _assert_unit_stride(D1.take(idx).coeffs)
        _assert_unit_stride(jcross(D1, D1.deriv()).coeffs)
