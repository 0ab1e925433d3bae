"""Truncated Taylor series ("jets") and their propagation through ASTs.

A jet stores the Taylor *coefficients* of a function about a basepoint:
``coeffs[k] = f^(k)(t0) / k!``.  Arithmetic follows the standard
recurrences: sums term-wise, products by Cauchy convolution, quotients by
forward substitution, elementary functions by their ODE recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .errors import DomainError, OrderOverflowError

DEFAULT_MAX_ORDER = 8

_TAN_COS_FLOOR = 1e-12


class Jet:
    """Taylor coefficients of a scalar function about ``basepoint``."""

    __slots__ = ("basepoint", "coeffs")

    def __init__(self, basepoint, coeffs):
        self.basepoint = float(basepoint)
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, t0, order):
        c = np.zeros(order + 1)
        c[0] = value
        return cls(t0, c)

    @classmethod
    def variable(cls, t0, order):
        c = np.zeros(order + 1)
        c[0] = t0
        if order >= 1:
            c[1] = 1.0
        return cls(t0, c)

    def derivative_value(self, k):
        """The k-th derivative at the basepoint, k!*coeffs[k]."""
        return math.factorial(k) * self.coeffs[k]

    def derivatives(self):
        """All derivatives 0..order at the basepoint."""
        fact = np.array([math.factorial(k) for k in range(self.order + 1)])
        return fact * self.coeffs

    def deriv(self):
        """Jet of the derivative function (order drops by one)."""
        if self.order == 0:
            raise OrderOverflowError(-1, 0)
        k = np.arange(1, self.order + 1)
        return Jet(self.basepoint, k * self.coeffs[1:])

    def antideriv(self, constant=0.0):
        """Jet of an antiderivative (order rises by one)."""
        k = np.arange(1, self.order + 2)
        c = np.empty(self.order + 2)
        c[0] = constant
        c[1:] = self.coeffs / k
        return Jet(self.basepoint, c)

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self.basepoint, self.coeffs[: order + 1])

    def __call__(self, t):
        """Horner evaluation of the truncated series at ``t``."""
        h = t - self.basepoint
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * h + c
        return acc

    # -- arithmetic -------------------------------------------------------

    def _align(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return self.coeffs[: n + 1], other.coeffs[: n + 1]
        c = np.zeros_like(self.coeffs)
        c[0] = float(other)
        return self.coeffs, c

    def __add__(self, other):
        a, b = self._align(other)
        return Jet(self.basepoint, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._align(other)
        return Jet(self.basepoint, a - b)

    def __rsub__(self, other):
        a, b = self._align(other)
        return Jet(self.basepoint, b - a)

    def __neg__(self):
        return Jet(self.basepoint, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.basepoint, self.coeffs * float(other))
        n = min(self.order, other.order)
        a = self.coeffs[: n + 1]
        b = other.coeffs[: n + 1]
        return Jet(self.basepoint, np.convolve(a, b)[: n + 1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.basepoint, self.coeffs / float(other))
        n = min(self.order, other.order)
        a = self.coeffs[: n + 1]
        b = other.coeffs[: n + 1]
        if b[0] == 0.0:
            raise DomainError("division by a function vanishing at the basepoint")
        q = np.empty(n + 1)
        for k in range(n + 1):
            acc = a[k]
            if k:
                acc -= np.dot(q[:k], b[k:0:-1])
            q[k] = acc / b[0]
        return Jet(self.basepoint, q)

    def __rtruediv__(self, other):
        return Jet.constant(float(other), self.basepoint, self.order) / self

    def __pow__(self, r):
        return jpow(self, float(r))


def jexp(u: Jet) -> Jet:
    n = u.order
    c = u.coeffs
    v = np.empty(n + 1)
    v[0] = math.exp(c[0])
    jc = np.arange(1, n + 1) * c[1:]
    for k in range(1, n + 1):
        v[k] = np.dot(jc[:k], v[k - 1 :: -1]) / k
    return Jet(u.basepoint, v)


def jlog(u: Jet) -> Jet:
    n = u.order
    c = u.coeffs
    if c[0] <= 0.0:
        raise DomainError(f"log of non-positive value {c[0]}")
    v = np.empty(n + 1)
    v[0] = math.log(c[0])
    for k in range(1, n + 1):
        acc = k * c[k]
        for j in range(1, k):
            acc -= j * v[j] * c[k - j]
        v[k] = acc / (k * c[0])
    return Jet(u.basepoint, v)


def jsqrt(u: Jet) -> Jet:
    n = u.order
    c = u.coeffs
    if c[0] <= 0.0:
        raise DomainError(f"sqrt of non-positive value {c[0]}")
    w = np.empty(n + 1)
    w[0] = math.sqrt(c[0])
    for k in range(1, n + 1):
        acc = c[k]
        for j in range(1, k):
            acc -= w[j] * w[k - j]
        w[k] = acc / (2.0 * w[0])
    return Jet(u.basepoint, w)


def jpow(u: Jet, r: float) -> Jet:
    """u**r for a real constant exponent."""
    if r == round(r) and abs(r) <= 64:
        # integer powers by repeated squaring keep 0 and negative bases legal
        m = int(round(r))
        if m == 0:
            return Jet.constant(1.0, u.basepoint, u.order)
        acc = Jet.constant(1.0, u.basepoint, u.order)
        base = u
        e = abs(m)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        if m < 0:
            return Jet.constant(1.0, u.basepoint, u.order) / acc
        return acc
    n = u.order
    c = u.coeffs
    if c[0] <= 0.0:
        raise DomainError(f"non-integer power of non-positive value {c[0]}")
    w = np.empty(n + 1)
    w[0] = c[0] ** r
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += (r * j - (k - j)) * c[j] * w[k - j]
        w[k] = acc / (k * c[0])
    return Jet(u.basepoint, w)


def jsincos(u: Jet):
    n = u.order
    c = u.coeffs
    s = np.empty(n + 1)
    co = np.empty(n + 1)
    s[0] = math.sin(c[0])
    co[0] = math.cos(c[0])
    jc = np.arange(1, n + 1) * c[1:]
    for k in range(1, n + 1):
        ju = jc[:k]
        s[k] = np.dot(ju, co[k - 1 :: -1]) / k
        co[k] = -np.dot(ju, s[k - 1 :: -1]) / k
    return Jet(u.basepoint, s), Jet(u.basepoint, co)


def jsin(u: Jet) -> Jet:
    return jsincos(u)[0]


def jcos(u: Jet) -> Jet:
    return jsincos(u)[1]


def jtan(u: Jet) -> Jet:
    return _tan_of(*jsincos(u))


def _tan_of(s: Jet, c: Jet) -> Jet:
    if abs(c.coeffs[0]) < _TAN_COS_FLOOR:
        raise DomainError(f"tan pole near t={s.basepoint}")
    return s / c


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(g(t)) where ``outer`` expands f about g(t0).

    Requires inner.coeffs[0] == outer.basepoint (the expansion points
    chain).  Horner evaluation in jet arithmetic; the inner jet's constant
    term is dropped because ``outer`` is already centered there.
    """
    n = min(outer.order, inner.order)
    shifted = Jet(inner.basepoint, inner.coeffs[: n + 1].copy())
    shifted.coeffs[0] = 0.0
    acc = Jet.constant(outer.coeffs[n], inner.basepoint, n)
    for k in range(n - 1, -1, -1):
        acc = acc * shifted + outer.coeffs[k]
    return acc


def invert_series(fwd: Jet, value_at_base=None) -> Jet:
    """Jet of the inverse function.

    ``fwd`` is the jet of s(u) about u0 with s'(u0) != 0; the result is the
    jet of u(s) about s0 = s(u0) (or ``value_at_base`` if the caller wants
    to override the stored constant term).
    """
    n = fwd.order
    if fwd.coeffs[1] == 0.0:
        raise DomainError("cannot invert a series with vanishing derivative")
    s0 = fwd.coeffs[0]
    u0 = fwd.basepoint if value_at_base is None else value_at_base
    # Newton iteration on truncated series: u <- u - (s(u) - id)/s'(u)
    inv = np.zeros(n + 1)
    inv[0] = fwd.basepoint
    if n >= 1:
        inv[1] = 1.0 / fwd.coeffs[1]
    u = Jet(s0, inv)
    ident = Jet.variable(s0, n)
    dfwd = fwd.deriv() if n >= 1 else None
    order_reached = 1
    while order_reached < n:
        su = compose(fwd, u)
        dsu = compose(Jet(fwd.basepoint, np.append(dfwd.coeffs, 0.0)), u)
        u = u - (su - ident) / dsu
        order_reached *= 2
    if value_at_base is not None:
        u = Jet(s0, u.coeffs.copy())
        u.coeffs[0] = u0
    return u


def evaluate_jet(node: ex.ExprNode, t0: float, order: int, max_order: int = DEFAULT_MAX_ORDER) -> Jet:
    """Propagate a jet of the variable through an expression AST."""
    return evaluate_jets((node,), t0, order, max_order)[0]


def evaluate_jets(nodes, t0: float, order: int, max_order: int = DEFAULT_MAX_ORDER):
    """Jets of several expression ASTs about one basepoint, as a tuple.

    One memo keyed by node id serves every tree, so a subtree shared
    within or across the trees (see ``expr.intern``) is evaluated once,
    and ``sin``, ``cos`` and ``tan`` of one child share one ``jsincos``.
    Each shared value is the same computation on the same operands, so
    the coefficients equal those of evaluating each tree on its own.
    Each result is checked for finiteness as soon as it is computed.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    ev = _Evaluator(Jet.variable(t0, order))
    results = []
    for node in nodes:
        result = ev(node)
        if not np.all(np.isfinite(result.coeffs)):
            raise DomainError(f"non-finite jet coefficients at t={t0}")
        results.append(result)
    return tuple(results)


_FUNC = {
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
}


class _Evaluator:
    """Jets of AST nodes about one basepoint, each node evaluated once."""

    def __init__(self, tjet):
        self.tjet = tjet
        self.memo = {}
        self.sincos = {}

    def __call__(self, node):
        key = id(node)
        jet = self.memo.get(key)
        if jet is None:
            jet = self.memo[key] = self._eval(node)
        return jet

    def _sincos(self, child):
        key = id(child)
        pair = self.sincos.get(key)
        if pair is None:
            pair = self.sincos[key] = jsincos(self(child))
        return pair

    def _eval(self, node):
        tjet = self.tjet
        if isinstance(node, ex.Const):
            return Jet.constant(node.value, tjet.basepoint, tjet.order)
        if isinstance(node, ex.Var):
            return tjet
        if isinstance(node, ex.PowConst):
            return jpow(self(node.base), node.exponent)
        if isinstance(node, ex.Unary):
            op = node.op
            if op == "sin":
                return self._sincos(node.child)[0]
            if op == "cos":
                return self._sincos(node.child)[1]
            if op == "tan":
                return _tan_of(*self._sincos(node.child))
            child = self(node.child)
            if op == "neg":
                return -child
            return _FUNC[op](child)
        left = self(node.left)
        right = self(node.right)
        if node.op == "add":
            return left + right
        if node.op == "sub":
            return left - right
        if node.op == "mul":
            return left * right
        return left / right
