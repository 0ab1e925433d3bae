"""Truncated Taylor series ("jets") and their propagation through ASTs.

A jet stores the Taylor *coefficients* of a function about a basepoint:
``coeffs[k] = f^(k)(t0) / k!``.  About one basepoint the coefficients
have shape ``(K+1,)``; about N basepoints at once they have shape
``(K+1, N)``, one column per basepoint, and ``basepoint`` holds the N
values.  Every recurrence is written once, along the leading (order)
axis: each column goes through the same floating-point operations in the
same order whatever the other columns hold, so a point's coefficients do
not depend on the batch it is evaluated in, and one point is just the
one-column case.  Sums are term-wise, products Cauchy convolutions,
quotients forward substitutions, elementary functions their ODE
recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13).  A domain check fails the whole batch if any column fails it.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .errors import DomainError, OrderOverflowError

DEFAULT_MAX_ORDER = 8

_TAN_COS_FLOOR = 1e-12


def _per_order(v, coeffs):
    """The order-indexed vector ``v`` shaped to broadcast against ``coeffs``."""
    return v[:, None] if coeffs.ndim > 1 else v


def _first(flags, values):
    """The value of the first column flagged in ``flags``, for messages."""
    return np.ravel(values)[np.argmax(np.ravel(flags))]


def _require_positive(c0, what):
    bad = c0 <= 0.0
    if bad.any():
        raise DomainError(f"{what} of non-positive value {_first(bad, c0)}")


class Jet:
    """Taylor coefficients of a scalar function about ``basepoint``, or
    about each of an array of basepoints (one coefficient column each)."""

    __slots__ = ("basepoint", "coeffs")

    def __init__(self, basepoint, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim == 1:
            self.basepoint = float(basepoint)
        else:
            self.basepoint = np.asarray(basepoint, dtype=float)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, t0, order):
        c = np.zeros((order + 1,) + getattr(t0, "shape", ()))
        c[0] = value
        return cls(t0, c)

    @classmethod
    def variable(cls, t0, order):
        c = np.zeros((order + 1,) + getattr(t0, "shape", ()))
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
        return _per_order(fact, self.coeffs) * self.coeffs

    def deriv(self):
        """Jet of the derivative function (order drops by one)."""
        if self.order == 0:
            raise OrderOverflowError(-1, 0)
        k = np.arange(1, self.order + 1)
        return Jet(self.basepoint, _per_order(k, self.coeffs) * self.coeffs[1:])

    def antideriv(self, constant=0.0):
        """Jet of an antiderivative (order rises by one)."""
        k = np.arange(1, self.order + 2)
        c = np.empty((self.order + 2,) + self.coeffs.shape[1:])
        c[0] = constant
        c[1:] = self.coeffs / _per_order(k, self.coeffs)
        return Jet(self.basepoint, c)

    def truncate(self, order):
        if order >= self.order:
            return self
        return Jet(self.basepoint, self.coeffs[: order + 1])

    def column(self, i):
        """The one-basepoint jet of column ``i``."""
        return Jet(self.basepoint[i], self.coeffs[:, i])

    def take(self, idx):
        """The jet of the columns ``idx``, in that order."""
        return Jet(self.basepoint[idx], self.coeffs[:, idx])

    def __call__(self, t):
        """Horner evaluation of the truncated series at ``t``."""
        h = t - self.basepoint
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * h + c
        return acc

    # -- arithmetic -------------------------------------------------------
    # a plain operand (a number, or one value per column) is a constant

    def _align(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            n = min(len(a), len(b))
            a, b = a[:n], b[:n]
        return a, b

    def with_constant(self, c0):
        """The same jet with its constant term replaced by ``c0``."""
        c = self.coeffs.copy()
        c[0] = c0
        return Jet(self.basepoint, c)

    def __add__(self, other):
        if not isinstance(other, Jet):
            return self.with_constant(self.coeffs[0] + other)
        a, b = self._align(other)
        return Jet(self.basepoint, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return self.with_constant(self.coeffs[0] - other)
        a, b = self._align(other)
        return Jet(self.basepoint, a - b)

    def __rsub__(self, other):
        return (-self).with_constant(other - self.coeffs[0])

    def __neg__(self):
        return Jet(self.basepoint, -self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.basepoint, self.coeffs * other)
        return Jet(self.basepoint, _cauchy(*self._align(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if np.any(other == 0.0):
                raise DomainError("division by zero")
            return Jet(self.basepoint, self.coeffs / other)
        a, b = self._align(other)
        if (b[0] == 0.0).any():
            raise DomainError("division by a function vanishing at the basepoint")
        return Jet(self.basepoint, _quotient(a, b))

    def __rtruediv__(self, other):
        return Jet.constant(other, self.basepoint, self.order) / self

    def __pow__(self, r):
        return jpow(self, float(r))


def _cauchy(a, b):
    """Coefficients of a product: c[k] is the sum of a[j]*b[k-j] over
    j = 0..k, added in order of j."""
    if len(a) == 1:
        return a * b
    p = a[:, None] * b
    c = p[0].copy()
    for j in range(1, len(c)):
        c[j:] += p[j, :-j]
    return c


def _quotient(a, b):
    """Coefficients of a/b by forward substitution: q[k] is a[k] less
    q[j]*b[k-j] for j = 0..k-1 in order of j, over b[0]."""
    q = a.copy()
    n = len(q) - 1
    for k in range(n + 1):
        q[k] /= b[0]
        if k < n:
            q[k + 1 :] -= q[k] * b[1 : n + 1 - k]
    return q


def jexp(u: Jet) -> Jet:
    c = u.coeffs
    n = u.order
    jc = _per_order(np.arange(1, n + 1), c) * c[1:]
    # v[k] collects sum_j j*c[j]*v[k-j] as the v it needs become final
    v = np.zeros(c.shape)
    v[0] = np.exp(c[0])
    for m in range(n):
        v[m + 1 :] += jc[: n - m] * v[m]
        v[m + 1] /= m + 1
    return Jet(u.basepoint, v)


def jlog(u: Jet) -> Jet:
    c = u.coeffs
    n = u.order
    _require_positive(c[0], "log")
    # v[k] starts as k*c[k] and loses j*v[j]*c[k-j] for j = 1..k-1
    v = _per_order(np.arange(n + 1), c) * c
    v[0] = np.log(c[0])
    for m in range(1, n + 1):
        v[m] /= m * c[0]
        v[m + 1 :] -= m * v[m] * c[1 : n + 1 - m]
    return Jet(u.basepoint, v)


def jsqrt(u: Jet) -> Jet:
    c = u.coeffs
    n = u.order
    _require_positive(c[0], "sqrt")
    w = np.empty_like(c)
    w[0] = np.sqrt(c[0])
    for k in range(1, n + 1):
        acc = c[k]
        if k > 1:
            # sum of w[j]*w[k-j] over j = 1..k-1, in order of j
            acc = acc - np.add.accumulate(w[1:k] * w[k - 1 : 0 : -1])[-1]
        w[k] = acc / (2.0 * w[0])
    return Jet(u.basepoint, w)


def jpow(u: Jet, r: float) -> Jet:
    """u**r for a real constant exponent."""
    if r == round(r) and abs(r) <= 64:
        # integer powers by repeated squaring keep 0 and negative bases legal
        m = int(round(r))
        one = Jet.constant(1.0, u.basepoint, u.order)
        if m == 0:
            return one
        acc = None
        base = u
        e = abs(m)
        while True:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if not e:
                break
            base = base * base
        if m < 0:
            return one / acc
        return acc
    c = u.coeffs
    n = u.order
    _require_positive(c[0], "non-integer power")
    # k*c[0]*w[k] = sum_j (r*j - (k-j)) * c[j] * w[k-j], j = 1..k
    w = np.zeros(c.shape)
    w[0] = c[0] ** r
    j = np.arange(1, n + 1)
    for m in range(n):
        w[m + 1 :] += _per_order(r * j[: n - m] - m, c) * c[1 : n + 1 - m] * w[m]
        w[m + 1] /= (m + 1) * c[0]
    return Jet(u.basepoint, w)


def jsincos(u: Jet):
    c = u.coeffs
    n = u.order
    jc = _per_order(np.arange(1, n + 1), c) * c[1:]
    s = np.zeros(c.shape)
    co = np.zeros(c.shape)
    s[0] = np.sin(c[0])
    co[0] = np.cos(c[0])
    for m in range(n):
        s[m + 1 :] += jc[: n - m] * co[m]
        co[m + 1 :] -= jc[: n - m] * s[m]
        s[m + 1] /= m + 1
        co[m + 1] /= m + 1
    return Jet(u.basepoint, s), Jet(u.basepoint, co)


def jsin(u: Jet) -> Jet:
    return jsincos(u)[0]


def jcos(u: Jet) -> Jet:
    return jsincos(u)[1]


def jtan(u: Jet) -> Jet:
    return _tan_of(*jsincos(u))


def _tan_of(s: Jet, c: Jet) -> Jet:
    pole = np.abs(c.coeffs[0]) < _TAN_COS_FLOOR
    if pole.any():
        raise DomainError(f"tan pole near t={_first(pole, s.basepoint)}")
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
    if (fwd.coeffs[1] == 0.0).any():
        raise DomainError("cannot invert a series with vanishing derivative")
    s0 = fwd.coeffs[0]
    # Newton iteration on truncated series: u <- u - (s(u) - id)/s'(u)
    inv = np.zeros_like(fwd.coeffs)
    inv[0] = fwd.basepoint
    inv[1] = 1.0 / fwd.coeffs[1]
    u = Jet(s0, inv)
    ident = Jet.variable(s0, n)
    dfwd = fwd.deriv()
    dfwd = Jet(fwd.basepoint, np.concatenate((dfwd.coeffs, np.zeros_like(dfwd.coeffs[:1]))))
    order_reached = 1
    while order_reached < n:
        su = compose(fwd, u)
        dsu = compose(dfwd, u)
        u = u - (su - ident) / dsu
        order_reached *= 2
    if value_at_base is not None:
        u = u.with_constant(value_at_base)
    return u


def evaluate_jet(node: ex.ExprNode, t0, order: int, max_order: int = DEFAULT_MAX_ORDER) -> Jet:
    """Propagate a jet of the variable through an expression AST."""
    return evaluate_jets((node,), t0, order, max_order)[0]


def evaluate_jets(nodes, t0, order: int, max_order: int = DEFAULT_MAX_ORDER):
    """Jets of several expression ASTs about one basepoint or a 1-D array
    of basepoints, as a tuple.

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
    if np.ndim(t0):
        t0 = np.asarray(t0, dtype=float)
    ev = _Evaluator(Jet.variable(t0, order))
    results = []
    for node in nodes:
        result = ev.jet(node)
        finite = np.isfinite(result.coeffs)
        if not finite.all():
            bad = ~finite.all(axis=0)
            raise DomainError(f"non-finite jet coefficients at t={_first(bad, t0)}")
        results.append(result)
    return tuple(results)


_FUNC = {
    "exp": jexp,
    "log": jlog,
    "sqrt": jsqrt,
}


class _Evaluator:
    """Jets of AST nodes about the basepoints of ``tjet``, each node
    evaluated once.  A constant stays a plain number, which the jet
    arithmetic applies to the constant term or as a scale factor, until a
    function of it needs its jet."""

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

    def jet(self, node):
        value = self(node)
        if isinstance(value, Jet):
            return value
        return Jet.constant(value, self.tjet.basepoint, self.tjet.order)

    def _sincos(self, child):
        key = id(child)
        pair = self.sincos.get(key)
        if pair is None:
            pair = self.sincos[key] = jsincos(self.jet(child))
        return pair

    def _eval(self, node):
        if isinstance(node, ex.Const):
            return node.value
        if isinstance(node, ex.Var):
            return self.tjet
        if isinstance(node, ex.PowConst):
            return jpow(self.jet(node.base), node.exponent)
        if isinstance(node, ex.Unary):
            op = node.op
            if op == "sin":
                return self._sincos(node.child)[0]
            if op == "cos":
                return self._sincos(node.child)[1]
            if op == "tan":
                return _tan_of(*self._sincos(node.child))
            if op == "neg":
                return -self(node.child)
            return _FUNC[op](self.jet(node.child))
        left = self(node.left)
        right = self(node.right)
        if not isinstance(left, Jet) and not isinstance(right, Jet):
            left = self.jet(node.left)
        if node.op == "add":
            return left + right
        if node.op == "sub":
            return left - right
        if node.op == "mul":
            return left * right
        return left / right
