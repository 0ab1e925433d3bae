"""Truncated Taylor series ("jets") and their propagation through ASTs.

A jet stores the Taylor *coefficients* of a function about a basepoint:
``coeffs[k] = f^(k)(t0) / k!``.  About one basepoint the coefficients
have shape ``(K+1,)``; about N basepoints at once they have shape
``(K+1, N)``, one column per basepoint, and ``basepoint`` holds the N
values.  A *vector* jet carries the x, y and z components of a space
curve on one more axis, ``(K+1, 3)`` or ``(K+1, 3, N)``: the point axis
is always last.  Every recurrence is written once, along the leading
(order) axis: each column and component goes through the same
floating-point operations in the same order whatever the others hold,
so a point's coefficients do not depend on the batch it is evaluated in,
one point is just the one-column case, and a vector jet's component is
bit for bit the scalar jet of that component.  Sums are term-wise,
products Cauchy convolutions, quotients forward substitutions, elementary
functions their ODE recurrences (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).  A domain check fails the whole batch if
any column fails it.

An ``expr.program`` runs in this jet arithmetic (``program_jets``) or in
a value arithmetic (``program_values``) whose every step is the constant
term of the matching recurrence, on float64 numbers or arrays: the same
bits and the same domain errors as order-0 jets, without building any.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import expr as ex
from .errors import DomainError, OrderOverflowError

DEFAULT_MAX_ORDER = 8

_TAN_COS_FLOOR = 1e-12


def _per_order(v, coeffs):
    """The order-indexed vector ``v`` shaped to broadcast against ``coeffs``."""
    return v.reshape(v.shape + (1,) * (coeffs.ndim - 1))


def _first(flags, values):
    """The value of the first column flagged in ``flags``, for messages."""
    return np.ravel(values)[np.argmax(np.ravel(flags))]


def _any(flags):
    """Whether any flag is set; a numpy scalar is tested as a bool, which
    costs far less than its ``any()``."""
    return flags.any() if flags.ndim else bool(flags)


def _require_positive(c0, what):
    bad = c0 <= 0.0
    if _any(bad):
        raise DomainError(f"{what} of non-positive value {_first(bad, c0)}")


def _require_finite(bad, t0):
    """Raise if any basepoint is flagged in ``bad``; the message names the first."""
    if _any(bad):
        raise DomainError(f"non-finite jet coefficients at t={_first(bad, t0)}")


def _require_nonzero(c0):
    if _any(c0 == 0.0):
        raise DomainError("division by a function vanishing at the basepoint")


def _require_no_pole(cos0, t0):
    pole = np.abs(cos0) < _TAN_COS_FLOOR
    if _any(pole):
        raise DomainError(f"tan pole near t={_first(pole, t0)}")


class Jet:
    """Taylor coefficients of a scalar or vector function about
    ``basepoint``, or about each of an array of basepoints (one
    coefficient column each, on the last axis)."""

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
        return Jet(self.basepoint[i], self.coeffs[..., i])

    def take(self, idx):
        """The jet of the columns ``idx``, in that order."""
        return Jet(self.basepoint[idx], self.coeffs[..., idx])

    def __iter__(self):
        """The x, y and z component jets of a vector jet."""
        return (Jet(self.basepoint, self.coeffs[:, i]) for i in range(3))

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
        # a scalar jet against a vector jet: the same value for x, y and z
        if a.ndim < b.ndim:
            a = a[:, None]
        elif b.ndim < a.ndim:
            b = b[:, None]
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
        _require_nonzero(b[0])
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
    if n:
        # an overflowed exp would meet 0*inf in the recurrence
        _require_finite(~(np.isfinite(c).all(axis=0) & np.isfinite(v[0])), u.basepoint)
    for m in range(n):
        v[m + 1 :] += jc[: n - m] * v[m]
        v[m + 1] /= m + 1
    return Jet(u.basepoint, v)


def jlog(u: Jet) -> Jet:
    c = u.coeffs
    n = u.order
    _require_positive(c[0], "log")
    if n:
        # the log of an overflowed value would meet inf/inf in the recurrence
        _require_finite(~np.isfinite(c).all(axis=0), u.basepoint)
    # v[k] starts as k*c[k] and loses j*v[j]*c[k-j] for j = 1..k-1
    v = np.empty_like(c)
    v[0] = np.log(c[0])
    v[1:] = _per_order(np.arange(1, n + 1), c) * c[1:]
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


def _integer_exponent(r):
    """``r`` as an int if it is a whole number of size at most 64, else
    None: such powers go by repeated squaring, which keeps 0 and negative
    bases legal."""
    if r == round(r) and abs(r) <= 64:
        return int(round(r))
    return None


def _repeated_squaring(u, e):
    """u**e for an integer e >= 1, in whatever arithmetic ``u`` carries."""
    acc = None
    while True:
        if e & 1:
            acc = u if acc is None else acc * u
        e >>= 1
        if not e:
            return acc
        u = u * u


def jpow(u: Jet, r: float) -> Jet:
    """u**r for a real constant exponent."""
    m = _integer_exponent(r)
    if m is not None:
        one = Jet.constant(1.0, u.basepoint, u.order)
        if m == 0:
            return one
        acc = _repeated_squaring(u, abs(m))
        return one / acc if m < 0 else acc
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


def _tan_of(s: Jet, c: Jet) -> Jet:
    _require_no_pole(c.coeffs[0], s.basepoint)
    return s / c


def compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of f(g(t)) where ``outer`` expands f about g(t0).

    Requires inner.coeffs[0] == outer.basepoint (the expansion points
    chain).  Horner evaluation in jet arithmetic; the inner jet's constant
    term is dropped because ``outer`` is already centered there.  A
    stacked outer series (a vector jet, or any number of components on
    axis 1) is composed with the one inner series in one pass, each
    component through the operations it would go through alone.
    """
    n = min(outer.order, inner.order)
    shifted = Jet(inner.basepoint, inner.coeffs[: n + 1].copy())
    shifted.coeffs[0] = 0.0
    acc = Jet(inner.basepoint, np.zeros_like(outer.coeffs[: n + 1]))
    acc.coeffs[0] = outer.coeffs[n]
    for k in range(n - 1, -1, -1):
        acc = acc * shifted + outer.coeffs[k]
    return acc


def invert_series(fwd: Jet) -> Jet:
    """Jet of the inverse function.

    ``fwd`` is the jet of s(u) about u0 with s'(u0) != 0; the result is the
    jet of u(s) about s0 = s(u0).
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
    # s and s' as one stacked series, composed with u in one pass per step
    dfwd = np.concatenate((fwd.deriv().coeffs, np.zeros_like(fwd.coeffs[:1])))
    both = Jet(fwd.basepoint, np.stack((fwd.coeffs, dfwd), axis=1))
    order_reached = 1
    while order_reached < n:
        sd = compose(both, u).coeffs
        u = u - (Jet(s0, sd[:, 0]) - ident) / Jet(s0, sd[:, 1])
        order_reached *= 2
    return u


def jstack(components) -> Jet:
    """The vector jet of a sequence of scalar component jets about one
    basepoint."""
    return Jet(components[0].basepoint, np.stack([c.coeffs for c in components], axis=1))


# the cyclic shifts of (x, y, z) that a cross product pairs
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def jcross(a: Jet, b: Jet) -> Jet:
    """Cross product of two vector jets: component i is
    a[i+1]*b[i+2] - a[i+2]*b[i+1] (indices mod 3), as two Cauchy products
    of permuted components and one subtraction."""
    x, y = a._align(b)
    return Jet(a.basepoint, _cauchy(x[:, _NEXT], y[:, _PREV]) - _cauchy(x[:, _PREV], y[:, _NEXT]))


def jdot(a: Jet, b: Jet) -> Jet:
    """Dot product of two vector jets: one Cauchy product, whose component
    rows are added in the order x, y, z."""
    p = _cauchy(*a._align(b))
    return Jet(a.basepoint, p[:, 0] + p[:, 1] + p[:, 2])


def evaluate_jet(node: ex.ExprNode, t0, order: int, max_order: int = DEFAULT_MAX_ORDER) -> Jet:
    """Propagate a jet of the variable through an expression AST."""
    return evaluate_jets((node,), t0, order, max_order)[0]


def evaluate_jets(nodes, t0, order: int, max_order: int = DEFAULT_MAX_ORDER):
    """Jets of several expression ASTs about one basepoint or a 1-D array
    of basepoints, as a tuple: ``program_jets`` of ``expr.program(nodes)``.

    A subtree shared within or across the trees (see ``expr.intern``) is
    evaluated once, and ``sin``, ``cos`` and ``tan`` of one child share
    one ``jsincos``.  Each shared value is the same computation on the
    same operands, so the coefficients equal those of evaluating each
    tree on its own.  Raises OrderOverflowError above ``max_order``.
    """
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    return program_jets(ex.program(nodes), t0, order)


def program_jets(program, t0, order: int):
    """Run an ``expr.program`` in jet arithmetic about ``t0``, a number or
    a 1-D array of basepoints; each output is checked for finiteness as
    soon as it is computed."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if np.ndim(t0):
        t0 = np.asarray(t0, dtype=float)
    return _run(program, _JetArithmetic(t0, order))


def program_values(program, t0):
    """Run an ``expr.program`` in value arithmetic at ``t0``, a number or
    an array: float64 values that equal, bit for bit, the constant terms
    of ``program_jets`` at any order, and the same ``DomainError`` where
    those raise one, without building a jet."""
    return _run(program, _ValueArithmetic(t0))


def _run(program, ar):
    """The outputs of ``program`` in the arithmetic ``ar``, in order."""
    v = []
    push = v.append
    results = []
    for op, a, b in program:
        if op == "mul":
            push(v[a] * v[b])
        elif op == "add":
            push(v[a] + v[b])
        elif op == "sub":
            push(v[a] - v[b])
        elif op == "const":
            push(a)
        elif op == "neg":
            push(-v[a])
        elif op == "var":
            push(ar.t)
        elif op == "sincos":
            v.extend(ar.sincos(v[a]))
        elif op == "tan":
            push(ar.tan(v[a], v[a + 1]))
        elif op == "pow":
            push(ar.pow(v[a], b))
        elif op == "out":
            results.append(ar.finite(v[a]))
        elif b is None:  # lift, exp, log, sqrt
            push(getattr(ar, op)(v[a]))
        else:  # div, div_const
            push(getattr(ar, op)(v[a], v[b]))
    return tuple(results)


class _JetArithmetic:
    """Jets of order ``order`` about ``t0``.  A plain number is applied by
    the jet operators to the constant term or as a scale factor."""

    def __init__(self, t0, order):
        self.t0 = t0
        self.t = Jet.variable(t0, order)

    def lift(self, c):
        return Jet.constant(c, self.t.basepoint, self.t.order)

    def finite(self, u):
        _require_finite(~np.isfinite(u.coeffs).all(axis=0), self.t0)
        return u

    def sincos(self, u):
        # the module's jsincos at call time, which a test may wrap to count
        return jsincos(u)

    div = div_const = staticmethod(operator.truediv)
    pow = staticmethod(jpow)
    tan = staticmethod(_tan_of)
    exp = staticmethod(jexp)
    log = staticmethod(jlog)
    sqrt = staticmethod(jsqrt)


class _ValueArithmetic:
    """The constant term of each jet recurrence, on float64 values at
    ``t0``: a numpy scalar for a number, an array for an array."""

    def __init__(self, t0):
        self.t0 = t0
        self.scalar = isinstance(t0, float) or not np.ndim(t0)
        self.t = np.float64(t0) if self.scalar else np.asarray(t0, dtype=float)

    def lift(self, c):
        if self.scalar:
            return np.float64(c)
        return np.full(self.t.shape, c, dtype=float)

    def finite(self, x):
        if not (self.scalar and math.isfinite(x)):
            _require_finite(~np.isfinite(x), self.t0)
        return x

    def div(self, a, b):
        _require_nonzero(b)
        return a / b

    @staticmethod
    def div_const(a, b):
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b

    def pow(self, u, r):
        m = _integer_exponent(r)
        if m is None:
            _require_positive(u, "non-integer power")
            return u**r
        if m == 0:
            return self.lift(1.0)
        acc = _repeated_squaring(u, abs(m))
        return self.div(1.0, acc) if m < 0 else acc

    def tan(self, s, c):
        _require_no_pole(c, self.t)
        return s / c

    @staticmethod
    def sincos(x):
        return np.sin(x), np.cos(x)

    @staticmethod
    def log(x):
        _require_positive(x, "log")
        return np.log(x)

    @staticmethod
    def sqrt(x):
        _require_positive(x, "sqrt")
        return np.sqrt(x)

    exp = staticmethod(np.exp)
