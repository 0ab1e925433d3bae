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
any column fails it.  A program's divisors and non-integer power bases,
and every ``exp``'s argument and value, must also be finite at the
basepoint: a/inf, inf^-r and exp(-inf) are a finite 0 that would hide at
order 0 the overflow that order 1 shows.

An ``expr.program``, in which equal subtrees share one slot, is
compiled once per process into two Python functions (``compile_program``,
the one cache of compiled programs).  The jet function works on
coefficient arrays (``program_jets``): the ready steps of one kind run as
one stacked call of their recurrence (the sincos of several arguments,
products of two functions of t, powers by one exponent, divisions by one
denominator, sqrt, exp or log), and the cheap steps (constants, the
variable, lifts, negation, sums and scaling by a plain number) as soon as
their operands exist.  It keeps two invariants of running the steps one
by one with ``Jet`` arithmetic: every column and slot has the same bits,
and an input that fails a domain check raises the same first
``DomainError``, class and message.  The value function runs at one
float with one line per step (``program_values``), each step the
constant term of the matching recurrence on Python floats and each
domain check one comparison.  It gives the bits and domain errors of an
order-0 jet without building one.  A grid's values are the constant
terms of its order-0 jets.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple

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
    """Whether any flag is set; a Python or numpy scalar is tested as a
    bool, which costs far less than its ``any()``."""
    return flags.any() if getattr(flags, "ndim", 0) else bool(flags)


def _require_positive(c0, what):
    bad = c0 <= 0.0
    if _any(bad):
        raise DomainError(f"{what} of non-positive value {_first(bad, c0)}")


def _require_finite(bad, t0):
    """Raise if any basepoint is flagged in ``bad``; the message names the first."""
    if _any(bad):
        raise DomainError(f"non-finite jet coefficients at t={_first(bad, t0)}")


def _require_finite_members(bad, t0):
    """Raise if a member of the stacked flags ``bad`` has a flagged column;
    the message names the first member's first."""
    if _any(bad):
        for member in bad:
            _require_finite(member, t0)


def _require_nonzero(c0, message="division by a function vanishing at the basepoint"):
    if _any(c0 == 0.0):
        raise DomainError(message)


def _require_divisor(b0, t0):
    """A divisor's constant term must be nonzero and finite: a/inf is 0,
    which would hide an overflow that a higher order shows."""
    _require_nonzero(b0)
    _require_finite(~np.isfinite(b0), t0)


def _require_power_base(c0, t0):
    """The base of a non-integer power must be positive and finite:
    inf^r is 0 for r < 0, which would hide an overflow."""
    _require_positive(c0, "non-integer power")
    _require_finite(~np.isfinite(c0), t0)


def _require_no_pole(cos0, t0):
    pole = np.abs(cos0) < _TAN_COS_FLOOR
    if _any(pole):
        raise DomainError(f"tan pole near t={_first(pole, t0)}")


class Jet:
    """Taylor coefficients of a scalar or vector function about
    ``basepoint``, or about each of an array of basepoints (one
    coefficient column each, on the last axis).

    The column axis is also the innermost in memory: every jet the
    package builds has C-ordered coefficients.  A fancy index on the last
    axis would put that axis outermost (strides (24, 8, 120) for a
    (5, 3, 1021) jet), every ufunc after it keeps that layout, and the
    recurrences would then run on strided memory.  So columns are
    gathered with ``np.take``, which keeps the source's layout, and a
    mask or a slice becomes positions first: ``np.take`` reads a bool
    array as the positions 0 and 1.
    """

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
        return Jet(self.basepoint[i], np.take(self.coeffs, i, axis=-1))

    def take(self, idx):
        """The jet of the columns ``idx`` (positions, a mask or a slice),
        in that order."""
        if isinstance(idx, slice) or getattr(idx, "dtype", None) == bool:
            idx = np.arange(len(self.basepoint))[idx]
        return Jet(self.basepoint[idx], np.take(self.coeffs, idx, axis=-1))

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
        return Jet(self.basepoint, _with_constant(self.coeffs, c0))

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
            _require_nonzero(other, "division by zero")
            return Jet(self.basepoint, self.coeffs / other)
        a, b = self._align(other)
        _require_nonzero(b[0])
        return Jet(self.basepoint, _quotient(a, b))


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


# The elementary functions come as kernels on stacked coefficients: ``c``
# holds G jets on its axis 1, (K+1, G) or (K+1, G, N), and each kernel
# runs its recurrence once on all of them, a column's operations the same
# whatever the other members hold.  A failed check raises the error of
# the first member that fails, as G steps run one after another would:
# its first failing check, naming its first failing column.  The public
# functions are the one-member case.


def _exps(c, t0):
    n = len(c) - 1
    jc = _per_order(np.arange(1, n + 1), c) * c[1:]
    # v[k] collects sum_j j*c[j]*v[k-j] as the v it needs become final
    v = np.zeros(c.shape)
    v[0] = np.exp(c[0])
    # an overflowed exp would meet 0*inf in the recurrence, and exp(-inf)
    # would hide the overflow in a 0
    _require_finite_members(~(np.isfinite(c).all(axis=0) & np.isfinite(v[0])), t0)
    for m in range(n):
        v[m + 1 :] += jc[: n - m] * v[m]
        v[m + 1] /= m + 1
    return v


def _logs(c, t0):
    n = len(c) - 1
    # the log of an overflowed value would meet inf/inf in the recurrence
    nonfinite = ~np.isfinite(c).all(axis=0) if n else False
    if _any(c[0] <= 0.0) or _any(nonfinite):
        for g in range(c.shape[1]):
            _require_positive(c[0, g], "log")
            if n:
                _require_finite(nonfinite[g], t0)
    # v[k] starts as k*c[k] and loses j*v[j]*c[k-j] for j = 1..k-1
    v = np.empty_like(c)
    v[0] = np.log(c[0])
    v[1:] = _per_order(np.arange(1, n + 1), c) * c[1:]
    for m in range(1, n + 1):
        v[m] /= m * c[0]
        v[m + 1 :] -= m * v[m] * c[1 : n + 1 - m]
    return v


def _sqrts(c):
    n = len(c) - 1
    # one check: the first value in member order is the first member's
    _require_positive(c[0], "sqrt")
    w = np.empty_like(c)
    w[0] = np.sqrt(c[0])
    two_w0 = 2.0 * w[0]
    for k in range(1, n + 1):
        acc = c[k]
        if k > 1:
            # sum of w[j]*w[k-j] over j = 1..k-1, in order of j
            acc = acc - np.add.accumulate(w[1:k] * w[k - 1 : 0 : -1])[-1]
        w[k] = acc / two_w0
    return w


def _integer_exponent(r):
    """``r`` as an int if it is a whole number of size at most 64, else
    None: such powers go by repeated squaring, which keeps 0 and negative
    bases legal."""
    if r == round(r) and abs(r) <= 64:
        return int(round(r))
    return None


def _repeated_squaring(u, e, mul):
    """u**e for an integer e >= 1, with ``mul`` the product."""
    acc = None
    while True:
        if e & 1:
            acc = u if acc is None else mul(acc, u)
        e >>= 1
        if not e:
            return acc
        u = mul(u, u)


def _pows(c, r, t0):
    """c**r for a real constant exponent: a whole one by repeated squaring,
    a negative one as 1 over that; any other by its recurrence."""
    m = _integer_exponent(r)
    if m is not None:
        acc = _repeated_squaring(c, abs(m), _cauchy) if m else None
        if m > 0:
            return acc
        one = np.zeros(c.shape)
        one[0] = 1.0
        if m == 0:
            return one
        if _any(acc[0] == 0.0) or not np.isfinite(acc[0]).all():
            for a0 in acc[0]:
                _require_divisor(a0, t0)
        return _quotient(one, acc)
    n = len(c) - 1
    if _any(c[0] <= 0.0) or not np.isfinite(c[0]).all():
        for c0 in c[0]:
            _require_power_base(c0, t0)
    # k*c[0]*w[k] = sum_j (r*j - (k-j)) * c[j] * w[k-j], j = 1..k
    w = np.zeros(c.shape)
    # the ufunc on a float too: a numpy scalar's ** may differ in the last bit
    w[0] = np.power(c[0], r)
    j = np.arange(1, n + 1)
    for m in range(n):
        w[m + 1 :] += _per_order(r * j[: n - m] - m, c) * c[1 : n + 1 - m] * w[m]
        w[m + 1] /= (m + 1) * c[0]
    return w


def _divs(x, b, t0):
    """Each jet stacked in ``x`` over the one jet ``b``, whose constant
    term is checked once."""
    _require_divisor(b[0], t0)
    return _quotient(x, b[:, None])


def _tan(s, c, t0):
    """tan as sin/cos; a cos clear of the pole floor is nonzero."""
    _require_no_pole(c[0], t0)
    return _quotient(s, c)


def jexp(u: Jet) -> Jet:
    return Jet(u.basepoint, _exps(u.coeffs[:, None], u.basepoint)[:, 0])


def jlog(u: Jet) -> Jet:
    return Jet(u.basepoint, _logs(u.coeffs[:, None], u.basepoint)[:, 0])


def jsqrt(u: Jet) -> Jet:
    return Jet(u.basepoint, _sqrts(u.coeffs[:, None])[:, 0])


def jpow(u: Jet, r: float) -> Jet:
    """u**r for a real constant exponent."""
    return Jet(u.basepoint, _pows(u.coeffs[:, None], float(r), u.basepoint)[:, 0])


# the signs of sin' = cos u' and cos' = -sin u' on a stacked (sin, cos)
_SINCOS_SIGNS = np.array([1.0, -1.0])


def jsincos(u: Jet):
    """sin u and cos u from one stacked recurrence: sc[k, 0] is sin's
    coefficient k and sc[k, 1] cos's, and each order takes one update and
    one division of both.  Adding (-j c[j]) * sin has the bits of
    subtracting j c[j] * sin.  A program passes all its arguments at once,
    stacked on axis 1 of one jet."""
    c = u.coeffs
    n = u.order
    jc = _per_order(np.arange(1, n + 1), c) * c[1:]
    # (j c[j], -j c[j]), to meet (cos, sin) of one order
    jcs = jc[:, None] * _per_order(_SINCOS_SIGNS, jc)
    sc = np.zeros((n + 1, 2) + c.shape[1:])
    sc[0, 0] = np.sin(c[0])
    sc[0, 1] = np.cos(c[0])
    for m in range(n):
        sc[m + 1 :] += jcs[: n - m] * sc[m, ::-1]
        sc[m + 1] /= m + 1
    return Jet(u.basepoint, sc[:, 0]), Jet(u.basepoint, sc[:, 1])


# the components a cross product pairs: component i is
# a[i+1]*b[i+2] - a[i+2]*b[i+1] (indices mod 3), the first three of these
# six products less the last three
_LEFT = [1, 2, 0, 2, 0, 1]
_RIGHT = [2, 0, 1, 1, 2, 0]


def jcross(a: Jet, b: Jet) -> Jet:
    """Cross product of two vector jets, as one Cauchy product of the six
    permuted component pairs and one subtraction.  The pairs are gathered
    with ``np.take``, which keeps the column axis innermost."""
    x, y = a._align(b)
    p = _cauchy(np.take(x, _LEFT, axis=1), np.take(y, _RIGHT, axis=1))
    return Jet(a.basepoint, p[:, :3] - p[:, 3:])


def _cross_rows(a, b):
    """Cross product of each row of the (N, 3) arrays a and b, by the
    component formula of ``jcross``; numpy's ``cross`` computes
    a1*b2 - a2*b1 too, so it gives the same bits."""
    p = a[:, _LEFT] * b[:, _RIGHT]
    return p[:, :3] - p[:, 3:]


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

    Equal subtrees within or across the trees are evaluated once, and
    ``sin``, ``cos`` and ``tan`` of one argument share one sincos.  Each
    shared value is the same computation on the same operands, so the
    coefficients equal those of evaluating each tree on its own.  The
    program is built at every call, and compiled once per distinct
    program (``compile_program``).  Raises OrderOverflowError above
    ``max_order``.
    """
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    coeffs = program_jets(compile_program(ex.program(nodes)), t0, order)
    return tuple(Jet(t0, coeffs[:, i]) for i in range(coeffs.shape[1]))


def _stack(arrays):
    """Coefficient arrays of one shape, stacked on a new axis 1."""
    x = np.empty((len(arrays[0]), len(arrays)) + arrays[0].shape[1:])
    for i, a in enumerate(arrays):
        x[:, i] = a
    return x


def _lift(value, t):
    """The coefficients of the constant ``value`` beside the variable's ``t``."""
    c = np.zeros(t.shape)
    c[0] = value
    return c


def _with_constant(c, c0):
    """A copy of the coefficients ``c`` with the constant term ``c0``."""
    c = c.copy()
    c[0] = c0
    return c


# The value function's line of each kind of step, on Python floats at
# the float t; slot k is the local v{k}, the step's slot operands are
# v{a} and v{b}, its plain number c{k}, its exponent r{k}, its output
# o{n}.  Each function and non-integer power is numpy's ufunc, as on a
# grid (``math`` and ``**`` may differ in the last bit, and ``math``
# raises on overflow).  A domain check is one float comparison that
# raises through the jets' check; whole powers: ``_whole_power``.
_VALUE_LINES = {
    "const": "v{k} = c{k}",
    "var": "v{k} = t",
    "lift": "v{k} = float(v{a})",
    "neg": "v{k} = -v{a}",
    "add": "v{k} = v{a} + v{b}",
    "sub": "v{k} = v{a} - v{b}",
    "mul": "v{k} = v{a} * v{b}",
    "div": "if v{b} == 0.0 or not -inf < v{b} < inf: _require_divisor(v{b}, t)\n"
           "v{k} = v{a} / v{b}",
    "div_const": "if v{b} == 0.0: _require_nonzero(v{b}, 'division by zero')\nv{k} = v{a} / v{b}",
    "pow": "if not 0.0 < v{a} < inf: _require_power_base(v{a}, t)\n"
           "v{k} = float(power(v{a}, r{k}))",
    "exp": "v{k} = float(exp(v{a}))\n"
           "if not (-inf < v{a} and v{k} < inf): _require_finite(True, t)",
    "log": "if v{a} <= 0.0: _require_positive(v{a}, 'log')\nv{k} = float(log(v{a}))",
    "sqrt": "if v{a} <= 0.0: _require_positive(v{a}, 'sqrt')\nv{k} = float(sqrt(v{a}))",
    "sincos": "v{k} = float(sin(v{a}))\nv{k1} = float(cos(v{a}))",
    "tan": "if abs(v{a1}) < _TAN_COS_FLOOR: _require_no_pole(v{a1}, t)\nv{k} = v{a} / v{a1}",
    "out": "if not -inf < v{a} < inf: _require_finite(True, t)\no{n} = v{a}",
}

# Compiled programs are kept per process, oldest evicted first beyond
# this many; an evicted program is compiled again when it is next run.
_CACHE_SIZE = 256
_COMPILED = {}  # (program, bits of its constants and exponents) -> functions


def compile_program(program):
    """The Python functions of an ``expr.program``, as a pair: the jet
    function, called with the variable's basepoint (a float or a 1-D
    array) and an order, returns the coefficients of all the program's
    outputs as one array (``program_jets``); the value function, called
    with a float, returns them as floats (``program_values``).

    The jet function runs the program on coefficient arrays, ready steps
    of one kind together (``_jet_stages``).  Two invariants hold against
    running the steps one by one with ``Jet`` arithmetic: every column
    and slot has the same bits, since a stacked recurrence runs each
    column through the same operations in the same order; and an input
    that fails a domain check raises the same first ``DomainError``,
    class and message, since the checks run in program order.

    Compiled once per distinct program in a process.  Steps compare
    ``0.0`` equal to ``-0.0``, so the cache key also holds the bit
    pattern of every constant and exponent.
    """
    numbers = [a if op == "const" else b for op, a, b in program if op in ("const", "pow")]
    key = (program, struct.pack(f"<{len(numbers)}d", *numbers))
    fns = _COMPILED.get(key)
    if fns is None:
        if len(_COMPILED) >= _CACHE_SIZE:
            del _COMPILED[next(iter(_COMPILED))]
        fns = _COMPILED[key] = _compile(program)
    return fns


def _compile(program):
    """Both functions of ``compile_program`` from one source: the jet
    function's lines from ``_jet_stages``, and the value function's with
    one line of ``_VALUE_LINES`` per step.  The source holds slot numbers
    and operation names only, and the constants and exponents are bound
    in the functions' namespace, a whole exponent that
    ``_integer_exponent`` takes as that int."""
    value_lines = []
    # the value function reads this module's checks and numpy's ufuncs
    space = dict(globals(), sin=np.sin, cos=np.cos, exp=np.exp, log=np.log, sqrt=np.sqrt,
                 power=np.power, inf=math.inf)
    k = n = 0
    for op, a, b in program:
        m = None
        if op == "const":
            space[f"c{k}"], a = a, None
        elif op == "pow":
            m = _integer_exponent(b)
            space[f"r{k}"], b = (b if m is None else m), None
        # what is left of a and b are slot numbers
        slots = dict(k=k, k1=k + 1, a=a, a1=a + 1 if op == "tan" else None, b=b, n=n)
        if m is None:
            value_lines.append(_VALUE_LINES[op].format(**slots))
        else:
            _whole_power(value_lines, k, a, m)
        if op == "out":
            n += 1
        else:
            k += 2 if op == "sincos" else 1
    jet_lines = [
        "t = np.zeros((K + 1,) + np.shape(t0))",
        "t[0] = t0",
        "if K:\n    t[1] = 1.0",
        f"o = np.empty((K + 1, {n}) + t.shape[1:])",
        *(line for stage in _jet_stages(program) for line in _stage_lines(stage)),
    ]
    outputs = "".join(f"o{i}, " for i in range(n))
    source = "".join(
        f"def {head}:\n"
        + "".join(f"    {line}\n" for line in "\n".join(body).split("\n"))
        + f"    return {result}\n"
        for head, body, result in (("program(t0, K)", jet_lines, "o"),
                                   ("values(t)", value_lines, f"({outputs})"))
    )
    exec(compile(source, "<expr.program>", "exec"), space)
    return space["program"], space["values"]


class _Step(NamedTuple):
    """A program step as the jet function schedules it: its position,
    operation and operands as in ``expr.program``, its first slot ``k``
    (its output index for an ``out``), the slots it reads, the plain
    numbers among its operands (slot -> value), the kind it is batched
    with (None for a cheap step) and the position of its domain check
    (None if it has none)."""

    at: int
    op: str
    a: object
    b: object
    k: int
    reads: tuple
    plain: dict
    kind: tuple
    check: int


def _steps(program):
    """The ``_Step`` of each step of ``program``.

    A step is batched by its kind: sincos; products of two functions of
    t, squares among them; other powers by one exponent; divisions by one
    denominator; sqrt, exp and log.  The others are cheap.  Divisions by one denominator check
    it once, at the first of them; a division by a plain number checks
    nothing unless that number is zero, and whole powers from 0 up check
    nothing."""
    plain = {}  # slot -> its plain number
    first_division = {}  # denominator slot -> position of its first division
    steps = []
    k = n = 0
    for at, (op, a, b) in enumerate(program):
        if op in ("const", "var"):
            reads = ()
        elif op == "tan":
            reads = (a, a + 1)
        elif op in ("add", "sub", "mul", "div", "div_const"):
            reads = (a, b)
        else:
            reads = (a,)
        kind = check = None
        if op == "const":
            plain[k] = a
        elif op == "neg" and a in plain:
            plain[k] = -plain[a]
        elif op == "mul" and a not in plain and b not in plain:
            kind = ("mul",)
        elif op == "pow" and _integer_exponent(b) == 2:
            kind = ("mul",)  # ``_pows`` takes a square as one ``_cauchy``
        elif op == "pow":
            kind = ("pow", struct.pack("<d", b))
            m = _integer_exponent(b)
            check = at if m is None or m < 0 else None
        elif op == "div":
            kind, check = ("div", b), first_division.setdefault(b, at)
        elif op == "div_const":
            check = at if plain[b] == 0.0 else None
        elif op in ("sincos", "exp", "log", "sqrt"):
            kind, check = (op,), None if op == "sincos" else at
        elif op in ("tan", "out"):
            check = at
        steps.append(_Step(at, op, a, b, n if op == "out" else k, reads,
                           {s: plain[s] for s in reads if s in plain}, kind, check))
        if op == "out":
            n += 1
        else:
            k += 2 if op == "sincos" else 1
    return steps


def _jet_stages(program):
    """The steps of ``program`` in the order the jet function runs them,
    as a list of stages: a cheap step alone, or steps of one kind that run
    in one stacked call.  Consecutive outputs form one stage.

    A step runs once the slots it reads are filled.  Cheap steps without
    a check run first; then, if none is left, the next checked cheap step
    that may run; else the ready steps of the kind of the earliest ready
    batched step.  A step's check may run only once every check before it
    in program order has run, so the first check that fails is the one
    that the steps run one by one would meet first."""
    todo = _steps(program)
    checks = sorted({s.check for s in todo if s.check is not None}) + [math.inf]
    filled = set()
    stages = []
    nxt = 0  # index in ``checks`` of the next check to run

    def ready(s):
        return all(r in filled for r in s.reads)

    while todo:
        cheap = [s for s in todo if s.kind is None and ready(s)]
        stage = ([s for s in cheap if s.check is None]
                 or [s for s in cheap if s.check == checks[nxt]][:1])
        if stage:
            nxt += stage[0].check is not None
        else:
            kind = next(s.kind for s in todo if s.kind is not None and ready(s))
            for s in todo:
                if s.kind == kind and ready(s) and (s.check is None or s.check <= checks[nxt]):
                    stage.append(s)
                    nxt += s.check == checks[nxt]
        for s in stage:
            todo.remove(s)
            if s.op != "out":
                filled.update((s.k, s.k + 1) if s.op == "sincos" else (s.k,))
        if stage[0].op == "out" and stages and stages[-1][0].op == "out":
            stages[-1] += stage
        else:
            stages.append(stage)
    return stages


def _operand(s, slot):
    """The source of a batched step's operand: a plain number is lifted."""
    return f"_lift(v{slot}, t)" if slot in s.plain else f"v{slot}"


def _stacked(sources):
    """The source of the operands ``sources`` stacked on axis 1."""
    return f"{sources[0]}[:, None]" if len(sources) == 1 else f"_stack(({', '.join(sources)},))"


def _cheap_line(s):
    """The jet function's line of a cheap step other than an output."""
    op, a, b, k = s.op, s.a, s.b, s.k
    if op == "const":
        return f"v{k} = c{k}"
    if op == "var":
        return f"v{k} = t"
    if op == "lift":
        return f"v{k} = _lift(v{a}, t)"
    if op == "neg":
        return f"v{k} = -v{a}"
    if op == "tan":
        return f"v{k} = _tan(v{a}, v{a + 1}, t0)"
    if op == "div_const":
        zero = f"_require_nonzero(v{b}, 'division by zero')\n" if s.check is not None else ""
        return f"{zero}v{k} = v{a} / v{b}"
    if op == "mul":  # a function of t scaled by a plain number
        return f"v{k} = v{b} * v{a}" if a in s.plain else f"v{k} = v{a} * v{b}"
    # add or sub, with at most one plain operand
    sign = "+" if op == "add" else "-"
    if a in s.plain:
        if op == "add":
            return f"v{k} = _with_constant(v{b}, v{b}[0] + v{a})"
        return f"v{k} = _with_constant(-v{b}, v{a} - v{b}[0])"
    if b in s.plain:
        return f"v{k} = _with_constant(v{a}, v{a}[0] {sign} v{b})"
    return f"v{k} = v{a} {sign} v{b}"


def _stage_lines(stage):
    """The jet function's lines of one stage of ``_jet_stages``."""
    first = stage[0]
    if first.op == "out":
        outputs = f"o[:, {first.k}:{stage[-1].k + 1}]"
        return [*(f"o[:, {s.k}] = v{s.a}" for s in stage),
                f"if not np.isfinite({outputs}).all():\n"
                f"    _require_finite_members(~np.isfinite({outputs}).all(axis=0), t0)"]
    if first.kind is None:
        return [_cheap_line(s) for s in stage]
    args = _stacked([_operand(s, s.a) for s in stage])
    if first.op == "sincos":
        lines = [f"ys, yc = jsincos(Jet(t0, {args}))", "ys, yc = ys.coeffs, yc.coeffs"]
        return lines + [f"v{s.k}, v{s.k + 1} = ys[:, {g}], yc[:, {g}]"
                        for g, s in enumerate(stage)]
    # a square's second factor is its base
    factors = _stacked([_operand(s, s.a if s.op == "pow" else s.b) for s in stage])
    call = {
        "mul": f"_cauchy({args}, {factors})",
        "pow": f"_pows({args}, r{first.k}, t0)",
        "div": f"_divs({args}, v{first.b}, t0)",
        "exp": f"_exps({args}, t0)",
        "log": f"_logs({args}, t0)",
        "sqrt": f"_sqrts({args})",
    }[first.kind[0]]
    return [f"y = {call}", *(f"v{s.k} = y[:, {g}]" for g, s in enumerate(stage))]


def _whole_power(lines, k, a, m):
    """Append the lines of v{k} = v{a}**m for a whole m to ``lines``, as
    ``jpow`` takes it: 1.0 for m = 0, else the products of
    ``_repeated_squaring`` in its order, and 1/acc for m < 0."""

    def product(x, y):
        lines.append(f"p{len(lines)} = {x} * {y}")
        return f"p{len(lines) - 1}"

    acc = _repeated_squaring(f"v{a}", abs(m), product) if m else "1.0"
    if m < 0:
        lines.append(f"if {acc} == 0.0 or not -inf < {acc} < inf: _require_divisor({acc}, t)")
        acc = f"1.0 / {acc}"
    lines.append(f"v{k} = {acc}")


def program_jets(program, t0, order: int):
    """Run a compiled program's jet function (``compile_program``) about
    ``t0``, a number or a 1-D array of N basepoints: the coefficients of
    its outputs, (K+1, outputs) or (K+1, outputs, N), C-ordered.  Each
    output is checked for finiteness."""
    if order < 0:
        raise ValueError("order must be >= 0")
    t0 = np.asarray(t0, dtype=float) if np.ndim(t0) else float(t0)
    return program[0](t0, order)


def program_values(program, t0):
    """Run a compiled program's value function at the number ``t0``: the
    bits of the constant terms of ``program_jets`` at any order, and the
    same ``DomainError`` where those raise one, with no jet built."""
    return program[1](float(t0))
