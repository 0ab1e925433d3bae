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

An ``expr.program``, in which equal subtrees share one slot, is
compiled once per process into two Python functions with one line per
step (``compile_program``, the one cache of compiled programs).  The
jet function takes the variable's jet and calls the recurrences above
directly (``program_jets``); the value function runs at one float
(``program_values``), each step the constant term of the matching
recurrence on Python floats and each domain check one comparison.  It
gives the bits and domain errors of an order-0 jet without building
one.  A grid's values are the constant terms of its order-0 jets.
"""

from __future__ import annotations

import math
import struct

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


def _require_nonzero(c0, message="division by a function vanishing at the basepoint"):
    if _any(c0 == 0.0):
        raise DomainError(message)


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
            _require_nonzero(other, "division by zero")
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
    two_w0 = 2.0 * w[0]
    for k in range(1, n + 1):
        acc = c[k]
        if k > 1:
            # sum of w[j]*w[k-j] over j = 1..k-1, in order of j
            acc = acc - np.add.accumulate(w[1:k] * w[k - 1 : 0 : -1])[-1]
        w[k] = acc / two_w0
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
    # the ufunc on a float too: a numpy scalar's ** may differ in the last bit
    w[0] = np.power(c[0], r)
    j = np.arange(1, n + 1)
    for m in range(n):
        w[m + 1 :] += _per_order(r * j[: n - m] - m, c) * c[1 : n + 1 - m] * w[m]
        w[m + 1] /= (m + 1) * c[0]
    return Jet(u.basepoint, w)


# the signs of sin' = cos u' and cos' = -sin u' on a stacked (sin, cos)
_SINCOS_SIGNS = np.array([1.0, -1.0])


def jsincos(u: Jet):
    """sin u and cos u from one stacked recurrence: sc[k, 0] is sin's
    coefficient k and sc[k, 1] cos's, and each order takes one update and
    one division of both.  Adding (-j c[j]) * sin has the bits of
    subtracting j c[j] * sin."""
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


def _finite(u: Jet) -> Jet:
    """``u``, checked to have finite coefficients at every basepoint."""
    _require_finite(~np.isfinite(u.coeffs).all(axis=0), u.basepoint)
    return u


def _tan_of(s: Jet, c: Jet) -> Jet:
    _require_no_pole(c.coeffs[0], s.basepoint)
    return s / c


def jstack(components) -> Jet:
    """The vector jet of a sequence of scalar component jets about one
    basepoint."""
    return Jet(components[0].basepoint, np.stack([c.coeffs for c in components], axis=1))


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
    ``sin``, ``cos`` and ``tan`` of one argument share one ``jsincos``.
    Each shared value is the same computation on the same operands, so
    the coefficients equal those of evaluating each tree on its own.  The
    program is built at every call, and compiled once per distinct
    program (``compile_program``).  Raises OrderOverflowError above
    ``max_order``.
    """
    if order > max_order:
        raise OrderOverflowError(order, max_order)
    return program_jets(compile_program(ex.program(nodes)), t0, order)


# The line of each kind of program step: slot k is the local v{k}, the
# step's slot operands are v{a} and v{b}, its plain number c{k}, its
# exponent r{k}, its output o{n}; t is the variable's jet.
_LINES = {
    "const": "v{k} = c{k}",
    "var": "v{k} = t",
    "lift": "v{k} = Jet.constant(v{a}, t.basepoint, t.order)",
    "neg": "v{k} = -v{a}",
    "add": "v{k} = v{a} + v{b}",
    "sub": "v{k} = v{a} - v{b}",
    "mul": "v{k} = v{a} * v{b}",
    "div": "v{k} = v{a} / v{b}",
    "div_const": "v{k} = v{a} / v{b}",
    "pow": "v{k} = jpow(v{a}, r{k})",
    "exp": "v{k} = jexp(v{a})",
    "log": "v{k} = jlog(v{a})",
    "sqrt": "v{k} = jsqrt(v{a})",
    "sincos": "v{k}, v{k1} = jsincos(v{a})",
    "tan": "v{k} = _tan_of(v{a}, v{a1})",
    "out": "o{n} = _finite(v{a})",
}

# The value function's line of each kind of step, on Python floats at
# the float t.  Each function and non-integer power is numpy's ufunc, as
# on a grid (``math`` and ``**`` may differ in the last bit, and ``math``
# raises on overflow).  A domain check is one float comparison that
# raises through the jets' check; whole powers: ``_whole_power``.
_VALUE_LINES = {
    **_LINES,
    "lift": "v{k} = float(v{a})",
    "div": "if v{b} == 0.0: _require_nonzero(v{b})\nv{k} = v{a} / v{b}",
    "div_const": "if v{b} == 0.0: _require_nonzero(v{b}, 'division by zero')\nv{k} = v{a} / v{b}",
    "pow": "if v{a} <= 0.0: _require_positive(v{a}, 'non-integer power')\n"
           "v{k} = float(power(v{a}, r{k}))",
    "exp": "v{k} = float(exp(v{a}))",
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
    function, called with the variable's jet, returns the program's
    outputs as jets (``program_jets``); the value function, called with a
    float, returns them as floats (``program_values``).

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
    """Both functions of ``compile_program`` from one source, with one
    line of ``_LINES`` and one of ``_VALUE_LINES`` per step.  The source
    holds slot numbers and operation names only, and the constants and
    exponents are bound in the functions' namespace, a whole exponent
    that ``_integer_exponent`` takes as that int."""
    jet_lines, value_lines = [], []
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
        jet_lines.append(_LINES[op].format(**slots))
        if m is None:
            value_lines.append(_VALUE_LINES[op].format(**slots))
        else:
            _whole_power(value_lines, k, a, m)
        if op == "out":
            n += 1
        else:
            k += 2 if op == "sincos" else 1
    outputs = "".join(f"o{i}, " for i in range(n))
    source = "".join(
        f"def {head}:\n"
        + "".join(f"    {line}\n" for line in "\n".join(body).split("\n"))
        + f"    return ({outputs})\n"
        for head, body in (("program(t)", jet_lines), ("values(t)", value_lines))
    )
    exec(compile(source, "<expr.program>", "exec"), space)
    return space["program"], space["values"]


class _Local:
    """A local of a value function being written: ``x * y`` appends the
    line ``p{i} = x * y`` to the function's ``lines`` and returns the new
    local, so ``_repeated_squaring`` writes out its own products."""

    __slots__ = ("name", "lines")

    def __init__(self, name, lines):
        self.name, self.lines = name, lines

    def __mul__(self, other):
        product = _Local(f"p{len(self.lines)}", self.lines)
        self.lines.append(f"{product.name} = {self.name} * {other.name}")
        return product


def _whole_power(lines, k, a, m):
    """Append the lines of v{k} = v{a}**m for a whole m to ``lines``, as
    ``jpow`` takes it: 1.0 for m = 0, else the products of
    ``_repeated_squaring`` in its order, and 1/acc for m < 0."""
    acc = _repeated_squaring(_Local(f"v{a}", lines), abs(m)).name if m else "1.0"
    if m < 0:
        lines.append(f"if {acc} == 0.0: _require_nonzero({acc})")
        acc = f"1.0 / {acc}"
    lines.append(f"v{k} = {acc}")


def program_jets(program, t0, order: int):
    """Run a compiled program's jet function (``compile_program``) on the
    jet of the variable about ``t0``, a number or a 1-D array of
    basepoints; each output is checked for finiteness as soon as it is
    computed."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if np.ndim(t0):
        t0 = np.asarray(t0, dtype=float)
    return program[0](Jet.variable(t0, order))


def program_values(program, t0):
    """Run a compiled program's value function at the number ``t0``: the
    bits of the constant terms of ``program_jets`` at any order, and the
    same ``DomainError`` where those raise one, with no jet built."""
    return program[1](float(t0))
