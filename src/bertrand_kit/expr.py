"""Scalar expressions of one variable ``t``.

Grammar (tightest first)::

    ^  (constant exponent, right-assoc)  >  unary -  >  * /  >  + -

with parentheses, function calls ``f(x)`` for f in sin, cos, tan, exp,
log, sqrt, numeric literals with optional exponent, and the single free
variable ``t``.  ASTs are immutable; ``to_text`` re-serializes to an
infix string that parses back to a structurally identical tree.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

from .errors import (
    ExprSyntaxError,
    NonConstantExponentError,
    UnknownFunctionError,
)

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


class ExprNode:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(ExprNode):
    value: float


@dataclass(frozen=True)
class Var(ExprNode):
    pass


@dataclass(frozen=True)
class Unary(ExprNode):
    op: str  # 'neg' or a function name
    child: ExprNode


@dataclass(frozen=True)
class Binary(ExprNode):
    op: str  # 'add' | 'sub' | 'mul' | 'div'
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class PowConst(ExprNode):
    base: ExprNode
    exponent: float


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\*|/|\+|-|\(|\)))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExprSyntaxError(bad_at, ("number", "name", "operator"))
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(pos, (op,))
        return self.advance()

    def parse(self):
        node = self.sum()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(pos, ("operator", "end of input"))
        return node

    def sum(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.advance()
                rhs = self.term()
                node = Binary("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in ("*", "/"):
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self):
        # unary minus binds looser than ^
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("neg", self.factor())
        if kind == "op" and val == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # the exponent may itself carry a unary sign or a ^, but must
            # hold no t and fold to a finite real constant
            start, exp_pos = self.i, self.peek()[2]
            exponent = self.factor()
            if any(tok[:2] == ("name", "t") for tok in self.tokens[start:self.i]):
                raise NonConstantExponentError(exp_pos)
            try:
                folded = constant_fold(exponent)
                finite = math.isfinite(folded)
            except (ArithmeticError, TypeError, ValueError):
                # 1/0, an overflow, a math domain error, or a complex power
                finite = False
            if not finite:
                raise ExprSyntaxError(
                    exp_pos, ("finite exponent",),
                    f"exponent at position {exp_pos} does not fold to a finite number")
            return PowConst(base, folded)
        return base

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(val)
        if kind == "name":
            if val == "t":
                return Var()
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownFunctionError(val, pos)
                self.advance()
                arg = self.sum()
                self.expect_op(")")
                return Unary(val, arg)
            raise ExprSyntaxError(pos, ("t",) + FUNCTIONS)
        if kind == "op" and val == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(pos, ("number", "name", "(", "-"))


def parse_expression(text: str) -> ExprNode:
    """Parse infix text into an AST.

    Raises ExprSyntaxError, UnknownFunctionError or
    NonConstantExponentError on malformed input.
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, ("expression",))
    return _Parser(text).parse()


def constant_fold(node: ExprNode) -> float:
    """Return the numeric value of a tree that holds no ``t``."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Unary):
        v = constant_fold(node.child)
        if node.op == "neg":
            return -v
        return getattr(math, node.op)(v)
    if isinstance(node, PowConst):
        return constant_fold(node.base) ** node.exponent
    v1 = constant_fold(node.left)
    v2 = constant_fold(node.right)
    if node.op == "add":
        return v1 + v2
    if node.op == "sub":
        return v1 - v2
    if node.op == "mul":
        return v1 * v2
    return v1 / v2


def _bits(value):
    # the float's bit pattern, so 0.0 and -0.0 stay apart
    return struct.pack("<d", value)


def intern(node: ExprNode, table: dict) -> ExprNode:
    """Return the one node in ``table`` equal to ``node``, adding it if new.

    The tree is rebuilt bottom-up.  A node's key is its type, its op, the
    bit pattern of its float field and the ids of its interned children,
    so equal subtrees of every tree interned through one table become one
    object, while ``Const(-0.0)`` stays apart from ``Const(0.0)``.
    """
    if isinstance(node, Const):
        key = (Const, _bits(node.value))
    elif isinstance(node, Var):
        key = (Var,)
    elif isinstance(node, Unary):
        child = intern(node.child, table)
        key = (Unary, node.op, id(child))
        if child is not node.child:
            node = Unary(node.op, child)
    elif isinstance(node, PowConst):
        base = intern(node.base, table)
        key = (PowConst, _bits(node.exponent), id(base))
        if base is not node.base:
            node = PowConst(base, node.exponent)
    else:
        left = intern(node.left, table)
        right = intern(node.right, table)
        key = (Binary, node.op, id(left), id(right))
        if left is not node.left or right is not node.right:
            node = Binary(node.op, left, right)
    return table.setdefault(key, node)


def program(nodes) -> tuple:
    """A straight-line program that evaluates the trees ``nodes`` together.

    Each step is a tuple ``(op, a, b)`` that appends its value to a list
    of slots, in an order where every operand comes first:

    * ``("const", c, None)``: the plain number ``c``; ``("var", None, None)``: t
    * ``("lift", k, None)``: the jet (a function of t) of the plain number in slot k
    * ``("neg", k, None)``; ``("add" | "sub" | "mul", k, m)``
    * ``("div", k, m)`` by a function of t; ``("div_const", k, m)`` by a plain number
    * ``("pow", k, r)`` for a constant exponent ``r``
    * ``("exp" | "log" | "sqrt", k, None)``
    * ``("sincos", k, None)``: two slots, sin then cos of slot k
    * ``("tan", k, None)``: tan from the sin and cos slots k and k+1
    * ``("out", k, None)``: slot k is the next tree's value; it appends no slot.

    A node shared within or across the trees (see ``intern``) has one
    slot, and ``sin``, ``cos`` and ``tan`` of one child share one
    ``sincos``.  Constants stay plain numbers until a function, a power, a
    binary operation on two of them, or an output needs them as functions
    of t.  The steps follow a depth-first walk, left operand first, and
    each tree's ``out`` follows its last step, so an arithmetic that checks
    each step's domain raises the error a recursive evaluation would.
    """
    steps = []
    slots = {}  # id(node) -> slot
    plain = set()  # slots holding a plain number
    lifted = {}  # plain slot -> slot of its jet
    sincos = {}  # id(child) -> slot of its sine
    size = 0

    def emit(op, a=None, b=None, width=1):
        nonlocal size
        steps.append((op, a, b))
        size += width
        return size - width

    def as_function(node):
        k = visit(node)
        if k not in plain:
            return k
        if k not in lifted:
            lifted[k] = emit("lift", k)
        return lifted[k]

    def visit(node):
        key = id(node)
        if key in slots:
            return slots[key]
        if isinstance(node, Const):
            k = emit("const", node.value)
            plain.add(k)
        elif isinstance(node, Var):
            k = emit("var")
        elif isinstance(node, PowConst):
            k = emit("pow", as_function(node.base), node.exponent)
        elif isinstance(node, Unary) and node.op == "neg":
            child = visit(node.child)
            k = emit("neg", child)
            if child in plain:
                plain.add(k)
        elif isinstance(node, Unary) and node.op in ("sin", "cos", "tan"):
            ckey = id(node.child)
            if ckey not in sincos:
                sincos[ckey] = emit("sincos", as_function(node.child), width=2)
            s = sincos[ckey]
            if node.op == "sin":
                k = s
            elif node.op == "cos":
                k = s + 1
            else:
                k = emit("tan", s)
        elif isinstance(node, Unary):
            k = emit(node.op, as_function(node.child))
        else:
            left = visit(node.left)
            right = visit(node.right)
            if left in plain and right in plain:
                left = as_function(node.left)
            op = node.op
            if op == "div" and right in plain:
                op = "div_const"
            k = emit(op, left, right)
        slots[key] = k
        return k

    for node in nodes:
        steps.append(("out", as_function(node), None))
    return tuple(steps)


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4, "atom": 5}


def _prec(node):
    if isinstance(node, (Const, Var)):
        # negative literals print with a sign
        if isinstance(node, Const) and node.value < 0:
            return _PREC["neg"]
        return _PREC["atom"]
    if isinstance(node, PowConst):
        return _PREC["pow"]
    if isinstance(node, Unary):
        return _PREC["neg"] if node.op == "neg" else _PREC["atom"]
    return _PREC[node.op]


def _wrap(child, parent_prec, strict=False):
    text = to_text(child)
    p = _prec(child)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


def to_text(node: ExprNode) -> str:
    """Canonical infix serialization; round-trips through the parser."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, PowConst):
        base = _wrap(node.base, _PREC["pow"], strict=True)
        exp = repr(node.exponent)
        if node.exponent < 0:
            exp = f"({exp})"
        return f"{base}^{exp}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-{_wrap(node.child, _PREC['neg'], strict=True)}"
        return f"{node.op}({to_text(node.child)})"
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
    p = _PREC[node.op]
    left = _wrap(node.left, p)
    right = _wrap(node.right, p, strict=node.op in ("sub", "div"))
    return f"{left} {op} {right}" if p == 1 else f"{left}{op}{right}"
