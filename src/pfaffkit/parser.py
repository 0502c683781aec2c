"""Expression grammar for the command line and fixture files.

One tokenizer feeds several small evaluators: rational right-hand sides
of order-one equations, monic linear forms in y and its derivatives,
expressions in the reduction indeterminate u, group expressions, field
declarations, and chain fixture files.  Printing any library object and
reparsing it yields a structurally equal object, which the test suite
checks on every fixture.

Grammar sketch::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := ('-'|'+') unary | power
    power   := atom ('^' unary)?        -- exponents are nonnegative integers
    atom    := NUMBER | NAME | '(' expr ')'
    NAME    := identifier followed by optional primes, e.g. y, y1, u''

Field declarations: ``Q``, ``Q(t)``, ``Q(r: r^2-2)``, ``Q(r: r^2-2, z)``.
Group expressions: ``Ga | Gm | GaxGm | SL(n) | GL(n) | PSL(n) | PGL(n)
| T(k) | E | Fin | Prod(g, ...) | Ext(g, g) | Sub(g)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PfaffkitError
from .exactfield import NumberField, UniPoly, nf_new, power
from .diffalg import (
    BaseDiffField,
    DiffIndeterminateExpr,
    DiffPoly,
    DiffRatFunc,
)
from . import groups as G


class ParseError(PfaffkitError):
    def __init__(self, message, line=1, col=1, expected=None):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected) if expected else ()
        where = f" at line {line}, column {col}"
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        super().__init__(message + where + hint)


# ---------------------------------------------------------------------------
# tokens

@dataclass(frozen=True)
class Token:
    kind: str        # 'number' | 'name' | 'op' | 'end'
    value: object
    primes: int
    line: int
    col: int


_OPS = "+-*/^(),:="


def tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
            toks.append(Token("number", int(text[start:i]), 0, line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            primes = 0
            while i < len(text) and text[i] == "'":
                primes += 1
                i += 1
            toks.append(Token("name", text[start:i - primes] if primes else text[start:i],
                              primes, line, col))
            col += i - start
            continue
        if ch in _OPS:
            toks.append(Token("op", ch, 0, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("end", None, 0, line, col))
    return toks


# ---------------------------------------------------------------------------
# expression AST

@dataclass(frozen=True)
class Num:
    value: int
    line: int
    col: int


@dataclass(frozen=True)
class Sym:
    name: str
    primes: int
    line: int
    col: int


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object
    line: int
    col: int


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int
    col: int


# Nesting depth of parentheses, signs, exponents and group constructors.
# Each level costs the recursive-descent parser a few interpreter frames,
# so a much deeper input would exhaust the recursion limit.
_MAX_NESTING = 100


class _Stream:
    def __init__(self, tokens, pos=0):
        self.tokens = tokens
        self.pos = pos
        self.depth = 0

    def enter(self):
        """Open one nesting level at the next token; ParseError past the limit."""
        if self.depth >= _MAX_NESTING:
            t = self.peek()
            raise ParseError(
                f"expression nested deeper than {_MAX_NESTING} levels", t.line, t.col
            )
        self.depth += 1

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        t = self.peek()
        if t.kind != "op" or t.value != op:
            raise ParseError(f"unexpected {describe(t)}", t.line, t.col, expected=[repr(op)])
        return self.next()

    def at_end(self):
        return self.peek().kind == "end"

    def expect_end(self, context=""):
        """ParseError ``trailing <token><context>`` unless every token is used."""
        if not self.at_end():
            t = self.peek()
            raise ParseError(f"trailing {describe(t)}{context}", t.line, t.col)


def describe(tok):
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "number":
        return f"number {tok.value}"
    if tok.kind == "name":
        return f"identifier {tok.value + chr(39) * tok.primes!r}"
    return f"{tok.value!r}"


def parse_expr(stream):
    node = parse_term(stream)
    while True:
        t = stream.peek()
        if t.kind == "op" and t.value in "+-":
            stream.next()
            rhs = parse_term(stream)
            node = Bin(t.value, node, rhs, t.line, t.col)
        else:
            return node


def parse_term(stream):
    node = parse_unary(stream)
    while True:
        t = stream.peek()
        if t.kind == "op" and t.value in "*/":
            stream.next()
            rhs = parse_unary(stream)
            node = Bin(t.value, node, rhs, t.line, t.col)
        else:
            return node


def parse_unary(stream):
    # every recursive path (parentheses, signs, exponents) passes here
    stream.enter()
    t = stream.peek()
    if t.kind == "op" and t.value in "+-":
        stream.next()
        operand = parse_unary(stream)
        node = operand if t.value == "+" else Neg(operand, t.line, t.col)
    else:
        node = parse_power(stream)
    stream.depth -= 1
    return node


def parse_power(stream):
    base = parse_atom(stream)
    t = stream.peek()
    if t.kind == "op" and t.value == "^":
        stream.next()
        expo = parse_unary(stream)
        return Bin("^", base, expo, t.line, t.col)
    return base


def parse_atom(stream):
    t = stream.peek()
    if t.kind == "number":
        stream.next()
        return Num(t.value, t.line, t.col)
    if t.kind == "name":
        stream.next()
        return Sym(t.value, t.primes, t.line, t.col)
    if t.kind == "op" and t.value == "(":
        stream.next()
        node = parse_expr(stream)
        stream.expect_op(")")
        return node
    raise ParseError(
        f"unexpected {describe(t)}", t.line, t.col,
        expected=["number", "identifier", "'('"],
    )


def parse_expression_text(text):
    stream = _Stream(tokenize(text))
    node = parse_expr(stream)
    stream.expect_end()
    return node


_MAX_EXPONENT = 10_000


def _int_exponent(node):
    if isinstance(node, Num):
        if node.value > _MAX_EXPONENT:
            raise ParseError(
                f"exponent {node.value} exceeds the supported bound {_MAX_EXPONENT}",
                node.line, node.col,
            )
        return node.value
    raise ParseError("exponents must be nonnegative integer literals",
                     getattr(node, "line", 1), getattr(node, "col", 1))


# ---------------------------------------------------------------------------
# evaluators

@dataclass
class EvalContext:
    base: BaseDiffField
    ring: tuple
    gen_name: str | None

    def names(self):
        out = set(self.ring)
        if self.gen_name:
            out.add(self.gen_name)
        if self.base.var:
            out.add(self.base.var)
        return out


def _fold(node, leaf, combine):
    """Evaluate an AST bottom-up with an explicit stack.

    ``leaf(n)`` gives the value of a Num or Sym node, ``combine(n, *values)``
    that of a Neg or Bin node from its operands' values, left to right.
    The exponent of a '^' node is not an operand: ``combine`` reads it with
    ``_int_exponent``.  A flat sum is a left-deep tree as long as the input,
    so the walk does not recurse.
    """
    values = []
    stack = [(node, False)]
    while stack:
        n, ready = stack.pop()
        if isinstance(n, (Num, Sym)):
            values.append(leaf(n))
            continue
        if isinstance(n, Neg):
            operands = (n.operand,)
        elif isinstance(n, Bin):
            operands = (n.left,) if n.op == "^" else (n.left, n.right)
        else:
            raise ParseError("malformed expression", 1, 1)
        if ready:
            k = len(values) - len(operands)
            args = values[k:]
            del values[k:]
            values.append(combine(n, *args))
        else:
            stack.append((n, True))
            stack.extend((o, False) for o in reversed(operands))
    return values[0]


def _fold_ring(node, leaf, raise_to, divide):
    """``_fold`` for values with their own ``-x``, ``+``, ``-`` and ``*``; each
    evaluator gives ``a^e`` as ``raise_to(a, e)`` and ``a/b`` at node ``n``
    as ``divide(n, a, b)``."""

    def combine(n, a, b=None):
        if isinstance(n, Neg):
            return -a
        if n.op == "^":
            return raise_to(a, _int_exponent(n.right))
        if n.op == "+":
            return a + b
        if n.op == "-":
            return a - b
        if n.op == "*":
            return a * b
        if n.op == "/":
            return divide(n, a, b)
        raise ParseError("malformed expression", 1, 1)

    return _fold(node, leaf, combine)


def eval_ratfunc(node, ctx):
    """Evaluate an AST to a DiffRatFunc in the context's ring."""
    # Unlike substitution (``diffalg.cleared_pair``), parsing reduces after
    # every operation: a sum of many fractions over one denominator, such as
    # 1/(y+1) + ... + 1/(y+1), then keeps that one denominator, where
    # unreduced pairs would multiply all of them together.
    base, ring = ctx.base, ctx.ring

    def leaf(n):
        if isinstance(n, Num):
            return DiffRatFunc.from_poly(DiffPoly.const(base, ring, n.value))
        if n.primes:
            raise ParseError(
                f"derivatives of {n.name} are not allowed here", n.line, n.col
            )
        if n.name in ring:
            return DiffRatFunc.from_poly(DiffPoly.var(base, ring, n.name))
        if n.name == ctx.gen_name and ctx.gen_name is not None:
            field = base.field
            return DiffRatFunc.from_poly(DiffPoly.const(base, ring, field.gen()))
        if n.name == base.var:
            return DiffRatFunc.from_poly(DiffPoly.const(base, ring, base.gen()))
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def divide(n, lhs, rhs):
        if rhs.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        return lhs / rhs

    return _fold_ring(node, leaf, pow, divide)


class LinearValue:
    """Value domain for monic linear forms: scalar part + sum c_k * y^(k)."""

    __slots__ = ("base", "scalar", "orders")

    def __init__(self, base, scalar, orders):
        self.base = base
        self.scalar = scalar
        self.orders = {k: c for k, c in orders.items() if not c.is_zero()}

    def is_scalar(self):
        return not self.orders

    def _add(self, other, sign):
        orders = dict(self.orders)
        for k, c in other.orders.items():
            cur = orders.get(k, self.base.zero())
            orders[k] = cur + c if sign > 0 else cur - c
        s = self.scalar + other.scalar if sign > 0 else self.scalar - other.scalar
        return LinearValue(self.base, s, orders)


def eval_linear(node, ctx, yname="y"):
    """Evaluate an AST as a linear form in y, y', y'', ... over the base."""
    base = ctx.base

    def const(c):
        return LinearValue(base, base.coerce(c), {})

    def leaf(n):
        if isinstance(n, Num):
            return const(n.value)
        if n.name == yname:
            return LinearValue(base, base.zero(), {n.primes: base.one()})
        if n.primes:
            raise ParseError(f"cannot differentiate {n.name!r}", n.line, n.col)
        if n.name == ctx.gen_name and ctx.gen_name is not None:
            return const(base.field.gen())
        if n.name == base.var:
            return const(base.gen())
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def combine(n, a, b=None):
        if isinstance(n, Neg):
            return LinearValue(base, -a.scalar, {k: -c for k, c in a.orders.items()})
        if n.op == "^":
            e = _int_exponent(n.right)
            if not a.is_scalar() and e != 1:
                raise ParseError("the equation must be linear in y", n.line, n.col)
            if a.is_scalar():
                return LinearValue(base, power(base.one(), a.scalar, e), {})
            return a
        if n.op == "+":
            return a._add(b, 1)
        if n.op == "-":
            return a._add(b, -1)
        if n.op == "*":
            if not a.is_scalar() and not b.is_scalar():
                raise ParseError("the equation must be linear in y", n.line, n.col)
            if a.is_scalar():
                a, b = b, a
            s = b.scalar
            return LinearValue(
                base, a.scalar * s, {k: c * s for k, c in a.orders.items()}
            )
        if n.op == "/":
            if not b.is_scalar():
                raise ParseError("cannot divide by y", n.line, n.col)
            if b.scalar.is_zero():
                raise ParseError("division by zero", n.line, n.col)
            inv = b.scalar.inverse()
            return LinearValue(
                base, a.scalar * inv, {k: c * inv for k, c in a.orders.items()}
            )
        raise ParseError("malformed expression", 1, 1)

    return _fold(node, leaf, combine)


def eval_uexpr(node, base):
    """Evaluate an AST as an expression in u, u', u'', ... over the base."""

    def leaf(n):
        if isinstance(n, Num):
            return DiffIndeterminateExpr.const(base, n.value)
        if n.name == "u":
            return DiffIndeterminateExpr.u(base, n.primes)
        if n.primes:
            raise ParseError(f"cannot differentiate {n.name!r}", n.line, n.col)
        if n.name == base.var:
            return DiffIndeterminateExpr.const(base, base.gen())
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def raise_to(a, e):
        return power(DiffIndeterminateExpr.const(base, 1), a, e)

    def divide(n, a, b):
        if b.order() >= 0:
            raise ParseError("cannot divide by u", n.line, n.col)
        c = b.terms.get((), base.zero())
        if c.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        inv = c.inverse()
        return DiffIndeterminateExpr(base, {e: c2 * inv for e, c2 in a.terms.items()})

    return _fold_ring(node, leaf, raise_to, divide)


def eval_unipoly_q(node, gen_name):
    """Evaluate an AST as a UniPoly over Q in the field generator."""
    x = UniPoly.x(None)

    def leaf(n):
        if isinstance(n, Num):
            return UniPoly.const(n.value, None)
        if n.name == gen_name and not n.primes:
            return x
        raise ParseError(
            f"only {gen_name!r} may appear in a defining polynomial", n.line, n.col
        )

    def divide(n, a, b):
        if not b.is_constant() or b.is_zero():
            raise ParseError("division by a non-constant", n.line, n.col)
        return a * b.constant_value().inverse()

    return _fold_ring(node, leaf, pow, divide)


# ---------------------------------------------------------------------------
# field declarations

@dataclass(frozen=True)
class FieldDecl:
    field: NumberField | None
    gen_name: str | None
    var: str | None


def parse_field_decl(stream):
    t = stream.next()
    if t.kind != "name" or t.value != "Q":
        raise ParseError(f"unexpected {describe(t)}", t.line, t.col, expected=["'Q'"])
    field = None
    gen_name = None
    var = None
    if stream.peek().kind == "op" and stream.peek().value == "(":
        stream.next()
        while True:
            t = stream.peek()
            if t.kind != "name":
                raise ParseError(
                    f"unexpected {describe(t)}", t.line, t.col,
                    expected=["identifier"],
                )
            name = t.value
            stream.next()
            nxt = stream.peek()
            if nxt.kind == "op" and nxt.value == ":":
                stream.next()
                # minimal polynomial up to ',' or ')'
                node = parse_expr(stream)
                minpoly = eval_unipoly_q(node, name)
                coeffs = [c.is_rational() for c in minpoly.coeffs]
                field = nf_new([Fraction(c) for c in coeffs], name=name)
                gen_name = name
            else:
                if name not in ("t", "z"):
                    raise ParseError(
                        "the independent variable must be t or z", t.line, t.col
                    )
                var = name
            t = stream.peek()
            if t.kind == "op" and t.value == ",":
                stream.next()
                continue
            stream.expect_op(")")
            break
    return FieldDecl(field=field, gen_name=gen_name, var=var)


def parse_field_decl_text(text):
    return _parse_decl_tokens(tokenize(text), context="")


def _split_over(tokens):
    """Split a token list at a top-level 'over' keyword."""
    depth = 0
    for i, t in enumerate(tokens):
        if t.kind == "op" and t.value == "(":
            depth += 1
        elif t.kind == "op" and t.value == ")":
            depth -= 1
        elif t.kind == "name" and t.value == "over" and depth == 0:
            return tokens[:i], tokens[i + 1:]
    return tokens, None


def _parse_decl_tokens(decl_tokens, context=" after the field declaration"):
    if decl_tokens is None:
        return FieldDecl(None, None, None)
    stream = _Stream(decl_tokens)
    decl = parse_field_decl(stream)
    stream.expect_end(context)
    return decl


def _detect_var(tokens, exclude):
    for t in tokens:
        if t.kind == "name" and t.value in ("t", "z") and t.value not in exclude:
            return t.value
    return None


def _context_from(tokens, decl, ring):
    exclude = {decl.gen_name} if decl.gen_name else set()
    var = decl.var or _detect_var(tokens, exclude)
    base = BaseDiffField(decl.field, var)
    return EvalContext(base=base, ring=ring, gen_name=decl.gen_name)


# ---------------------------------------------------------------------------
# command payloads

@dataclass(frozen=True)
class OdeSpec:
    f: DiffRatFunc
    base: BaseDiffField
    gen_name: str | None
    varname: str


def parse_ode_text(text, varname="y"):
    """Parse ``y' = <expr> [over <decl>]`` into the right-hand side."""
    return _parse_function_text(text, varname, equation=True)


def parse_ratfunc_text(text, varname="y"):
    """Parse ``<expr> [over <decl>]`` into an OdeSpec whose ``f`` is that function."""
    return _parse_function_text(text, varname, equation=False)


def _parse_function_text(text, varname, equation):
    tokens = tokenize(text)
    expr_tokens, decl_tokens = _split_over(tokens)
    decl = _parse_decl_tokens(decl_tokens)
    stream = _Stream(expr_tokens + [tokens[-1]])
    if equation:
        head = stream.next()
        if head.kind != "name" or head.value != varname or head.primes != 1:
            raise ParseError(
                f"an order-one equation starts with {varname}'",
                head.line, head.col, expected=[f"{varname}'"],
            )
        stream.expect_op("=")
    node = parse_expr(stream)
    stream.expect_end()
    ctx = _context_from(expr_tokens, decl, (varname,))
    f = eval_ratfunc(node, ctx)
    return OdeSpec(f=f, base=ctx.base, gen_name=decl.gen_name, varname=varname)


@dataclass(frozen=True)
class LinearSpec:
    coeffs: tuple      # a_0 .. a_n, base elements
    base: BaseDiffField
    gen_name: str | None


def parse_linear_text(text, yname="y"):
    """Parse a monic linear equation ``... = 0`` into its coefficient list."""
    tokens = tokenize(text)
    expr_tokens, decl_tokens = _split_over(tokens)
    decl = _parse_decl_tokens(decl_tokens)
    stream = _Stream(expr_tokens + [tokens[-1]])
    node = parse_expr(stream)
    t = stream.next()
    if t.kind != "op" or t.value != "=":
        raise ParseError(f"unexpected {describe(t)}", t.line, t.col, expected=["'='"])
    zero = stream.next()
    if zero.kind != "number" or zero.value != 0:
        raise ParseError("a linear equation must end in '= 0'", zero.line, zero.col)
    stream.expect_end()
    ctx = _context_from(expr_tokens, decl, ())
    form = eval_linear(node, ctx, yname=yname)
    if form.is_scalar() or not form.orders:
        raise ParseError("the equation does not involve y", 1, 1)
    if not form.scalar.is_zero():
        raise ParseError("the equation must be homogeneous linear in y", 1, 1)
    order = max(form.orders)
    coeffs = [form.orders.get(k, ctx.base.zero()) for k in range(order + 1)]
    return LinearSpec(coeffs=tuple(coeffs), base=ctx.base, gen_name=decl.gen_name)


# ---------------------------------------------------------------------------
# group expressions

def parse_group_text(text):
    stream = _Stream(tokenize(text))
    g = _parse_group(stream)
    stream.expect_end()
    return g


_GROUP_ATOMS = {
    "Ga": G.Ga, "Gm": G.Gm, "GaxGm": G.GaxGm, "E": G.Elliptic, "Fin": G.Finite,
}
_GROUP_RANKED = {"SL": G.SL, "GL": G.GL, "PSL": G.PSL, "PGL": G.PGL, "T": G.Torus}


def _parse_group(stream):
    stream.enter()
    g = _parse_group_node(stream)
    stream.depth -= 1
    return g


def _parse_group_node(stream):
    t = stream.next()
    if t.kind != "name":
        raise ParseError(
            f"unexpected {describe(t)}", t.line, t.col, expected=["group name"]
        )
    name = t.value
    if name in _GROUP_ATOMS:
        return _GROUP_ATOMS[name]()
    if name in _GROUP_RANKED:
        stream.expect_op("(")
        n = stream.next()
        if n.kind != "number":
            raise ParseError(f"unexpected {describe(n)}", n.line, n.col, expected=["integer"])
        stream.expect_op(")")
        return _GROUP_RANKED[name](n.value)
    if name == "Prod":
        stream.expect_op("(")
        children = [_parse_group(stream)]
        while stream.peek().kind == "op" and stream.peek().value == ",":
            stream.next()
            children.append(_parse_group(stream))
        stream.expect_op(")")
        return G.product(*children)
    if name == "Ext":
        stream.expect_op("(")
        a = _parse_group(stream)
        stream.expect_op(",")
        b = _parse_group(stream)
        stream.expect_op(")")
        return G.extension(a, b)
    if name == "Sub":
        stream.expect_op("(")
        a = _parse_group(stream)
        stream.expect_op(")")
        return G.subgroup_of(a)
    raise ParseError(f"unknown group {name!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# chain fixture files

@dataclass(frozen=True)
class Fixture:
    mode: str                 # 'forward' | 'backward'
    base: BaseDiffField
    chain: object             # PfaffianChain or NoetherianSystem
    element: object = None    # forward: expression in the chain ring
    ode: object = None        # forward: DiffRatFunc
    defining: object = None   # backward: DiffRatFunc in w
    assignments: tuple = ()   # backward


def parse_fixture_text(text):
    from .chains import NoetherianSystem, PfaffianChain

    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("fixture lines look like 'key: value'", lineno, 1)
        key, _, value = line.partition(":")
        entries.append((key.strip(), value.strip(), lineno))

    decl = FieldDecl(None, None, None)
    declared_var = None
    noetherian = False
    for key, value, lineno in entries:
        if key == "field":
            decl = parse_field_decl_text(value)
        elif key == "var":
            if value not in ("t", "z"):
                raise ParseError("the independent variable must be t or z", lineno, 1)
            declared_var = value
        elif key == "system":
            if value != "noetherian":
                raise ParseError("system must be 'noetherian' when given", lineno, 1)
            noetherian = True

    exclude = {decl.gen_name} if decl.gen_name else set()
    body_tokens = []
    for key, value, _ in entries:
        if key in ("rule", "defining", "assign", "element", "ode"):
            body_tokens.extend(tokenize(value)[:-1])
    var = declared_var or decl.var or _detect_var(body_tokens, exclude)
    base = BaseDiffField(decl.field, var)

    rules_text = [(v, ln) for k, v, ln in entries if k == "rule"]
    ring = []
    heads = []
    for i, (value, lineno) in enumerate(rules_text):
        stream = _Stream(tokenize(value))
        head = stream.next()
        if head.kind != "name" or head.primes != 1:
            raise ParseError(f"rule {i + 1} must look like name' = ...", lineno, 1)
        if not noetherian and head.value != f"y{i + 1}":
            raise ParseError(f"rule {i + 1} must define y{i + 1}'", lineno, 1)
        if head.value in ring:
            raise ParseError(f"rule variable {head.value!r} repeated", lineno, 1)
        ring.append(head.value)
        heads.append((stream, lineno))
    ring = tuple(ring)
    ctx_chain = EvalContext(base=base, ring=ring, gen_name=decl.gen_name)

    rules = []
    for stream, lineno in heads:
        stream.expect_op("=")
        node = parse_expr(stream)
        stream.expect_end()
        rules.append(eval_ratfunc(node, ctx_chain))
    kind = "polynomial"
    converted = []
    for r in rules:
        p = r.as_polynomial()
        if p is None:
            kind = "rational"
            break
    for r in rules:
        if kind == "polynomial":
            converted.append(r.as_polynomial())
        else:
            converted.append(r)
    if noetherian:
        if kind != "polynomial":
            raise ParseError("an unconstrained system needs polynomial rules", 1, 1)
        chain = NoetherianSystem(base, converted, ring)
    else:
        chain = PfaffianChain(base, kind, converted, ring).validate()

    defining = None
    assignments = []
    element = None
    ode = None
    for key, value, lineno in entries:
        if key == "defining":
            stream = _Stream(tokenize(value))
            head = stream.next()
            if head.kind != "name" or head.primes != 1:
                raise ParseError("the defining line looks like w' = g(w)", lineno, 1)
            wname = head.value
            stream.expect_op("=")
            node = parse_expr(stream)
            ctx_w = EvalContext(base=base, ring=(wname,), gen_name=decl.gen_name)
            defining = eval_ratfunc(node, ctx_w)
        elif key == "assign":
            stream = _Stream(tokenize(value))
            if (
                stream.peek().kind == "name"
                and stream.tokens[stream.pos + 1].kind == "op"
                and stream.tokens[stream.pos + 1].value == "="
            ):
                stream.next()
                stream.next()
            node = parse_expr(stream)
            stream.expect_end()
            assignments.append((node, lineno))
        elif key == "element":
            node = parse_expression_text(value)
            element = eval_ratfunc(node, ctx_chain)
        elif key == "ode":
            ode = parse_ode_in_base(value, base, decl.gen_name)

    if defining is not None:
        wname = _defining_var(defining)
        ctx_w = EvalContext(base=base, ring=(wname,), gen_name=decl.gen_name)
        done = [eval_ratfunc(node, ctx_w) for node, _ in assignments]
        return Fixture(
            mode="backward", base=base, chain=chain,
            defining=defining, assignments=tuple(done),
        )
    if element is None or ode is None:
        raise ParseError(
            "a forward fixture needs 'element:' and 'ode:' lines; a backward "
            "fixture needs 'defining:' and 'assign:' lines", 1, 1,
        )
    if noetherian:
        raise ParseError(
            "forward verification runs against triangular chains only", 1, 1
        )
    return Fixture(mode="forward", base=base, chain=chain, element=element, ode=ode)


def _defining_var(g):
    used = g.num.used_variables() | g.den.used_variables()
    return used.pop() if used else g.variables[0]


def parse_ode_in_base(text, base, gen_name, varname="y"):
    stream = _Stream(tokenize(text))
    head = stream.next()
    if head.kind != "name" or head.value != varname or head.primes != 1:
        raise ParseError(f"expected {varname}' = ...", head.line, head.col)
    stream.expect_op("=")
    node = parse_expr(stream)
    stream.expect_end()
    ctx = EvalContext(base=base, ring=(varname,), gen_name=gen_name)
    return eval_ratfunc(node, ctx)
