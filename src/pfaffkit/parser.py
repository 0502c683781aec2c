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

Field declarations: ``Q``, ``Q(t)``, ``Q(r: r^2-2)``, ``Q(r: r^2-2, z)``,
with at most one generator and at most one independent variable.
Group expressions: ``Ga | Gm | GaxGm | SL(n) | GL(n) | PSL(n) | PGL(n)
| T(k) | E | Fin | Prod(g, ...) | Ext(g, g) | Sub(g)``.

One reader, ``_parse_rule``, reads every ``v' = expr`` line: the
command-line equation and the fixture ``rule:``, ``defining:`` and
``ode:`` lines.  A fixture file is read in one pass that parses each line
to an AST; the values are evaluated once the base field is known.  Its
keys are closed, and every key but ``rule`` and ``assign`` appears at
most once.
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
from .chains import PfaffianChain
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


def tokenize(text, line=1, col=1):
    """Tokens of ``text``, whose first character is at ``line`` and ``col``."""
    toks = []
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


def _ring_combine(raise_to, divide):
    """``combine`` for ``_fold`` on values with their own ``-x``, ``+``, ``-``
    and ``*``; each evaluator gives ``a^e`` as ``raise_to(a, e)`` and ``a/b``
    at node ``n`` as ``divide(n, a, b)``."""

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

    return combine


def eval_ratfunc(node, ctx):
    """Evaluate an AST to a DiffRatFunc in the context's ring."""
    # Numbers, the field generator and t are elements of the base field, and
    # so is every operation on two of them.  A value that meets a ring
    # variable is a DiffPoly, and stays one through sums, products, powers
    # and division by a nonzero constant; only division by a non-constant
    # polynomial makes a DiffRatFunc.  A polynomial is a fraction over 1,
    # already in lowest terms and with a denominator whose leading
    # coefficient is 1, so this gives the fraction that reducing every
    # subtree would.  Once a value is a fraction, parsing, unlike
    # substitution (``diffalg.cleared_pair``), reduces after every
    # operation: a sum of many fractions over one denominator, such as
    # 1/(y+1) + ... + 1/(y+1), then keeps that one denominator, where
    # unreduced pairs would multiply all of them together.
    base, ring = ctx.base, ctx.ring

    def poly(v):
        return v if isinstance(v, DiffPoly) else DiffPoly.const(base, ring, v)

    def lift(v):
        return v if isinstance(v, DiffRatFunc) else DiffRatFunc.from_poly(poly(v))

    def leaf(n):
        if isinstance(n, Num):
            return base.coerce(n.value)
        if n.primes:
            raise ParseError(
                f"derivatives of {n.name} are not allowed here", n.line, n.col
            )
        if n.name in ring:
            return DiffPoly.var(base, ring, n.name)
        if n.name == ctx.gen_name and ctx.gen_name is not None:
            return base.coerce(base.field.gen())
        if n.name == base.var:
            return base.coerce(base.gen())
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def divide(n, lhs, rhs):
        if rhs.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        if not isinstance(rhs, DiffPoly):
            return lhs / rhs
        if rhs.is_constant():
            return lhs * rhs.constant_coefficient().inverse()
        return DiffRatFunc(lhs, rhs)

    fold = _ring_combine(pow, divide)

    def combine(n, a, b=None):
        # both operands take the wider kind: base element, DiffPoly, DiffRatFunc
        if isinstance(a, DiffRatFunc) or isinstance(b, DiffRatFunc):
            a, b = lift(a), b if b is None else lift(b)
        elif isinstance(a, DiffPoly) or isinstance(b, DiffPoly):
            a, b = poly(a), b if b is None else poly(b)
        return fold(n, a, b)

    return lift(_fold(node, leaf, combine))


def eval_linear(node, ctx, yname="y"):
    """Evaluate an AST as a linear form in y, y', y'', ... over the base: a
    DiffIndeterminateExpr whose slot k stands for y^(k)."""
    return _eval_indeterminate(node, ctx.base, yname, ctx.gen_name, linear=True)


def eval_uexpr(node, base):
    """Evaluate an AST as an expression in u, u', u'', ... over the base."""
    return _eval_indeterminate(node, base, "u")


def _eval_indeterminate(node, base, name, gen_name=None, linear=False):
    """A DiffIndeterminateExpr whose slot k stands for ``name`` with k primes.

    When ``linear``, a product of two factors that involve ``name``, or such
    a factor raised to a power other than 1, is a ParseError at its node.
    """

    def const(c):
        return DiffIndeterminateExpr.const(base, c)

    def leaf(n):
        if isinstance(n, Num):
            return const(n.value)
        if n.name == name:
            return DiffIndeterminateExpr.u(base, n.primes)
        if n.primes:
            raise ParseError(f"cannot differentiate {n.name!r}", n.line, n.col)
        if n.name == gen_name:
            return const(base.field.gen())
        if n.name == base.var:
            return const(base.gen())
        raise ParseError(f"unknown identifier {n.name!r}", n.line, n.col)

    def raise_to(a, e):
        return power(const(1), a, e)

    def divide(n, a, b):
        if b.order() >= 0:
            raise ParseError(f"cannot divide by {name}", n.line, n.col)
        c = b.terms.get((), base.zero())
        if c.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        inv = c.inverse()
        return DiffIndeterminateExpr(base, {e: c2 * inv for e, c2 in a.terms.items()})

    ring = _ring_combine(raise_to, divide)

    def combine(n, a, b=None):
        if linear and isinstance(n, Bin) and a.order() >= 0 and (
            (n.op == "*" and b.order() >= 0)
            or (n.op == "^" and _int_exponent(n.right) != 1)
        ):
            raise ParseError(f"the equation must be linear in {name}", n.line, n.col)
        return ring(n, a, b)

    return _fold(node, leaf, combine)


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
        if b.is_zero():
            raise ParseError("division by zero", n.line, n.col)
        if not b.is_constant():
            raise ParseError("division by a non-constant", n.line, n.col)
        return a * b.constant_value().inverse()

    return _fold(node, leaf, _ring_combine(pow, divide))


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
                if gen_name is not None:
                    raise ParseError("a second generator in a field declaration", t.line, t.col)
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
                if var is not None:
                    raise ParseError(
                        "a second independent variable in a field declaration", t.line, t.col
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


def _base_from(tokens, decl, var=None):
    """The base field of ``decl``; the independent variable is ``var``, else
    the declared one, else the first ``t`` or ``z`` among ``tokens``."""
    var = var or decl.var or next((
        t.value for t in tokens
        if t.kind == "name" and t.value in ("t", "z") and t.value != decl.gen_name
    ), None)
    return BaseDiffField(decl.field, var)


def _parse_rule(stream, bad_head, name=None):
    """Read ``v' = <expr>`` up to the end of ``stream``: (head token, AST).

    The head is a name with one prime, and ``name`` itself when given;
    otherwise the ParseError ``bad_head(head)`` is raised, so that each
    caller keeps its own message and position.
    """
    head = stream.next()
    if head.kind != "name" or head.primes != 1 or name not in (None, head.value):
        raise bad_head(head)
    stream.expect_op("=")
    node = parse_expr(stream)
    stream.expect_end()
    return head, node


def _split_text(text):
    """``<body> [over <decl>]`` as a stream over the body, the FieldDecl and the base."""
    tokens = tokenize(text)
    body, decl_tokens = _split_over(tokens)
    decl = _parse_decl_tokens(decl_tokens)
    return _Stream(body + [tokens[-1]]), decl, _base_from(body, decl)


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
    stream, decl, base = _split_text(text)
    if equation:
        _, node = _parse_rule(stream, lambda head: ParseError(
            f"an order-one equation starts with {varname}'",
            head.line, head.col, expected=[f"{varname}'"],
        ), varname)
    else:
        node = parse_expr(stream)
        stream.expect_end()
    f = eval_ratfunc(node, EvalContext(base, (varname,), decl.gen_name))
    return OdeSpec(f=f, base=base, gen_name=decl.gen_name, varname=varname)


@dataclass(frozen=True)
class LinearSpec:
    coeffs: tuple      # a_0 .. a_n, base elements
    base: BaseDiffField
    gen_name: str | None


def parse_linear_text(text, yname="y"):
    """Parse a monic linear equation ``... = 0`` into its coefficient list."""
    stream, decl, base = _split_text(text)
    node = parse_expr(stream)
    t = stream.next()
    if t.kind != "op" or t.value != "=":
        raise ParseError(f"unexpected {describe(t)}", t.line, t.col, expected=["'='"])
    zero = stream.next()
    if zero.kind != "number" or zero.value != 0:
        raise ParseError("a linear equation must end in '= 0'", zero.line, zero.col)
    stream.expect_end()
    form = eval_linear(node, EvalContext(base, (), decl.gen_name), yname=yname)
    order = form.order()
    if order < 0:
        raise ParseError("the equation does not involve y", 1, 1)
    if () in form.terms:
        raise ParseError("the equation must be homogeneous linear in y", 1, 1)
    coeffs = [form.terms.get((0,) * k + (1,), base.zero()) for k in range(order + 1)]
    return LinearSpec(coeffs=tuple(coeffs), base=base, gen_name=decl.gen_name)


# ---------------------------------------------------------------------------
# group expressions

def parse_group_text(text):
    stream = _Stream(tokenize(text))
    g = _parse_group(stream)
    stream.expect_end()
    return g


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
    if name in G.ATOMS:
        return G.ATOMS[name]()
    if name in G.RANKED_ATOMS:
        stream.expect_op("(")
        n = stream.next()
        if n.kind != "number":
            raise ParseError(f"unexpected {describe(n)}", n.line, n.col, expected=["integer"])
        stream.expect_op(")")
        return G.RANKED_ATOMS[name](n.value)
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
    chain: object             # PfaffianChain of any kind
    element: object = None    # forward: expression in the chain ring
    ode: object = None        # forward: DiffRatFunc
    defining: object = None   # backward: DiffRatFunc in w
    assignments: tuple = ()   # backward


_FIXTURE_KEYS = ("field", "var", "system", "rule", "defining", "assign", "element", "ode")


def parse_fixture_text(text):
    """Read a fixture: each line is parsed on the way, then evaluated in its ring.

    Keys are closed; ``rule:`` and ``assign:`` may repeat and every other
    key appears at most once.  The base field is known only after the last
    line, so values are kept as ASTs until then.
    """
    single, where, rules, assigns, body_tokens = {}, {}, [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("fixture lines look like 'key: value'", lineno, 1)
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key not in _FIXTURE_KEYS:
            raise ParseError(
                f"unknown fixture key {key!r}", lineno, 1, expected=_FIXTURE_KEYS
            )
        if key in single:
            raise ParseError(f"a second {key!r} line", lineno, 1)
        where[key] = lineno
        # tokens carry their place in the file, not in the value
        after = raw[raw.index(":") + 1:]
        col = raw.index(":") + 2 + len(after) - len(after.lstrip())
        if key == "field":
            single[key] = _parse_decl_tokens(tokenize(value, lineno, col), context="")
            continue
        if key == "var":
            if value not in ("t", "z"):
                raise ParseError("the independent variable must be t or z", lineno, 1)
            single[key] = value
            continue
        if key == "system":
            if value != "noetherian":
                raise ParseError("system must be 'noetherian' when given", lineno, 1)
            single[key] = value
            continue
        tokens = tokenize(value, lineno, col)
        body_tokens.extend(tokens[:-1])
        stream = _Stream(tokens)
        if key == "rule":
            i = len(rules) + 1
            head, node = _parse_rule(stream, lambda head: ParseError(
                f"rule {i} must look like name' = ...", lineno, 1,
            ))
            rules.append((head, node, lineno))
        elif key == "defining":
            single[key] = _parse_rule(stream, lambda head: ParseError(
                "the defining line looks like w' = g(w)", lineno, 1,
            ))
        elif key == "ode":
            single[key] = _parse_rule(stream, lambda head: ParseError(
                "expected y' = ...", head.line, head.col,
            ), "y")
        elif key == "element":
            single[key] = parse_expr(stream)
            stream.expect_end()
        else:
            # an assignment may be named: 'assign: y1 = ...'
            named = None
            if tokens[0].kind == "name" and tokens[1].kind == "op" and tokens[1].value == "=":
                named = stream.next()
                stream.next()
            node = parse_expr(stream)
            stream.expect_end()
            assigns.append((named, node, lineno))

    # the lines of the other mode are errors, not ignored
    if "defining" in single:
        for key in ("element", "ode"):
            if key in single:
                raise ParseError(f"a backward fixture has no {key!r} line", where[key], 1)
    elif assigns:
        raise ParseError("an 'assign' line needs a 'defining' line", assigns[0][2], 1)

    decl = single.get("field", FieldDecl(None, None, None))
    noetherian = "system" in single
    base = _base_from(body_tokens, decl, single.get("var"))

    def evaluate(node, ring):
        return eval_ratfunc(node, EvalContext(base=base, ring=ring, gen_name=decl.gen_name))

    ring = []
    for i, (head, _, lineno) in enumerate(rules, start=1):
        if not noetherian and head.value != f"y{i}":
            raise ParseError(f"rule {i} must define y{i}'", lineno, 1)
        if head.value in ring:
            raise ParseError(f"rule variable {head.value!r} repeated", lineno, 1)
        ring.append(head.value)
    ring = tuple(ring)
    rules = [evaluate(node, ring) for _, node, _ in rules]
    polys = [r.as_polynomial() for r in rules]
    kind = "rational" if any(p is None for p in polys) else "polynomial"
    if kind == "polynomial":
        rules = polys
    if noetherian and kind != "polynomial":
        raise ParseError("an unconstrained system needs polynomial rules", 1, 1)
    chain = PfaffianChain(base, "noetherian" if noetherian else kind, rules, ring)

    if "defining" in single:
        head, node = single["defining"]
        w_ring = (head.value,)
        defining = evaluate(node, w_ring)
        assignments = []
        for k, (named, node, lineno) in enumerate(assigns, start=1):
            if named is not None and k <= len(ring) and (named.primes or named.value != ring[k - 1]):
                raise ParseError(
                    f"assignment {k} must name {ring[k - 1]}, the variable of rule {k}",
                    lineno, 1,
                )
            assignments.append(evaluate(node, w_ring))
        return Fixture(
            mode="backward", base=base, chain=chain,
            defining=defining, assignments=tuple(assignments),
        )
    if "element" not in single or "ode" not in single:
        raise ParseError(
            "a forward fixture needs 'element:' and 'ode:' lines; a backward "
            "fixture needs 'defining:' and 'assign:' lines", 1, 1,
        )
    if noetherian:
        raise ParseError(
            "forward verification runs against triangular chains only", 1, 1
        )
    return Fixture(
        mode="forward", base=base, chain=chain,
        element=evaluate(single["element"], ring), ode=evaluate(single["ode"][1], ("y",)),
    )
