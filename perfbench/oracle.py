"""Independent checks of every distinct output, run after the timed loop.

The checks use sympy (installed for tests and benchmarks only; pfaffkit
itself stays dependency-free) and the data each input was built from:

* classify-ode: the rational chain must equal f; a ``yes`` certificate is
  re-derived (D h(b) with b' = P(b) must equal f(h(b))); ``no`` needs the
  degree window and pairwise irrational residue ratios of 1/f, and is
  required when those hold and pfaffkit's documented factoring reaches
  every zero and pole; behind every ``no``, pfaffkit's residues must equal
  sympy's ``residue``.
* chain-verify / verify_backward: ``pass``/``fail`` as the input was built.
* group-check: eulerian agrees with d-solvable:2 where both are definite,
  and eulerian ``yes`` implies 1-reducible ``yes``.
* classify-linear / logderiv-reduce: the reduction equals
  sum a_k * y^(k)/y for y = exp(U), u = U', derived by sympy.

Certificates and reductions are checked as the exact objects the
envelope was printed from (``capture.py``), and the envelope must print
exactly those objects.  Each printed string is then read back on its
own: one that means another value is a misprint.  Misprints are
reported beside the failures but do not fail the operation, because the
result behind them is right; see README.md.

``check(ops, outputs, facts)`` gives (problems, misprints), each a map
from op index to a list of messages.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from functools import lru_cache

import sympy as sp
from sympy import QQ
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

T = sp.Symbol("t")


def _q(q):
    return sp.Rational(q.numerator, q.denominator)


def _parse(text, names):
    return parse_expr(text.replace("^", "**"), local_dict=names,
                      transformations=standard_transformations)


# ---------------------------------------------------------------------------
# classify-ode, in sympy's sparse rational function fields over QQ.  The
# generator r of Q(r: r^2-2) is one more indeterminate; an identity holds
# in Q(sqrt 2) when its numerator vanishes modulo r^2 - 2.

@lru_cache(maxsize=None)
def _field(names):
    """(y_1 .. y_k, r) generators of QQ(names, r)."""
    return sp.field(",".join(names + ("r",)), QQ)[1:]


def _eval(text, gens):
    """Evaluate a pfaffkit expression string in the field of ``gens``."""
    if not re.fullmatch(r"[\w\s+\-*/^()']*", text):
        raise ValueError(f"unexpected characters in {text!r}")
    names = {str(g): g for g in gens}
    # integer literals become exact rationals, except exponents
    text = re.sub(r"(?<![\w*])(\d+)", r"QQ(\1)", text.replace("^", "**"))
    return eval(text, {"QQ": QQ, "__builtins__": {}}, names)  # noqa: S307 -- digits, names, + - * / ( )


def _vanishes(e, r):
    return not e.numer.rem([r.numer ** 2 - 2])


def _scalar(s, r):
    """a + b*r for ``s`` = (a, b); ``r`` is a field or a ring generator."""
    return QQ(s[0].numerator, s[0].denominator) + QQ(s[1].numerator, s[1].denominator) * r


def _f(meta, v, r):
    out = _scalar(meta["leading"], r)
    for s, m in meta["zeros"]:
        out *= (v - _scalar(s, r)) ** m
    for s, m in meta["poles"]:
        out /= (v - _scalar(s, r)) ** m
    return out


def _coords(p, r):
    """(a, b) of a polynomial a + b*r after reduction modulo r^2 - 2."""
    terms = dict(p.rem([r.numer ** 2 - 2]).terms())
    return terms.get((0, 0), QQ(0)), terms.get((0, 1), QQ(0))


def _simple_residues(meta):
    """Residues of 1/f = D/N at the simple zeros a of f: (a, b) of D(a)/N'(a)."""
    y, r = _field(("y",))
    f = _f(meta, y, r)
    N, D = f.numer, f.denom
    dN = N.diff(y.numer)
    out = []
    for s, _ in meta["zeros"]:
        at = _scalar(s, r.numer)
        n0, n1 = _coords(D.compose(y.numer, at), r)
        d0, d1 = _coords(dN.compose(y.numer, at), r)
        norm = d0 ** 2 - 2 * d1 ** 2
        out.append(((n0 * d0 - 2 * n1 * d1) / norm, (n1 * d0 - n0 * d1) / norm))
    return [(Fraction(int(a.numerator), int(a.denominator)),
             Fraction(int(b.numerator), int(b.denominator))) for a, b in out]


def refutation_holds(meta):
    """Degree window and pairwise irrational residue ratios, decided by sympy."""
    zeros, poles = meta["zeros"], meta["poles"]
    n = sum(m for _, m in zeros)
    m = sum(k for _, k in poles)
    window = len({s for s, _ in poles}) >= 2 or 0 < m < n - 2
    if not window or len(zeros) < 2 or any(mult > 1 for _, mult in zeros):
        return False
    vals = _simple_residues(meta)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            (a, b), (c, d) = vals[i], vals[j]
            if b * c - a * d == 0:  # (a + b r)/(c + d r) is rational
                return False
    return True


def factorable(meta):
    """Whether pfaffkit's documented factoring reaches every zero and pole.

    Rational roots are peeled at any degree and an irreducible rest of
    degree <= 2 is split exactly; beyond that the equation must be given
    in factored form, and the refutation cannot run from the text.
    """
    return all(sum(1 for s, _ in items if s[1]) <= 2 for items in (meta["zeros"], meta["poles"]))


def _pfaffkit_residues(meta):
    import pfaffkit as pk
    from pfaffkit.criteria import FactoredRatFunc, residues_of_inverse

    field = pk.nf_new([-2, 0, 1], name="r") if meta["over_r"] else None

    def scalar(s):
        if field is None:
            return pk.AlgebraicScalar.rational(s[0])
        return field.scalar(s[0], s[1])

    fr = FactoredRatFunc(
        leading=scalar(meta["leading"]),
        zeros=tuple((scalar(s), m) for s, m in meta["zeros"]),
        poles=tuple((scalar(s), m) for s, m in meta["poles"]),
    )
    return [(c.coords[0], c.coords[1] if len(c.coords) > 1 else Fraction(0))
            for c in (e.residue for e in residues_of_inverse(fr).entries)]


def _exact(pl, names, scalar):
    """Value of a ``capture.plain`` tuple or its repr.

    ``names`` maps variable names, t and u0.. to values; ``scalar`` maps
    coordinate pairs to values.
    """
    if isinstance(pl, str):
        pl = ast.literal_eval(pl)
    tag = pl[0]
    if tag == "s":
        return scalar(pl[1])
    if tag == "t":
        num, den = (sum((_exact(c, names, scalar) * names["t"] ** k for k, c in enumerate(cs)),
                        scalar(((0, 1),))) for cs in pl[1:])
        return num / den
    if tag == "f":
        return _exact(pl[1], names, scalar) / _exact(pl[2], names, scalar)
    if tag == "p":
        monos = [(zip(pl[1], e), c) for e, c in pl[2]]
    else:
        monos = [(((f"u{j}", k) for j, k in enumerate(e)), c) for e, c in pl[1]]
    out = scalar(((0, 1),))
    for powers, c in monos:
        term = _exact(c, names, scalar)
        for v, k in powers:
            term *= names[v] ** k
        out += term
    return out


def _rhs(text):
    """Right-hand side of a chain rule ``yk' = ...``; an element as it is."""
    head, eq, rhs = text.partition("=")
    return rhs if eq and head.strip().endswith("'") else text


def _read_back(printed, gens, scalar):
    """Misprints among printed ``(text, plain)`` pairs: texts that mean another value."""
    out = []
    for text, pl in printed:
        try:
            value = _eval(_rhs(text), gens)
        except (ValueError, SyntaxError, TypeError, ZeroDivisionError) as exc:
            out.append(f"{text!r} cannot be read back: {type(exc).__name__}: {exc}")
            continue
        if not _vanishes(value - _exact(pl, {str(g): g for g in gens}, scalar), gens[-1]):
            out.append(f"{text!r} reads as another value than the one it prints")
    return out


def _field_scalar(r):
    zero = r * 0
    return lambda coords: sum((QQ(n, d) * r ** i for i, (n, d) in enumerate(coords)), zero)


def check_classify_ode(meta, doc, facts):
    """(problems, misprints) of one classify-ode envelope and the verdict behind it.

    The verdict and its certificates are checked as the exact objects the
    envelope was printed from (``facts``, see ``capture.facts``); the
    envelope must state that verdict and print those objects.  Misprints
    are printed certificate lines that read back as another value.
    """
    if facts is None:
        return ["no library result behind the envelope"], []
    problems, misprints = [], []
    y1, r = _field(("y1",))
    certs = doc.get("certificates", {})
    if doc["verdicts"] != facts["verdicts"]:
        problems.append(f"envelope verdicts {doc['verdicts']} are not the library's {facts['verdicts']}")
    for key in ("rational_chain", "pfaffian_chain", "element"):
        if key not in facts:
            printed = None
        elif key == "element":
            printed = facts[key][0]
        else:
            printed = [line for line, _ in facts[key]]
        if certs.get(key) != printed:
            problems.append(f"envelope {key} {certs.get(key)} does not print the library's {printed}")
    if facts["verdicts"]["rationally_pfaffian"] != "yes":
        problems.append("rationally_pfaffian is not yes")
    rational = facts.get("rational_chain", [])
    scalar = _field_scalar(r)
    if len(rational) != 1 or not _vanishes(
            _exact(rational[0][1], {"y1": y1}, scalar) - _f(meta, y1, r), r):
        problems.append(f"rational chain {[line for line, _ in rational]} is not y1' = f(y1)")
    misprints += _read_back(rational, (y1, r), scalar)

    verdict = facts["verdicts"]["pfaffian"]
    if not meta["poles"]:
        expected = ("yes",)
    elif not refutation_holds(meta):
        expected = ("yes", "unknown")
    elif factorable(meta):
        expected = ("no",)
    else:
        expected = ("no", "yes", "unknown")
    if verdict not in expected:
        problems.append(f"pfaffian verdict {verdict}, expected one of {expected}")

    if verdict == "yes" and "element" not in facts:
        problems.append("yes without a certificate")
    elif verdict == "yes":
        chain = facts["pfaffian_chain"]
        *ys, r = _field(tuple(f"y{k}" for k in range(1, len(chain) + 1)))
        names, scalar = {str(v): v for v in ys}, _field_scalar(r)
        rules = [_exact(pl, names, scalar) for _, pl in chain]
        text, element = facts["element"]
        h = _exact(element, names, scalar)
        dh = sum((h.diff(v) * p for v, p in zip(ys, rules)), h * 0)
        if not _vanishes(dh - _f(meta, h, r), r):
            problems.append(f"certificate {[line for line, _ in chain]} with element {text} "
                            "does not satisfy D(h) = f(h)")
        misprints += _read_back([*chain, (text, element)], (*ys, r), scalar)
    elif verdict == "no":
        crit = doc["criteria"][0] if doc.get("criteria") else {}
        data = crit.get("data", {})
        zero_deg = sum(m for _, m in meta["zeros"])
        pole_deg = sum(m for _, m in meta["poles"])
        distinct = len({s for s, _ in meta["poles"]})
        if crit.get("name") != "degree+disintegration" or (
            data.get("zero_degree"), data.get("pole_degree"), data.get("distinct_poles")
        ) != (zero_deg, pole_deg, distinct):
            problems.append(f"criterion data {crit} does not match the degree window")
        ours, theirs = _pfaffkit_residues(meta), _simple_residues(meta)
        if ours != theirs:
            problems.append(f"residues {ours} differ from sympy's {theirs}")
    return problems, misprints


# ---------------------------------------------------------------------------
# groups-linear

def check_group_trees(entries):
    """``entries``: {allowed: (index, doc)} for one tree; returns {index: problems}."""
    out = {}
    verdict = {a: doc["verdict"] for a, (_, doc) in entries.items()}
    e, s2, one = verdict["eulerian"], verdict["d-solvable:2"], verdict["1-reducible"]
    if e in ("yes", "no") and s2 in ("yes", "no") and e != s2:
        msg = f"eulerian {e} but d-solvable:2 {s2}"
        for a in ("eulerian", "d-solvable:2"):
            out.setdefault(entries[a][0], []).append(msg)
    if e == "yes" and one != "yes":
        msg = f"eulerian yes but 1-reducible {one}"
        for a in ("eulerian", "1-reducible"):
            out.setdefault(entries[a][0], []).append(msg)
    for a, (i, doc) in entries.items():
        if verdict[a] == "yes" and not doc.get("witness"):
            out.setdefault(i, []).append("yes without a series witness")
        if verdict[a] == "no" and not doc.get("obstruction"):
            out.setdefault(i, []).append("no without an obstruction")
    return out


@lru_cache(maxsize=None)
def _logderiv_terms(k):
    """y^(k)/y for y = exp(U) as a polynomial in u0 = U', u1 = U'', ..."""
    U = sp.Function("U")(T)
    expr = sp.expand(sp.diff(sp.exp(U), T, k) * sp.exp(-U))
    subs = {sp.Derivative(U, (T, j)): sp.Symbol(f"u{j - 1}") for j in range(k, 1, -1)}
    subs[sp.Derivative(U, T)] = sp.Symbol("u0")
    return sp.expand(expr.subs(subs))


def _expected_reduction(coeffs):
    n = len(coeffs)
    total = _logderiv_terms(n)
    for k, cs in enumerate(coeffs):
        a = sum(_q(c) * T ** j for j, c in enumerate(cs))
        total += a * _logderiv_terms(k)
    return sp.expand(total)


def _parse_reduction(text):
    text = re.sub(r"u('*)", lambda m: f"u{len(m.group(1))}", text)
    names = {f"u{j}": sp.Symbol(f"u{j}") for j in range(8)}
    return _parse(text, {**names, "t": T})


def _sympy_scalar(coords):
    return sum((sp.Rational(n, d) * sp.Symbol("r") ** i for i, (n, d) in enumerate(coords)), sp.Integer(0))


def check_linear(meta, kind, doc, facts):
    """(problems, misprints) of one classify-linear or logderiv-reduce envelope.

    The reduction is checked as the exact object the envelope printed
    (``facts``); a printed reduction that reads back as another
    expression is a misprint.
    """
    if facts is None:
        return ["no library result behind the envelope"], []
    problems, misprints = [], []
    n = len(meta["coeffs"])
    text = doc["reduction"] if kind == "logderiv-reduce" else doc["logderiv_reduction"]
    printed, exact = facts["reduction"]
    if text != printed:
        problems.append(f"envelope reduction {text!r} does not print the library's {printed!r}")
    names = {f"u{j}": sp.Symbol(f"u{j}") for j in range(8)}
    value = _exact(exact, {**names, "t": T}, _sympy_scalar)
    if sp.expand(sp.together(value - _expected_reduction(meta["coeffs"]))) != 0:
        problems.append(f"reduction {printed!r} differs from sympy's derivation")
    try:
        if sp.expand(sp.together(_parse_reduction(text) - value)) != 0:
            misprints.append(f"{text!r} reads as another expression than the one it prints")
    except (SyntaxError, TypeError, ValueError) as exc:
        misprints.append(f"{text!r} cannot be read back: {type(exc).__name__}: {exc}")
    if kind == "logderiv-reduce" and doc["order"] != n - 1:
        problems.append(f"order {doc['order']}, expected {n - 1}")
    if kind == "classify-linear":
        gl = re.fullmatch(r"GL\((\d+)\)", meta["group"])
        window = None
        if gl and int(gl.group(1)) >= 3:
            k = int(gl.group(1))
            window = (k - 1, k - 2)
        got = doc["reducibility"]
        got = None if got is None else (got["reducible_at"], got["not_reducible_at"])
        if got != window:
            problems.append(f"reducibility window {got}, expected {window}")
    return problems, misprints


# ---------------------------------------------------------------------------

def check(ops, outputs, facts):
    """(problems, misprints) per op index.

    ``outputs`` maps index -> (code, doc, error) and ``facts`` index ->
    ``capture.facts`` of the same call.  Problems make an operation fail;
    misprints are envelope strings that misstate a result found correct.
    """
    problems, misprints = {}, {}
    trees = {}
    for i, (code, doc, error) in outputs.items():
        op = ops[i]
        if error is not None:
            problems[i] = [f"raised {error}"]
            continue
        if code != 0:
            problems[i] = [f"exit code {code}: {doc.get('error')}"]
            continue
        misprinted = []
        try:
            if op.kind == "classify-ode":
                found, misprinted = check_classify_ode(op.meta, doc, facts.get(i))
            elif op.kind in ("chain-verify", "verify-backward"):
                found = [] if doc["result"] == op.meta["expected"] else [
                    f"result {doc['result']}, expected {op.meta['expected']}"]
            elif op.kind == "group-check":
                trees.setdefault(op.meta["tree"], {})[op.meta["allowed"]] = (i, doc)
                found = []
            else:
                found, misprinted = check_linear(op.meta, op.kind, doc, facts.get(i))
        except (KeyError, TypeError, ValueError, SyntaxError, ZeroDivisionError) as exc:
            found = [f"output cannot be checked: {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
        if misprinted:
            misprints[i] = misprinted
    for entries in trees.values():
        if len(entries) == 4:
            for i, found in check_group_trees(entries).items():
                problems.setdefault(i, []).extend(found)
    return problems, misprints
