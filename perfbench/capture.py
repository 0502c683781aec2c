"""The library results behind the checked cli envelopes.

An envelope carries certificates and reductions as printed strings.  The
output checks verify the exact objects they were printed from, and read
the strings back separately, so that a printing defect is told apart
from a wrong result.

``install()`` wraps the library call behind each checked command at the
name ``cli`` looks it up under: ``cli.classify_order_one``,
``cli.classify_linear``, and ``diffalg.riccati_reduce``, which
``logderiv-reduce`` imports when it runs.  The wrapper keeps only a
reference to the latest result.  ``take()`` hands it over and forgets it;
``facts()`` turns it into text after the operation's time is taken.
"""

from __future__ import annotations

import importlib

SITES = {
    "classify-ode": ("cli", "classify_order_one"),
    "classify-linear": ("cli", "classify_linear"),
    "logderiv-reduce": ("diffalg", "riccati_reduce"),
}

_latest = [None]


def _keep(fn):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        _latest[0] = result
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install():
    for mod_name, attr in SITES.values():
        mod = importlib.import_module(f"pfaffkit.{mod_name}")
        fn = getattr(mod, attr)
        if not hasattr(fn, "__wrapped__"):
            setattr(mod, attr, _keep(fn))


def take():
    """The latest captured result, which is then forgotten."""
    result, _latest[0] = _latest[0], None
    return result


def plain(x):
    """Exact value of a pfaffkit scalar, rational function or polynomial as tuples.

    ``("s", coords)`` for a scalar of Q or Q(r), each coordinate a
    (numerator, denominator) pair; ``("t", num, den)`` for
    an element of K(t), coefficients lowest degree first; ``("p",
    variables, terms)`` for a differential polynomial; ``("f", num,
    den)`` for a ratio of two; ``("u", terms)`` for a polynomial in u,
    u', u'', ... with exponent tuples indexed by derivative order.
    """
    from pfaffkit.diffalg import DiffIndeterminateExpr, DiffPoly, DiffRatFunc, RatFunc
    from pfaffkit.exactfield import AlgebraicScalar

    if isinstance(x, AlgebraicScalar):
        return ("s", tuple((c.numerator, c.denominator) for c in x.coords))
    if isinstance(x, RatFunc):
        return ("t", tuple(plain(c) for c in x.num.coeffs), tuple(plain(c) for c in x.den.coeffs))
    if isinstance(x, DiffPoly):
        return ("p", x.variables, tuple((e, plain(c)) for e, c in x.terms.items()))
    if isinstance(x, DiffRatFunc):
        return ("f", plain(x.num), plain(x.den))
    if isinstance(x, DiffIndeterminateExpr):
        return ("u", tuple((e, plain(c)) for e, c in x.terms.items()))
    raise TypeError(f"no plain form for {type(x).__name__}")


def _exact(x):
    # as the repr of its plain form: a run keeps the facts of every input it
    # reached, and tuples of Fraction would add megabytes to the peak memory
    # the benchmark reports
    return repr(plain(x))


def _chain(chain):
    return [(line, _exact(rule)) for line, rule in zip(chain.serialize(), chain.rules)]


def facts(kind, result):
    """What the checks need of ``result``: each printed form beside ``repr(plain(...))``.

    ``None`` when ``kind`` is not captured or the call returned nothing.
    """
    if kind not in SITES or result is None:
        return None
    if kind == "classify-ode":
        out = {"verdicts": {"pfaffian": result.pfaffian.value,
                            "rationally_pfaffian": result.rationally_pfaffian.value}}
        rp = result.rationally_pfaffian.payload
        if rp is not None:
            out["rational_chain"] = _chain(rp.chain)
        pf = result.pfaffian
        if pf.is_yes and pf.payload is not None:
            out["pfaffian_chain"] = _chain(pf.payload.chain)
            out["element"] = (str(pf.payload.element), _exact(pf.payload.element))
        return out
    reduction = result.logderiv_reduction if kind == "classify-linear" else result
    return {"reduction": (str(reduction), _exact(reduction))}
