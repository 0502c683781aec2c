"""Command dispatch and machine-readable verdict envelopes.

Every command writes a single JSON document to standard output (indented
when ``--pretty`` is given) and exits with 0 when a verdict was computed
(including Unknown), 1 on a parse or validation error, and 2 only if an
internal invariant broke.  Certificates are embedded in the chain
serialization format, so a positive verdict can be fed back through
``chain-verify``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import DivisionByZero, NoLinearFactorization, PfaffkitError
from .diffalg import to_unipoly
from .chains import (
    PresentationCertificate,
    rational_to_noetherian,
    search_presentation,
    verify_backward,
    verify_forward,
)
from .criteria import (
    classify_linear,
    classify_order_one,
    extract_factored,
    residues_of_inverse,
    PolynomialChainCertificate,
    RationalChainCertificate,
)
from .groups import (
    EULERIAN,
    ONE_REDUCIBLE_INTERNAL,
    check_series,
    d_solvable_set,
)
from .parser import (
    EvalContext,
    ParseError,
    eval_ratfunc,
    parse_expression_text,
    parse_fixture_text,
    parse_group_text,
    parse_linear_text,
    parse_ode_text,
    parse_ratfunc_text,
)

SCHEMA_VERSION = "1"


def _envelope(command, input_echo, **fields):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "input": input_echo}
    doc.update(fields)
    return doc


def _three_valued(tv):
    out = {"verdict": tv.value}
    if tv.is_yes and tv.witness:
        out["witness"] = list(tv.witness)
    if tv.reason:
        out["reason" if not tv.is_no else "obstruction"] = tv.reason
    return out


def _provenance(base):
    notes = []
    if base.field is not None and base.field.irreducibility_status == "asserted":
        notes.append(
            f"irreducibility of the defining polynomial of Q({base.field.name}) "
            "is asserted by the caller, not verified"
        )
    return notes


def _certificates_of(verdict):
    certs = {}
    rp = verdict.rationally_pfaffian
    if rp is not None and rp.payload is not None:
        cert = rp.payload
        if isinstance(cert, RationalChainCertificate):
            certs["rational_chain"] = cert.chain.serialize()
            certs["noetherian_system"] = cert.noetherian.serialize()
            certs["noetherian_assignments"] = [str(a) for a in cert.assignments]
    pf = verdict.pfaffian
    if pf.is_yes and pf.payload is not None:
        payload = pf.payload
        if isinstance(payload, (PolynomialChainCertificate, PresentationCertificate)):
            certs["pfaffian_chain"] = payload.chain.serialize()
            certs["element"] = str(payload.element)
        if isinstance(payload, PresentationCertificate):
            certs["presentation"] = {
                "h": payload.h_str(),
                "p": payload.p.str("x"),
            }
    return certs


def _criteria_of(verdict):
    crits = []
    pf = verdict.pfaffian
    if pf.is_no:
        data = pf.payload if isinstance(pf.payload, dict) else {}
        crits.append({
            "name": pf.reason,
            "data": {
                k: (v if isinstance(v, (int, str)) else _three_valued(v))
                for k, v in data.items()
            },
        })
    return crits


def cmd_classify_ode(args):
    spec = parse_ode_text(args.equation)
    verdict = classify_order_one(
        spec.f, degree_bound=args.bound, candidates=_parse_candidates(args, spec)
    )
    doc = _envelope(
        "classify-ode",
        args.equation,
        base=str(spec.base),
        verdicts={
            "pfaffian": verdict.pfaffian.value,
            "rationally_pfaffian": verdict.rationally_pfaffian.value,
        },
        criteria=_criteria_of(verdict),
        certificates=_certificates_of(verdict),
        reasons={
            "pfaffian": verdict.pfaffian.reason,
            "rationally_pfaffian": verdict.rationally_pfaffian.reason,
        },
        notes=list(verdict.notes),
        provenance=_provenance(spec.base),
    )
    return doc, 0


def cmd_classify_linear(args):
    spec = parse_linear_text(args.equation)
    group = parse_group_text(args.group)
    report = classify_linear(list(spec.coeffs), group, spec.base)
    doc = _envelope(
        "classify-linear",
        args.equation,
        base=str(spec.base),
        group=str(group),
        verdicts={"pfaffian": report.pfaffian.value},
        pfaffian=_three_valued(report.pfaffian),
        min_solvability_d=report.min_solvability_d,
        reducibility=(
            None
            if report.reducibility is None
            else {
                "reducible_at": report.reducibility.reducible_at,
                "not_reducible_at": report.reducibility.not_reducible_at,
                "notes": list(report.reducibility.notes),
            }
        ),
        logderiv_reduction=str(report.logderiv_reduction),
        provenance=_provenance(spec.base),
    )
    return doc, 0


def cmd_group_check(args):
    allowed = _parse_allowed(args.allowed)
    group = parse_group_text(args.group)
    tv = check_series(group, allowed)
    doc = _envelope(
        "group-check",
        args.group,
        allowed=str(allowed),
        **_three_valued(tv),
    )
    return doc, 0


def _parse_allowed(text):
    if text == "eulerian":
        return EULERIAN
    if text == "1-reducible":
        return ONE_REDUCIBLE_INTERNAL
    if text.startswith("d-solvable:"):
        try:
            d = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad d-solvable level in {text!r}") from None
        return d_solvable_set(d)
    raise ParseError(
        f"unknown allowed set {text!r}; use eulerian, 1-reducible or d-solvable:<d>"
    )


def cmd_chain_verify(args):
    with open(args.fixture, "r", encoding="utf-8") as fh:
        text = fh.read()
    fixture = parse_fixture_text(text)
    if fixture.mode != args.mode:
        raise ParseError(
            f"the fixture file describes a {fixture.mode} check, not {args.mode}"
        )
    if fixture.mode == "forward":
        result = verify_forward(fixture.chain, fixture.element, fixture.ode)
    else:
        result = verify_backward(fixture.defining, list(fixture.assignments), fixture.chain)
    doc = _envelope(
        "chain-verify",
        args.fixture,
        mode=fixture.mode,
        chain=fixture.chain.serialize(),
        result="pass" if result.ok else "fail",
        **(
            {}
            if result.ok
            else {
                "rule_index": result.index,
                "witness": str(result.witness),
            }
        ),
    )
    return doc, 0


def cmd_noetherianize(args):
    spec = parse_ode_text(args.equation)
    system = rational_to_noetherian(spec.f.num, spec.f.den)
    doc = _envelope(
        "noetherianize",
        args.equation,
        base=str(spec.base),
        variables=list(system.variables),
        noetherian_system=system.serialize(),
        provenance=_provenance(spec.base),
    )
    return doc, 0


def cmd_residues(args):
    spec = parse_ratfunc_text(args.function)
    f, base = spec.f, spec.base
    if base.var is not None:
        raise ParseError("residue data is computed over constant coefficients")
    if f.num.is_zero():
        raise DivisionByZero("dx/f is undefined for f = 0")
    factored = extract_factored(f)
    if factored is None:
        raise NoLinearFactorization(
            "no full linear factorization over the declared field; supply the "
            "function as a product of linear factors"
        )
    data = residues_of_inverse(factored)
    total = data.at_infinity
    for e in data.entries:
        if e.residue is not None:
            total = total + e.residue
    doc = _envelope(
        "residues",
        args.function,
        base=str(base),
        entries=[
            {
                "pole": str(e.pole),
                "order": e.order,
                "residue": None if e.residue is None else str(e.residue),
            }
            for e in data.entries
        ],
        at_infinity=str(data.at_infinity),
        residue_sum_zero=bool(data.all_simple and total.is_zero()),
        provenance=_provenance(base),
    )
    return doc, 0


def cmd_logderiv_reduce(args):
    # looked up on each call, not bound at import: perfbench/capture.py
    # replaces diffalg.riccati_reduce with a wrapper after this module is
    # loaded, and must see every call to take the result it checks
    from .diffalg import riccati_reduce

    spec = parse_linear_text(args.equation)
    reduction = riccati_reduce(list(spec.coeffs), spec.base)
    doc = _envelope(
        "logderiv-reduce",
        args.equation,
        base=str(spec.base),
        order=reduction.order(),
        reduction=str(reduction),
        provenance=_provenance(spec.base),
    )
    return doc, 0


def cmd_search_presentation(args):
    spec = parse_ode_text(args.equation)
    cert = search_presentation(
        spec.f, candidates=_parse_candidates(args, spec), degree_bound=args.bound
    )
    if cert is None:
        doc = _envelope(
            "search-presentation",
            args.equation,
            base=str(spec.base),
            found=False,
            note=(
                "no one-rule presentation exists; that does not refute the "
                "existence of a longer chain"
            ),
        )
        return doc, 0
    doc = _envelope(
        "search-presentation",
        args.equation,
        base=str(spec.base),
        found=True,
        presentation={"h": cert.h_str(), "p": cert.p.str("x")},
        chain=cert.chain.serialize(),
        element=str(cert.element),
        provenance=_provenance(spec.base),
    )
    return doc, 0


def _parse_candidates(args, spec):
    out = []
    for text in getattr(args, "candidate", None) or ():
        ctx = EvalContext(base=spec.base, ring=("x",), gen_name=spec.gen_name)
        h = eval_ratfunc(parse_expression_text(text), ctx)
        out.append((to_unipoly(h.num, "x"), to_unipoly(h.den, "x")))
    return out


@functools.lru_cache(maxsize=None)
def build_arg_parser():
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` leaves the parser as it was, so nothing one ``run``
    parses reaches the next; building it once spares each call the build
    and its garbage (argparse objects hold reference cycles).
    """
    ap = argparse.ArgumentParser(
        prog="pfaffkit",
        description=(
            "exact chain certificates and series criteria for algebraic ODEs"
        ),
    )
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify-ode", help="classify y' = f(y)")
    p.add_argument("equation")
    _presentation_options(p)
    p.set_defaults(func=cmd_classify_ode)

    p = sub.add_parser("classify-linear", help="classify a monic linear equation")
    p.add_argument("equation")
    p.add_argument("--group", required=True, help="declared symmetry group expression")
    p.set_defaults(func=cmd_classify_linear)

    p = sub.add_parser("group-check", help="series check for a group expression")
    p.add_argument("group")
    p.add_argument(
        "--allowed",
        required=True,
        help="eulerian | 1-reducible | d-solvable:<d>",
    )
    p.set_defaults(func=cmd_group_check)

    p = sub.add_parser("chain-verify", help="verify a chain fixture file")
    p.add_argument("fixture")
    p.add_argument("--mode", choices=("forward", "backward"), required=True)
    p.set_defaults(func=cmd_chain_verify)

    p = sub.add_parser("noetherianize", help="unconstrained system for y' = P(y)/Q(y)")
    p.add_argument("equation")
    p.set_defaults(func=cmd_noetherianize)

    p = sub.add_parser("residues", help="residue data of dx/f for factored f")
    p.add_argument("function")
    p.set_defaults(func=cmd_residues)

    p = sub.add_parser("logderiv-reduce", help="order-(n-1) reduction of a linear equation")
    p.add_argument("equation")
    p.set_defaults(func=cmd_logderiv_reduce)

    p = sub.add_parser("search-presentation", help="look for a one-rule chain presentation")
    p.add_argument("equation")
    _presentation_options(p)
    p.set_defaults(func=cmd_search_presentation)

    return ap


def _presentation_options(p):
    p.add_argument(
        "--bound", type=int, default=3,
        help="largest degree of R and S in a --candidate pair; higher ones are skipped",
    )
    p.add_argument(
        "--candidate", action="append",
        help="a presentation h = R/S in x, tried before the one the poles of f give",
    )


def run(argv):
    """Execute one command; returns (envelope dict, exit code)."""
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help and friends already printed
            return None, 0
        return {"schema_version": SCHEMA_VERSION,
                "error": {"kind": "usage", "message": "bad command line"}}, 1
    pretty = args.pretty
    try:
        doc, code = args.func(args)
    except ParseError as exc:
        doc, code = {
            "schema_version": SCHEMA_VERSION,
            "error": {
                "kind": "parse",
                "message": exc.message,
                "line": exc.line,
                "column": exc.col,
                "expected": list(exc.expected),
            },
        }, 1
    except PfaffkitError as exc:
        doc, code = {
            "schema_version": SCHEMA_VERSION,
            "error": {"kind": type(exc).__name__, "message": str(exc)},
        }, 1
    except OSError as exc:
        doc, code = {
            "schema_version": SCHEMA_VERSION,
            "error": {"kind": "io", "message": str(exc)},
        }, 1
    except Exception as exc:  # noqa: BLE001 -- invariant breach, exit 2
        doc, code = {
            "schema_version": SCHEMA_VERSION,
            "error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"},
        }, 2
    doc["_pretty"] = pretty
    return doc, code


def main(argv=None):
    doc, code = run(sys.argv[1:] if argv is None else argv)
    if doc is None:
        return code
    pretty = doc.pop("_pretty", False)
    try:
        print(json.dumps(doc, indent=2 if pretty else None))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
