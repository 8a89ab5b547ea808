"""JSON formats for presentations, polynomials, and reports.

Presentation files look like

    {"n_gens": 4, "torus_rank": 4,
     "weights": [[...], ...],                  # one integer vector per generator
     "h": [["-1", "0", "1", "0"], ...],        # rationals as "p/q" strings
     "h_star": [...],                          # optional
     "delta": [{"k": 4, "j": 1, "poly": [[-2, 1, [0,1,1,0]]]}, ...],
     "names": ["t11", ...]}                    # optional: reports and --elem

Indices are 1-based on the wire, polynomials are lists of
[numerator, denominator, exponent-vector] triples ordered revlex-descending,
and missing delta entries mean zero; names are distinct, each a letter
followed by letters, digits or _.  Reports render polynomials both as the
authoritative triple list and in human notation.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import MvLaurent
from .presentation import PoissonPresentation, PresentationError, ValidationReport


class FormatError(PresentationError):
    pass


def fraction_to_json(x: Fraction) -> str:
    return str(x)


def fraction_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise FormatError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"not a rational: {x!r}") from exc
    if isinstance(x, float):
        raise FormatError(f"floating point input rejected, use 'p/q' strings: {x!r}")
    raise FormatError(f"not a rational: {x!r}")


def _is_int(x) -> bool:
    """A JSON integer: Python counts bools as ints, the format does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_from_json(x, what: str) -> int:
    """x when it is a JSON integer; int() would read a float, a bool or a
    numeric string silently."""
    if not _is_int(x):
        raise FormatError(f"{what} must be an integer, not {x!r}")
    return x


def poly_to_triples(f: MvLaurent) -> List[list]:
    return [[c.numerator, c.denominator, list(e)] for e, c in f.sorted_terms()]


def poly_from_triples(nvars: int, triples) -> MvLaurent:
    if not isinstance(triples, list):
        raise FormatError("polynomial must be a list of [num, den, exps] triples")
    terms = []
    for item in triples:
        if not (isinstance(item, list) and len(item) == 3):
            raise FormatError(f"bad polynomial term {item!r}")
        num, den, exps = item
        if not (_is_int(num) and _is_int(den) and den != 0):
            raise FormatError(f"bad coefficient in term {item!r}")
        if not (isinstance(exps, list) and len(exps) == nvars and all(_is_int(e) for e in exps)):
            raise FormatError(f"bad exponent vector in term {item!r}")
        terms.append((tuple(exps), Fraction(num, den)))
    return MvLaurent.from_terms(nvars, terms)


def presentation_to_doc(p: PoissonPresentation, names: Optional[Sequence[str]] = None) -> dict:
    doc = {
        "n_gens": p.n,
        "torus_rank": p.torus_rank,
        "weights": [list(w) for w in p.weights],
        "h": [[fraction_to_json(x) for x in row] for row in p.h],
        "delta": [
            {"k": k + 1, "j": j + 1, "poly": poly_to_triples(poly)}
            for (k, j), poly in sorted(p.delta.items())
            if not poly.is_zero()
        ],
    }
    if p.h_star is not None:
        doc["h_star"] = [[fraction_to_json(x) for x in row] for row in p.h_star]
    if names is not None:
        doc["names"] = list(names)
    return doc


def _list_field(doc: dict, key: str) -> Optional[list]:
    """doc[key] when it is a list, None when it is absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, list):
        raise FormatError(f"{key} must be a list, not {type(value).__name__}")
    return value


def presentation_from_doc(doc: dict) -> Tuple[PoissonPresentation, Optional[List[str]]]:
    if not isinstance(doc, dict):
        raise FormatError("presentation document must be a JSON object")
    try:
        n = _int_from_json(doc["n_gens"], "n_gens")
        d = _int_from_json(doc["torus_rank"], "torus_rank")
        weights = tuple(tuple(_int_from_json(x, "a weight entry") for x in row) for row in doc["weights"])
        h = tuple(tuple(fraction_from_json(x) for x in row) for row in doc["h"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed presentation document: {exc}") from exc
    h_star = None
    if _list_field(doc, "h_star") is not None:
        try:
            h_star = tuple(tuple(fraction_from_json(x) for x in row) for row in doc["h_star"])
        except TypeError as exc:
            raise FormatError(f"malformed h_star: {exc}") from exc
    delta: Dict[Tuple[int, int], MvLaurent] = {}
    seen = set()
    for entry in _list_field(doc, "delta") or []:
        try:
            k = _int_from_json(entry["k"], "delta k") - 1
            j = _int_from_json(entry["j"], "delta j") - 1
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed delta entry {entry!r}") from exc
        if (k, j) in seen:
            raise FormatError(f"duplicate delta entry for k={k+1}, j={j+1}")
        seen.add((k, j))
        poly = poly_from_triples(n, entry.get("poly", []))
        if not poly.is_zero():
            delta[(k, j)] = poly
    names = _list_field(doc, "names")
    if names is not None:
        if len(names) != n:
            raise FormatError("names must list one label per generator")
        for x in names:
            if not (isinstance(x, str) and _NAME_RE.fullmatch(x)):
                raise FormatError(f"name {x!r} is not a letter followed by letters, digits or _")
        if len(set(names)) != n:
            raise FormatError("names must be distinct")
    p = PoissonPresentation(n=n, torus_rank=d, weights=weights, h=h, delta=delta, h_star=h_star)
    return p, names


def poly_report(f: MvLaurent, names: Optional[Sequence[str]] = None) -> dict:
    """Both renderings of a polynomial: authoritative triples plus human text."""
    return {"terms": poly_to_triples(f), "text": f.render(names)}


def validation_report(report: ValidationReport) -> dict:
    """A validation report: its verdict, its checks, and one entry per
    failure, with the failure's witness polynomial as triples when it has one."""
    failures = []
    for f in report.failures:
        entry = {"code": type(f).__name__, "detail": str(f)}
        witness = getattr(f, "witness", None)
        if isinstance(witness, MvLaurent):
            entry["witness"] = poly_to_triples(witness)
        failures.append(entry)
    return {"passed": report.passed, "checks": dict(report.checks), "failures": failures}


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_TERM_RE = re.compile(r"\s*(?P<sign>[+-])?\s*(?P<body>(?:[^+\-]|(?<=\^)[+-])+)")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_FACTOR_RE = re.compile(rf"(?P<name>{_NAME_RE.pattern})(\^(?P<pow>-?\d+))?$")


def parse_poly_expr(expr: str, nvars: int, names: Optional[Sequence[str]] = None,
                    prefix: str = "x") -> MvLaurent:
    """Parse a small human expression like ``2*x1^2*x3 - 1/2*x2`` or ``y4^-1``.

    Variables are matched against `names` when given, otherwise against
    prefix1..prefixN.  Only sums of monomials are supported, which covers the
    membership and report use cases.
    """
    lookup = {}
    for i in range(nvars):
        lookup[f"{prefix}{i+1}"] = i
    if names:
        for i, nm in enumerate(names):
            lookup[nm] = i
    terms = []
    pos = 0
    expr = expr.strip()
    if not expr:
        raise FormatError("empty polynomial expression")
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m or not m.group("body").strip():
            raise FormatError(f"cannot parse polynomial near {expr[pos:]!r}")
        pos = m.end()
        sign = -1 if m.group("sign") == "-" else 1
        coeff = Fraction(sign)
        exps = [0] * nvars
        body = m.group("body").strip()
        for chunk in body.split("*"):
            chunk = chunk.strip()
            if not chunk:
                raise FormatError(f"empty factor in {body!r}")
            fm = _FACTOR_RE.match(chunk)
            if fm and fm.group("name") in lookup:
                idx = lookup[fm.group("name")]
                try:
                    exps[idx] += int(fm.group("pow") or 1)
                except ValueError as exc:   # more digits than int() converts
                    raise FormatError(f"exponent of {fm.group('name')} has too many digits") from exc
            else:
                try:
                    coeff *= Fraction(chunk)
                except (ValueError, ZeroDivisionError) as exc:
                    raise FormatError(f"unknown factor {chunk!r}") from exc
        terms.append((tuple(exps), coeff))
    return MvLaurent.from_terms(nvars, terms)
