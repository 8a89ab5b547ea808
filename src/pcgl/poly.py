"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A value is a finite map from exponent vectors (tuples of ints, one entry per
generator, negative entries allowed) to nonzero ``Fraction`` coefficients.
The zero polynomial is the empty map.  All arithmetic is exact; there is no
floating point anywhere in this package.

The term order used throughout is reverse lexicographic: exponent vectors are
compared from the last coordinate down, and the first differing coordinate
decides.  Equivalently, ``reversed(e)`` compared lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Sequence, Tuple

ExpVec = Tuple[int, ...]


class PolyError(Exception):
    """Base class for polynomial arithmetic errors."""


class ZeroPolynomial(PolyError):
    """Leading term requested from the zero polynomial."""


class ZeroDivisor(PolyError):
    """Division by the zero polynomial."""


class NotDivisible(PolyError):
    """No Laurent quotient exists for the requested division."""


class NonInvertibleImage(PolyError):
    """A negative power met a substitution image that does not divide out."""


def _revlex_key(e: ExpVec) -> Tuple[int, ...]:
    return tuple(reversed(e))


class MvLaurent:
    """Immutable sparse Laurent polynomial in ``nvars`` generators."""

    __slots__ = ("nvars", "terms", "_lt")

    def __init__(self, nvars: int, terms: Dict[ExpVec, Fraction] | None = None):
        self.nvars = nvars
        cleaned: Dict[ExpVec, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    cleaned[exp] = coeff
        self.terms = cleaned
        self._lt: Tuple[Fraction, ExpVec] | None = None

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, nvars: int) -> "MvLaurent":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "MvLaurent":
        c = Fraction(value)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def gen(cls, nvars: int, i: int, power: int = 1) -> "MvLaurent":
        """The Laurent monomial x_i**power (i is 0-based)."""
        if not 0 <= i < nvars:
            raise IndexError(f"generator index {i} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[i] = power
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1) -> "MvLaurent":
        c = Fraction(coeff)
        if not c:
            return cls(nvars)
        exp = tuple(int(e) for e in exp)
        if len(exp) != nvars:
            raise ValueError("exponent vector length mismatch")
        return cls(nvars, {exp: c})

    # ---------------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True when every exponent is componentwise nonnegative."""
        return all(min(e, default=0) >= 0 for e in self.terms) if self.terms else True

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> set:
        """Indices of generators appearing with nonzero exponent."""
        used = set()
        for e in self.terms:
            for i, m in enumerate(e):
                if m:
                    used.add(i)
        return used

    # ---------------------------------------------------------------- term access

    def leading_term(self) -> Tuple[Fraction, ExpVec]:
        """The (coefficient, exponent) pair maximal in revlex order."""
        if not self.terms:
            raise ZeroPolynomial("leading term of the zero polynomial")
        if self._lt is None:
            exp = max(self.terms, key=_revlex_key)
            self._lt = (self.terms[exp], exp)
        return self._lt

    def sorted_terms(self):
        """Terms as (exponent, coefficient), revlex-descending.  Deterministic."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=_revlex_key, reverse=True)]

    def coeff(self, exp: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # ---------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "MvLaurent":
        if isinstance(other, MvLaurent):
            if other.nvars != self.nvars:
                raise ValueError("mixed generator counts")
            return other
        return MvLaurent.const(self.nvars, other)

    def __add__(self, other) -> "MvLaurent":
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MvLaurent(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "MvLaurent":
        return MvLaurent(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MvLaurent":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MvLaurent":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MvLaurent":
        if not isinstance(other, MvLaurent):
            c = Fraction(other)
            if not c:
                return MvLaurent(self.nvars)
            return MvLaurent(self.nvars, {e: cf * c for e, cf in self.terms.items()})
        other = self._coerce(other)
        if not self.terms or not other.terms:
            return MvLaurent(self.nvars)
        # iterate over the shorter operand's terms in the outer loop
        a, b = (self.terms, other.terms) if len(self.terms) <= len(other.terms) else (other.terms, self.terms)
        out: Dict[ExpVec, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MvLaurent(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MvLaurent":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n == 0:
            return MvLaurent.const(self.nvars, 1)
        if n < 0:
            if len(self.terms) != 1:
                raise NonInvertibleImage("negative power of a non-monomial")
            (e, c), = self.terms.items()
            return MvLaurent(self.nvars, {tuple(x * n for x in e): c ** n})
        result = MvLaurent.const(self.nvars, 1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, MvLaurent):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MvLaurent.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ---------------------------------------------------------------- rendering

    def render(self, names: Sequence[str] | None = None) -> str:
        """Human notation, e.g. ``x1*x4 - x2*x3``; terms revlex-descending."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        parts = []
        for exp, coeff in self.sorted_terms():
            factors = [f"{names[i]}^{m}" if m != 1 else names[i] for i, m in enumerate(exp) if m]
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, chunk))
        first_sign, first_chunk = parts[0]
        text = ("-" if first_sign == "-" else "") + first_chunk
        for sign, chunk in parts[1:]:
            text += f" {sign} {chunk}"
        return text

    def __repr__(self):
        return f"MvLaurent({self.render()})"


# -------------------------------------------------------------------- operations


def leading_term_revlex(f: MvLaurent) -> Tuple[Fraction, ExpVec]:
    """Leading (coefficient, exponent) of f in the reverse lexicographic order."""
    return f.leading_term()


def _monomial_shift(f: MvLaurent, shift: ExpVec) -> MvLaurent:
    return MvLaurent(f.nvars, {tuple(x + s for x, s in zip(e, shift)): c for e, c in f.terms.items()})


def _min_exponents(f: MvLaurent) -> ExpVec:
    mins = [0] * f.nvars
    first = True
    for e in f.terms:
        if first:
            mins = list(e)
            first = False
        else:
            mins = [min(a, b) for a, b in zip(mins, e)]
    return tuple(mins)


def exact_divide(num: MvLaurent, den: MvLaurent) -> MvLaurent:
    """The Laurent quotient q with num == q*den, else raise NotDivisible.

    Laurent inputs are normalized by pulling out the componentwise-minimal
    monomial of each operand, which reduces the problem to exact division of
    honest polynomials by leading-term cancellation in revlex order.
    """
    if den.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if num.is_zero():
        return MvLaurent(num.nvars)
    gnum = _min_exponents(num)
    gden = _min_exponents(den)
    rem = _monomial_shift(num, tuple(-x for x in gnum))
    d = _monomial_shift(den, tuple(-x for x in gden))
    cd, ed = d.leading_term()
    q: Dict[ExpVec, Fraction] = {}
    while rem.terms:
        cr, er = rem.leading_term()
        et = tuple(a - b for a, b in zip(er, ed))
        if min(et) < 0:
            raise NotDivisible("no Laurent quotient exists")
        ct = cr / cd
        q[et] = ct
        rem = rem - _monomial_shift(d, et) * ct
    shift = tuple(a - b for a, b in zip(gnum, gden))
    return _monomial_shift(MvLaurent(num.nvars, q), shift)


def substitute(f: MvLaurent, images: Sequence[MvLaurent]) -> MvLaurent:
    """Evaluate f at x_i -> images[i] (ring homomorphism on the Laurent ring).

    Negative powers of x_i invert images[i].  Monomial images invert directly;
    otherwise every term is put over the common denominator
    prod images[i]^(max negative power) and the division must come out exact,
    else NonInvertibleImage is raised.
    """
    if len(images) != f.nvars:
        raise ValueError("need one image per generator")
    if not f.terms:
        return MvLaurent(images[0].nvars if images else f.nvars)
    nv = images[0].nvars
    for g in images:
        if g.nvars != nv:
            raise ValueError("images live in different rings")

    neg_max = [0] * f.nvars
    for e in f.terms:
        for i, m in enumerate(e):
            if m < 0 and -m > neg_max[i]:
                neg_max[i] = -m
    hard = [i for i, m in enumerate(neg_max) if m and not images[i].is_monomial()]
    for i in range(f.nvars):
        if neg_max[i] and images[i].is_zero():
            raise NonInvertibleImage(f"generator {i} appears with negative power, image is zero")

    if not hard:
        # every inverted image is a monomial: substitute term by term
        out = MvLaurent(nv)
        for e, c in f.terms.items():
            term = MvLaurent.const(nv, c)
            for i, m in enumerate(e):
                if m:
                    term = term * images[i] ** m
            out = out + term
        return out

    # common-denominator route: f = N / prod images[i]^neg_max[i]
    numerator = MvLaurent(nv)
    for e, c in f.terms.items():
        term = MvLaurent.const(nv, c)
        for i, m in enumerate(e):
            power = m + neg_max[i]
            if power:
                term = term * images[i] ** power
        numerator = numerator + term
    denominator = MvLaurent.const(nv, 1)
    for i, m in enumerate(neg_max):
        if m:
            denominator = denominator * images[i] ** m
    try:
        return exact_divide(numerator, denominator)
    except NotDivisible as exc:
        raise NonInvertibleImage("substitution does not cancel to a Laurent polynomial") from exc


def apply_derivation(gen_images: Sequence[MvLaurent], f: MvLaurent) -> MvLaurent:
    """The derivation D with D(x_i) = gen_images[i], applied to f.

    Extends by linearity and the Leibniz rule; on Laurent monomials the usual
    power rule D(x^m) = m x^(m-1) D(x) covers negative m (inverse rule).
    """
    if len(gen_images) != f.nvars:
        raise ValueError("need one image per generator")
    out = MvLaurent(f.nvars)
    for e, c in f.terms.items():
        for i, m in enumerate(e):
            if not m or gen_images[i].is_zero():
                continue
            shifted = list(e)
            shifted[i] -= 1
            out = out + MvLaurent.monomial(f.nvars, shifted, c * m) * gen_images[i]
    return out
