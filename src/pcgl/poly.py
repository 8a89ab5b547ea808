"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A value is a finite map from exponent vectors (tuples of ints, one entry per
generator, negative entries allowed) to nonzero ``Fraction`` coefficients.
The zero polynomial is the empty map.  All arithmetic is exact; there is no
floating point anywhere in this package.

Coefficients are ``Fraction`` at the interface and ``int`` numerators inside
the multiply kernel: each operand of a product, power, substitution or exact
division is scaled once to integer numerators over the lcm of its
coefficient denominators, the work runs on those integers, and the result's
``Fraction`` coefficients are built once, at the end (sparse arithmetic after
Johnson, SIGSAM Bull. 8 (1974), and Monagan & Pearce, CASC 2007).

The term order used throughout is reverse lexicographic: exponent vectors are
compared from the last coordinate down, and the first differing coordinate
decides.  Equivalently, ``reversed(e)`` compared lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub
from typing import Dict, Iterable, Sequence, Tuple

ExpVec = Tuple[int, ...]
# Int numerators keyed by exponent vector, over one positive common denominator.
Scaled = Tuple[Dict[ExpVec, int], int]


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


# -------------------------------------------------------------------- int kernel


def _scale(terms: Dict[ExpVec, Fraction]) -> Scaled:
    """Coefficients as int numerators over the lcm of their denominators."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return {e: c.numerator for e, c in terms.items()}, 1
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _fractions(nums: Dict[ExpVec, int], den: int) -> Dict[ExpVec, Fraction]:
    if den == 1:
        return {e: Fraction(c) for e, c in nums.items()}
    return {e: Fraction(c, den) for e, c in nums.items()}


def _mul(a: Dict[ExpVec, int], b: Dict[ExpVec, int]) -> Dict[ExpVec, int]:
    """Term-by-term product of two int term maps.

    The shorter operand (the first on a tie) drives the outer loop and a sum
    that cancels drops its term, so the result's terms come in the order the
    rational product always produced them.
    """
    if len(a) > len(b):
        a, b = b, a
    out: Dict[ExpVec, int] = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


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

    @classmethod
    def from_terms(cls, nvars: int, terms: Iterable[Tuple[ExpVec, Fraction]]) -> "MvLaurent":
        """The sum of (exponent, coefficient) terms, added in order into one
        map; a sum that cancels drops its term."""
        out: Dict[ExpVec, Fraction] = {}
        get = out.get
        for e, c in terms:
            if not c:
                continue
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return cls._of(nvars, out)

    @classmethod
    def _of(cls, nvars: int, terms: Dict[ExpVec, Fraction]) -> "MvLaurent":
        """Wrap a term map that holds no zero coefficient, without copying it."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = terms
        self._lt = None
        return self

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
        get = out.get
        for e, c in other.terms.items():
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return MvLaurent._of(self.nvars, out)

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
        a, da = _scale(self.terms)
        b, db = _scale(other.terms)
        return MvLaurent._of(self.nvars, _fractions(_mul(a, b), da * db))

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
        base, den = _scale(self.terms)
        result = {(0,) * self.nvars: 1}
        k = n
        while k:
            if k & 1:
                result = _mul(result, base)
            base = _mul(base, base) if k > 1 else base
            k >>= 1
        return MvLaurent._of(self.nvars, _fractions(result, den ** n))

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


def _min_exponents(f: MvLaurent) -> ExpVec:
    return tuple(min(col) for col in zip(*f.terms))


def exact_divide(num: MvLaurent, den: MvLaurent) -> MvLaurent:
    """The Laurent quotient q with num == q*den, else raise NotDivisible.

    Laurent inputs are normalized by pulling out the componentwise-minimal
    monomial of each operand, which reduces the problem to exact division of
    honest polynomials by leading-term cancellation in revlex order.  The
    remainder is one map of int numerators, updated in place and keyed by
    reversed exponent vectors, so that its revlex leading term is the plain
    tuple maximum.
    """
    if den.is_zero():
        raise ZeroDivisor("division by the zero polynomial")
    if num.is_zero():
        return MvLaurent(num.nvars)
    gnum = _min_exponents(num)
    gden = _min_exponents(den)
    rnums, rden = _scale(num.terms)
    dnums, dden = _scale(den.terms)
    rg, dg = gnum[::-1], gden[::-1]
    rem = {tuple(map(sub, e[::-1], rg)): c for e, c in rnums.items()}
    d = [(tuple(map(sub, e[::-1], dg)), c) for e, c in dnums.items()]
    ed, ld = max(d)
    # rem holds the remainder times `scale`; when ld does not divide the
    # leading numerator, all of rem is scaled up so that every update is in ints.
    scale = 1
    q: Dict[ExpVec, Fraction] = {}
    get = rem.get
    while rem:
        er = max(rem)
        cr = rem[er]
        et = tuple(map(sub, er, ed))
        if min(et) < 0:
            raise NotDivisible("no Laurent quotient exists")
        if cr % ld:
            k = abs(ld) // gcd(cr, ld)
            for e in rem:
                rem[e] *= k
            scale *= k
            cr *= k
        t = cr // ld
        q[et] = Fraction(t * dden, scale * rden)
        for e, c in d:
            e = tuple(map(add, e, et))
            s = get(e, 0) - t * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    shift = tuple(map(sub, gnum, gden))
    return MvLaurent._of(num.nvars, {tuple(map(add, e[::-1], shift)): c for e, c in q.items()})


def _product(factors: Sequence[Scaled], nvars: int) -> Scaled:
    """The product of scaled factors, multiplied left to right; 1 for none."""
    if not factors:
        return {(0,) * nvars: 1}, 1
    nums, den = factors[0]
    for fnums, fden in factors[1:]:
        nums = _mul(nums, fnums)
        den *= fden
    return nums, den


def substitute(f: MvLaurent, images: Sequence[MvLaurent]) -> MvLaurent:
    """Evaluate f at x_i -> images[i] (ring homomorphism on the Laurent ring).

    Negative powers of x_i invert images[i].  Monomial images invert directly;
    otherwise every term is put over the common denominator
    prod images[i]^(max negative power) and the division must come out exact,
    else NonInvertibleImage is raised.

    Each power images[i] ** m is computed once per call.  Every term's
    product is formed in ints and added into one accumulator over the lcm of
    the terms' denominators.
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

    powers: Dict[Tuple[int, int], Scaled] = {}

    def power(i: int, m: int) -> Scaled:
        if (i, m) not in powers:
            powers[(i, m)] = _scale((images[i] ** m).terms)
        return powers[(i, m)]

    # With every inverted image a monomial, x^e maps to prod images[i]^e[i].
    # Otherwise f = N / prod images[i]^neg_max[i], and x^e maps to
    # prod images[i]^(e[i] + neg_max[i]) in the numerator N.
    shift = neg_max if hard else [0] * f.nvars
    terms = []
    for e, c in f.terms.items():
        fs = [power(i, m + s) for i, (m, s) in enumerate(zip(e, shift)) if m + s]
        den = c.denominator
        for _, fden in fs:
            den *= fden
        terms.append((c.numerator, den, fs))
    common = lcm(*[den for _, den, _ in terms])
    acc: Dict[ExpVec, int] = {}
    get = acc.get
    for num, den, fs in terms:
        k = num * (common // den)
        for e, c in _product(fs, nv)[0].items():
            s = get(e, 0) + k * c
            if s:
                acc[e] = s
            else:
                del acc[e]
    numerator = MvLaurent._of(nv, _fractions(acc, common))
    if not hard:
        return numerator
    dnums, dden = _product([power(i, m) for i, m in enumerate(neg_max) if m], nv)
    denominator = MvLaurent._of(nv, _fractions(dnums, dden))
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

    def terms():
        for e, c in f.terms.items():
            for i, m in enumerate(e):
                if not m or gen_images[i].is_zero():
                    continue
                shifted = list(e)
                shifted[i] -= 1
                cm = c * m
                for eg, cg in gen_images[i].terms.items():
                    yield tuple(map(add, shifted, eg)), cm * cg

    return MvLaurent.from_terms(f.nvars, terms())
