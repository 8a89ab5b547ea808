"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A value maps exponent vectors (tuples of ints, one entry per generator,
negative entries allowed) to nonzero ``int`` numerators, ``terms``, over one
positive denominator ``den``, in lowest terms: gcd(den, *terms.values()) is
1, so equal values have equal maps.  The zero polynomial is the empty map
over 1.  All arithmetic is exact and runs on the numerators (sparse
arithmetic after Johnson, SIGSAM Bull. 8 (1974), and Monagan & Pearce, CASC
2007).  The public constructors take ``int`` or ``Fraction`` coefficients,
and raise TypeError on any other; ``coeff``, ``leading_term`` and
``sorted_terms`` read coefficients out as ``Fraction``s.

The term order used throughout is reverse lexicographic: exponent vectors are
compared from the last coordinate down, and the first differing coordinate
decides.  Equivalently, ``reversed(e)`` compared lexicographically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, sub
from typing import Dict, Iterable, Sequence, Tuple

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


# -------------------------------------------------------------------- int kernel


def _rational(c):
    """c itself when it is an int or a Fraction; TypeError for anything else."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"a polynomial coefficient is an int or a Fraction, not {type(c).__name__}")


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

    __slots__ = ("nvars", "terms", "den", "_lt")

    def __init__(self, nvars: int, terms: Dict[ExpVec, Fraction] | None = None):
        f = MvLaurent.from_terms(nvars, terms.items() if terms else ())
        self.nvars, self.terms, self.den, self._lt = nvars, f.terms, f.den, None

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, nvars: int) -> "MvLaurent":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, value) -> "MvLaurent":
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def gen(cls, nvars: int, i: int, power: int = 1) -> "MvLaurent":
        """The Laurent monomial x_i**power (i is 0-based)."""
        if not 0 <= i < nvars:
            raise IndexError(f"generator index {i} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[i] = power
        return cls._of(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff=1) -> "MvLaurent":
        if not _rational(coeff):
            return cls(nvars)
        exp = tuple(int(e) for e in exp)
        if len(exp) != nvars:
            raise ValueError("exponent vector length mismatch")
        return cls(nvars, {exp: coeff})

    @classmethod
    def from_terms(cls, nvars: int, terms: Iterable[Tuple[ExpVec, Fraction]]) -> "MvLaurent":
        """The sum of (exponent, coefficient) terms, added in order into one
        map; a sum that cancels drops its term."""
        terms = [(e, _rational(c)) for e, c in terms]
        den = lcm(*[c.denominator for _, c in terms])
        out: Dict[ExpVec, int] = {}
        get = out.get
        for e, c in terms:
            if not c:
                continue
            s = get(e, 0) + c.numerator * (den // c.denominator)
            if s:
                out[e] = s
            else:
                del out[e]
        return cls._of(nvars, out, den)

    @classmethod
    def _of(cls, nvars: int, nums: Dict[ExpVec, int], den: int = 1) -> "MvLaurent":
        """Nonzero int numerators over den > 0, brought to lowest terms."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                nums, den = {e: c // g for e, c in nums.items()}, den // g
        self = object.__new__(cls)
        self.nvars, self.terms, self.den, self._lt = nvars, nums, den, None
        return self

    # ---------------------------------------------------------------- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_polynomial(self) -> bool:
        """True when every exponent is componentwise nonnegative."""
        return all(min(e, default=0) >= 0 for e in self.terms)

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
            self._lt = (self.coeff(exp), exp)
        return self._lt

    def sorted_terms(self):
        """Terms as (exponent, coefficient), revlex-descending.  Deterministic."""
        return [(e, self.coeff(e)) for e in sorted(self.terms, key=_revlex_key, reverse=True)]

    def coeff(self, exp: Sequence[int]) -> Fraction:
        return Fraction(self.terms.get(tuple(exp), 0), self.den)

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
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        out = {e: c * ka for e, c in self.terms.items()}
        get = out.get
        for e, c in other.terms.items():
            s = get(e, 0) + c * kb
            if s:
                out[e] = s
            else:
                del out[e]
        return MvLaurent._of(self.nvars, out, den)

    __radd__ = __add__

    def __neg__(self) -> "MvLaurent":
        return MvLaurent._of(self.nvars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "MvLaurent":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MvLaurent":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MvLaurent":
        other = self._coerce(other)
        return MvLaurent._of(self.nvars, _mul(self.terms, other.terms), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MvLaurent":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            if len(self.terms) != 1:
                raise NonInvertibleImage("negative power of a non-monomial")
            (e, c), = self.terms.items()
            num, den = self.den ** -n, c ** -n
            return MvLaurent._of(self.nvars, {tuple(x * n for x in e): num if den > 0 else -num}, abs(den))
        base = self.terms
        result = {(0,) * self.nvars: 1}
        k = n
        while k:
            if k & 1:
                result = _mul(result, base)
            base = _mul(base, base) if k > 1 else base
            k >>= 1
        return MvLaurent._of(self.nvars, result, self.den ** n)

    def __eq__(self, other) -> bool:
        if isinstance(other, MvLaurent):
            return self.nvars == other.nvars and self.den == other.den and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == MvLaurent.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.terms.items())))

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
    gnum = _min_exponents(num)
    gden = _min_exponents(den)
    rg, dg = gnum[::-1], gden[::-1]
    rem = {tuple(map(sub, e[::-1], rg)): c for e, c in num.terms.items()}
    d = [(tuple(map(sub, e[::-1], dg)), c) for e, c in den.terms.items()]
    ed, ld = max(d)
    # rem and q hold the remainder and the quotient's numerators times
    # `scale`; when ld does not divide the leading numerator, both are
    # scaled up so that every update is in ints.
    scale = 1
    q: Dict[ExpVec, int] = {}
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
            for e in q:
                q[e] *= k
            scale *= k
            cr *= k
        t = cr // ld
        q[et] = t
        for e, c in d:
            e = tuple(map(add, e, et))
            s = get(e, 0) - t * c
            if s:
                rem[e] = s
            else:
                del rem[e]
    shift = tuple(map(sub, gnum, gden))
    return MvLaurent._of(num.nvars, {tuple(map(add, e[::-1], shift)): c * den.den for e, c in q.items()},
                         scale * num.den)


def _is_gen(g: MvLaurent, i: int) -> bool:
    """g is the generator x_i of its ring."""
    if g.den != 1 or len(g.terms) != 1:
        return False
    (e, c), = g.terms.items()
    return c == 1 and e[i] == 1 and e.count(0) == len(e) - 1


def substitute(f: MvLaurent, images: Sequence[MvLaurent]) -> MvLaurent:
    """Evaluate f at x_i -> images[i] (ring homomorphism on the Laurent ring).

    An image x_i -> x_i, the generator itself in f's own ring, keeps f's
    exponent at i as it is.  Negative powers at the other images invert
    them: monomial images invert directly; otherwise every term is put over
    the common denominator prod images[i]^(max negative power) and the
    division must come out exact, else NonInvertibleImage is raised.

    f's terms are grouped by their exponents at the other images, and each
    group's product of those images' powers is formed once, in ints, from
    powers images[i] ** m computed once per call.  Each term adds its
    coefficient times its group's product, shifted by its kept exponents,
    into one accumulator over the lcm of the groups' denominators, so the
    terms come out in the order term-by-term substitution gives them.  The
    walk's one-slot exchange (cluster._carried_images) passes the generators
    as images, except x_k -> Q * x_k^-1.
    """
    if len(images) != f.nvars:
        raise ValueError("need one image per generator")
    if not f.terms:
        return MvLaurent(images[0].nvars if images else f.nvars)
    nv = images[0].nvars
    for g in images:
        if g.nvars != nv:
            raise ValueError("images live in different rings")

    cols = list(zip(*f.terms))
    neg_max, moved, kept, hard = [0] * f.nvars, [], False, False
    for i in compress(range(f.nvars), map(any, cols)):
        g = images[i]
        if nv == f.nvars and _is_gen(g, i):
            kept = True
            continue
        moved.append(i)
        lo = min(cols[i])
        if lo < 0:
            if g.is_zero():
                raise NonInvertibleImage(f"generator {i} appears with negative power, image is zero")
            neg_max[i], hard = -lo, hard or not g.is_monomial()

    powers: Dict[Tuple[int, int], MvLaurent] = {}

    def product(exps: Iterable[Tuple[int, int]]) -> Tuple[Dict[ExpVec, int], int]:
        """The numerators and denominator of prod images[i] ** m, left to
        right, over the nonzero m."""
        nums, den = {(0,) * nv: 1}, 1
        for i, m in exps:
            if not m:
                continue
            if (i, m) not in powers:
                powers[(i, m)] = images[i] ** m
            g = powers[(i, m)]
            nums, den = _mul(nums, g.terms), den * g.den
        return nums, den

    # With every inverted image a monomial, x^e maps to prod images[i]^e[i].
    # Otherwise f = N / prod images[i]^neg_max[i] over the moved i, and x^e
    # maps to prod images[i]^(e[i] + neg_max[i]) in the numerator N.  With
    # some generator kept, a group's product is stored divided by x^e over
    # the moved i, so that each term's x^e shifts it into place.
    shift = neg_max if hard else [0] * f.nvars
    groups: Dict[ExpVec, Tuple[Dict[ExpVec, int], int]] = {}
    terms = []
    for e, c in f.terms.items():
        key = tuple(map(e.__getitem__, moved))
        if key not in groups:
            nums, den = product((i, m + shift[i]) for i, m in zip(moved, key))
            if kept:
                off = [0] * nv
                for i, m in zip(moved, key):
                    off[i] = m
                nums = {tuple(map(sub, ep, off)): cp for ep, cp in nums.items()}
            groups[key] = nums, den
        terms.append((c, e, groups[key]))
    common = lcm(*[den for _, den in groups.values()])
    acc: Dict[ExpVec, int] = {}
    get = acc.get
    for num, ef, (nums, den) in terms:
        k = num * (common // den)
        for e, c in nums.items():
            if kept:
                e = tuple(map(add, ef, e))
            s = get(e, 0) + k * c
            if s:
                acc[e] = s
            else:
                del acc[e]
    numerator = MvLaurent._of(nv, acc, f.den * common)
    if not hard:
        return numerator
    denominator = MvLaurent._of(nv, *product((i, neg_max[i]) for i in moved))
    try:
        return exact_divide(numerator, denominator)
    except NotDivisible as exc:
        raise NonInvertibleImage("substitution does not cancel to a Laurent polynomial") from exc


def apply_derivation(gen_images: Sequence[MvLaurent], f: MvLaurent) -> MvLaurent:
    """The derivation D with D(x_i) = gen_images[i], applied to f.

    Extends by linearity and the Leibniz rule; on Laurent monomials the usual
    power rule D(x^m) = m x^(m-1) D(x) covers negative m (inverse rule).
    Terms add in order, on int numerators over f.den times the lcm of the
    images' denominators; a sum that cancels drops its term.
    """
    if len(gen_images) != f.nvars:
        raise ValueError("need one image per generator")
    den = lcm(*[g.den for g in gen_images])
    out: Dict[ExpVec, int] = {}
    get = out.get
    for e, c in f.terms.items():
        for i, m in enumerate(e):
            g = gen_images[i]
            if not m or not g.terms:
                continue
            shifted = list(e)
            shifted[i] -= 1
            cm = c * m * (den // g.den)
            for eg, cg in g.terms.items():
                t = tuple(map(add, shifted, eg))
                s = get(t, 0) + cm * cg
                if s:
                    out[t] = s
                else:
                    del out[t]
    return MvLaurent._of(f.nvars, out, f.den * den)
