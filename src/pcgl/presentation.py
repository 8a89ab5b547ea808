"""Torus-graded Poisson algebras presented by a bracket table on generators.

A presentation consists of N generators x_1..x_N, a rank-d torus weight for
each generator, rational vectors h_k (and optionally h*_k) in the torus Lie
algebra, and for each pair k > j a polynomial delta_k(x_j) supported on
generators below k.  The bracket of generators is

    {x_k, x_j} = lambda_kj x_k x_j + delta_k(x_j)     (k > j)

with lambda_kj = <h_k, weight(x_j)>, extended to arbitrary Laurent elements
as a biderivation.  Indices are 0-based throughout the code; reports and the
JSON formats are 1-based.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import add, mul
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .poly import ExpVec, MvLaurent, apply_derivation


class PresentationError(Exception):
    """Base class for presentation construction/validation failures."""


class JacobiFailure(PresentationError):
    def __init__(self, k, j, i, witness):
        super().__init__(f"Jacobi identity fails on generators ({k+1},{j+1},{i+1})")
        self.triple = (k, j, i)
        self.witness = witness


class InhomogeneousDelta(PresentationError):
    def __init__(self, k, j, witness):
        super().__init__(f"delta_{k+1}(x_{j+1}) is not homogeneous of weight chi_{k+1}+chi_{j+1}")
        self.pair = (k, j)
        self.witness = witness


class ZeroEigenvalue(PresentationError):
    def __init__(self, k):
        super().__init__(f"lambda_{k+1} = <h_{k+1}, chi_{k+1}> vanishes")
        self.index = k


class NilpotenceBoundExceeded(PresentationError):
    def __init__(self, k, j, bound, witness):
        super().__init__(f"delta_{k+1} not nilpotent on x_{j+1} within {bound} iterations")
        self.pair = (k, j)
        self.bound = bound
        self.witness = witness


class SupportViolation(PresentationError):
    def __init__(self, k, j, msg=None):
        super().__init__(msg or f"delta_{k+1}(x_{j+1}) escapes the allowed generator support")
        self.pair = (k, j)


class Inhomogeneous(PresentationError):
    def __init__(self, exp_a, exp_b):
        super().__init__("element is not weight-homogeneous")
        self.witnesses = (exp_a, exp_b)


def _pairing(family: Sequence[Sequence[Fraction]],
             weights: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """<v, chi> for every torus vector v in family and every weight chi.

    The family is scaled once to int numerators over the lcm of its
    entries' denominators; row a of the result holds the numerators of
    <family[a], chi> over that lcm, one per weight.
    """
    den = lcm(*(x.denominator for v in family for x in v))
    rows = [[x.numerator * (den // x.denominator) for x in v] for v in family]
    return [[sum(map(mul, row, w)) for w in weights] for row in rows], den


# A matrix of Omega_lambda values: int numerators over the presentation's lam_den.
ScaledMatrix = Tuple[List[List[int]], int]


class PoissonPresentation:
    """Immutable presentation data; derived scalars are precomputed.

    The six constructor arguments n, torus_rank, weights, h, delta (default
    empty) and h_star (default None) are the presentation; equality and repr
    read only them, and assigning any attribute raises AttributeError.
    Construction computes, once, the data every bracket and bicharacter
    reads:

    * ``lam_num`` / ``lam_den`` -- the skew-symmetric lambda matrix as
      integer numerators over one common denominator (the lcm of the
      entries' denominators); ``lam(k, j)`` reads one entry as a Fraction;
    * ``lam_diagonal`` -- the eigenvalues lambda_k = <h_k, chi_k>;
    * ``lam_star`` -- the eigenvalues lambda*_j = <h*_j, chi_j>, or None
      without h_star;
    * ``delta_num`` / ``delta_den`` -- the nonzero table entries by k, as
      integer numerators over one common denominator (the lcm of every
      table coefficient's denominator): ``delta_num[k]`` holds, in table
      order (sorted by (k, j)), one ``(j, ((exp, numerator), ...))`` per
      nonzero delta_k(x_j).

    lambda_kj, lambda_k and lambda*_j are read off one pairing of h (or h*)
    with the weights, in ints (``_pairing``).
    """

    lam_num: Tuple[Tuple[int, ...], ...]
    lam_den: int
    lam_diagonal: Tuple[Fraction, ...]
    lam_star: Optional[Tuple[Fraction, ...]]
    delta_num: Tuple[Tuple[Tuple[int, Tuple[Tuple[ExpVec, int], ...]], ...], ...]
    delta_den: int

    _FIELDS = ("n", "torus_rank", "weights", "h", "delta", "h_star")

    def __init__(self, n: int, torus_rank: int, weights: Tuple[Tuple[int, ...], ...],
                 h: Tuple[Tuple[Fraction, ...], ...],
                 delta: Optional[Dict[Tuple[int, int], MvLaurent]] = None,
                 h_star: Optional[Tuple[Tuple[Fraction, ...], ...]] = None):
        put = partial(object.__setattr__, self)
        for name, value in zip(self._FIELDS, (n, torus_rank, weights, h, delta or {}, h_star)):
            put(name, value)
        if self.n < 1:
            raise PresentationError("a presentation needs at least one generator")
        if len(self.weights) != self.n or len(self.h) != self.n:
            raise PresentationError("weights/h must have one row per generator")
        if any(len(w) != self.torus_rank for w in self.weights):
            raise PresentationError("weight vector length != torus rank")
        if any(len(hk) != self.torus_rank for hk in self.h):
            raise PresentationError("h vector length != torus rank")
        if self.h_star is not None and (
            len(self.h_star) != self.n or any(len(v) != self.torus_rank for v in self.h_star)
        ):
            raise PresentationError("h_star must have one length-d row per generator")
        for (k, j), poly in self.delta.items():
            if not (0 <= j < k < self.n):
                raise PresentationError(f"delta table key ({k+1},{j+1}) needs k > j")
            if poly.nvars != self.n:
                raise PresentationError("delta entry in the wrong polynomial ring")
            if not poly.is_polynomial():
                raise PresentationError(f"delta_{k+1}(x_{j+1}) has negative exponents")
            if any(i >= k for i in poly.support()):
                raise SupportViolation(k, j, f"delta_{k+1}(x_{j+1}) involves generators >= x_{k+1}")
        n = self.n
        # lambda_kj = <h_k, chi_j> over hden for j <= k; lam_den is hden with
        # the gcd of hden and every entry below the diagonal divided out.
        dots, hden = _pairing(self.h, self.weights)
        den = hden // gcd(hden, *(dots[k][j] for k in range(n) for j in range(k)))
        cut = hden // den
        nums = [[0] * n for _ in range(n)]
        for k in range(n):
            for j in range(k):
                nums[k][j] = dots[k][j] // cut
                nums[j][k] = -nums[k][j]
        put("lam_num", tuple(tuple(row) for row in nums))
        put("lam_den", den)
        put("lam_diagonal", tuple(Fraction(dots[k][k], hden) for k in range(n)))
        if self.h_star is None:
            put("lam_star", None)
        else:
            stars, sden = _pairing(self.h_star, self.weights)
            put("lam_star", tuple(Fraction(stars[j][j], sden) for j in range(n)))
        items = [(key, poly) for key, poly in sorted(self.delta.items()) if not poly.is_zero()]
        dden = lcm(*(poly.den for _, poly in items))
        rows = [[] for _ in range(n)]
        for (k, j), poly in items:
            rows[k].append((j, tuple((e, c * (dden // poly.den)) for e, c in poly.terms.items())))
        put("delta_num", tuple(tuple(row) for row in rows))
        put("delta_den", dden)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({args})"

    # ------------------------------------------------------------- derived data

    def lam(self, k: int, j: int) -> Fraction:
        """Entry lambda_kj of the skew-symmetric scalar matrix."""
        return Fraction(self.lam_num[k][j], self.lam_den)

    def lam_diag(self, k: int) -> Fraction:
        """The h_k-eigenvalue lambda_k of x_k (nonzero for valid input)."""
        return self.lam_diagonal[k]

    def omega_lambda_matrix(self, rows: Sequence[Sequence[int]],
                            cols: Sequence[Sequence[int]]) -> ScaledMatrix:
        """Omega_lambda(f, g) for every f in rows and g in cols, as int
        numerators over lam_den.

        Each row L.f = sum_k f_k lam_num[k] is summed once and read on the
        nonzero entries of every g: Omega_lambda(f, g) = (L.f . g) / lam_den.
        alpha, q and every seed's r are these numerators; a Fraction is
        built only where a report prints a value or a failure quotes one.
        """
        num = self.lam_num
        col_nzs = [[(j, x) for j, x in enumerate(g) if x] for g in cols]
        out = []
        for f in rows:
            row = [0] * self.n
            for k, fk in enumerate(f):
                if fk:
                    row = [x + fk * v for x, v in zip(row, num[k])]
            out.append([sum(gj * row[j] for j, gj in g_nz) for g_nz in col_nzs])
        return out, self.lam_den

    def delta_entry(self, k: int, j: int) -> MvLaurent:
        return self.delta.get((k, j), MvLaurent.zero(self.n))

    def delta_gen_images(self, k: int) -> List[MvLaurent]:
        """Images [delta_k(x_0), ..., delta_k(x_{N-1})] defining the map delta_k."""
        zero = MvLaurent.zero(self.n)
        return [self.delta.get((k, j), zero) if j < k else zero for j in range(self.n)]

    def delta_is_zero(self, k: int) -> bool:
        return all((k, j) not in self.delta or self.delta[(k, j)].is_zero() for j in range(k))

    def monomial_weight(self, exp: Sequence[int]) -> Tuple[int, ...]:
        w = [0] * self.torus_rank
        for j, m in enumerate(exp):
            if m:
                for a in range(self.torus_rank):
                    w[a] += m * self.weights[j][a]
        return tuple(w)

    def nilpotence_bound(self) -> int:
        maxdeg = max((poly.total_degree() for poly in self.delta.values()), default=0)
        return 2 + self.n * maxdeg


class ValidationReport(NamedTuple):
    passed: bool
    checks: Dict[str, bool]
    failures: List[PresentationError]


# ----------------------------------------------------------------- bracket engine

# One prepared term of a bracket operand: exponent a, int numerator, the
# nonzero (index, exponent) entries of a, their indices, and the row
# L.a = sum_k a_k * lam_num[k], so that Omega_lambda(a, b) = (L.a . b) / lam_den.
Operand = List[Tuple[ExpVec, int, List[Tuple[int, int]], FrozenSet[int], List[int]]]


def _prepare(p: PoissonPresentation, nums: Dict[ExpVec, int]) -> Operand:
    """The terms of an int term map, prepared once for any number of brackets."""
    lam = p.lam_num
    out = []
    for e, c in nums.items():
        nz = [(k, m) for k, m in enumerate(e) if m]
        row = [0] * p.n
        for k, m in nz:
            row = [x + m * v for x, v in zip(row, lam[k])]
        out.append((e, c, nz, frozenset(k for k, _ in nz), row))
    return out


def _prepared_gens(p: PoissonPresentation) -> List[Operand]:
    """The generators x_1..x_N, prepared; each numerator is 1 over 1."""
    n = p.n
    return [_prepare(p, {tuple(int(i == a) for i in range(n)): 1}) for a in range(n)]


def _bracket_into(p: PoissonPresentation, fa: Operand, gb: Operand, acc: Dict[ExpVec, int]) -> None:
    """Add the int numerators of {f, g} into acc.

    fa and gb are f and g prepared over denominators fden and gden; what is
    added is {f, g} times fden * gden * lcm(lam_den, delta_den).  On Laurent
    monomials
        {x^a, x^b} = Omega_lambda(a,b) x^(a+b)
                     + sum_{k>j} (a_k b_j - a_j b_k) x^(a+b-e_k-e_j) delta_k(x_j),
    which covers negative exponents via the derivation rule on inverses.  A
    table entry (k, j) contributes only when x_k and x_j both occur in x^a or
    x^b, so only those entries are visited, in table order.  Terms are added
    in the order repeated ``out + term`` would add them; a sum that cancels
    drops its term.
    """
    rows = p.delta_num
    den = lcm(p.lam_den, p.delta_den)
    lam_scale, delta_scale = den // p.lam_den, den // p.delta_den
    get = acc.get
    for ea, ca, _, a_supp, la in fa:
        for eb, cb, b_nz, b_supp, _ in gb:
            scale = ca * cb
            total = 0
            for j, bj in b_nz:
                total += bj * la[j]
            ab = tuple(map(add, ea, eb))
            if total:
                s = get(ab, 0) + scale * total * lam_scale
                if s:
                    acc[ab] = s
                else:
                    del acc[ab]
            supp = a_supp | b_supp
            for k in sorted(supp):
                for j, terms in rows[k]:
                    if j not in supp:
                        continue
                    factor = ea[k] * eb[j] - ea[j] * eb[k]
                    if not factor:
                        continue
                    shift = list(ab)
                    shift[k] -= 1
                    shift[j] -= 1
                    c = scale * factor * delta_scale
                    for ep, cp in terms:
                        e = tuple(map(add, shift, ep))
                        s = get(e, 0) + c * cp
                        if s:
                            acc[e] = s
                        else:
                            del acc[e]


def bracket(p: PoissonPresentation, f: MvLaurent, g: MvLaurent) -> MvLaurent:
    """Poisson bracket {f, g}, extended as a biderivation from the table.

    The public wrapper of the int kernel ``_bracket_into``: the numerators
    of f and g are prepared once, and their bracket accumulates in ints over
    f.den * g.den * lcm(lam_den, delta_den).
    """
    n = p.n
    if f.is_zero() or g.is_zero():
        return MvLaurent.zero(n)
    acc: Dict[ExpVec, int] = {}
    _bracket_into(p, _prepare(p, f.terms), _prepare(p, g.terms), acc)
    return MvLaurent._of(n, acc, f.den * g.den * lcm(p.lam_den, p.delta_den))


def _bracket_is_multiple(p: PoissonPresentation, fa: Operand, gb: Operand, c: int, cden: int,
                         prod: Dict[ExpVec, int]) -> bool:
    """Whether {f, g} == (c / cden) * f * g, decided on int numerators.

    fa and gb are f and g prepared over fden and gden, and prod holds the
    numerators of f * g over fden * gden.  The bracket's numerators are over
    fden * gden * den with den = lcm(lam_den, delta_den), so the identity
    holds term by term as numerator * cden == c * den * prod.
    """
    acc: Dict[ExpVec, int] = {}
    _bracket_into(p, fa, gb, acc)
    if not c:
        return not acc
    if len(acc) != len(prod):
        return False
    a = c * lcm(p.lam_den, p.delta_den)
    get = acc.get
    return all(get(e, 0) * cden == a * v for e, v in prod.items())


def weight_of(p: PoissonPresentation, f: MvLaurent) -> Tuple[int, ...]:
    """Common torus weight of f's monomials; raises Inhomogeneous otherwise."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no weight")
    it = iter(f.terms)
    first = next(it)
    w = p.monomial_weight(first)
    for e in it:
        if p.monomial_weight(e) != w:
            raise Inhomogeneous(first, e)
    return w


# --------------------------------------------------------------------- validation


def validate_algebra(p: PoissonPresentation, max_nilpotence_iters: int | None = None) -> ValidationReport:
    """Check the iterated Poisson-Ore axioms on the presentation.

    (a) Jacobi identity on all generator triples (sufficient, since the
        bracket is extended as a biderivation).  Each generator pair is
        bracketed once; the three brackets of a triple add into one map of
        int numerators, and a JacobiFailure's witness (the polynomial sum of
        the three) is built only when that map is not empty;
    (b) each delta_k(x_j) homogeneous of weight chi_k + chi_j;
    (c) lambda_k != 0 for every k;
    (d) local nilpotence of each delta_k on each x_j, iterated up to a bound;
    (e) skewness of the lambda matrix.  lambda is skew by construction from
        the lower triangle (h_j constrains only generators below j), so this
        check is structural; the h*-rows are cross-checked in the symmetric
        validator instead.
    """
    failures: List[PresentationError] = []
    checks = {"jacobi": True, "delta_homogeneous": True, "nonzero_eigenvalues": True,
              "local_nilpotence": True, "lambda_skew": True}
    n = p.n

    for k in range(n):
        if p.lam_diag(k) == 0:
            checks["nonzero_eigenvalues"] = False
            failures.append(ZeroEigenvalue(k))

    for (k, j), poly in sorted(p.delta.items()):
        if poly.is_zero():
            continue
        target = tuple(a + b for a, b in zip(p.weights[k], p.weights[j]))
        if {p.monomial_weight(e) for e in poly.terms} != {target}:
            checks["delta_homogeneous"] = False
            failures.append(InhomogeneousDelta(k, j, poly))

    bound = max_nilpotence_iters if max_nilpotence_iters is not None else p.nilpotence_bound()
    for k in range(1, n):
        if p.delta_is_zero(k):
            continue
        images = p.delta_gen_images(k)
        for j in range(k):
            cur = p.delta_entry(k, j)
            steps = 0
            while not cur.is_zero():
                steps += 1
                if steps > bound:
                    checks["local_nilpotence"] = False
                    failures.append(NilpotenceBoundExceeded(k, j, bound, cur))
                    break
                cur = apply_derivation(images, cur)

    # Each triple's three brackets add into one int map, over den^2 with
    # den = lcm(lam_den, delta_den): the generators are over 1, and each
    # {x_a, x_b} is kept as its numerators over den, prepared on first use.
    den = lcm(p.lam_den, p.delta_den)
    gens = _prepared_gens(p)
    pairs: Dict[Tuple[int, int], Operand] = {}

    def gen_bracket(a: int, b: int) -> Operand:
        if (a, b) not in pairs:
            nums: Dict[ExpVec, int] = {}
            _bracket_into(p, gens[a], gens[b], nums)
            pairs[(a, b)] = _prepare(p, nums)
        return pairs[(a, b)]

    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                outer = ((i, gen_bracket(j, k)), (j, gen_bracket(k, i)), (k, gen_bracket(i, j)))
                acc: Dict[ExpVec, int] = {}
                for a, pb in outer:
                    _bracket_into(p, gens[a], pb, acc)
                if not acc:
                    continue
                # The witness is the sum of the three brackets, added as polynomials.
                witness = MvLaurent.zero(n)
                for a, pb in outer:
                    part: Dict[ExpVec, int] = {}
                    _bracket_into(p, gens[a], pb, part)
                    witness = witness + MvLaurent._of(n, part, den * den)
                checks["jacobi"] = False
                failures.append(JacobiFailure(k, j, i, witness))

    passed = all(checks.values())
    return ValidationReport(passed=passed, checks=checks, failures=failures)
