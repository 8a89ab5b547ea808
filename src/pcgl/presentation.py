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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import MvLaurent, apply_derivation


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


def _dot(h: Sequence[Fraction], w: Sequence[int]) -> Fraction:
    return sum((a * b for a, b in zip(h, w)), Fraction(0))


def _derived():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class PoissonPresentation:
    """Immutable presentation data; derived scalars are precomputed.

    Construction computes, once, the data every bracket and bicharacter
    reads (none of it takes part in equality or repr):

    * ``lam_rows`` -- the skew-symmetric lambda matrix as Fractions;
    * ``lam_num`` / ``lam_den`` -- the same matrix as integer numerators
      over one common denominator (the lcm of the entries' denominators);
    * ``lam_diagonal`` -- the eigenvalues lambda_k = <h_k, chi_k>;
    * ``lam_star`` -- the eigenvalues lambda*_j = <h*_j, chi_j>, or None
      without h_star;
    * ``delta_items`` -- the nonzero table entries as sorted (k, j, poly);
    * ``delta_rows`` -- the same entries by k: ``delta_rows[k]`` maps j to
      delta_k(x_j).
    """

    n: int
    torus_rank: int
    weights: Tuple[Tuple[int, ...], ...]
    h: Tuple[Tuple[Fraction, ...], ...]
    delta: Dict[Tuple[int, int], MvLaurent] = field(default_factory=dict)
    h_star: Optional[Tuple[Tuple[Fraction, ...], ...]] = None
    lam_rows: Tuple[Tuple[Fraction, ...], ...] = _derived()
    lam_num: Tuple[Tuple[int, ...], ...] = _derived()
    lam_den: int = _derived()
    lam_diagonal: Tuple[Fraction, ...] = _derived()
    lam_star: Optional[Tuple[Fraction, ...]] = _derived()
    delta_items: Tuple[Tuple[int, int, MvLaurent], ...] = _derived()
    delta_rows: Tuple[Dict[int, MvLaurent], ...] = _derived()

    def __post_init__(self):
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
        rows = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            for j in range(k):
                v = _dot(self.h[k], self.weights[j])
                rows[k][j] = v
                rows[j][k] = -v
        den = lcm(*(v.denominator for row in rows for v in row))
        put = partial(object.__setattr__, self)
        put("lam_rows", tuple(tuple(row) for row in rows))
        put("lam_num", tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows))
        put("lam_den", den)
        put("lam_diagonal", tuple(_dot(self.h[k], self.weights[k]) for k in range(n)))
        put("lam_star", None if self.h_star is None else
            tuple(_dot(self.h_star[j], self.weights[j]) for j in range(n)))
        put("delta_items", tuple((k, j, poly) for (k, j), poly in sorted(self.delta.items())
                                 if not poly.is_zero()))
        put("delta_rows", tuple({j: poly for kk, j, poly in self.delta_items if kk == k}
                                for k in range(n)))

    @classmethod
    def from_lambda(cls, n: int, lam_rows, lam_diag, delta=None) -> "PoissonPresentation":
        """Raw-lambda input mode: synthesize h for the standard (K^x)^N torus.

        `lam_rows` is the skew-symmetric scalar matrix and `lam_diag` the
        nonzero eigenvalues of the x_k.  With the standard action (weight of
        x_k is e_k), h_k := (lam_k1, ..., lam_k,k-1, lam_k, 0, ...) realizes
        exactly those scalars, so the torus-compatibility condition is
        asserted by construction rather than verified against user data.
        """
        lam_rows = [[Fraction(x) for x in row] for row in lam_rows]
        lam_diag = [Fraction(x) for x in lam_diag]
        if len(lam_rows) != n or any(len(r) != n for r in lam_rows) or len(lam_diag) != n:
            raise PresentationError("lambda data must be N x N plus N diagonal eigenvalues")
        for k in range(n):
            for j in range(n):
                if lam_rows[k][j] != -lam_rows[j][k]:
                    raise PresentationError("lambda matrix must be skew-symmetric")
        weights = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(n))
        h = []
        for k in range(n):
            row = [Fraction(0)] * n
            for j in range(k):
                row[j] = lam_rows[k][j]
            row[k] = lam_diag[k]
            h.append(tuple(row))
        return cls(n=n, torus_rank=n, weights=weights, h=tuple(h), delta=dict(delta or {}))

    # ------------------------------------------------------------- derived data

    def lam(self, k: int, j: int) -> Fraction:
        """Entry lambda_kj of the skew-symmetric scalar matrix."""
        return self.lam_rows[k][j]

    def lambda_matrix(self) -> List[List[Fraction]]:
        return [list(row) for row in self.lam_rows]

    def lam_diag(self, k: int) -> Fraction:
        """The h_k-eigenvalue lambda_k of x_k (nonzero for valid input)."""
        return self.lam_diagonal[k]

    def omega_lambda(self, f: Sequence[int], g: Sequence[int]) -> Fraction:
        """Skew-symmetric bicharacter of the lambda matrix on Z^N."""
        num = self.lam_num
        g_nz = [(j, gj) for j, gj in enumerate(g) if gj]
        total = 0
        for k, fk in enumerate(f):
            if fk:
                row = num[k]
                total += fk * sum(gj * row[j] for j, gj in g_nz)
        return Fraction(total, self.lam_den)

    def delta_entry(self, k: int, j: int) -> MvLaurent:
        return self.delta.get((k, j), MvLaurent.zero(self.n))

    def delta_gen_images(self, k: int) -> List[MvLaurent]:
        """Images [delta_k(x_0), ..., delta_k(x_{N-1})] defining the map delta_k."""
        zero = MvLaurent.zero(self.n)
        return [self.delta.get((k, j), zero) if j < k else zero for j in range(self.n)]

    def delta_is_zero(self, k: int) -> bool:
        return all((k, j) not in self.delta or self.delta[(k, j)].is_zero() for j in range(k))

    def sigma_scalar(self, k: int, exp: Sequence[int]) -> Fraction:
        """Eigenvalue of sigma_k = (h_k . ) on the monomial x^exp."""
        return sum((m * _dot(self.h[k], self.weights[j]) for j, m in enumerate(exp) if m), Fraction(0))

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


@dataclass
class ValidationReport:
    passed: bool
    checks: Dict[str, bool]
    failures: List[PresentationError]

    def as_dict(self) -> dict:
        out = []
        for f in self.failures:
            entry = {"code": type(f).__name__, "detail": str(f)}
            witness = getattr(f, "witness", None)
            if isinstance(witness, MvLaurent):
                entry["witness"] = [[c.numerator, c.denominator, list(e)]
                                    for e, c in witness.sorted_terms()]
            out.append(entry)
        return {"passed": self.passed, "checks": dict(self.checks), "failures": out}


# ----------------------------------------------------------------- bracket engine


def bracket(p: PoissonPresentation, f: MvLaurent, g: MvLaurent) -> MvLaurent:
    """Poisson bracket {f, g}, extended as a biderivation from the table.

    On Laurent monomials:
        {x^a, x^b} = Omega_lambda(a,b) x^(a+b)
                     + sum_{k>j} (a_k b_j - a_j b_k) x^(a+b-e_k-e_j) delta_k(x_j),
    which covers negative exponents via the derivation rule on inverses.
    A table entry (k, j) contributes only when x_k and x_j both occur in
    x^a or x^b, so only those entries are visited, in table order.
    """
    n = p.n
    if f.is_zero() or g.is_zero():
        return MvLaurent.zero(n)
    num, den, delta_rows = p.lam_num, p.lam_den, p.delta_rows
    g_terms = []
    for eb, cb in g.terms.items():
        b_nz = [(j, m) for j, m in enumerate(eb) if m]
        g_terms.append((eb, cb, b_nz, {j for j, _ in b_nz}))
    # Terms accumulate in the order repeated `out + term` would add them.
    out: Dict[Tuple[int, ...], Fraction] = {}

    def add(e, c):
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]

    for ea, ca in f.terms.items():
        a_nz = [(k, m) for k, m in enumerate(ea) if m]
        a_supp = {k for k, _ in a_nz}
        for eb, cb, b_nz, b_supp in g_terms:
            scale = ca * cb
            total = 0
            for k, ak in a_nz:
                row = num[k]
                for j, bj in b_nz:
                    total += ak * bj * row[j]
            ab = tuple(x + y for x, y in zip(ea, eb))
            if total:
                add(ab, scale * Fraction(total, den))
            supp = sorted(a_supp | b_supp)
            for i, k in enumerate(supp):
                entries = delta_rows[k]
                if not entries:
                    continue
                for j in supp[:i]:
                    poly = entries.get(j)
                    if poly is None:
                        continue
                    factor = ea[k] * eb[j] - ea[j] * eb[k]
                    if not factor:
                        continue
                    shift = list(ab)
                    shift[k] -= 1
                    shift[j] -= 1
                    c = scale * factor
                    for ep, cp in poly.terms.items():
                        add(tuple(x + y for x, y in zip(shift, ep)), c * cp)
    return MvLaurent(n, out)


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
        bracket is extended as a biderivation);
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

    for k, j, poly in p.delta_items:
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

    gens = [MvLaurent.gen(n, i) for i in range(n)]
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                acc = bracket(p, gens[i], bracket(p, gens[j], gens[k]))
                acc = acc + bracket(p, gens[j], bracket(p, gens[k], gens[i]))
                acc = acc + bracket(p, gens[k], bracket(p, gens[i], gens[j]))
                if not acc.is_zero():
                    checks["jacobi"] = False
                    failures.append(JacobiFailure(k, j, i, acc))

    passed = all(checks.values())
    return ValidationReport(passed=passed, checks=checks, failures=failures)
