"""Symmetric presentations: reversal data, interval primes, and normalization.

A presentation is symmetric when every delta_k(x_j) lives strictly between
x_j and x_k and a second family h*_j realizes the reversed adjunction order.
That symmetry produces one P-CGL presentation per permutation in Xi_N (the
prefixes-are-intervals subgroup-like subset of S_N), whose prime sequences
are selected from a single stock of interval primes y_[i, s^m(i)]
(interval_prime builds one, interval_exponent gives its leading exponent
without building it).  The eigenvalues lambda*_j = <h*_j, chi_j> are the
presentation's lam_star, computed once with it.  All the
data that fixes the selection for one tau -- sigma = tau_bullet o tau and
the seed key of interval labels (start, m) -- is read off one walk along tau
in tau_data.  Commands walk only the chain Gamma_N
inside Xi_N (gamma_chain), never all 2^(N-1) elements of Xi_N.  The
leading term (pi, f) of each u_[i, s(i)], read off the bracket table as
lambda_s^-1 delta_s(x_i), and the gamma-rescaling that normalizes all pi
to 1 also live here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .cgl import EtaData, PrimeSequenceReport, compute_eta_and_primes
from .poly import ExpVec, MvLaurent, apply_derivation
from .presentation import (
    PoissonPresentation,
    PresentationError,
    SupportViolation,
    ValidationReport,
    _pairing,
)

Perm = Tuple[int, ...]  # one-line notation, 0-based entries
SeedKey = Tuple[Tuple[int, int], ...]  # interval labels (start, m) in ytilde order


class SymmetryError(PresentationError):
    pass


class NoHStarSolution(SymmetryError):
    def __init__(self, j, msg=None):
        super().__init__(msg or f"no h*_{j+1} vector satisfies the reversal constraints")
        self.index = j


class ZeroLambdaStar(SymmetryError):
    def __init__(self, j):
        super().__init__(f"every admissible h*_{j+1} has zero eigenvalue on x_{j+1}")
        self.index = j


class Incompatible(SymmetryError):
    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class LeadingFormViolation(SymmetryError):
    pass


# ------------------------------------------------------------------ validation


def validate_symmetric(p: PoissonPresentation) -> Tuple[
        ValidationReport, PoissonPresentation, Optional[Tuple[EtaData, PrimeSequenceReport]]]:
    """Check Def-style symmetry: support condition plus existence of h* rows.

    Returns the report, a presentation that definitely carries h_star
    vectors (the input itself when they were supplied, otherwise a copy with
    a solved family), and, when the report passes, that presentation's prime
    sequence from compute_eta_and_primes (else None); callers read it
    instead of computing it again.  A presentation that passes but has no
    prime sequence raises that computation's PrimeSequenceError.

    Supplied h* rows are verified: <h*_j, chi_k> = -lambda_kj for k > j, on
    int numerators (Fractions are built only for a failure's text), and
    lambda*_j != 0.  Missing ones are found by exact linear solving,
    preferring the eigenvalue -lambda_{s(j)} on exchangeable indices, which
    any valid symmetric structure must produce; that needs the successors
    s(j), so there the prime sequence is computed first.  It reads no h*, so
    it is the returned presentation's too.
    """
    failures: List[PresentationError] = []
    checks = {"delta_support": True, "h_star": True}
    n, d = p.n, p.torus_rank

    for (k, j), poly in sorted(p.delta.items()):
        if poly.is_zero():
            continue
        bad = [i for i in poly.support() if not (j < i < k)]
        if bad:
            checks["delta_support"] = False
            failures.append(SupportViolation(k, j, f"delta_{k+1}(x_{j+1}) involves x_{bad[0]+1} outside [{j+2},{k}]"))

    if p.h_star is not None:
        # <h*_j, chi_k> = stars[j][k] / sden against -lambda_kj = -lam_num[k][j] / lam_den
        stars, sden = _pairing(p.h_star, p.weights)
        lam_num, lam_den = p.lam_num, p.lam_den
        for j in range(n):
            row = stars[j]
            for k in range(j + 1, n):
                if row[k] * lam_den != -lam_num[k][j] * sden:
                    checks["h_star"] = False
                    failures.append(NoHStarSolution(
                        j, f"<h*_{j+1}, chi_{k+1}> = {Fraction(row[k], sden)}, expected {-p.lam(k, j)}"))
            if not row[j]:
                checks["h_star"] = False
                failures.append(ZeroLambdaStar(j))
        result, primes = p, None
    else:
        primes = compute_eta_and_primes(p)
        succ_of = primes[0].succ
        solved: List[Tuple[Fraction, ...]] = []
        for j in range(n):
            rows = [list(p.weights[k]) for k in range(j + 1, n)]
            rhs = [-p.lam(k, j) for k in range(j + 1, n)]
            (particular,), null_basis = linalg.solve(rows, [rhs]) if rows else ([[Fraction(0)] * d], [
                [Fraction(1) if a == b else Fraction(0) for a in range(d)] for b in range(d)])
            if particular is None:
                checks["h_star"] = False
                failures.append(NoHStarSolution(j))
                solved.append(tuple(Fraction(0) for _ in range(d)))
                continue
            vals, vden = _pairing([particular, *null_basis], [p.weights[j]])
            base_val, *dir_vals = (Fraction(row[0], vden) for row in vals)
            target = -p.lam_diag(succ_of[j]) if succ_of[j] is not None else None
            vec = _adjust_eigenvalue(particular, null_basis, base_val, dir_vals, target)
            if vec is None:
                checks["h_star"] = False
                failures.append(ZeroLambdaStar(j) if target is None else NoHStarSolution(
                    j, f"h*_{j+1} exists but cannot attain eigenvalue {target} forced by the level set"))
                vec = particular
            solved.append(tuple(vec))
        result = PoissonPresentation(
            n=n, torus_rank=d, weights=p.weights, h=p.h, delta=p.delta, h_star=tuple(solved),
        )

    passed = all(checks.values())
    if not passed:
        primes = None
    elif primes is None:
        primes = compute_eta_and_primes(result)
    return ValidationReport(passed=passed, checks=checks, failures=failures), result, primes


def _adjust_eigenvalue(particular, null_basis, base_val, dir_vals, target):
    """Pick a solution of the affine family with prescribed/nonzero eigenvalue."""
    if target is not None:
        if base_val == target:
            return list(particular)
        for v, dv in zip(null_basis, dir_vals):
            if dv:
                t = (target - base_val) / dv
                return [a + t * b for a, b in zip(particular, v)]
        return None
    if base_val != 0:
        return list(particular)
    for v, dv in zip(null_basis, dir_vals):
        if dv:
            return [a + b for a, b in zip(particular, v)]
    return None


def compute_d_integers(p: PoissonPresentation, eta: EtaData) -> Tuple[Dict[int, int], Fraction]:
    """Positive integers d per eta-label with lambda*_l = d_{eta(l)} q on ex.

    Also verifies the ratio condition lambda*_l / lambda*_j in Q_{>0} and the
    level-set consistency lambda*_l = -lambda_{s(l)} with constant lambda
    along each level set.  Raises Incompatible on any failure.
    """
    if p.h_star is None:
        raise SymmetryError("presentation has no h_star data")
    ex = eta.exchangeable
    if not ex:
        return {}, Fraction(1)

    lam_star = p.lam_star
    values: Dict[int, Fraction] = {}
    for l in ex:
        ls = lam_star[l]
        s_l = eta.succ[l]
        if ls != -p.lam_diag(s_l):
            raise Incompatible(
                f"lambda*_{l+1} = {ls} != -lambda_{s_l+1} = {-p.lam_diag(s_l)}", (l, s_l))
        lbl = eta.eta[l]
        if lbl in values and values[lbl] != ls:
            raise Incompatible(f"lambda* not constant on level set {lbl}", (l, lbl))
        values[lbl] = ls

    vals = list(values.values())
    sign = 1 if vals[0] > 0 else -1
    for l in ex:
        for j in ex:
            ratio = lam_star[l] / lam_star[j]
            if ratio <= 0:
                raise Incompatible(f"lambda*_{l+1}/lambda*_{j+1} = {ratio} not in Q_>0", (l, j))

    # q = gcd of the values as positive rationals, carrying the common sign
    q = Fraction(sign * gcd(*[abs(v.numerator) for v in vals]), lcm(*[v.denominator for v in vals]))
    d_map = {lbl: int(v / q) for lbl, v in values.items()}
    if any(m <= 0 for m in d_map.values()):
        raise Incompatible("normalized multipliers are not positive integers")
    return d_map, q


# --------------------------------------------------------------------- Gamma_N


def is_xi_element(tau: Perm) -> bool:
    seen_min = seen_max = tau[0]
    for v in tau[1:]:
        if v == seen_max + 1:
            seen_max = v
        elif v == seen_min - 1:
            seen_min = v
        else:
            return False
    return True


def tau_ij(N: int, i: int, j: int) -> Perm:
    """The Gamma_N element [i+1..j, i, j+1..N, i-1 .. 1] (arguments 1-based)."""
    if not 1 <= i <= j <= N:
        raise ValueError("need 1 <= i <= j <= N")
    line = list(range(i + 1, j + 1)) + [i] + list(range(j + 1, N + 1)) + list(range(i - 1, 0, -1))
    return tuple(v - 1 for v in line)


def gamma_chain(N: int) -> List[Perm]:
    """Gamma_N in the canonical order, tau_{1,1} = id, ..., tau_{N,N} = w_circ;
    adjacent elements differ by (k, k+1)."""
    perms: List[Perm] = [tau_ij(N, 1, 1)]
    for i in range(1, N):
        for j in range(i, N):
            # tau_ij(N, i, j) -> tau_ij(N, i, j+1) swaps i and j+1 at positions
            # j-i and j-i+1 (0-based); tau_ij(N, i, N) is tau_ij(N, i+1, i+1).
            perms.append(tau_ij(N, i, j + 1))
    return perms


def tau_data(eta: EtaData, tau: Perm) -> Tuple[Perm, SeedKey]:
    """sigma = tau_bullet o tau and the seed key, in one pass.

    Every prefix tau([1, k]) is an interval, and the members of an eta class
    increase along its p/s chain, so the class members placed up to position
    k form one interval of that chain: y_{tau,k} = y_[start, s^m(start)]
    with start the smallest of them and m the number placed before k.  So
        sigma[k]      = the (m+1)-th smallest member of that class,
        key[sigma[k]] = (start, m).
    The seed key lists the cluster variables in ytilde order; permutations
    with equal keys have equal clusters.  Raises SymmetryError unless tau is
    in Xi_N.
    """
    n = len(eta.eta)
    if sorted(tau) != list(range(n)):
        raise SymmetryError(f"{[v+1 for v in tau]} is not a permutation of 1..{n}")
    if not is_xi_element(tau):
        raise SymmetryError(f"{[v+1 for v in tau]} is not an interval-prefix permutation")
    members: Dict[int, List[int]] = {}
    for v in range(n):
        members.setdefault(eta.eta[v], []).append(v)
    count: Dict[int, int] = {}
    start: Dict[int, int] = {}
    sigma = [0] * n
    key: List[Tuple[int, int]] = [(0, 0)] * n
    for k, v in enumerate(tau):
        lbl = eta.eta[v]
        m = count.get(lbl, 0)
        lo = start[lbl] = min(start.get(lbl, v), v)
        count[lbl] = m + 1
        sigma[k] = members[lbl][m]
        key[sigma[k]] = (lo, m)
    return tuple(sigma), tuple(key)


# ------------------------------------------------------------- interval primes


def interval_prime(p: PoissonPresentation, eta: EtaData, i: int, m: int) -> MvLaurent:
    """The prime y_[i, s^m(i)], by the one-line recursion along the level set.

    Base y_[i,i] = x_i; then for t = 1..m
        y_[i, s^t(i)] = y_[i, s^(t-1)(i)] x_{s^t(i)}
                        - lambda_{s^t(i)}^{-1} delta_{s^t(i)}(y_[i, s^(t-1)(i)]).
    The leading term x_i x_{s(i)} ... x_{s^m(i)} is certified on the way out.
    """
    end = eta.succ_power(i, m)
    if end is None:
        raise IndexError(f"s^{m}({i+1}) is +infinity")
    y = MvLaurent.gen(p.n, i)
    cur = i
    for _ in range(m):
        cur = eta.succ[cur]
        dk = apply_derivation(p.delta_gen_images(cur), y)
        y = y * MvLaurent.gen(p.n, cur) - dk * (1 / p.lam_diag(cur))
    coeff, exp = y.leading_term()
    if coeff != 1 or exp != interval_exponent(eta, i, m):
        raise LeadingFormViolation(f"y_[{i+1}, s^{m}] has leading term {coeff} x^{exp}")
    return y


def interval_exponent(eta: EtaData, i: int, m: int) -> ExpVec:
    e = [0] * len(eta.eta)
    cur: Optional[int] = i
    for _ in range(m + 1):
        if cur is None:
            raise IndexError("interval escapes [1, N]")
        e[cur] = 1
        cur = eta.succ[cur]
    return tuple(e)


# ------------------------------------------------------------------ u-elements


def u_leading_term(p: PoissonPresentation, eta: EtaData, i: int) -> Tuple[Fraction, ExpVec]:
    """(pi, f): the leading coefficient and exponent of u_[i, s(i)].

    With s = s(i), u_[i, s] = x_i x_s - y_[i, s], and interval_prime's
    recursion gives y_[i, s] = x_i x_s - lambda_s^-1 delta_s(x_i), so
    u_[i, s] = lambda_s^-1 delta_s(x_i) is read off the bracket table.  The
    table holds delta_s(x_i) in generators below s only, so x_i x_s leads
    y_[i, s] and that prime needs no check here.  f must avoid x_i and x_s
    and be a combination of the interval ebar-vectors of the class-final
    indices strictly between i and s (each owns its own coordinate).
    """
    s = eta.succ[i]
    u = p.delta_entry(s, i) * (1 / p.lam_diag(s))
    if u.is_zero():
        raise LeadingFormViolation(f"u_[{i+1}, s^1] vanishes")
    pi, f = u.leading_term()
    if f[i] or f[s]:
        raise LeadingFormViolation(f"leading exponent of u_[{i+1}, s^1] touches the class of {i+1}")
    remaining = list(f)
    for k in range(s - 1, i, -1):
        mk = remaining[k]
        if mk and (eta.succ[k] is None or eta.succ[k] > s):
            cur: Optional[int] = k
            while cur is not None and cur > i:
                remaining[cur] -= mk
                cur = eta.pred[cur]
    if any(remaining):
        raise LeadingFormViolation(
            f"f of u_[{i+1}, s^1] is not a combination of interval ebar-vectors")
    return pi, f


def pi_values(p: PoissonPresentation, eta: EtaData) -> Iterator[Tuple[int, Fraction]]:
    """(i, pi_[i, s(i)]) for every i with a successor, in increasing i, lazily."""
    for i in range(p.n):
        if eta.succ[i] is not None:
            yield i, u_leading_term(p, eta, i)[0]


# ----------------------------------------------------------------- normalization


def apply_rescaling(p: PoissonPresentation, gamma: Sequence[Fraction]) -> PoissonPresentation:
    """The presentation on generators gamma_j x_j (weights and h unchanged).

    Table entries transform as delta'_k(x'_j) = gamma_k gamma_j delta_k(x_j)
    re-expressed in the new generators x'_i = gamma_i x_i.
    """
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) != p.n or any(g == 0 for g in gamma):
        raise ValueError("need one nonzero scalar per generator")
    new_delta = {}
    for (k, j), poly in p.delta.items():
        if poly.is_zero():
            continue
        scaled = {}
        for e, c in poly.terms.items():
            factor = Fraction(1)
            for idx, mm in enumerate(e):
                if mm:
                    factor *= gamma[idx] ** (-mm)
            scaled[e] = c * factor * gamma[k] * gamma[j]
        new_delta[(k, j)] = MvLaurent(p.n, scaled)
    return PoissonPresentation(
        n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
        delta=new_delta, h_star=p.h_star,
    )


def rescale_generators(p: PoissonPresentation, eta: EtaData) -> Tuple[List[Fraction], PoissonPresentation]:
    """Gamma making every pi_[i, s(i)] equal 1, and the rescaled presentation.

    Free components (p(i) = -infinity) are fixed to 1; constrained ones follow
    gamma_i = gamma_{p(i)}^{-1} gamma^(f_[p(i), i]) / pi_[p(i), i], where the
    pi are computed for the current generators.
    """
    gamma: List[Fraction] = [Fraction(1)] * p.n
    for i in range(p.n):
        pi_idx = eta.pred[i]
        if pi_idx is None:
            continue
        pi, f = u_leading_term(p, eta, pi_idx)
        monom = Fraction(1)
        for idx, mm in enumerate(f):
            if mm:
                monom *= gamma[idx] ** mm
        gamma[i] = monom / (gamma[pi_idx] * pi)
    return gamma, apply_rescaling(p, gamma)
