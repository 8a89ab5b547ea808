"""Algebra-level computations that no pcgl command runs, kept as oracles.

The derivation-deleting map theta_k with the derivations delta_k and
sigma_k it is built from; the integer chain recurrence for alpha and q,
which cgl.alpha_q_matrices replaced by reading the bicharacter Omega_lambda
on unit and ebar vectors; the u-elements u_[i, s^m(i)] for every m, built
from interval primes, with their leading data (pi, f, g), which
symmetric.u_leading_term replaced for m = 1 by reading
lambda_s^-1 delta_s(x_i) off the bracket table; and the solid minors of a
generic matrix, the ground truth for the prime sequences of the matrix
preset.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from pcgl.cgl import EtaData, PrimeSequenceError, QData
from pcgl.poly import ExpVec, MvLaurent, apply_derivation
from pcgl.presentation import PoissonPresentation, SupportViolation
from pcgl.presets import ShapeMismatch
from pcgl.symmetric import LeadingFormViolation, interval_prime


# ------------------------------------------------------- derivation-deleting map


def delta(p: PoissonPresentation, k: int, f: MvLaurent) -> MvLaurent:
    """The derivation delta_k applied to f (f must live below generator k)."""
    if any(i >= k for i in f.support()):
        raise SupportViolation(k, max(f.support()), f"argument of delta_{k+1} involves x_{max(f.support())+1}")
    return apply_derivation(p.delta_gen_images(k), f)


def dot(h: Sequence[Fraction], w: Sequence[int]) -> Fraction:
    """The pairing <h, w> of a torus vector with a weight, summed as Fractions."""
    return sum((a * b for a, b in zip(h, w)), Fraction(0))


def sigma_scalar(p: PoissonPresentation, k: int, exp: Sequence[int]) -> Fraction:
    """Eigenvalue of sigma_k = (h_k . ) on the monomial x^exp."""
    return sum((m * dot(p.h[k], p.weights[j]) for j, m in enumerate(exp) if m), Fraction(0))


def sigma(p: PoissonPresentation, k: int, f: MvLaurent) -> MvLaurent:
    """The diagonal derivation sigma_k = (h_k . ) applied termwise."""
    return MvLaurent.from_terms(p.n, ((e, c * sigma_scalar(p, k, e)) for e, c in f.terms.items()))


def cauchon_theta(p: PoissonPresentation, k: int, f: MvLaurent) -> MvLaurent:
    """Derivation-deleting map: sum_n (1/n!)(-1/lambda_k)^n delta_k^n(f) x_k^(-n).

    Local nilpotence of delta_k makes the series finite; the presentation's
    nilpotence bound guards against invalid input.
    """
    if any(i >= k for i in f.support()):
        raise SupportViolation(k, max(f.support()), f"theta at {k+1} needs input below x_{k+1}")
    lam_k = p.lam_diag(k)
    images = p.delta_gen_images(k)
    bound = p.nilpotence_bound()
    out = MvLaurent.zero(p.n)
    cur = f
    n_fact = 1
    ratio = Fraction(-1) / lam_k
    power = Fraction(1)
    step = 0
    while not cur.is_zero():
        if step > bound:
            raise PrimeSequenceError(f"delta_{k+1} failed to nilpotate within {bound} steps")
        out = out + cur * (power / n_fact) * MvLaurent.gen(p.n, k, -step)
        step += 1
        n_fact *= step
        power *= ratio
        cur = apply_derivation(images, cur)
    return out


# ------------------------------------------------------------------- alpha and q


def alpha_q_recurrence(p: PoissonPresentation, eta: EtaData) -> QData:
    """alpha and q by one integer add per entry along the predecessor chains.

    The chains nest, ebar_j = ebar_{p(j)} + e_j, so on numerators over
    p.lam_den
        alpha[k][j] = alpha[k][p(j)] + lam_num[k][j],  q[k] = q[p(k)] + alpha[k].
    """
    n = p.n
    pred = eta.pred
    alpha: List[List[int]] = []
    for src in p.lam_num:
        row = [0] * n
        for j in range(n):
            pj = pred[j]
            row[j] = src[j] if pj is None else row[pj] + src[j]
        alpha.append(row)
    q: List[List[int]] = []
    for k in range(n):
        pk = pred[k]
        q.append(list(alpha[k]) if pk is None else [a + b for a, b in zip(q[pk], alpha[k])])
    return QData(alpha=(alpha, p.lam_den), q=(q, p.lam_den))


# ------------------------------------------------------------------ u-elements


@dataclass
class UElementData:
    i: int
    m: int
    u: MvLaurent
    pi: Fraction
    f: ExpVec
    g: ExpVec


def u_element_and_pi(p: PoissonPresentation, eta: EtaData, i: int, m: int) -> UElementData:
    """u_[i,s^m(i)] with its leading coefficient pi, exponent f, and ebar-basis g.

    u = y_[i, s^(m-1)(i)] y_[s(i), s^m(i)] - y_[s(i), s^(m-1)(i)] y_[i, s^m(i)];
    the leading exponent must avoid the eta-class of i, and g re-expresses f
    in the interval ebar-vectors of the class-final indices inside the open
    interval (unique since each such index owns its own coordinate).  The
    degenerate case m = 0 is the convention u_[i,i] = 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        zero = (0,) * p.n
        return UElementData(i=i, m=0, u=MvLaurent.const(p.n, 1), pi=Fraction(1), f=zero, g=zero)
    end = eta.succ_power(i, m)
    if end is None:
        raise IndexError(f"s^{m}({i+1}) is +infinity")
    s_i = eta.succ[i]
    a = interval_prime(p, eta, i, m - 1)
    b = interval_prime(p, eta, s_i, m - 1)
    big = interval_prime(p, eta, i, m)
    inner = interval_prime(p, eta, s_i, m - 2) if m >= 2 else MvLaurent.const(p.n, 1)
    u = a * b - inner * big
    if u.is_zero():
        raise LeadingFormViolation(f"u_[{i+1}, s^{m}] vanishes")
    pi, f = u.leading_term()

    chain = {eta.succ_power(i, t) for t in range(m + 1)}
    if any(f[idx] for idx in chain):
        raise LeadingFormViolation(f"leading exponent of u_[{i+1}, s^{m}] touches the class of {i+1}")

    # P = class-final indices within the open interval (i, s^m(i))
    p_set = [k for k in range(i + 1, end) if k not in chain
             and (eta.succ[k] is None or eta.succ[k] > end)]
    g = [0] * p.n
    remaining = list(f)
    for k in sorted(p_set, reverse=True):
        mk = remaining[k]
        if mk:
            g[k] = mk
            cur: Optional[int] = k
            while cur is not None and cur > i:
                remaining[cur] -= mk
                cur = eta.pred[cur]
    if any(remaining):
        raise LeadingFormViolation(
            f"f of u_[{i+1}, s^{m}] is not a combination of interval ebar-vectors")
    return UElementData(i=i, m=m, u=u, pi=pi, f=f, g=tuple(g))


# ------------------------------------------------------------------ solid minors


def solid_minor(m: int, n: int, rows: Tuple[int, int], cols: Tuple[int, int]) -> MvLaurent:
    """Determinant of the t-submatrix on the given 1-based row/column intervals.

    The independent oracle for the prime sequences of the matrix preset;
    computed by full Leibniz expansion, which is exact and cheap at desk
    scale.
    """
    r0, r1 = rows
    c0, c1 = cols
    if r1 - r0 != c1 - c0:
        raise ShapeMismatch("row and column intervals must have equal length")
    if not (1 <= r0 <= r1 <= m and 1 <= c0 <= c1 <= n):
        raise ShapeMismatch("intervals escape the matrix shape")
    size = r1 - r0 + 1
    N = m * n
    terms = []
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        e = [0] * N
        for i in range(size):
            r = r0 + i
            c = c0 + perm[i]
            e[(r - 1) * n + (c - 1)] += 1
        terms.append((tuple(e), Fraction(sign)))
    return MvLaurent.from_terms(N, terms)


def expected_minor_for_generator(m: int, n: int, k: int) -> MvLaurent:
    """Solid minor the prime sequence must produce at 0-based position k."""
    r = k // n + 1
    c = k % n + 1
    t = min(r, c)
    return solid_minor(m, n, (r - t + 1, r), (c - t + 1, c))
