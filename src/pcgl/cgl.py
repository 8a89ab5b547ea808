"""Prime-element combinatorics for validated iterated Poisson-Ore presentations.

Computes the level-set labeling eta with its predecessor/successor functions,
the recursive sequence y_1..y_N of homogeneous Poisson-prime elements, the
alpha/q scalar matrices as reads of the bicharacter Omega_lambda, and the
maximal-torus equations, together with an exact certification pass for all
of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .poly import ExpVec, MvLaurent, Scaled, _mul, _scale, apply_derivation
from .presentation import (
    Operand,
    PoissonPresentation,
    PresentationError,
    ScaledMatrix,
    _bracket_is_multiple,
    _prepare,
    _prepared_gens,
    bracket,
    weight_of,
)


class PrimeSequenceError(PresentationError):
    pass


class AmbiguousPredecessor(PrimeSequenceError):
    def __init__(self, k, candidates):
        super().__init__(
            f"x_{k+1}: delta_{k+1} is nonzero on several final primes "
            f"{[j+1 for j in candidates]}; input is not P-CGL"
        )
        self.index = k
        self.candidates = candidates


class NoPredecessor(PrimeSequenceError):
    def __init__(self, k):
        super().__init__(f"x_{k+1}: delta_{k+1} != 0 but kills every final prime; input is not P-CGL")
        self.index = k


class CertFailure(PrimeSequenceError):
    def __init__(self, what, lhs, rhs):
        super().__init__(f"certification failed: {what}")
        self.what = what
        self.lhs = lhs
        self.rhs = rhs


class EtaData(NamedTuple):
    """Level-set labeling and its predecessor/successor combinatorics (0-based)."""

    eta: List[int]
    pred: List[Optional[int]]
    succ: List[Optional[int]]
    exchangeable: List[int]
    rank: int

    def level_set(self, k: int) -> List[int]:
        return [j for j, lbl in enumerate(self.eta) if lbl == self.eta[k]]

    def succ_power(self, k: int, m: int) -> Optional[int]:
        cur: Optional[int] = k
        for _ in range(m):
            if cur is None:
                return None
            cur = self.succ[cur]
        return cur

    def ebar(self, k: int) -> ExpVec:
        """Exponent e_k + e_{p(k)} + ... down the predecessor chain."""
        e = [0] * len(self.eta)
        cur: Optional[int] = k
        while cur is not None:
            e[cur] = 1
            cur = self.pred[cur]
        return tuple(e)

    def as_dict(self) -> dict:
        return {
            "eta": list(self.eta),
            "pred": [None if v is None else v + 1 for v in self.pred],
            "succ": [None if v is None else v + 1 for v in self.succ],
            "exchangeable": [v + 1 for v in self.exchangeable],
            "rank": self.rank,
        }


class PrimeSequenceReport(NamedTuple):
    y: List[MvLaurent]
    leading_exponents: List[ExpVec]
    weights: List[Tuple[int, ...]]


class QData(NamedTuple):
    """alpha and q as read off Omega_lambda: int numerators over lam_den."""

    alpha: ScaledMatrix
    q: ScaledMatrix


def compute_eta_and_primes(p: PoissonPresentation) -> Tuple[EtaData, PrimeSequenceReport]:
    """Run the k = 1..N recursion producing eta, p, s and the y-sequence.

    At step k, if delta_k vanishes identically then x_k starts a fresh level
    set and y_k = x_k.  Otherwise exactly one final prime y_j of the previous
    stage satisfies delta_k(y_j) != 0; that j is the predecessor and

        y_k = y_j x_k - lambda_k^{-1} delta_k(y_j).

    Ambiguity or absence of the predecessor signals that the input is not a
    P-CGL presentation even if it passed the local axioms.
    """
    n = p.n
    eta: List[int] = []
    pred: List[Optional[int]] = []
    y: List[MvLaurent] = []
    next_label = 0
    final: List[int] = []  # indices j with s(j) currently +infinity

    for k in range(n):
        if p.delta_is_zero(k):
            eta.append(next_label)
            next_label += 1
            pred.append(None)
            y.append(MvLaurent.gen(n, k))
            final.append(k)
            continue
        images = p.delta_gen_images(k)
        hits = [(j, apply_derivation(images, y[j])) for j in final]
        nonzero = [(j, dk) for j, dk in hits if not dk.is_zero()]
        if not nonzero:
            raise NoPredecessor(k)
        if len(nonzero) > 1:
            raise AmbiguousPredecessor(k, [j for j, _ in nonzero])
        j, dkyj = nonzero[0]
        lam_k = p.lam_diag(k)
        if lam_k == 0:
            raise PrimeSequenceError(f"lambda_{k+1} = 0; run validate_algebra first")
        eta.append(eta[j])
        pred.append(j)
        y.append(y[j] * MvLaurent.gen(n, k) - dkyj * (1 / lam_k))
        final.remove(j)
        final.append(k)

    succ: List[Optional[int]] = [None] * n
    for k in range(n):
        if pred[k] is not None:
            succ[pred[k]] = k
    exchangeable = [k for k in range(n) if succ[k] is not None]
    rank = sum(1 for k in range(n) if pred[k] is None)

    lead = []
    wts = []
    for k in range(n):
        coeff, exp = y[k].leading_term()
        lead.append(exp)
        wts.append(weight_of(p, y[k]))

    eta_data = EtaData(eta=eta, pred=pred, succ=succ, exchangeable=exchangeable, rank=rank)
    report = PrimeSequenceReport(y=y, leading_exponents=lead, weights=wts)
    return eta_data, report


def alpha_q_matrices(p: PoissonPresentation, eta: EtaData) -> QData:
    """alpha_kj = Omega_lambda(e_k, ebar_j) and q_kj = Omega_lambda(ebar_k, ebar_j)."""
    n = p.n
    ebars = [eta.ebar(k) for k in range(n)]
    units = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    return QData(alpha=p.omega_lambda_matrix(units, ebars), q=p.omega_lambda_matrix(ebars, ebars))


def _q_verdicts(p: PoissonPresentation, eta: EtaData, qd: QData, ys: Sequence[Scaled],
                yops: Sequence[Operand]) -> Iterator[Tuple[int, int, bool]]:
    """(l, j, whether {y_l, y_j} = q_lj y_l y_j) for each pair j < l, in row order.

    Valid only once {y_l, x_i} = -alpha_il y_l x_i is certified for every
    i < s(l).  A pair whose y_j has every exponent below s(l) is decided, as
    certify_prime_sequence derives, by sum_i alpha_il e_i == -q_lj on every
    exponent e of y_j, in the numerators of alpha and q over lam_den; any
    other pair goes through the bracket kernel.
    """
    (alpha, den), (q, _) = qd
    exps = [[nz for _, _, nz, _, _ in op] for op in yops]
    top = [max(i for _, _, _, supp, _ in op for i in supp) for op in yops]
    for l in range(p.n):
        sl = eta.succ[l]
        col = [row[l] for row in alpha]
        for j in range(l):
            if sl is None or top[j] < sl:
                target = -q[l][j]
                holds = all(sum(m * col[i] for i, m in nz) == target for nz in exps[j])
            else:
                holds = _bracket_is_multiple(p, yops[l], yops[j], q[l][j], den, _mul(ys[l][0], ys[j][0]))
            yield l, j, holds


def certify_prime_sequence(p: PoissonPresentation, eta: EtaData, seq: PrimeSequenceReport) -> QData:
    """Exactly verify the defining identities of the computed prime sequence.

    Checks, for every k (and every pair where stated):
      * y_k is weight-homogeneous,
      * lt(y_k) = x^(ebar_k) with unit coefficient,
      * {y_j, x_k} = -alpha_kj y_j x_k whenever s(j) > k,
      * {y_k, y_j} = q_kj y_k y_j for all pairs.
    Each y_k and x_k is scaled to int numerators and prepared for the
    bracket kernel once.  A y-x identity is decided by the kernel on those
    integers, against the exponent shift y_j x_k.

    The y-y identities then follow from the y-x ones.  {y_l, -} is a
    derivation and {y_l, x_i} = -alpha_il y_l x_i is certified for every
    i < s(l), so for y_j = sum_e c_e x^e with every exponent below s(l)

        {y_l, y_j} = -y_l sum_e c_e (sum_i alpha_il e_i) x^e.

    As y_l != 0, {y_l, y_j} = q_lj y_l y_j holds exactly when
    sum_i alpha_il e_i == -q_lj on every term c_e x^e of y_j; that is
    compared in ints (_q_verdicts).  A pair whose y_j has an exponent at or
    above s(l) is not covered by the certified relations and goes through
    the kernel, against the int product y_l y_j.  Fractions are built only
    for a failure's lhs and rhs.
    Returns the alpha/q matrices (QData) on success, raises CertFailure otherwise.
    """
    n = p.n
    qd = alpha_q_matrices(p, eta)
    gens = [MvLaurent.gen(n, i) for i in range(n)]
    (alpha, den), (q, _) = qd
    for k in range(n):
        coeff, exp = seq.y[k].leading_term()
        if coeff != 1 or exp != eta.ebar(k):
            raise CertFailure(f"lt(y_{k+1})", (coeff, exp), (Fraction(1), eta.ebar(k)))
        weight_of(p, seq.y[k])  # raises Inhomogeneous on failure
    ys = [_scale(y.terms) for y in seq.y]
    yops = [_prepare(p, nums) for nums, _ in ys]
    xops = _prepared_gens(p)
    for j in range(n):
        ynums = ys[j][0]
        for k in range(n):
            sj = eta.succ[j]
            if sj is not None and sj <= k:
                continue
            shifted = {e[:k] + (e[k] + 1,) + e[k + 1:]: c for e, c in ynums.items()}
            if not _bracket_is_multiple(p, yops[j], xops[k], -alpha[k][j], den, shifted):
                raise CertFailure(f"{{y_{j+1}, x_{k+1}}} = -alpha y x", bracket(p, seq.y[j], gens[k]),
                                  seq.y[j] * gens[k] * Fraction(-alpha[k][j], den))
    for l, j, holds in _q_verdicts(p, eta, qd, ys, yops):
        if not holds:
            raise CertFailure(f"{{y_{l+1}, y_{j+1}}} = q y y", bracket(p, seq.y[l], seq.y[j]),
                              seq.y[l] * seq.y[j] * Fraction(q[l][j], den))
    return qd


class HmaxEquation(NamedTuple):
    """Multiplicative relation psi_k = psi_{j_k}^{-1} prod_i psi_i^{f_ki}."""

    k: int
    j: int
    f: ExpVec

    def as_dict(self) -> dict:
        return {"k": self.k + 1, "j": self.j + 1, "f": list(self.f)}


def hmax_equations(p: PoissonPresentation, eta: EtaData) -> Tuple[List[HmaxEquation], int]:
    """Equations cutting out the maximal torus, plus its dimension (= rank).

    For every k with delta_k != 0 we take the smallest j with
    delta_k(x_j) != 0 and the revlex-leading monomial of that entry.  The
    choice is deterministic; any admissible choice cuts out the same torus.
    """
    eqs: List[HmaxEquation] = []
    for k in range(p.n):
        if p.delta_is_zero(k):
            continue
        j = next(j for j in range(k) if not p.delta_entry(k, j).is_zero())
        _, exp = p.delta_entry(k, j).leading_term()
        eqs.append(HmaxEquation(k=k, j=j, f=exp))
    dim = p.n - len(eqs)
    if dim != eta.rank:
        raise PrimeSequenceError(f"H_max dimension {dim} != rank {eta.rank}")
    return eqs, dim
