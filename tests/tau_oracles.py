"""Per-permutation derivations and Xi_N oracles that no pcgl command runs.

Each of the first group derives part of what symmetric.tau_data reads off
one walk along tau: the interval labels by walking the p/s chains inside the
prefix, the tau-predecessors from a full EtaData of the labels eta o tau,
tau_bullet by sorting each level set by position, and the seed key from
those.  r_matrix_per_tau is r_tau by the chain recurrence of the
tau-presentation, which cluster.r_matrix_for_tau replaced by Omega_lambda on
the key's interval exponents.

The second group works on all of Xi_N, which commands never enumerate (they
walk only Gamma_N): enumerate_xi lists it, permute_presentation builds the
tau-presentation itself from the bracket, and tau_bullet_read and
y_sequence_for_tau are reads of tau_data, checked against the first group
and against the permuted presentation's own prime sequence.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from pcgl.cgl import EtaData
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation, bracket
from pcgl.symmetric import Perm, SymmetryError, interval_prime, is_xi_element, tau_data


def perm_inverse(tau: Perm) -> Perm:
    inv = [0] * len(tau)
    for pos, v in enumerate(tau):
        inv[v] = pos
    return tuple(inv)


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(k) = a(b(k))."""
    return tuple(a[b[k]] for k in range(len(b)))


def _pred_power(eta: EtaData, k: int, m: int) -> Optional[int]:
    """p^m(k), or None once the predecessor chain ends."""
    cur: Optional[int] = k
    for _ in range(m):
        if cur is None:
            return None
        cur = eta.pred[cur]
    return cur


def interval_data_for_tau(eta: EtaData, tau) -> List[Tuple[int, int]]:
    """(start, m) pairs such that y_{tau,k} = y_[start, s^m(start)].

    For position k: if tau(k) >= tau(1), take y_[p^m(tau(k)), tau(k)] with m
    maximal such that p^m stays inside tau([1, k]); in the opposite case use
    successor powers.  Raises SymmetryError unless tau is in Xi_N.
    """
    n = len(eta.eta)
    if sorted(tau) != list(range(n)):
        raise SymmetryError(f"{[v+1 for v in tau]} is not a permutation of 1..{n}")
    if not is_xi_element(tau):
        raise SymmetryError(f"{[v+1 for v in tau]} is not an interval-prefix permutation")
    prefix = set()
    out: List[Tuple[int, int]] = []
    for k in range(len(tau)):
        v = tau[k]
        prefix.add(v)
        if v >= tau[0]:
            m = 0
            cur = eta.pred[v]
            while cur is not None and cur in prefix:
                m += 1
                cur = eta.pred[cur]
            out.append((_pred_power(eta, v, m), m))
        else:
            m = 0
            cur = eta.succ[v]
            while cur is not None and cur in prefix:
                m += 1
                cur = eta.succ[cur]
            out.append((v, m))
    return out


def eta_of_labels(labels: List[int]) -> EtaData:
    """EtaData with the given level-set labels: the predecessor of k is the
    last index before k with the label of k."""
    n = len(labels)
    last: Dict[int, int] = {}
    pred: List[Optional[int]] = []
    for k in range(n):
        pred.append(last.get(labels[k]))
        last[labels[k]] = k
    succ: List[Optional[int]] = [None] * n
    for k in range(n):
        if pred[k] is not None:
            succ[pred[k]] = k
    exchangeable = [k for k in range(n) if succ[k] is not None]
    rank = sum(1 for k in range(n) if pred[k] is None)
    return EtaData(eta=list(labels), pred=pred, succ=succ, exchangeable=exchangeable, rank=rank)


def eta_tau_data(eta: EtaData, tau) -> EtaData:
    """EtaData of the tau-reordered presentation (labels eta o tau)."""
    return eta_of_labels([eta.eta[v] for v in tau])


def tau_bullet(tau, eta: EtaData):
    """The level-set order-normalizing companion permutation of tau."""
    n = len(tau)
    out = [0] * n
    by_label: Dict[int, List[int]] = {}
    for v in range(n):
        by_label.setdefault(eta.eta[v], []).append(v)
    inv = [0] * n
    for pos, v in enumerate(tau):
        inv[v] = pos
    for label, members in by_label.items():
        sorted_vals = sorted(members)
        by_position = sorted(members, key=lambda v: inv[v])
        for val, target in zip(by_position, sorted_vals):
            out[val] = target
    return tuple(out)


def seed_key(eta: EtaData, tau):
    """sigma = tau_bullet o tau and the slot-ordered tuple of interval labels."""
    data = interval_data_for_tau(eta, tau)
    sigma = perm_compose(tau_bullet(tau, eta), tau)
    sig_inv = perm_inverse(sigma)
    return sigma, tuple(data[sig_inv[s]] for s in range(len(tau)))


def r_matrix_per_tau(p, eta: EtaData, tau) -> List[List[Fraction]]:
    """r_tau as it was assembled for every permutation.

    Generator k of the tau-presentation is x_tau(k), with the predecessors
    pred of tau_data.  Its alpha and q, as numerators over p.lam_den, follow
    the nested chains ebar_j = ebar_{p(j)} + e_j:
        alpha[k][j] = alpha[k][p(j)] + lam_num[tau(k)][tau(j)],  q[k] = q[p(k)] + alpha[k],
    and r_tau is q conjugated by sigma = tau_bullet o tau.
    """
    sigma, _key, pred = tau_data(eta, tau)
    n = p.n
    num = p.lam_num
    alpha: List[List[int]] = []
    for k in range(n):
        src = num[tau[k]]
        row = [0] * n
        for j in range(n):
            pj = pred[j]
            row[j] = src[tau[j]] if pj is None else row[pj] + src[tau[j]]
        alpha.append(row)
    q: List[List[int]] = []
    for k in range(n):
        pk = pred[k]
        q.append(list(alpha[k]) if pk is None else [a + b for a, b in zip(q[pk], alpha[k])])
    sig_inv = perm_inverse(sigma)
    return [[Fraction(q[i][j], p.lam_den) for j in sig_inv] for i in sig_inv]


# ------------------------------------------------------------------ all of Xi_N


def enumerate_xi(N: int) -> List[Perm]:
    """All permutations whose one-line prefixes are integer intervals (2^(N-1))."""
    if N < 1:
        raise ValueError("N must be positive")
    perms: List[Perm] = [(0,)]
    for size in range(2, N + 1):
        nxt: List[Perm] = []
        for t in perms:
            nxt.append(t + (size - 1,))
            nxt.append(tuple(x + 1 for x in t) + (0,))
        perms = nxt
    return perms


def tau_bullet_read(tau: Perm, eta: EtaData) -> Perm:
    """tau_bullet read off tau_data: sigma o tau^{-1} with sigma = tau_bullet o tau."""
    return perm_compose(tau_data(eta, tau)[0], perm_inverse(tau))


def y_sequence_for_tau(p: PoissonPresentation, eta: EtaData, tau: Perm) -> List[MvLaurent]:
    """Prime sequence of the tau-reordered presentation via interval selection."""
    sigma, key, _pred = tau_data(eta, tau)
    return [interval_prime(p, eta, *key[s]) for s in sigma]


def permute_presentation(p: PoissonPresentation, tau: Perm) -> PoissonPresentation:
    """The P-CGL presentation on generators z_k = x_{tau(k)} for tau in Xi_N.

    Ascending steps reuse h_{tau(k)}, descending steps use h*_{tau(k)}; the
    new delta entries are computed from the original bracket and reindexed
    through tau.  The recursion oracle for y_sequence_for_tau.
    """
    if p.h_star is None:
        raise SymmetryError("permuted presentations need h_star (run validate_symmetric)")
    if not is_xi_element(tau):
        raise SymmetryError("tau must have interval prefixes")
    n = p.n
    weights = tuple(p.weights[tau[k]] for k in range(n))
    h_rows: List[Tuple[Fraction, ...]] = [p.h[tau[0]]]
    seen_max = tau[0]
    for k in range(1, n):
        v = tau[k]
        if v == seen_max + 1:
            h_rows.append(p.h[v])
            seen_max = v
        else:
            h_rows.append(p.h_star[v])
    gens = [MvLaurent.gen(n, i) for i in range(n)]
    delta: Dict[Tuple[int, int], MvLaurent] = {}
    for k in range(n):
        for j in range(k):
            a, b = tau[k], tau[j]
            lam = sum((x * y for x, y in zip(h_rows[k], p.weights[b])), Fraction(0))
            rest = bracket(p, gens[a], gens[b]) - MvLaurent.monomial(
                n, [1 if i in (a, b) else 0 for i in range(n)], lam)
            if rest.is_zero():
                continue
            moved = {}
            for e, c in rest.terms.items():
                moved[tuple(e[tau[idx]] for idx in range(n))] = c
            delta[(k, j)] = MvLaurent(n, moved)
    return PoissonPresentation(
        n=n, torus_rank=p.torus_rank, weights=weights, h=tuple(h_rows), delta=delta, h_star=None,
    )
