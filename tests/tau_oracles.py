"""Per-permutation derivations that the seed key replaced, kept as oracles.

Each but the last derives part of what symmetric.tau_data reads off one
walk along tau: the interval labels by walking the p/s chains inside the
prefix, the tau-predecessors from a full EtaData of the labels eta o tau,
tau_bullet by sorting each level set by position, and the seed key from
those.  The last is r_tau by the chain recurrence of the tau-presentation,
which cluster.r_matrix_for_tau replaced by omega_lambda on the key's
interval exponents.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from pcgl.cgl import EtaData
from pcgl.symmetric import SymmetryError, is_xi_element, perm_compose, perm_inverse, tau_data


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


def eta_tau_data(eta: EtaData, tau) -> EtaData:
    """EtaData of the tau-reordered presentation (labels eta o tau)."""
    n = len(tau)
    labels = [eta.eta[tau[k]] for k in range(n)]
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
    return EtaData(eta=labels, pred=pred, succ=succ, exchangeable=exchangeable, rank=rank)


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
