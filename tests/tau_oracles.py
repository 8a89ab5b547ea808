"""Per-permutation derivations and Xi_N oracles that no pcgl command runs.

Each of the first group derives part of what symmetric.tau_data reads off
one walk along tau: the interval labels by walking the p/s chains inside the
prefix, tau_bullet by sorting each level set by position, and the seed key
from those.  The tau-predecessors, which only these oracles read, come from
a full EtaData of the labels eta o tau.  r_matrix_per_tau is r_tau by the
chain recurrence of the tau-presentation, which cluster.r_matrix_for_tau
replaced by Omega_lambda on the key's interval exponents.
cluster_expressions_for_tau writes the generators in any tau-cluster by
back-substitution along the tau-presentation; cluster.cluster_expressions
reads the initial cluster's off ClusterContext.y_table, which writes every
cluster variable by the exact quotient of its exchange relation, and the
membership walk derives the other clusters' by exchange.  to_y_coordinates
is the route into the initial cluster that y_table replaced: polynomials in
the generators substituted into the identity's back-substitution.
verify_one_step_polynomial is the link check on the bundles' variables,
with the exchange identity multiplied out; cluster.verify_one_step reads
the seed keys, as the Gamma_N walk certifies each exchange identity once.
check_compatible_lcm and btr_lcm are the compatibility check on an r of
Fractions, scaled to one denominator by an lcm; cluster.check_compatible
reads r's int numerators over lam_den.  as_fractions and from_fractions
convert between that form and a matrix of Fractions.
check_log_canonical brackets every pair of a seed's variables against its
r; no command runs it, as the paper's theorem makes every seed
log-canonical, and only the prime sequence's brackets are certified
(cgl.certify_prime_sequence).  membership_by_substitution is the x-input
path upper_membership had before it certified from the generator images
alone: the input substituted into each new cluster's images.

The second group works on all of Xi_N, which commands never enumerate (they
walk only Gamma_N): enumerate_xi lists it, permute_presentation builds the
tau-presentation itself from the bracket, and tau_bullet_read and
y_sequence_for_tau are reads of tau_data, checked against the first group
and against the permuted presentation's own prime sequence.
"""

from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from pcgl.cgl import EtaData
from pcgl.cluster import (
    ClusterError,
    CompatibilityFailure,
    LinkFailure,
    LinkReport,
    MembershipWitness,
    _bad_frozen,
    _carried_images,
    _exchange_binomial,
    cluster_expressions,
    mutate_matrix,
    mutate_r,
)
from pcgl.poly import MvLaurent, _mul, substitute
from pcgl.presentation import PoissonPresentation, _bracket_is_multiple, _prepare, bracket
from pcgl.symmetric import Perm, SymmetryError, interval_prime, is_xi_element, tau_data

from algebra_oracles import fraction_terms


def as_fractions(m) -> List[List[Fraction]]:
    """A matrix of int numerators over one denominator, as Fractions."""
    nums, den = m
    return [[Fraction(x, den) for x in row] for row in nums]


def from_fractions(rows, den: int) -> Tuple[List[List[int]], int]:
    """A matrix of rationals as int numerators over den, which every entry's
    denominator must divide."""
    nums = [[x * den for x in row] for row in rows]
    assert all(Fraction(x).denominator == 1 for row in nums for x in row)
    return [[int(x) for x in row] for row in nums], den


def btr_lcm(b, r) -> Tuple[Dict[Tuple[int, int], int], int]:
    """cluster._btr as it was: B^T r as int numerators over the lcm of the
    denominators of r's Fraction entries."""
    den = lcm(*[x.denominator for row in r for x in row])
    rn = [[x.numerator * (den // x.denominator) for x in row] for row in r]
    out = {}
    for l in b.ex:
        nz = [(i, c) for i, c in enumerate(b.cols[l]) if c]
        for j in range(b.n):
            out[(l, j)] = sum(c * rn[i][j] for i, c in nz)
    return out, den


def check_compatible_lcm(r, b) -> Dict[int, Fraction]:
    """cluster.check_compatible as it was, on an r of Fractions (btr_lcm)."""
    btr, den = btr_lcm(b, r)
    beta: Dict[int, int] = {}
    for l in b.ex:
        for j in range(b.n):
            val = btr[(l, j)]
            if j == l:
                if val == 0:
                    raise CompatibilityFailure(l, l, Fraction(0))
                beta[l] = val
            elif val != 0:
                raise CompatibilityFailure(l, j, Fraction(val, den))
    for k in b.ex:
        for j in b.ex:
            if beta[k] * b.entry(k, j) != -beta[j] * b.entry(j, k):
                raise CompatibilityFailure(k, j, Fraction(beta[k] * b.entry(k, j), den))
    return {l: Fraction(v, den) for l, v in beta.items()}


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


def r_matrix_per_tau(p, eta: EtaData, tau) -> Tuple[List[List[int]], int]:
    """r_tau as it was assembled for every permutation.

    Generator k of the tau-presentation is x_tau(k), with the predecessors
    pred of eta_tau_data.  Its alpha and q, as numerators over p.lam_den, follow
    the nested chains ebar_j = ebar_{p(j)} + e_j:
        alpha[k][j] = alpha[k][p(j)] + lam_num[tau(k)][tau(j)],  q[k] = q[p(k)] + alpha[k],
    and r_tau is q conjugated by sigma = tau_bullet o tau.
    """
    sigma, _key = tau_data(eta, tau)
    pred = eta_tau_data(eta, tau).pred
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
    return [[q[i][j] for j in sig_inv] for i in sig_inv], p.lam_den


def cluster_expressions_for_tau(ctx, tau) -> List[MvLaurent]:
    """Images of the generators x_1..x_N as Laurent polynomials in ytilde_tau.

    Built by back-substitution along the tau-presentation:
    x_tau(k) = y_{tau, p_tau(k)}^{-1} (y_{tau,k} + c_{tau,k}).  Exponent slots
    follow the ytilde ordering (variable j of the tau-sequence sits in slot
    (tau_bullet tau)(j)).  The y_tau are read from the context's
    interval-prime table.  At the identity this is cluster.cluster_expressions.
    """
    sigma, key = tau_data(ctx.eta, tau)
    pred = eta_tau_data(ctx.eta, tau).pred
    n = ctx.p.n
    y_tau = [ctx.prime(key[sigma[k]])[0] for k in range(n)]
    gens = [MvLaurent.gen(n, i) for i in range(n)]

    images: List[Optional[MvLaurent]] = [None] * n   # indexed by generator
    for k in range(n):
        v = tau[k]
        pk = pred[k]
        slot_k = sigma[k]
        if pk is None:
            images[v] = MvLaurent.gen(n, slot_k)
            continue
        c_tk = y_tau[pk] * gens[v] - y_tau[k]
        if c_tk.is_zero():
            c_expr = MvLaurent.zero(n)
        else:
            partial = [images[i] if images[i] is not None else gens[i] for i in range(n)]
            c_expr = substitute(c_tk, partial)
        slot_p = sigma[pk]
        images[v] = MvLaurent.gen(n, slot_p, -1) * (MvLaurent.gen(n, slot_k) + c_expr)
    return images                     # type: ignore[return-value]


def to_y_coordinates(ctx, polys) -> List[MvLaurent]:
    """ClusterContext.to_y_coordinates as it was: each polynomial in the
    generators rewritten in y_1..y_N by substituting the identity's
    back-substitution, built once per call."""
    x_in_y = cluster_expressions_for_tau(ctx, tuple(range(ctx.p.n)))
    return [substitute(f, x_in_y) for f in polys]


def verify_one_step_polynomial(ctx, a, b):
    """cluster.verify_one_step as it was: the link checked on the bundles'
    variables, its exchange identity x'_k x_k = prod_+ + prod_- multiplied
    out in x coordinates.  The walk certifies that identity once, so
    verify_one_step now reads the seed keys instead."""
    n = ctx.p.n
    tau, tau_next = a.tau, b.tau
    diffs = [k for k in range(n) if tau[k] != tau_next[k]]
    if len(diffs) != 2 or diffs[1] != diffs[0] + 1 or tau[diffs[0]] != tau_next[diffs[1]] \
            or tau[diffs[1]] != tau_next[diffs[0]]:
        raise LinkFailure("permutations are not adjacent by one transposition")
    k = diffs[0]
    eta = ctx.eta

    if eta.eta[tau[k]] != eta.eta[tau[k + 1]]:
        ok = a.vars_x == b.vars_x and a.r == b.r and a.btilde == b.btilde
        return LinkReport(tau=tau, tau_next=tau_next, position=k, branch="equal",
                          k_bullet=None, verified=ok,
                          detail="" if ok else "bundles differ despite distinct eta classes")

    low, high = (a, b) if tau[k] < tau[k + 1] else (b, a)
    k_bullet = low.sigma[k]

    problems: List[str] = []
    for j in range(n):
        if j != k_bullet and low.vars_x[j] != high.vars_x[j]:
            problems.append(f"variable {j+1} changed")
    if mutate_r(low.r, low.btilde, k_bullet) != high.r:
        problems.append("r' != mu_k(r)")
    if mutate_matrix(low.btilde, k_bullet) != high.btilde:
        problems.append("B' != mu_k(B)")

    col = low.btilde.column(k_bullet)
    if high.vars_x[k_bullet] * low.vars_x[k_bullet] != _exchange_binomial(low.vars_x, col):
        problems.append("exchange identity fails")

    # column identity b_tau^k = -b_tau'^k = e_p(k) + e_s(k) - g with g >= 0
    if any(x + y for x, y in zip(col, high.btilde.column(k_bullet))):
        problems.append("mutated column is not the negative")
    g = [0] * n
    pk, sk = eta.pred[k_bullet], eta.succ[k_bullet]
    for i in range(n):
        base = (1 if i == pk else 0) + (1 if i == sk else 0)
        g[i] = base - col[i]
    if any(x < 0 for x in g):
        problems.append("complement vector g has negative entries")
    cls = set(eta.level_set(k_bullet))
    if any(g[i] for i in cls):
        problems.append("g touches the mutating eta class")
    per_class: Dict[int, int] = {}
    for i in range(n):
        if g[i]:
            per_class[eta.eta[i]] = per_class.get(eta.eta[i], 0) + 1
    if any(v > 1 for v in per_class.values()):
        problems.append("g meets some eta class twice")

    ok = not problems
    return LinkReport(tau=tau, tau_next=tau_next, position=k, branch="mutation",
                      k_bullet=k_bullet, verified=ok, detail="; ".join(problems))


class LogCanonicalFailure(ClusterError):
    def __init__(self, l, j, lhs, rhs):
        super().__init__(f"bracket of variables {l+1},{j+1} is not the r-scalar multiple")
        self.pair = (l, j)
        self.lhs = lhs
        self.rhs = rhs


def check_log_canonical(ctx, bundle) -> int:
    """Verify every pairwise bracket of the seed variables against r_tau.

    Brackets are computed in the polynomial ring on the generators, so no
    denominators arise.  Each variable's int numerators are prepared for
    the bracket kernel once, and each identity
    {v_l, v_j} = r_lj v_l v_j, j < l in row order, is decided on integers by
    the bracket kernel against the int product v_l v_j.  Fractions are built
    only for the first failing pair's lhs and rhs.  Returns the number of
    pairs checked.
    """
    p = ctx.p
    v = bundle.vars_x
    rn, den = bundle.r
    ops = [_prepare(p, f.terms) for f in v]
    for l in range(p.n):
        for j in range(l):
            if not _bracket_is_multiple(p, ops[l], ops[j], rn[l][j], den,
                                        _mul(v[l].terms, v[j].terms)):
                raise LogCanonicalFailure(l, j, bracket(p, v[l], v[j]),
                                          v[l] * v[j] * Fraction(rn[l][j], den))
    return p.n * (p.n - 1) // 2


def membership_by_substitution(ctx, f, inv=()) -> Tuple[bool, List[MembershipWitness]]:
    """upper_membership of a polynomial f in the generators, with f
    substituted into each new cluster's generator images and the frozen
    exponents of the result read outside inv."""
    witnesses = []
    for tau, changed, images in _carried_images(ctx, cluster_expressions(ctx), f.support()):
        if changed:
            bad = _bad_frozen(ctx, [substitute(f, images)], inv)
        witnesses.append(MembershipWitness(tau=tau, ok=not bad, bad_frozen=bad))
    return all(w.ok for w in witnesses), witnesses


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
    sigma, key = tau_data(eta, tau)
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
            for e, c in fraction_terms(rest).items():
                moved[tuple(e[tau[idx]] for idx in range(n))] = c
            delta[(k, j)] = MvLaurent(n, moved)
    return PoissonPresentation(
        n=n, torus_rank=p.torus_rank, weights=weights, h=tuple(h_rows), delta=delta, h_star=None,
    )
