"""Seeds, mutation, the exchange-matrix solver, and membership certificates.

The initial cluster is the prime sequence y_1..y_N; every permutation tau
with interval prefixes contributes a seed whose variables are interval
primes reordered by the companion permutation, whose scalar matrix r_tau is
the conjugated q-matrix of the tau-presentation, and whose exchange matrix
is the unique integral solution of the stacked bicharacter/weight linear
system.  Adjacent permutations are linked either by equality of seeds or by
one mutation, and membership in the upper cluster algebra is decided by
expressing elements in every chain cluster with frozen-nonnegative
exponents.

A seed is determined by its seed key (the slot-ordered interval labels of
its variables) together with r_tau, and many permutations share a key
(9 distinct clusters among the 67 permutations of Gamma_12 on the 3x4
matrix preset).  So a context builds, solves and checks one seed per key
and builds each interval prime once; r_tau, the paper's per-permutation
quantity, is still assembled for every permutation and compared with the
key's record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .cgl import EtaData, PrimeSequenceReport, compute_eta_and_primes
from .poly import MvLaurent, NonInvertibleImage, exact_divide, substitute
from .presentation import PoissonPresentation, PresentationError, bracket, weight_of
from .symmetric import (
    GammaChain,
    Perm,
    compute_d_integers,
    gamma_chain,
    interval_data_for_tau,
    interval_prime,
    lambda_star,
    perm_compose,
    perm_inverse,
    rescale_generators,
    tau_bullet,
    u_element_and_pi,
    validate_symmetric,
)


class ClusterError(PresentationError):
    pass


class NotExchangeable(ClusterError):
    def __init__(self, k):
        super().__init__(f"index {k+1} is frozen")
        self.index = k


class DirectionOutOfRange(ClusterError):
    def __init__(self, k, n):
        super().__init__(f"mutation direction {k+1} is outside 1..{n}")
        self.index = k


class EpsilonMismatch(ClusterError):
    pass


class CompatibilityFailure(ClusterError):
    def __init__(self, k, j, value):
        super().__init__(f"(B^T r)_{{{k+1},{j+1}}} = {value} violates compatibility")
        self.pair = (k, j)
        self.value = value


class CompatibilityLost(ClusterError):
    pass


class SolverFailure(ClusterError):
    pass


class NoSolution(SolverFailure):
    def __init__(self, l):
        super().__init__(f"no exchange-matrix column exists for direction {l+1}")
        self.index = l


class NonUnique(SolverFailure):
    def __init__(self, l):
        super().__init__(f"exchange-matrix column {l+1} is underdetermined")
        self.index = l


class NonIntegral(SolverFailure):
    def __init__(self, l, vec):
        super().__init__(f"exchange-matrix column {l+1} is not integral: {vec}")
        self.index = l
        self.vector = vec


class LinkFailure(ClusterError):
    def __init__(self, what):
        super().__init__(f"one-step verification failed: {what}")
        self.what = what


class NotInRing(ClusterError):
    def __init__(self, what):
        super().__init__(what)


class LogCanonicalFailure(ClusterError):
    def __init__(self, l, j, lhs, rhs):
        super().__init__(f"bracket of variables {l+1},{j+1} is not the r-scalar multiple")
        self.pair = (l, j)
        self.lhs = lhs
        self.rhs = rhs


class SeedInvariantFailure(ClusterError):
    pass


RMatrix = List[List[Fraction]]
RNumerators = Tuple[Tuple[int, ...], ...]
SeedKey = Tuple[Tuple[int, int], ...]


# -------------------------------------------------------------- exchange matrices


@dataclass
class BMatrix:
    """Integer N x ex matrix, stored as columns keyed by exchangeable index."""

    n: int
    ex: Tuple[int, ...]                  # sorted, 0-based
    cols: Dict[int, Tuple[int, ...]]     # l in ex -> length-n column

    @classmethod
    def from_columns(cls, n: int, cols: Dict[int, Sequence[int]]) -> "BMatrix":
        ex = tuple(sorted(cols))
        return cls(n=n, ex=ex, cols={l: tuple(int(x) for x in cols[l]) for l in ex})

    def entry(self, i: int, l: int) -> int:
        return self.cols[l][i]

    def column(self, l: int) -> Tuple[int, ...]:
        return self.cols[l]

    def principal(self) -> List[List[int]]:
        return [[self.cols[l][k] for l in self.ex] for k in self.ex]

    def full_rank(self) -> bool:
        if not self.ex:
            return True
        rows = [[self.cols[l][i] for l in self.ex] for i in range(self.n)]
        return linalg.rank(rows) == len(self.ex)

    def as_rows(self) -> List[List[int]]:
        return [[self.cols[l][i] for l in self.ex] for i in range(self.n)]

    def __eq__(self, other):
        return isinstance(other, BMatrix) and self.n == other.n and self.ex == other.ex and self.cols == other.cols


def _check_direction(b: BMatrix, k: int) -> None:
    if not 0 <= k < b.n:
        raise DirectionOutOfRange(k, b.n)
    if k not in b.cols:
        raise NotExchangeable(k)


def mutate_matrix(b: BMatrix, k: int) -> BMatrix:
    """Matrix mutation in direction k; involutive and rank-preserving."""
    _check_direction(b, k)
    new_cols: Dict[int, Tuple[int, ...]] = {}
    for j in b.ex:
        col = []
        for i in range(b.n):
            bij = b.cols[j][i]
            if i == k or j == k:
                col.append(-bij)
            else:
                bik = b.cols[k][i]
                bkj = b.cols[j][k]
                col.append(bij + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        new_cols[j] = tuple(col)
    return BMatrix(n=b.n, ex=b.ex, cols=new_cols)


def check_compatible(r: RMatrix, b: BMatrix) -> Dict[int, Fraction]:
    """Beta scalars of a compatible pair; raises CompatibilityFailure otherwise."""
    n = b.n
    beta: Dict[int, Fraction] = {}
    for l in b.ex:
        col = b.cols[l]
        for j in range(n):
            val = sum((col[i] * r[i][j] for i in range(n) if col[i]), Fraction(0))
            if j == l:
                if val == 0:
                    raise CompatibilityFailure(l, l, val)
                beta[l] = val
            elif val != 0:
                raise CompatibilityFailure(l, j, val)
    for k in b.ex:
        for j in b.ex:
            if beta[k] * b.entry(k, j) != -beta[j] * b.entry(j, k):
                raise CompatibilityFailure(k, j, beta[k] * b.entry(k, j))
    return beta


@dataclass
class CompatiblePair:
    r: RMatrix
    btilde: BMatrix
    beta: Dict[int, Fraction]

    @classmethod
    def build(cls, r: RMatrix, btilde: BMatrix) -> "CompatiblePair":
        return cls(r=r, btilde=btilde, beta=check_compatible(r, btilde))


def mutate_r(r: RMatrix, b: BMatrix, k: int) -> RMatrix:
    """E_eps^T r E_eps, computed for both signs and checked equal.

    E_eps is the identity except in column k, where it holds v with v_k = -1
    and v_i = max(0, -eps b_ik); so only row k and column k of r change.
    """
    _check_direction(b, k)
    n = b.n
    col = b.cols[k]
    results = []
    for eps in (1, -1):
        v = [-1 if i == k else max(0, -eps * col[i]) for i in range(n)]
        nz = [(t, vt) for t, vt in enumerate(v) if vt]
        out = [list(row) for row in r]
        rv = [sum((r[i][t] * vt for t, vt in nz), Fraction(0)) for i in range(n)]
        for i in range(n):
            out[i][k] = rv[i]
            out[k][i] = sum((vt * r[t][i] for t, vt in nz), Fraction(0))
        out[k][k] = sum((vt * rv[t] for t, vt in nz), Fraction(0))
        results.append(out)
    if results[0] != results[1]:
        raise EpsilonMismatch("mutated r depends on the sign choice")
    return results[0]


def mutate_pair(pair: CompatiblePair, k: int) -> CompatiblePair:
    """Mutate a compatible pair; asserts epsilon-independence, compatibility,
    and invariance of B^T r whenever the principal part is skew-symmetrizable
    (equivalently, all beta share a sign)."""
    r2 = mutate_r(pair.r, pair.btilde, k)
    b2 = mutate_matrix(pair.btilde, k)
    try:
        beta2 = check_compatible(r2, b2)
    except CompatibilityFailure as exc:
        raise CompatibilityLost(str(exc)) from exc
    betas = list(pair.beta.values())
    if betas and (all(x > 0 for x in betas) or all(x < 0 for x in betas)):
        if _btr(pair.btilde, pair.r) != _btr(b2, r2):
            raise CompatibilityLost("B^T r changed under pair mutation")
    return CompatiblePair(r=r2, btilde=b2, beta=beta2)


def _btr(b: BMatrix, r: RMatrix) -> Dict[Tuple[int, int], Fraction]:
    out = {}
    for l in b.ex:
        col = b.cols[l]
        for j in range(b.n):
            out[(l, j)] = sum((col[i] * r[i][j] for i in range(b.n) if col[i]), Fraction(0))
    return out


# ------------------------------------------------------------------ seed context


@dataclass
class SeedRecord:
    """What a context knows about one seed key, each part filled on first use:
    the bundle of the first permutation built with this key, that
    permutation's r_tau numerators over lam_den, and the generators'
    expressions in the cluster (cluster_expressions)."""

    bundle: Optional["TauSeedBundle"] = None
    r_num: Optional[RNumerators] = None
    expressions: Optional[List[MvLaurent]] = None


@dataclass
class ClusterContext:
    """Everything derived from one validated, pi-normalized presentation.

    Besides the presentation data it holds one SeedRecord per seed key and
    one table of interval primes keyed by their label (start, m); both are
    filled on first use by seed_for_tau and cluster_expressions.
    """

    p: PoissonPresentation
    eta: EtaData
    seq: PrimeSequenceReport
    d_map: Dict[int, int]
    x_in_y: List[MvLaurent] = field(default_factory=list)
    _seeds: Dict[SeedKey, SeedRecord] = field(default_factory=dict)
    _primes: Dict[Tuple[int, int], MvLaurent] = field(default_factory=dict)

    @classmethod
    def build(cls, p: PoissonPresentation, require_normalized: bool = True) -> "ClusterContext":
        report, ps = validate_symmetric(p)
        if not report.passed:
            raise ClusterError("presentation is not symmetric: " + "; ".join(str(f) for f in report.failures))
        eta, seq = compute_eta_and_primes(ps)
        d_map, _ = compute_d_integers(ps, eta)
        if require_normalized:
            for i in range(ps.n):
                if eta.succ[i] is not None:
                    ud = u_element_and_pi(ps, eta, i, 1)
                    if ud.pi != 1:
                        raise ClusterError(
                            f"pi_[{i+1}, s({i+1})] = {ud.pi} != 1; rescale the generators first")
        ctx = cls(p=ps, eta=eta, seq=seq, d_map=d_map)
        ctx.x_in_y = ctx._solve_x_in_y()
        return ctx

    @classmethod
    def build_normalizing(cls, p: PoissonPresentation) -> Tuple["ClusterContext", List[Fraction]]:
        """Build after applying the pi-normalizing rescaling; returns gamma too."""
        report, ps = validate_symmetric(p)
        if not report.passed:
            raise ClusterError("presentation is not symmetric: " + "; ".join(str(f) for f in report.failures))
        eta, _ = compute_eta_and_primes(ps)
        gamma, ps2 = rescale_generators(ps, eta)
        return cls.build(ps2), gamma

    # x_k as Laurent polynomials in the initial cluster
    def _solve_x_in_y(self) -> List[MvLaurent]:
        n = self.p.n
        out: List[MvLaurent] = []
        for k in range(n):
            pk = self.eta.pred[k]
            if pk is None:
                out.append(MvLaurent.gen(n, k))
                continue
            ck = self.seq.c[k]
            ck_y = substitute(ck, out + [MvLaurent.gen(n, i) for i in range(k, n)]) if not ck.is_zero() \
                else MvLaurent.zero(n)
            out.append(MvLaurent.gen(n, pk, -1) * (MvLaurent.gen(n, k) + ck_y))
        return out

    def to_y_coordinates(self, f: MvLaurent) -> MvLaurent:
        """Rewrite a polynomial in the generators as Laurent in y_1..y_N."""
        return substitute(f, self.x_in_y)

    def lambda_star(self, l: int) -> Fraction:
        return lambda_star(self.p, l)

    def prime(self, label: Tuple[int, int]) -> MvLaurent:
        """The interval prime y_[start, s^m(start)] of label (start, m), built once."""
        y = self._primes.get(label)
        if y is None:
            y = self._primes[label] = interval_prime(self.p, self.eta, *label)
        return y

    def seed_record(self, key: SeedKey) -> SeedRecord:
        rec = self._seeds.get(key)
        if rec is None:
            rec = self._seeds[key] = SeedRecord()
        return rec

    def gamma(self) -> GammaChain:
        return gamma_chain(self.p.n).annotate(self.eta)


# -------------------------------------------------------------------- tau seeds


@dataclass
class TauSeedBundle:
    tau: Perm
    sigma: Perm                           # tau_bullet o tau
    vars_x: List[MvLaurent]               # ytilde entries as polynomials in x
    intervals: List[Tuple[int, int]]      # (start, m) of vars_x[k] as interval prime
    weights: List[Tuple[int, ...]]
    r: RMatrix
    btilde: BMatrix
    beta: Dict[int, Fraction]

    def var_names(self) -> List[str]:
        return [f"y[{i+1},{j}]" for (i, m) in self.intervals for j in [i + 1 + m]]

    def as_seed(self, ctx: ClusterContext) -> "Seed":
        """The same seed with its variables rewritten in initial-y coordinates."""
        return Seed(vars_y=[ctx.to_y_coordinates(v) for v in self.vars_x], r=self.r,
                    btilde=self.btilde, beta=dict(self.beta), base_tau=self.tau, history=())


def eta_tau_data(eta: EtaData, tau: Perm) -> EtaData:
    """EtaData of the tau-reordered presentation (labels eta о tau)."""
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


def seed_key(eta: EtaData, tau: Perm) -> Tuple[Perm, SeedKey]:
    """sigma = tau_bullet o tau and the seed key of tau.

    The seed key is the slot-ordered tuple of interval labels (start, m):
    slot s holds the label of the tau-sequence prime at position
    sigma^{-1}(s), so it lists the cluster variables y_[start, s^m(start)]
    in ytilde order.  Permutations with equal keys have equal clusters.
    Raises SymmetryError unless tau is in Xi_N.
    """
    data = interval_data_for_tau(eta, tau)
    sigma = perm_compose(tau_bullet(tau, eta), tau)
    sig_inv = perm_inverse(sigma)
    return sigma, tuple(data[sig_inv[s]] for s in range(len(tau)))


def r_numerators_for_tau(p: PoissonPresentation, eta: EtaData, tau: Perm,
                         sigma: Perm) -> RNumerators:
    """Numerators of r_tau over p.lam_den, with sigma = tau_bullet o tau.

    q_tau[k][j] = omega_lambda(ebar_k, ebar_j) on the predecessor chains of
    the tau-presentation; moved back to the generators, ebar_k is the
    indicator of S_k = tau({c <= k : c in the eta-class of k}).  The chains
    nest, S_k = S_{p(k)} + {tau(k)}, so with row_k = sum of the lambda rows
    over S_k every entry is one integer add from a neighbour:
        row_k = row_{p(k)} + lam_num[tau(k)],  q[k][j] = q[k][p(j)] + row_k[tau(j)].
    """
    n = p.n
    num = p.lam_num
    pred = eta_tau_data(eta, tau).pred
    rows: List[List[int]] = []
    for k in range(n):
        pk = pred[k]
        src = num[tau[k]]
        rows.append(list(src) if pk is None else [a + b for a, b in zip(rows[pk], src)])
    q: List[List[int]] = []
    for row in rows:
        qk = [0] * n
        for j in range(n):
            pj = pred[j]
            qk[j] = row[tau[j]] if pj is None else qk[pj] + row[tau[j]]
        q.append(qk)
    sig_inv = perm_inverse(sigma)
    return tuple(tuple(q[i][j] for j in sig_inv) for i in sig_inv)


def _r_fractions(p: PoissonPresentation, r_num: RNumerators) -> RMatrix:
    den = p.lam_den
    return [[Fraction(x, den) for x in row] for row in r_num]


def r_matrix_for_tau(p: PoissonPresentation, eta: EtaData, tau: Perm) -> RMatrix:
    """r_tau = (tau_bullet tau) q_tau (tau_bullet tau)^{-1}, where q_tau is
    omega_lambda on the predecessor chains of the tau-presentation."""
    sigma = perm_compose(tau_bullet(tau, eta), tau)
    return _r_fractions(p, r_numerators_for_tau(p, eta, tau, sigma))


def solve_btilde(ctx: ClusterContext, tau: Perm, r: RMatrix,
                 var_weights: List[Tuple[int, ...]]) -> Tuple[BMatrix, Dict[int, Fraction]]:
    """Solve the stacked linear system for every exchangeable column.

    For l in ex: Omega_r(b, e_j) = delta_jl lambda*_l for all j, plus zero
    torus weight of the ytilde-monomial with exponent b.  Uniqueness and
    integrality are required; anything else is a presentation defect.
    """
    n = ctx.p.n
    d = ctx.p.torus_rank
    rows = [[r[i][j] for i in range(n)] for j in range(n)]
    rows += [[var_weights[k][a] for k in range(n)] for a in range(d)]
    cols: Dict[int, Tuple[int, ...]] = {}
    beta: Dict[int, Fraction] = {}
    ex = ctx.eta.exchangeable
    lams = [ctx.lambda_star(l) for l in ex]
    rhs_columns = [[lam_l if j == l else 0 for j in range(n)] + [0] * d
                   for l, lam_l in zip(ex, lams)]
    particulars, null_basis = linalg.solve(rows, rhs_columns) if ex else ([], [])
    for l, lam_l, particular in zip(ex, lams, particulars):
        if particular is None:
            raise NoSolution(l)
        if null_basis:
            raise NonUnique(l)
        if any(x.denominator != 1 for x in particular):
            raise NonIntegral(l, particular)
        cols[l] = tuple(int(x) for x in particular)
        beta[l] = lam_l
    b = BMatrix.from_columns(n, cols) if cols else BMatrix(n=n, ex=(), cols={})
    return b, beta


def check_seed_invariants(variables: Sequence[MvLaurent], r: RMatrix, btilde: BMatrix,
                          d_map: Dict[int, int], eta: EtaData) -> None:
    """Raise SeedInvariantFailure (or CompatibilityFailure) unless the seed is sound.

    The variables may be given in any one coordinate system (generators or
    initial cluster): their leading exponents must be independent, btilde
    must have full rank and be compatible with r, and its principal part
    must be skew-symmetrized by the d-integers of the eta classes.
    """
    lt_rows = [[Fraction(x) for x in v.leading_term()[1]] for v in variables]
    if linalg.rank(lt_rows) != len(variables):
        raise SeedInvariantFailure("variable leading exponents are linearly dependent")
    if not btilde.full_rank():
        raise SeedInvariantFailure("exchange matrix is rank-deficient")
    check_compatible(r, btilde)
    for k in btilde.ex:
        for j in btilde.ex:
            dk, dj = d_map[eta.eta[k]], d_map[eta.eta[j]]
            if dk * btilde.entry(k, j) != -dj * btilde.entry(j, k):
                raise SeedInvariantFailure("principal part not skew-symmetrized by the d-integers")


def _build_bundle(ctx: ClusterContext, tau: Perm, sigma: Perm, key: SeedKey,
                  r_num: RNumerators) -> TauSeedBundle:
    vars_x = [ctx.prime(label) for label in key]
    weights = [weight_of(ctx.p, v) for v in vars_x]
    r = _r_fractions(ctx.p, r_num)
    btilde, beta = solve_btilde(ctx, tau, r, weights)
    check_seed_invariants(vars_x, r, btilde, ctx.d_map, ctx.eta)
    return TauSeedBundle(tau=tau, sigma=sigma, vars_x=vars_x, intervals=list(key),
                         weights=weights, r=r, btilde=btilde, beta=beta)


def seed_for_tau(ctx: ClusterContext, tau: Perm) -> TauSeedBundle:
    """Assemble and sanity-check the full seed bundle for one permutation.

    Every other field of a bundle is a function of its seed key and r_tau.
    So r_tau is assembled for every tau, while the variables, the solve and
    the seed checks run once per key; the key's bundle is returned with this
    tau and sigma.  A tau whose r_tau differs from the key's record gets a
    bundle built for it alone.  Bundles of one key share their lists and
    must not be mutated.
    """
    tau = tuple(tau)
    sigma, key = seed_key(ctx.eta, tau)
    r_num = r_numerators_for_tau(ctx.p, ctx.eta, tau, sigma)
    rec = ctx.seed_record(key)
    if rec.bundle is None:
        rec.bundle = _build_bundle(ctx, tau, sigma, key, r_num)
        rec.r_num = r_num
    elif rec.r_num != r_num:
        return _build_bundle(ctx, tau, sigma, key, r_num)
    return replace(rec.bundle, tau=tau, sigma=sigma)


# --------------------------------------------------------------- one-step links


@dataclass
class LinkReport:
    tau: Perm
    tau_next: Perm
    position: int                 # 0-based k with tau' = tau (k, k+1)
    branch: str                   # "equal" or "mutation"
    k_bullet: Optional[int]
    verified: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "tau": [v + 1 for v in self.tau],
            "tau_next": [v + 1 for v in self.tau_next],
            "position": self.position + 1,
            "branch": self.branch,
            "k_bullet": None if self.k_bullet is None else self.k_bullet + 1,
            "verified": self.verified,
            "detail": self.detail,
        }


def _exchange_binomial(variables: Sequence[MvLaurent], col: Sequence[int]) -> MvLaurent:
    """prod_+ + prod_-: the products of the variables raised to the positive
    and to the negated negative entries of an exchange-matrix column."""
    n = len(variables)
    plus = MvLaurent.const(n, 1)
    minus = MvLaurent.const(n, 1)
    for i in range(n):
        if col[i] > 0:
            plus = plus * variables[i] ** col[i]
        elif col[i] < 0:
            minus = minus * variables[i] ** (-col[i])
    return plus + minus


def verify_one_step(ctx: ClusterContext, tau: Perm, tau_next: Perm) -> LinkReport:
    """Exactly verify the link between seeds of adjacent permutations.

    Distinct eta-classes at the swapped positions force equal bundles; equal
    classes force a single mutation at k_bullet, including the exchange
    identity on variables, r' = mu(r), and the +-column identity with the
    nonnegative complement vector g.
    """
    n = ctx.p.n
    diffs = [k for k in range(n) if tau[k] != tau_next[k]]
    if len(diffs) != 2 or diffs[1] != diffs[0] + 1 or tau[diffs[0]] != tau_next[diffs[1]] \
            or tau[diffs[1]] != tau_next[diffs[0]]:
        raise LinkFailure("permutations are not adjacent by one transposition")
    k = diffs[0]
    a, b = seed_for_tau(ctx, tau), seed_for_tau(ctx, tau_next)
    eta = ctx.eta

    if eta.eta[tau[k]] != eta.eta[tau[k + 1]]:
        ok = a.vars_x == b.vars_x and a.r == b.r and a.btilde == b.btilde
        return LinkReport(tau=tau, tau_next=tau_next, position=k, branch="equal",
                          k_bullet=None, verified=ok,
                          detail="" if ok else "bundles differ despite distinct eta classes")

    asc = tau if tau[k] < tau[k + 1] else tau_next
    low, high = (a, b) if tau[k] < tau[k + 1] else (b, a)
    k_bullet = perm_compose(tau_bullet(asc, eta), asc)[k]

    problems: List[str] = []
    for j in range(n):
        if j != k_bullet and low.vars_x[j] != high.vars_x[j]:
            problems.append(f"variable {j+1} changed")
    if mutate_r(low.r, low.btilde, k_bullet) != high.r:
        problems.append("r' != mu_k(r)")
    if mutate_matrix(low.btilde, k_bullet) != high.btilde:
        problems.append("B' != mu_k(B)")

    # exchange identity x'_k x_k = prod_+ + prod_-  (checked in x coordinates)
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


def chain_verify(ctx: ClusterContext) -> List[LinkReport]:
    """Walk the whole Gamma_N chain, verifying every adjacent link."""
    chain = ctx.gamma()
    reports = []
    for tau, tau_next, _k in chain.adjacent_pairs():
        reports.append(verify_one_step(ctx, tau, tau_next))
    return reports


# ----------------------------------------------------------------- log-canonical


def check_log_canonical(ctx: ClusterContext, bundle: TauSeedBundle) -> int:
    """Verify every pairwise bracket of the seed variables against r_tau.

    Brackets are computed in the polynomial ring on the generators, so no
    denominators arise.  Returns the number of pairs checked.
    """
    n = ctx.p.n
    count = 0
    for l in range(n):
        for j in range(l):
            lhs = bracket(ctx.p, bundle.vars_x[l], bundle.vars_x[j])
            rhs = bundle.vars_x[l] * bundle.vars_x[j] * bundle.r[l][j]
            if lhs != rhs:
                raise LogCanonicalFailure(l, j, lhs, rhs)
            count += 1
    return count


# ------------------------------------------------------------------- membership


def cluster_expressions(ctx: ClusterContext, tau: Perm) -> List[MvLaurent]:
    """Images of the generators x_1..x_N as Laurent polynomials in ytilde_tau.

    Built by back-substitution along the tau-presentation:
    x_tau(k) = y_{tau, p_tau(k)}^{-1} (y_{tau,k} + c_{tau,k}).  Exponent slots
    follow the ytilde ordering (variable j of the tau-sequence sits in slot
    (tau_bullet tau)(j)).  Kept in the seed key's record: permutations with
    the same key have the same cluster variables, and the Laurent expansion
    of each x_j in an algebraically independent set is unique, so they share
    the result.  The y_tau are read from the context's interval-prime table.
    """
    tau = tuple(tau)
    p, eta = ctx.p, ctx.eta
    sigma, key = seed_key(eta, tau)
    rec = ctx.seed_record(key)
    if rec.expressions is not None:
        return rec.expressions
    n = p.n
    etau = eta_tau_data(eta, tau)
    y_tau = [ctx.prime(key[sigma[k]]) for k in range(n)]
    gens = [MvLaurent.gen(n, i) for i in range(n)]

    images: List[Optional[MvLaurent]] = [None] * n   # indexed by generator
    for k in range(n):
        v = tau[k]
        pk = etau.pred[k]
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
    rec.expressions = images          # type: ignore[assignment]
    return images                     # type: ignore[return-value]


@dataclass
class MembershipWitness:
    tau: Perm
    ok: bool
    expression: Optional[MvLaurent]
    bad_frozen: List[int]

    def as_dict(self) -> dict:
        return {
            "tau": [v + 1 for v in self.tau],
            "ok": self.ok,
            "bad_frozen": [v + 1 for v in self.bad_frozen],
        }


def _require_polynomial(f: MvLaurent) -> None:
    if not f.is_polynomial():
        raise NotInRing("x-coordinate input must be a polynomial in the generators")


def express_in_cluster(ctx: ClusterContext, f: MvLaurent, tau: Perm,
                       inv: Sequence[int] = (), coords: str = "x") -> Tuple[MvLaurent, MembershipWitness]:
    """Rewrite f in the tau-cluster and test mixed-ring membership.

    `coords` says how f is given: "x" for a polynomial in the generators,
    "y" for a Laurent polynomial in the initial cluster.  The membership
    flag requires nonnegative exponents on every frozen variable outside
    `inv` after full cancellation; NotInRing is raised when f does not land
    in the Laurent ring of the cluster at all.
    """
    x_imgs = cluster_expressions(ctx, tau)
    if coords == "x":
        _require_polynomial(f)
        expr = substitute(f, x_imgs)
    elif coords == "y":
        # substitute reads y_imgs[j] only where f has a nonzero exponent
        used = f.support()
        zero = MvLaurent.zero(ctx.p.n)
        y_imgs = [substitute(ctx.seq.y[j], x_imgs) if j in used else zero for j in range(ctx.p.n)]
        try:
            expr = substitute(f, y_imgs)
        except NonInvertibleImage as exc:
            raise NotInRing(f"element is not Laurent in the tau-cluster: {exc}") from exc
    else:
        raise ValueError("coords must be 'x' or 'y'")
    frozen = [l for l in range(ctx.p.n) if ctx.eta.succ[l] is None]
    inv_set = set(inv)
    bad = sorted({l for l in frozen if l not in inv_set
                  for e in expr.terms if e[l] < 0})
    witness = MembershipWitness(tau=tuple(tau), ok=not bad, expression=expr, bad_frozen=bad)
    return expr, witness


def upper_membership(ctx: ClusterContext, f: MvLaurent, inv: Sequence[int] = (),
                     coords: str = "x") -> Tuple[bool, List[MembershipWitness]]:
    """Certificate for membership in the Gamma_N intersection of mixed rings.

    f is expressed once per distinct seed key along Gamma_N (adjacent
    permutations share a cluster or differ by one mutation), and every
    permutation gets its own witness carrying its key's result.  An
    x-coordinate input that is not a polynomial raises NotInRing up front;
    a y-coordinate input that is not Laurent in some cluster gets ok=False
    witnesses there.
    """
    if coords == "x":
        _require_polynomial(f)
    by_key: Dict[SeedKey, MembershipWitness] = {}
    witnesses: List[MembershipWitness] = []
    for tau in ctx.gamma().perms:
        _sigma, key = seed_key(ctx.eta, tau)
        w = by_key.get(key)
        if w is None:
            try:
                _, w = express_in_cluster(ctx, f, tau, inv=inv, coords=coords)
            except NotInRing:
                w = MembershipWitness(tau=tau, ok=False, expression=None, bad_frozen=[])
            by_key[key] = w
        witnesses.append(replace(w, tau=tau, bad_frozen=list(w.bad_frozen)))
    return all(w.ok for w in witnesses), witnesses


# ---------------------------------------------------------------- seed mutation


@dataclass
class Seed:
    """A seed with variables written as Laurent polynomials in the initial
    cluster, together with its compatible scalar matrix.

    `history` records the mutation directions applied since the defining
    permutation; arbitrary ex-sequences may be chained through mutate_seed.
    """

    vars_y: List[MvLaurent]
    r: RMatrix
    btilde: BMatrix
    beta: Dict[int, Fraction]
    base_tau: Optional[Perm] = None
    history: Tuple[int, ...] = ()


def mutate_seed(ctx: ClusterContext, seed, k: int) -> Seed:
    """One seed mutation in direction k, variables kept in y-coordinates.

    Accepts either a TauSeedBundle or a Seed, so arbitrary ex-sequences can
    be chained.  The new variable is (prod_+ + prod_-)/old with the division
    exact in the initial-cluster Laurent ring (Laurent phenomenon).
    """
    if isinstance(seed, TauSeedBundle):
        seed = seed.as_seed(ctx)
    _check_direction(seed.btilde, k)
    pair = CompatiblePair(r=seed.r, btilde=seed.btilde, beta=seed.beta)
    mutated = mutate_pair(pair, k)
    new_var = exact_divide(_exchange_binomial(seed.vars_y, seed.btilde.column(k)), seed.vars_y[k])
    vars_y = list(seed.vars_y)
    vars_y[k] = new_var
    check_seed_invariants(vars_y, mutated.r, mutated.btilde, ctx.d_map, ctx.eta)
    return Seed(vars_y=vars_y, r=mutated.r, btilde=mutated.btilde, beta=mutated.beta,
                base_tau=seed.base_tau, history=seed.history + (k,))
