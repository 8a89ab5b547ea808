"""Seeds, mutation, the exchange-matrix solver, and membership certificates.

A ClusterContext (ClusterContext.build) holds a symmetric presentation
rescaled until every pi_[i, s(i)] = 1, the paper's condition on the scalars,
and the scalars applied as gamma.  The initial cluster is the prime sequence
y_1..y_N; every permutation tau with interval prefixes contributes a seed
whose variables are interval primes reordered by the companion permutation,
whose scalar matrix r_tau is the conjugated q-matrix of the tau-presentation,
and whose exchange matrix is the unique integral solution of the stacked
bicharacter/weight linear system.  Adjacent permutations are linked either
by equality of seeds or by one mutation.  Membership in the upper cluster
algebra is decided on every new chain cluster: an x-input is certified by
its generator images in that cluster, which must have no negative frozen
exponent, and a y-input is expressed in that cluster with
frozen-nonnegative exponents.

A seed is determined by its seed key, the slot-ordered interval labels of
its variables, and many permutations share a key (9 distinct clusters among
the 67 permutations of Gamma_12 on the 3x4 matrix preset).  r_tau is a
function of the key too: r_tau[a][b] = Omega_lambda(ebar(key[a]),
ebar(key[b])) with ebar(i, m) the interval exponent of label (i, m), because
by bilinearity the q-entry of the tau-presentation is Omega_lambda on the
predecessor chains, and the chain of position k covers exactly the interval
of its label; r is built from the key by the one bicharacter
PoissonPresentation.omega_lambda_matrix, as int numerators over lam_den
(RMatrix).  Gamma_N is walked once per context, by _gamma_walk: adjacent
Gamma_N seeds are equal or one mutation apart, so from the identity, whose
cluster is the prime sequence and whose B is the one solve and the one full
seed check of the chain, it carries each cluster and B to the next by one
exchange, whose identity it certifies (the only place that is done), and
one matrix mutation.  Its steps are read by gamma_bundles (chain_verify and
the seeds report), by ClusterContext.y_table, which writes every cluster
variable in the initial cluster by its exchange quotient, and by
upper_membership (_carried_images).  seed_for_tau solves each key on its
own, for the off-chain --tau commands.
Every function here that needs sigma = tau_bullet o tau or the seed key
takes them from one call of symmetric.tau_data.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import linalg
from .cgl import EtaData, PrimeSequenceReport, compute_eta_and_primes
from .poly import MvLaurent, NonInvertibleImage, exact_divide, substitute
from .presentation import (
    PoissonPresentation,
    PresentationError,
    ScaledMatrix,
    validate_algebra,
    weight_of,
)
from .symmetric import (
    Perm,
    SeedKey,
    compute_d_integers,
    gamma_chain,
    interval_exponent,
    interval_prime,
    pi_values,
    rescale_generators,
    tau_data,
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


class SeedInvariantFailure(ClusterError):
    pass


# r as int numerators over lam_den: mutation takes integer combinations, so
# every r of a context is over ctx.p.lam_den.
RMatrix = ScaledMatrix
Weight = Tuple[int, ...]


# -------------------------------------------------------------- exchange matrices


class BMatrix(NamedTuple):
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

    def as_rows(self) -> List[List[int]]:
        return [[self.cols[l][i] for l in self.ex] for i in range(self.n)]


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
    """Beta scalars of a compatible pair, B^T r read on r's numerators;
    raises CompatibilityFailure otherwise."""
    rn, den = r
    btr = _btr(b, rn)
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


def mutate_r(r: RMatrix, b: BMatrix, k: int) -> RMatrix:
    """E_eps^T r E_eps, computed for both signs and checked equal.

    E_eps is the identity except in column k, where it holds v with v_k = -1
    and v_i = max(0, -eps b_ik); so only row k and column k of r change.
    Sums are ints over r's denominator.
    """
    _check_direction(b, k)
    n = b.n
    col = b.cols[k]
    rn, den = r
    results = []
    for eps in (1, -1):
        v = [-1 if i == k else max(0, -eps * col[i]) for i in range(n)]
        nz = [(t, vt) for t, vt in enumerate(v) if vt]
        out = [list(row) for row in rn]
        rv = [sum(rn[i][t] * vt for t, vt in nz) for i in range(n)]
        for i in range(n):
            out[i][k] = rv[i]
            out[k][i] = sum(vt * rn[t][i] for t, vt in nz)
        out[k][k] = sum(vt * rv[t] for t, vt in nz)
        results.append(out)
    if results[0] != results[1]:
        raise EpsilonMismatch("mutated r depends on the sign choice")
    return results[0], den


def _btr(b: BMatrix, rn: List[List[int]]) -> Dict[Tuple[int, int], int]:
    """B^T r on the numerators rn of r, over r's denominator."""
    out = {}
    for l in b.ex:
        nz = [(i, c) for i, c in enumerate(b.cols[l]) if c]
        for j in range(b.n):
            out[(l, j)] = sum(c * rn[i][j] for i, c in nz)
    return out


# ------------------------------------------------------------------ seed context


def _first_pi_not_one(p: PoissonPresentation, eta: EtaData) -> Optional[Tuple[int, Fraction]]:
    return next(((i, pi) for i, pi in pi_values(p, eta) if pi != 1), None)


class ClusterContext:
    """Everything derived from one validated presentation, pi-normalized by
    build: p is the rescaled presentation and gamma the scalars applied to
    its generators (all ones when every pi was already 1).

    On first use it solves the identity's seed (identity_bundle), takes the
    Gamma_N walk from it once (walk) and folds the walk into y_table, the
    initial-cluster coordinates of every interval label of Gamma_N.
    """

    def __init__(self, p: PoissonPresentation, eta: EtaData, seq: PrimeSequenceReport,
                 d_map: Dict[int, int], gamma: List[Fraction]):
        self.p = p
        self.eta = eta
        self.seq = seq
        self.d_map = d_map
        self.gamma = gamma

    @classmethod
    def build(cls, p: PoissonPresentation) -> "ClusterContext":
        """One pass: check the algebra axioms (raising the first failure) and
        the symmetry, compute eta, the primes and the d-integers once; only
        when some pi_[i, s(i)] != 1 rescale, recompute the primes and certify
        pi == 1 on the rescaled presentation, else ClusterError.  Rescaling
        keeps the weights, h and h*, so the axioms, the symmetry check and
        the d-integers carry over to it."""
        axioms = validate_algebra(p)
        if not axioms.passed:
            raise axioms.failures[0]
        report, ps, primes = validate_symmetric(p)
        if not report.passed:
            raise ClusterError("presentation is not symmetric: " + "; ".join(str(f) for f in report.failures))
        eta, seq = primes
        d_map, _ = compute_d_integers(ps, eta)
        gamma = [Fraction(1)] * ps.n
        bad = _first_pi_not_one(ps, eta)
        if bad is not None:
            gamma, ps = rescale_generators(ps, eta)
            eta, seq = compute_eta_and_primes(ps)
            bad = _first_pi_not_one(ps, eta)
        if bad is not None:
            i, pi = bad
            raise ClusterError(f"pi_[{i+1}, s({i+1})] = {pi} != 1 after the pi-normalizing rescaling")
        return cls(p=ps, eta=eta, seq=seq, d_map=d_map, gamma=gamma)

    @cached_property
    def identity_bundle(self) -> "TauSeedBundle":
        """The identity's bundle, on the prime sequence: its B is the
        context's one solve and its seed the one full seed check."""
        identity = tuple(range(self.p.n))
        return _build_bundle(self, identity, *tau_data(self.eta, identity),
                             list(zip(self.seq.y, self.seq.weights)))

    @cached_property
    def walk(self) -> list:
        """The steps of _gamma_walk."""
        return list(_gamma_walk(self))

    @cached_property
    def y_table(self) -> Dict[Tuple[int, int], MvLaurent]:
        """Interval label -> its variable in y_1..y_N, for each label of a
        Gamma_N key: the y_j at the identity, then each change of key's new
        label as the exchange quotient over the cluster before it."""
        cluster = [MvLaurent.gen(self.p.n, j) for j in range(self.p.n)]
        table = dict(zip(self.identity_bundle.intervals, cluster))
        for _, _, key, kb, b, _ in self.walk:
            if kb is not None:
                cluster[kb] = table[key[kb]] = _exchange_quotient(cluster, b.column(kb), kb)
        return table

    @cached_property
    def identity_key(self) -> SeedKey:
        """The identity's seed key: slot j holds the label of y_j."""
        return tau_data(self.eta, tuple(range(self.p.n)))[1]

    def variable_in_y(self, label: Tuple[int, int]) -> MvLaurent:
        """The cluster variable of interval label `label` in y_1..y_N: the
        monomial y_j when label is slot j's in identity_key, whose cluster
        is the prime sequence, so the walk is not taken for it; any other
        label's is read off y_table."""
        if label in self.identity_key:
            return MvLaurent.gen(self.p.n, self.identity_key.index(label))
        return self.y_table[label]

    def prime(self, label: Tuple[int, int]) -> Tuple[MvLaurent, Weight]:
        """y_[start, s^m(start)] of label (start, m) and its weight, certified by weight_of."""
        y = interval_prime(self.p, self.eta, *label)
        return y, weight_of(self.p, y)


# -------------------------------------------------------------------- tau seeds


class TauSeedBundle(NamedTuple):
    tau: Perm
    sigma: Perm                           # tau_bullet o tau
    vars_x: List[MvLaurent]               # ytilde entries as polynomials in x
    intervals: List[Tuple[int, int]]      # (start, m) of vars_x[k] as interval prime
    weights: List[Weight]
    r: RMatrix
    btilde: BMatrix
    beta: Dict[int, Fraction]

    def as_seed(self, ctx: ClusterContext) -> "Seed":
        """The same seed with its variables rewritten in initial-y coordinates."""
        return Seed(vars_y=[ctx.variable_in_y(label) for label in self.intervals],
                    r=self.r, btilde=self.btilde, beta=dict(self.beta))


def r_matrix_for_tau(p: PoissonPresentation, eta: EtaData, key: SeedKey) -> RMatrix:
    """r_tau = (tau_bullet tau) q_tau (tau_bullet tau)^{-1}, a function of tau's
    seed key: r[a][b] = Omega_lambda(ebar(key[a]), ebar(key[b])) on the
    interval exponents of its labels."""
    vecs = [interval_exponent(eta, i, m) for i, m in key]
    return p.omega_lambda_matrix(vecs, vecs)


def solve_btilde(ctx: ClusterContext, r: RMatrix, var_weights: List[Tuple[int, ...]]) -> BMatrix:
    """Solve the stacked linear system for every exchangeable column.

    For l in ex: Omega_r(b, e_j) = delta_jl lambda*_l for all j, plus zero
    torus weight of the ytilde-monomial with exponent b.  Uniqueness and
    integrality are required; anything else is a presentation defect.  The
    beta scalars are not returned: check_seed_invariants certifies them.
    """
    n = ctx.p.n
    d = ctx.p.torus_rank
    rn, den = r
    rows = [[rn[i][j] for i in range(n)] for j in range(n)]
    rows += [[var_weights[k][a] for k in range(n)] for a in range(d)]
    cols: Dict[int, Tuple[int, ...]] = {}
    ex = ctx.eta.exchangeable
    rhs_columns = [[ctx.p.lam_star[l] * den if j == l else 0 for j in range(n)] + [0] * d for l in ex]
    particulars, null_basis = linalg.solve(rows, rhs_columns) if ex else ([], [])
    for l, particular in zip(ex, particulars):
        if particular is None:
            raise NoSolution(l)
        if null_basis:
            raise NonUnique(l)
        if any(x.denominator != 1 for x in particular):
            raise NonIntegral(l, particular)
        cols[l] = tuple(int(x) for x in particular)
    return BMatrix.from_columns(n, cols)


def check_seed_invariants(variables: Sequence[MvLaurent], r: RMatrix, btilde: BMatrix,
                          d_map: Dict[int, int], eta: EtaData) -> Dict[int, Fraction]:
    """The beta scalars of a sound seed; raises SeedInvariantFailure (or
    CompatibilityFailure) otherwise.

    The variables may be given in any one coordinate system (generators or
    initial cluster): their leading exponents must be independent, btilde
    must be compatible with r, and its principal part must be
    skew-symmetrized by the d-integers of the eta classes.  Compatibility
    makes B^T r diagonal and nonzero on the exchangeable columns, so it
    implies full rank, which is therefore not checked on its own.  The
    returned beta is the one check_compatible certifies.
    """
    if linalg.rank([v.leading_term()[1] for v in variables]) != len(variables):
        raise SeedInvariantFailure("variable leading exponents are linearly dependent")
    beta = check_compatible(r, btilde)
    for k in btilde.ex:
        for j in btilde.ex:
            dk, dj = d_map[eta.eta[k]], d_map[eta.eta[j]]
            if dk * btilde.entry(k, j) != -dj * btilde.entry(j, k):
                raise SeedInvariantFailure("principal part not skew-symmetrized by the d-integers")
    return beta


Cluster = List[Tuple[MvLaurent, Weight]]   # (variable, weight) per slot


def _build_bundle(ctx: ClusterContext, tau: Perm, sigma: Perm, key: SeedKey, cluster: Cluster,
                  b: Optional[BMatrix] = None) -> TauSeedBundle:
    """The bundle of key, whose variables and weights are cluster's and whose
    r is built from the bicharacter; its beta_l must be lambda*_l.  With b
    None, B is solved and check_seed_invariants certifies the seed.  A given
    b is the walk's B of a derived key and is checked by check_compatible
    alone: every cluster variable has leading coefficient 1 (interval_prime
    certifies it; the prime sequence has it by construction), so the
    certified exchange identity gives lt(y'_kb) = lt(prod_+-) - lt(y_kb), a
    unimodular change of the leading exponents that carries the identity's
    rank; and lambda*_l = d_eta(l) q (compute_d_integers) makes the
    beta-skew check with beta == lambda* the d-skew check."""
    vars_x = [y for y, _ in cluster]
    weights = [w for _, w in cluster]
    r = r_matrix_for_tau(ctx.p, ctx.eta, key)
    if b is None:
        b = solve_btilde(ctx, r, weights)
        beta = check_seed_invariants(vars_x, r, b, ctx.d_map, ctx.eta)
    else:
        beta = check_compatible(r, b)
    if any(beta[l] != ctx.p.lam_star[l] for l in b.ex):
        raise SeedInvariantFailure("beta differs from lambda*")
    return TauSeedBundle(tau=tau, sigma=sigma, vars_x=vars_x, intervals=list(key),
                         weights=weights, r=r, btilde=b, beta=beta)


def seed_for_tau(ctx: ClusterContext, tau: Perm) -> TauSeedBundle:
    """Assemble and sanity-check the full seed bundle for one permutation,
    building every interval prime of its seed key and solving its exchange
    matrix.  The off-chain --tau commands need the solve; the Gamma_N walk
    solves only at the identity and mutates from there, so on the chain this
    is the per-key oracle of gamma_bundles."""
    tau = tuple(tau)
    sigma, key = tau_data(ctx.eta, tau)
    return _build_bundle(ctx, tau, sigma, key, [ctx.prime(label) for label in key])


def _exchange_binomial(variables: Sequence[MvLaurent], col: Sequence[int]) -> MvLaurent:
    """prod_+ + prod_-: the products of the variables raised to the positive
    and to the negated negative entries of an exchange-matrix column."""
    plus = minus = MvLaurent.const(len(variables), 1)
    for v, c in zip(variables, col):
        if c > 0:
            plus = plus * v ** c
        elif c < 0:
            minus = minus * v ** -c
    return plus + minus


def _exchange_quotient(variables: Sequence[MvLaurent], col: Sequence[int], k: int) -> MvLaurent:
    """(prod_+ + prod_-) / variables[k], the variable exchanged for variables[k]
    along column col: exact in the variables' Laurent ring (Laurent phenomenon)."""
    return exact_divide(_exchange_binomial(variables, col), variables[k])


def _gamma_walk(ctx: ClusterContext) -> Iterator[
        Tuple[Perm, Perm, SeedKey, Optional[int], BMatrix, Cluster]]:
    """(tau, sigma, key, kb, b, cluster) for each Gamma_N permutation in
    chain order, b and cluster the key's B and (variable, weight) per slot.

    At the identity they are the identity bundle's.  Adjacent Gamma_N seeds
    are equal or one mutation apart, so at each change of key the walk
    requires exactly one changed slot kb, builds its interval prime y'_kb,
    checks y'_kb * y_kb == prod_+ + prod_- of column kb of B in generator
    coordinates (the one check of a Gamma_N exchange identity), and mutates
    B at kb.  A failed step raises ClusterError naming the slots.  kb is
    None at the identity and where the key does not change.
    """
    start = ctx.identity_bundle
    key, b, cluster = tuple(start.intervals), start.btilde, list(zip(start.vars_x, start.weights))
    yield start.tau, start.sigma, key, None, b, cluster
    for tau in gamma_chain(ctx.p.n)[1:]:
        sigma, new_key = tau_data(ctx.eta, tau)
        kb = None
        if new_key != key:
            changed = [j for j, label in enumerate(new_key) if key[j] != label]
            if len(changed) != 1:
                raise ClusterError(f"seed keys differ in slots {[j + 1 for j in changed]}, not in exactly one")
            kb = changed[0]
            new = ctx.prime(new_key[kb])
            if new[0] * cluster[kb][0] != _exchange_binomial([y for y, _ in cluster], b.column(kb)):
                raise ClusterError(f"exchange identity of slot {kb+1} fails")
            cluster = cluster[:kb] + [new] + cluster[kb + 1:]
            b = mutate_matrix(b, kb)
        key = new_key
        yield tau, sigma, key, kb, b, cluster


def gamma_bundles(ctx: ClusterContext) -> List[TauSeedBundle]:
    """The bundle of every Gamma_N permutation in chain order, one per run of
    equal keys (its permutations share the bundle's lists, not to be
    mutated), each built from the walk's step.

    Only the identity's B is solved and fully seed-checked.  Every later B
    is the walk's mutation of the one before, and _build_bundle checks it
    against its own key's r: compatibility and beta_l == lambda*_l.  Zero
    torus weight needs no check: the exchange identity the walk certifies
    forces wt(prod_+) == wt(prod_-), which carries zero column weight
    through each mutation.  Uniqueness carries from the identity's solve,
    as the system matrices of a key and the next satisfy
    M' = diag(E^T, I) M E with E unimodular.  So each B is the one
    solve_btilde would return.
    """
    bundle, bundles = ctx.identity_bundle, []
    for tau, sigma, key, kb, b, cluster in ctx.walk:
        if kb is not None:
            bundle = _build_bundle(ctx, tau, sigma, key, cluster, b)
        bundles.append(bundle._replace(tau=tau, sigma=sigma))
    return bundles


# --------------------------------------------------------------- one-step links


class LinkReport(NamedTuple):
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


def verify_one_step(ctx: ClusterContext, a: TauSeedBundle, b: TauSeedBundle) -> LinkReport:
    """Exactly verify the link between bundles a and b of adjacent
    permutations tau and tau' = tau (k, k+1): consecutive gamma_bundles
    bundles, or seed_for_tau bundles of the same keys.  LinkFailure when
    they are not adjacent.

    Distinct eta-classes at the swapped positions force equal keys, r and B;
    equal classes force one mutation at k_bullet: only slot k_bullet's label
    changes, r' = mu(r), B' = mu(B), and the +-column identity holds with
    the nonnegative complement vector g.  No polynomial arithmetic is done:
    the walk certified the exchange identity on the same variables and
    column, and on its bundles B' == mu_k(B) holds by construction.
    """
    n = ctx.p.n
    tau, tau_next = a.tau, b.tau
    diffs = [k for k in range(n) if tau[k] != tau_next[k]]
    if len(diffs) != 2 or diffs[1] != diffs[0] + 1 or tau[diffs[0]] != tau_next[diffs[1]] \
            or tau[diffs[1]] != tau_next[diffs[0]]:
        raise LinkFailure("permutations are not adjacent by one transposition")
    k = diffs[0]
    eta = ctx.eta

    if eta.eta[tau[k]] != eta.eta[tau[k + 1]]:
        ok = a.intervals == b.intervals and a.r == b.r and a.btilde == b.btilde
        return LinkReport(tau=tau, tau_next=tau_next, position=k, branch="equal",
                          k_bullet=None, verified=ok,
                          detail="" if ok else "bundles differ despite distinct eta classes")

    low, high = (a, b) if tau[k] < tau[k + 1] else (b, a)
    k_bullet = low.sigma[k]
    changed = [j for j in range(n) if low.intervals[j] != high.intervals[j]]

    problems = [f"variable {j+1} changed" for j in changed if j != k_bullet]
    if mutate_r(low.r, low.btilde, k_bullet) != high.r:
        problems.append("r' != mu_k(r)")
    if mutate_matrix(low.btilde, k_bullet) != high.btilde:
        problems.append("B' != mu_k(B)")
    if k_bullet not in changed:
        problems.append("exchange identity fails")

    # column identity b_tau^k = -b_tau'^k = e_p(k) + e_s(k) - g with g >= 0
    col = low.btilde.column(k_bullet)
    if any(x + y for x, y in zip(col, high.btilde.column(k_bullet))):
        problems.append("mutated column is not the negative")
    pk, sk = eta.pred[k_bullet], eta.succ[k_bullet]
    g = [(i == pk) + (i == sk) - col[i] for i in range(n)]
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
    """Verify every adjacent Gamma_N link on the two bundles gamma_bundles gives it."""
    bundles = gamma_bundles(ctx)
    return [verify_one_step(ctx, a, b) for a, b in zip(bundles, bundles[1:])]


# ------------------------------------------------------------------- membership


def cluster_expressions(ctx: ClusterContext) -> List[MvLaurent]:
    """Images of the generators x_1..x_N in the initial cluster y_1..y_N,
    read off ctx.y_table: label (k, 0) is y_[k, k] = x_k, in the key of
    tau_{k,k} in Gamma_N.  upper_membership carries them into every other
    cluster of the walk by exchange (_carried_images)."""
    return [ctx.y_table[(k, 0)] for k in range(ctx.p.n)]


class MembershipWitness(NamedTuple):
    tau: Perm
    ok: bool
    bad_frozen: List[int]

    def as_dict(self) -> dict:
        return {
            "tau": [v + 1 for v in self.tau],
            "ok": self.ok,
            "bad_frozen": [v + 1 for v in self.bad_frozen],
        }


def _bad_frozen(ctx: ClusterContext, polys: Sequence[MvLaurent], inv: Sequence[int]) -> List[int]:
    """The frozen indices outside inv at which some of polys has a negative exponent."""
    inv_set = set(inv)
    return sorted(l for l in range(ctx.p.n) if ctx.eta.succ[l] is None and l not in inv_set
                  and any(e[l] < 0 for f in polys for e in f.terms))


def express_in_cluster(ctx: ClusterContext, f: MvLaurent, tau: Perm, images: Sequence[MvLaurent],
                       inv: Sequence[int] = ()) -> Tuple[MvLaurent, MembershipWitness]:
    """Rewrite f in the tau-cluster by substituting images, the cluster's
    images of f's own variables (only those f uses are read), and test
    mixed-ring membership.

    The membership flag requires nonnegative exponents on every frozen
    variable outside `inv` after full cancellation; NotInRing is raised when
    f does not land in the Laurent ring of the cluster at all.
    upper_membership calls it on a y-input, with the cluster's images of
    y_1..y_N.
    """
    try:
        expr = substitute(f, images)
    except NonInvertibleImage as exc:
        raise NotInRing(f"element is not Laurent in the tau-cluster: {exc}") from exc
    bad = _bad_frozen(ctx, [expr], inv)
    return expr, MembershipWitness(tau=tuple(tau), ok=not bad, bad_frozen=bad)


def _carried_images(ctx: ClusterContext, start: Sequence[MvLaurent],
                    used: Set[int]) -> Iterator[Tuple[Perm, bool, List[MvLaurent]]]:
    """(tau, changed, images) for each Gamma_N permutation in chain order:
    images[j] is start[j] (in the initial cluster) written in tau's cluster
    for j in used, else zero; changed says the cluster is new.

    At each exchange of ctx.walk in slot kb, y_kb -> Q / y'_kb rewrites the
    images that involve kb by substitute, whose images are the generators
    except y_kb -> Q * y_kb^-1: one exact division (the Laurent phenomenon),
    the converse of the step y_table takes.  Q is _exchange_binomial of
    column kb of the walk's B over the cluster's own variables; the walk has
    mutated B, which negates that column and so keeps Q.  A division that
    is not exact raises ClusterError naming the slot.
    """
    n = ctx.p.n
    gens = [MvLaurent.gen(n, j) for j in range(n)]
    images = [start[j] if j in used else MvLaurent.zero(n) for j in range(n)]
    for step, (tau, _, _, kb, b, _) in enumerate(ctx.walk):
        if kb is not None:
            q = _exchange_binomial(gens, b.column(kb))
            slot = gens[:kb] + [q * MvLaurent.gen(n, kb, -1)] + gens[kb + 1:]
            try:
                images = [substitute(g, slot) if any(e[kb] for e in g.terms) else g for g in images]
            except NonInvertibleImage as exc:
                raise ClusterError(f"exchange in slot {kb+1} is not exact: {exc}") from exc
        yield tau, not step or kb is not None, images


def upper_membership(ctx: ClusterContext, f: MvLaurent, inv: Sequence[int] = (),
                     coords: str = "x") -> Tuple[bool, List[MembershipWitness]]:
    """Certificate for membership in the Gamma_N intersection of mixed rings.

    _carried_images carries f's own variables along the walk: the generators
    f uses from cluster_expressions, or the y_j a y-input uses from
    themselves, so a y-input never builds ctx.y_table.  An x-input, a
    polynomial in the generators, is certified in each new cluster by its
    generator images alone: R lies in the upper cluster algebra, which
    inverts no frozen variable, so no image has a negative frozen exponent,
    and an image that has one raises ClusterError naming the generator, tau
    and the index.
    `inv` does not excuse such an image; it acts on y-inputs only, which are
    expressed in each new cluster (express_in_cluster).  Every permutation
    gets its cluster's witness.  A non-polynomial x-input raises NotInRing up
    front; a y-input that is not Laurent in a cluster gets ok=False witnesses
    with no bad_frozen.
    """
    n = ctx.p.n
    if coords == "x":
        if not f.is_polynomial():
            raise NotInRing("x-coordinate input must be a polynomial in the generators")
        start = cluster_expressions(ctx)
    elif coords == "y":
        start = [MvLaurent.gen(n, j) for j in range(n)]
    else:
        raise ValueError("coords must be 'x' or 'y'")
    witnesses: List[MembershipWitness] = []
    # substitute reads images[j] only where f has a nonzero exponent
    for tau, changed, images in _carried_images(ctx, start, f.support()):
        if changed and coords == "x":
            bad = next(((j, l) for j, g in enumerate(images) for l in _bad_frozen(ctx, [g], ())), None)
            if bad is not None:
                raise ClusterError(f"the image of x{bad[0]+1} in the cluster of tau = "
                                   f"{[v + 1 for v in tau]} has a negative exponent at frozen index "
                                   f"{bad[1]+1}, so R does not lie in the upper cluster algebra")
            w = MembershipWitness(tau=tau, ok=True, bad_frozen=[])
        elif changed:
            try:
                w = express_in_cluster(ctx, f, tau, images, inv=inv)[1]
            except NotInRing:
                w = MembershipWitness(tau=tau, ok=False, bad_frozen=[])
        witnesses.append(w._replace(tau=tau, bad_frozen=list(w.bad_frozen)))
    return all(w.ok for w in witnesses), witnesses


# ---------------------------------------------------------------- seed mutation


class Seed(NamedTuple):
    """A seed with variables written as Laurent polynomials in the initial
    cluster, together with its compatible scalar matrix.

    `history` records the mutation directions applied since the defining
    permutation; arbitrary ex-sequences may be chained through mutate_seed.
    """

    vars_y: List[MvLaurent]
    r: RMatrix
    btilde: BMatrix
    beta: Dict[int, Fraction]
    history: Tuple[int, ...] = ()


def mutate_seed(ctx: ClusterContext, seed, k: int) -> Seed:
    """One seed mutation in direction k, variables kept in y-coordinates.

    Accepts either a TauSeedBundle or a Seed, so arbitrary ex-sequences can
    be chained; the given seed's beta is taken as certified, as it is for
    every seed built by seed_for_tau or mutate_seed.  The new variable is
    (prod_+ + prod_-)/old with the division exact in the initial-cluster
    Laurent ring (Laurent phenomenon).  r and B are mutated together
    (mutate_r raises EpsilonMismatch when mu(r) depends on the sign), and
    check_seed_invariants certifies the new seed once; a compatibility
    failure there is raised as CompatibilityLost.  When every beta has one
    sign (the principal part is skew-symmetrizable), B^T r = [diag(beta) | 0]
    must be invariant, which on two compatible pairs is beta' == beta.
    """
    if isinstance(seed, TauSeedBundle):
        seed = seed.as_seed(ctx)
    r = mutate_r(seed.r, seed.btilde, k)
    btilde = mutate_matrix(seed.btilde, k)
    vars_y = list(seed.vars_y)
    vars_y[k] = _exchange_quotient(seed.vars_y, seed.btilde.column(k), k)
    try:
        beta = check_seed_invariants(vars_y, r, btilde, ctx.d_map, ctx.eta)
    except CompatibilityFailure as exc:
        raise CompatibilityLost(str(exc)) from exc
    betas = list(seed.beta.values())
    if (all(x > 0 for x in betas) or all(x < 0 for x in betas)) and beta != seed.beta:
        raise CompatibilityLost("B^T r changed under pair mutation")
    return Seed(vars_y=vars_y, r=r, btilde=btilde, beta=beta, history=seed.history + (k,))
