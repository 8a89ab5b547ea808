"""Seeds, mutation, compatible pairs, links, membership, log-canonicality."""

import json
import random
from fractions import Fraction

import pytest

from pcgl.cluster import (
    BMatrix,
    ClusterContext,
    ClusterError,
    CompatibilityFailure,
    CompatibilityLost,
    DirectionOutOfRange,
    EpsilonMismatch,
    MembershipWitness,
    NonIntegral,
    NotExchangeable,
    NotInRing,
    SeedInvariantFailure,
    chain_verify,
    check_compatible,
    check_seed_invariants,
    cluster_expressions,
    express_in_cluster,
    gamma_bundles,
    mutate_matrix,
    mutate_r,
    mutate_seed,
    r_matrix_for_tau,
    seed_for_tau,
    solve_btilde,
    upper_membership,
    verify_one_step,
)
from pcgl import cli, cluster, linalg
from pcgl.poly import NonInvertibleImage, MvLaurent, substitute
from pcgl.presets import build_affine_space, build_matrix_poisson
from pcgl.symmetric import SymmetryError, gamma_chain, tau_data

from algebra_oracles import dot, solid_minor
from conftest import rescaled_2x3, rescaled_3x3, rescaled_4x5, two_block, weyl_block
from tau_oracles import (
    as_fractions,
    check_log_canonical,
    cluster_expressions_for_tau,
    eta_tau_data,
    perm_compose,
    from_fractions,
    membership_by_substitution,
    perm_inverse,
    r_matrix_per_tau,
    tau_bullet,
    to_y_coordinates,
)


def random_skew_symmetrizable(rng, n, ex):
    """Random B with principal part skew-symmetrized by random positive d."""
    d = {k: rng.randint(1, 3) for k in ex}
    cols = {l: [0] * n for l in ex}
    for l in ex:
        for i in range(n):
            if i in ex:
                if i < l:
                    continue
                if i == l:
                    cols[l][i] = 0
                else:
                    cols[l][i] = rng.randint(-2, 2)
            else:
                cols[l][i] = rng.randint(-2, 2)
    for l in ex:
        for i in ex:
            if i > l:
                cols[i][l] = -d[i] * cols[l][i] // d[l] if (d[i] * cols[l][i]) % d[l] == 0 else 0
                if cols[i][l] * d[l] != -d[i] * cols[l][i]:
                    cols[l][i] = 0
                    cols[i][l] = 0
    return BMatrix.from_columns(n, cols)


class TestMatrixMutation:
    def test_single_column_flip(self, ctx22):
        b = seed_for_tau(ctx22, (0, 1, 2, 3)).btilde
        assert b.column(0) == (0, -1, -1, 1)
        assert mutate_matrix(b, 0).column(0) == (0, 1, 1, -1)

    def test_involutive_random(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 5)
            ex = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            b = random_skew_symmetrizable(rng, n, ex)
            k = rng.choice(ex)
            assert mutate_matrix(mutate_matrix(b, k), k) == b

    def test_two_by_one(self):
        b = BMatrix.from_columns(2, {0: (0, 2)})
        assert mutate_matrix(b, 0).column(0) == (0, -2)

    def test_not_exchangeable(self, ctx22):
        b = seed_for_tau(ctx22, (0, 1, 2, 3)).btilde
        with pytest.raises(NotExchangeable):
            mutate_matrix(b, 3)

    def test_direction_out_of_range(self, ctx22):
        b = seed_for_tau(ctx22, (0, 1, 2, 3)).btilde
        for k in (4, 98, -1):
            with pytest.raises(DirectionOutOfRange):
                mutate_matrix(b, k)


class TestCompatiblePairs:
    def test_2x2_beta(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        beta = check_compatible(bundle.r, bundle.btilde)
        assert beta == {0: 2}

    def test_empty_btilde_vacuous(self):
        q = ([[0, 1], [-1, 0]], 1)
        b = BMatrix(n=2, ex=(), cols={})
        assert check_compatible(q, b) == {}

    def test_sign_flip_still_compatible(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        flipped = BMatrix.from_columns(4, {0: tuple(-x for x in bundle.btilde.column(0))})
        beta = check_compatible(bundle.r, flipped)
        assert beta == {0: -2}

    def test_incompatible_detected(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        broken = BMatrix.from_columns(4, {0: (1, -1, -1, 1)})
        with pytest.raises(CompatibilityFailure):
            check_compatible(bundle.r, broken)

    def test_pair_mutation_preserves_btr(self, ctx22):
        # mutate_seed mutates r and B together and raises unless the pair
        # stays compatible with B^T r unchanged
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        mutated = mutate_seed(ctx22, bundle, 0)
        assert mutated.beta == {0: 2}
        back = mutate_seed(ctx22, mutated, 0)
        assert back.r == bundle.r and back.btilde == bundle.btilde

    def test_random_mutation_walks(self, ctx23):
        # epsilon-independence and B^T r invariance along random walks
        rng = random.Random(77)
        for start in (ctx23,):
            bundle = seed_for_tau(start, tuple(range(start.p.n)))
            r, b = bundle.r, bundle.btilde
            beta = check_compatible(r, b)
            for _ in range(60):
                k = rng.choice(bundle.btilde.ex)
                r, b = mutate_r(r, b, k), mutate_matrix(b, k)  # mutate_r checks both signs
                assert check_compatible(r, b) == beta  # compatible, B^T r unchanged
            assert set(beta) == set(bundle.beta)


# ------------------------------------------ dense r-mutation and r_tau, oracles


def _mutate_r_dense(r, b, k):
    """mutate_r as it was: E_eps^T r E_eps by dense products for each sign."""
    n = b.n

    def e_epsilon(eps):
        e = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            e[i][k] = Fraction(-1) if i == k else Fraction(max(0, -eps * b.entry(i, k)))
        return e

    def mat_mul(x, y):
        return [[sum((x[i][t] * y[t][j] for t in range(len(y))), Fraction(0))
                 for j in range(len(y[0]))] for i in range(len(x))]

    results = []
    for eps in (1, -1):
        e = e_epsilon(eps)
        results.append(mat_mul([list(row) for row in zip(*e)], mat_mul(r, e)))
    if results[0] != results[1]:
        raise EpsilonMismatch("mutated r depends on the sign choice")
    return results[0]


def _lambda_dense(p):
    """The lambda matrix as Fractions, from h and the weights alone."""
    def lam(k, j):
        return dot(p.h[k], p.weights[j]) if k > j else -dot(p.h[j], p.weights[k]) if k < j else 0

    return [[lam(k, j) for j in range(p.n)] for k in range(p.n)]


def _omega_dense(lam):
    """Omega_lambda of the lambda matrix lam on sets of generators (0/1
    exponent vectors), summed as Fractions once per pair of sets."""
    memo = {}

    def omega(a, b):
        if (a, b) not in memo:
            memo[(a, b)] = sum((lam[i][j] for i in a for j in b), Fraction(0))
        return memo[(a, b)]

    return omega


def _r_matrix_for_tau_dense(omega, eta, tau):
    """r_matrix_for_tau as it was: the bicharacter of lam permuted by tau, on
    the ebar vectors of the tau-presentation.  Position m stands for x_tau(m)
    there, so Omega_{lam_tau}(ebar_k, ebar_j) is omega on the generators
    tau(m) that ebar_k and ebar_j cover."""
    n = len(tau)
    etau = eta_tau_data(eta, tau)
    covers = [frozenset(tau[m] for m, x in enumerate(etau.ebar(k)) if x) for k in range(n)]
    q_tau = [[omega(covers[k], covers[j]) for j in range(n)] for k in range(n)]
    sig_inv = perm_inverse(perm_compose(tau_bullet(tau, eta), tau))
    return [[q_tau[sig_inv[a]][sig_inv[b]] for b in range(n)] for a in range(n)]


def _mutate_r_outcome(fn, r, b, k):
    try:
        return ("ok", fn(r, b, k))
    except EpsilonMismatch:
        return ("EpsilonMismatch",)


class TestAgainstDenseOracles:
    @pytest.fixture(scope="class")
    def contexts(self, ctx23, ctx33):
        return [ctx23, ctx33] + [ClusterContext.build_normalizing(build())[0]
                                 for build in (rescaled_3x3, rescaled_2x3)]

    @pytest.fixture(scope="class")
    def r_contexts(self, contexts):
        """The contexts above, plus inputs for the r_tau oracles alone."""
        affine_q = [[0, 1, 2, -1], [-1, 0, 3, 1], [-2, -3, 0, 2], [1, -1, -2, 0]]
        extra = [build_matrix_poisson(3, 4), build_matrix_poisson(4, 4), two_block(),
                 rescaled_4x5(), build_affine_space(4, affine_q)]
        return contexts + [ClusterContext.build_normalizing(p)[0] for p in extra]

    def test_every_chain_mutation(self, contexts, monkeypatch):
        seen = []

        def checked(r, b, k):
            got = mutate_r(r, b, k)
            assert got[1] == r[1]
            assert as_fractions(got) == _mutate_r_dense(as_fractions(r), b, k)
            seen.append(k)
            return got

        monkeypatch.setattr(cluster, "mutate_r", checked)
        for ctx in contexts:
            before = len(seen)
            assert all(rep.verified for rep in chain_verify(ctx))
            assert len(seen) > before

    def test_r_tau_on_all_gamma(self, r_contexts):
        for ctx in r_contexts:
            omega = _omega_dense(_lambda_dense(ctx.p))
            for tau in gamma_chain(ctx.p.n):
                key = tau_data(ctx.eta, tau)[1]
                got = as_fractions(r_matrix_for_tau(ctx.p, ctx.eta, key))
                assert got == _r_matrix_for_tau_dense(omega, ctx.eta, tau)

    def test_r_tau_equals_the_per_tau_recurrence(self, r_contexts):
        for ctx in r_contexts:
            for tau in gamma_chain(ctx.p.n):
                key = tau_data(ctx.eta, tau)[1]
                assert r_matrix_for_tau(ctx.p, ctx.eta, key) == r_matrix_per_tau(ctx.p, ctx.eta, tau)

    def test_random_r_and_b(self):
        rng = random.Random(21)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 5)
            ex = sorted(rng.sample(range(n), rng.randint(1, n)))
            b = random_skew_symmetrizable(rng, n, ex)
            r = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:  # skew r: the mismatch then needs a one-signed column
                r = [[r[i][j] - r[j][i] for j in range(n)] for i in range(n)]
            k = rng.choice(ex)
            got = _mutate_r_outcome(lambda *args: as_fractions(mutate_r(*args)),
                                    from_fractions(r, 6), b, k)
            assert got == _mutate_r_outcome(_mutate_r_dense, r, b, k)
            outcomes.add(got[0])
        assert outcomes == {"ok", "EpsilonMismatch"}


class TestSolver:
    def test_2x2_column(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        assert bundle.btilde.column(0) == (0, -1, -1, 1)

    def test_affine_empty(self):
        p = build_affine_space(3, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        ctx = ClusterContext.build(p)
        bundle = seed_for_tau(ctx, (0, 1, 2))
        assert bundle.btilde.ex == ()

    def test_2x3_adjacency_pattern(self, ctx23):
        offsets = {(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)}
        bundle = seed_for_tau(ctx23, tuple(range(6)))
        for l in bundle.btilde.ex:
            rl, cl = l // 3 + 1, l % 3 + 1
            for i in range(6):
                ri, ci = i // 3 + 1, i % 3 + 1
                entry = bundle.btilde.entry(i, l)
                assert (entry != 0) == ((ri - rl, ci - cl) in offsets)
                if entry:
                    assert abs(entry) == 1

    def test_nonintegral_on_corrupted_weights(self, ctx22):
        wts = [list(w) for w in seed_for_tau(ctx22, (0, 1, 2, 3)).weights]
        wts[2] = [3 * x for x in wts[2]]
        r = seed_for_tau(ctx22, (0, 1, 2, 3)).r
        with pytest.raises(NonIntegral):
            solve_btilde(ctx22, r, [tuple(w) for w in wts])


class TestSeeds:
    def test_identity_seed_is_y_basis(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        gens = [MvLaurent.gen(4, k) for k in range(4)]
        assert to_y_coordinates(ctx22, bundle.vars_x) == gens == bundle.as_seed(ctx22).vars_y
        assert bundle.vars_x == ctx22.seq.y

    def test_rotated_seed(self, ctx22):
        bundle = seed_for_tau(ctx22, (1, 2, 3, 0))
        xs = [MvLaurent.gen(4, i) for i in range(4)]
        det = solid_minor(2, 2, (1, 2), (1, 2))
        assert bundle.vars_x == [xs[3], xs[1], xs[2], det]
        want = MvLaurent.monomial(4, (-1, 0, 0, 1)) + MvLaurent.monomial(4, (-1, 1, 1, 0))
        assert to_y_coordinates(ctx22, bundle.vars_x[:1]) == [want]
        assert bundle.as_seed(ctx22).vars_y[0] == want

    def test_no_mutation_before_link(self, ctx22):
        a = seed_for_tau(ctx22, (0, 1, 2, 3))
        b = seed_for_tau(ctx22, (1, 2, 0, 3))
        assert a.vars_x == b.vars_x
        assert a.btilde == b.btilde
        assert a.r == b.r

    def test_beta_equals_lambda_star_all_gamma(self, ctx23):
        for bundle in gamma_bundles(ctx23):
            for l, val in bundle.beta.items():
                assert val == ctx23.p.lam_star[l] == 2

    def test_weyl_seed(self):
        ctx, gamma = ClusterContext.build_normalizing(weyl_block(2))
        assert gamma == [1, -2]
        bundle = seed_for_tau(ctx, (0, 1))
        assert bundle.btilde.column(0) == (0, 1)
        report = verify_one_step(ctx, bundle, seed_for_tau(ctx, (1, 0)))
        assert report.verified and report.branch == "mutation"
        # the mutated variable is the rescaled x2
        other = seed_for_tau(ctx, (1, 0))
        assert other.vars_x[0] == MvLaurent.gen(2, 1)

    def test_seed_invariants_in_either_coordinates(self, ctx23):
        bundle = seed_for_tau(ctx23, (1, 2, 0, 3, 4, 5))
        seed = bundle.as_seed(ctx23)
        check_seed_invariants(bundle.vars_x, bundle.r, bundle.btilde, ctx23.d_map, ctx23.eta)
        check_seed_invariants(seed.vars_y, seed.r, seed.btilde, ctx23.d_map, ctx23.eta)
        doubled = [bundle.vars_x[0]] + bundle.vars_x[:-1]
        with pytest.raises(SeedInvariantFailure, match="linearly dependent"):
            check_seed_invariants(doubled, bundle.r, bundle.btilde, ctx23.d_map, ctx23.eta)
        # unequal d on two eta classes that the principal part couples
        eta = ctx23.eta.eta
        k, j = next((k, j) for k in bundle.btilde.ex for j in bundle.btilde.ex
                    if bundle.btilde.entry(k, j) and eta[k] != eta[j])
        d_map = dict(ctx23.d_map)
        d_map[eta[k]] = 2 * d_map[eta[j]]
        with pytest.raises(SeedInvariantFailure, match="skew-symmetrized by the d-integers"):
            check_seed_invariants(bundle.vars_x, bundle.r, bundle.btilde, d_map, ctx23.eta)

    def test_two_block_d_integers_in_seed(self):
        ctx, _ = ClusterContext.build_normalizing(two_block(2, 3))
        bundle = seed_for_tau(ctx, (0, 1, 2, 3))
        assert bundle.beta[0] == 2 and bundle.beta[2] == 3
        b = bundle.btilde
        d = ctx.d_map
        for k in b.ex:
            for j in b.ex:
                assert d[ctx.eta.eta[k]] * b.entry(k, j) == -d[ctx.eta.eta[j]] * b.entry(j, k)


class TestOneStep:
    def test_mutation_link_2x2(self, ctx22):
        report = verify_one_step(ctx22, seed_for_tau(ctx22, (1, 2, 0, 3)), seed_for_tau(ctx22, (1, 2, 3, 0)))
        assert report.verified
        assert report.branch == "mutation"
        assert report.k_bullet == 0
        # exchanged variable is t22, satisfying t11 t22 = Delta + t12 t21
        high = seed_for_tau(ctx22, (1, 2, 3, 0))
        assert high.vars_x[0] == MvLaurent.gen(4, 3)

    def test_equal_link(self, ctx22):
        report = verify_one_step(ctx22, seed_for_tau(ctx22, (0, 1, 2, 3)), seed_for_tau(ctx22, (1, 0, 2, 3)))
        assert report.verified and report.branch == "equal"

    def test_full_chain_2x3(self, ctx23):
        reports = chain_verify(ctx23)
        assert len(reports) == 15
        assert all(r.verified for r in reports)
        assert sum(1 for r in reports if r.branch == "mutation") == 2

    def test_chain_weyl_blocks(self):
        for p in (weyl_block(2), two_block(2, 3)):
            ctx, _ = ClusterContext.build_normalizing(p)
            assert all(r.verified for r in chain_verify(ctx))

    def test_chain_makes_no_y_conversion(self, p23, monkeypatch):
        # links are checked on seed keys, r and B; no seed is rewritten in y:
        # no exchange quotient, no substitution and no initial-cluster table
        calls = []
        for name in ("_exchange_quotient", "substitute"):
            inner = getattr(cluster, name)
            monkeypatch.setattr(cluster, name, lambda *args, inner=inner: calls.append(args) or inner(*args))
        ctx = ClusterContext.build(p23)
        reports = chain_verify(ctx)
        assert len(reports) == 15 and all(r.verified for r in reports)
        assert calls == []
        assert "y_table" not in vars(ctx)


class TestLogCanonical:
    def test_identity_matches_q(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        check_log_canonical(ctx22, bundle)
        assert as_fractions(bundle.r)[1][0] == -1

    def test_rotated_bracket(self, ctx22):
        bundle = seed_for_tau(ctx22, (1, 2, 3, 0))
        check_log_canonical(ctx22, bundle)
        # {t22, t12} = -t12 t22: entry (1,2) of r_tau
        assert as_fractions(bundle.r)[0][1] == -1

    def test_affine_is_input_matrix(self):
        q = [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]
        ctx = ClusterContext.build(build_affine_space(3, q))
        bundle = seed_for_tau(ctx, (0, 1, 2))
        check_log_canonical(ctx, bundle)
        assert as_fractions(bundle.r) == [[Fraction(x) for x in row] for row in q]

    def test_all_gamma_2x3(self, ctx23):
        for bundle in gamma_bundles(ctx23):
            check_log_canonical(ctx23, bundle)


class TestExpressAndMembership:
    def test_x4_in_initial_cluster(self, ctx22):
        expr, witness = express_in_cluster(ctx22, MvLaurent.gen(4, 3), (0, 1, 2, 3), cluster_expressions(ctx22))
        want = MvLaurent.monomial(4, (-1, 0, 0, 1)) + MvLaurent.monomial(4, (-1, 1, 1, 0))
        assert expr == want
        assert witness.ok  # y1 is exchangeable, negative power allowed

    def test_x1_plus_one(self, ctx22):
        expr, _ = express_in_cluster(ctx22, MvLaurent.gen(4, 0) + 1, (0, 1, 2, 3), cluster_expressions(ctx22))
        assert expr == MvLaurent.gen(4, 0) + 1

    def test_y_elements_frozen_nonneg(self, ctx22):
        for tau in gamma_chain(4):
            images = cluster_expressions_for_tau(ctx22, tau)
            for j in range(4):
                _, witness = express_in_cluster(ctx22, ctx22.seq.y[j], tau, images)
                assert witness.ok

    def test_generators_certify(self, ctx23):
        for j in range(6):
            ok, _ = upper_membership(ctx23, MvLaurent.gen(6, j))
            assert ok

    def test_frozen_inverse(self, ctx22):
        y4_inv = MvLaurent.gen(4, 3, -1)
        ok, witnesses = upper_membership(ctx22, y4_inv, coords="y")
        assert not ok
        assert any(w.bad_frozen == [3] for w in witnesses)
        ok2, _ = upper_membership(ctx22, y4_inv, inv=[3], coords="y")
        assert ok2

    def test_laurent_phenomenon_desk_scale(self, ctx22):
        # every Gamma variable, re-expressed in any Gamma cluster, is Laurent
        # with frozen-nonnegative exponents
        perms = gamma_chain(4)
        variables = []
        for bundle in gamma_bundles(ctx22):
            variables.extend(bundle.vars_x)
        for tau in perms:
            images = cluster_expressions_for_tau(ctx22, tau)
            for v in variables:
                _, witness = express_in_cluster(ctx22, v, tau, images)
                assert witness.ok

    def test_cluster_expressions_invert(self, ctx23):
        # substituting the oracle's tau-cluster expressions back with the
        # variable polynomials recovers each generator
        for bundle in gamma_bundles(ctx23):
            imgs = cluster_expressions_for_tau(ctx23, bundle.tau)
            for j in range(6):
                assert substitute(imgs[j], bundle.vars_x) == MvLaurent.gen(6, j)

    def test_non_xi_tau_rejected(self, ctx22):
        # prefix {2, 4} is not an interval
        with pytest.raises(SymmetryError):
            seed_for_tau(ctx22, (1, 3, 0, 2))

    def test_wrong_length_tau_rejected(self, ctx22):
        with pytest.raises(SymmetryError):
            seed_for_tau(ctx22, (0, 1, 2))
        with pytest.raises(SymmetryError):
            seed_for_tau(ctx22, (0, 1, 2, 3, 4))

    def test_non_polynomial_x_input_rejected(self, ctx22):
        # one structured error, not an ok=False witness per cluster
        with pytest.raises(NotInRing):
            upper_membership(ctx22, MvLaurent.gen(4, 0, -1))


def _express_per_tau(ctx, f, tau, inv=(), coords="x"):
    """express_in_cluster as it was before the seed-key cache: expressions
    built for this tau alone, and every initial prime y_j rewritten."""
    x_imgs = cluster_expressions_for_tau(ClusterContext(ctx.p, ctx.eta, ctx.seq, ctx.d_map), tau)
    if coords == "x":
        if not f.is_polynomial():
            raise NotInRing("x-coordinate input must be a polynomial in the generators")
        expr = substitute(f, x_imgs)
    else:
        y_imgs = [substitute(ctx.seq.y[j], x_imgs) for j in range(ctx.p.n)]
        try:
            expr = substitute(f, y_imgs)
        except NonInvertibleImage as exc:
            raise NotInRing(str(exc)) from exc
    frozen = [l for l in range(ctx.p.n) if ctx.eta.succ[l] is None]
    bad = sorted({l for l in frozen if l not in set(inv) for e in expr.terms if e[l] < 0})
    return MembershipWitness(tau=tuple(tau), ok=not bad, bad_frozen=bad)


def _upper_membership_per_tau(ctx, f, inv=(), coords="x"):
    """Oracle: the per-permutation loop that upper_membership replaced."""
    witnesses = []
    ok = True
    for tau in gamma_chain(ctx.p.n):
        try:
            w = _express_per_tau(ctx, f, tau, inv=inv, coords=coords)
        except NotInRing:
            w = MembershipWitness(tau=tuple(tau), ok=False, bad_frozen=[])
        witnesses.append(w)
        ok = ok and w.ok
    return ok, witnesses


class TestMembershipDedupe:
    """upper_membership expresses once per seed key; the witnesses must equal
    the per-permutation oracle's on the full Gamma_9 of the 3x3 preset."""

    def _cases(self, ctx):
        y = [MvLaurent.gen(9, j) for j in range(9)]
        frozen = [l for l in range(9) if ctx.eta.succ[l] is None][-1]
        y_frozen_inv = MvLaurent.gen(9, frozen, -1)
        return [
            (MvLaurent.gen(9, 4), (), "x"),
            (y_frozen_inv, (), "y"),
            (y_frozen_inv, (frozen,), "y"),
            (MvLaurent.gen(9, 3, -1) * y[0] * y[8], (), "y"),
        ]

    def test_equals_per_tau_oracle(self, ctx33):
        for f, inv, coords in self._cases(ctx33):
            got = upper_membership(ctx33, f, inv=inv, coords=coords)
            assert got == _upper_membership_per_tau(ctx33, f, inv=inv, coords=coords)

    def test_cases_cover_both_outcomes(self, ctx33):
        oks = [upper_membership(ctx33, f, inv=inv, coords=coords)[0]
               for f, inv, coords in self._cases(ctx33)]
        assert oks == [True, False, True, False]
        f, inv, coords = self._cases(ctx33)[3]
        _, witnesses = upper_membership(ctx33, f, inv=inv, coords=coords)
        missing = [not w.ok and not w.bad_frozen for w in witnesses]
        assert any(missing) and not all(missing)   # NotInRing in some clusters only

    def test_one_expression_per_seed_key(self, ctx33, monkeypatch):
        # the y-input is expressed once per cluster; the x-input not at all,
        # as its carried generator images certify every cluster
        calls = []
        inner = cluster.express_in_cluster

        def counting(ctx, f, tau, x_imgs, **kw):
            calls.append(tau)
            return inner(ctx, f, tau, x_imgs, **kw)

        monkeypatch.setattr(cluster, "express_in_cluster", counting)
        _, witnesses = upper_membership(ctx33, MvLaurent.gen(9, 4))
        perms = gamma_chain(ctx33.p.n)
        assert [w.tau for w in witnesses] == perms
        assert len(perms) == 37
        assert calls == []
        f, inv, coords = self._cases(ctx33)[3]
        _, witnesses = upper_membership(ctx33, f, inv=inv, coords=coords)
        assert [w.tau for w in witnesses] == perms
        mutations = sum(rep.branch == "mutation" for rep in chain_verify(ctx33))
        assert len(calls) == 6 == 1 + mutations


WALK_INPUTS = {
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "rescaled_3x3": rescaled_3x3,
    "3x4": lambda: build_matrix_poisson(3, 4),
    "4x4": lambda: build_matrix_poisson(4, 4),
    "two_block": two_block,
    "rescaled_4x5": rescaled_4x5,
}
# the presets whose per-permutation oracle runs in under a second per y-input
SMALL_WALK_INPUTS = ("2x3", "3x3", "rescaled_3x3", "3x4", "two_block")


def _walk_ctx(name):
    return ClusterContext.build_normalizing(WALK_INPUTS[name]())[0]


def _spy_back_substitution(monkeypatch):
    """Count the calls of cluster_expressions; returns the list of their contexts."""
    calls = []
    inner = cluster.cluster_expressions

    def counting(ctx):
        calls.append(ctx)
        return inner(ctx)

    monkeypatch.setattr(cluster, "cluster_expressions", counting)
    return calls


def _walk_cases(ctx):
    """An x-input, and a y-input that is not Laurent in some clusters and has
    a negative power of the last frozen variable, without and with --inv;
    then the x-input with --inv."""
    n = ctx.p.n
    frozen = [l for l in range(n) if ctx.eta.succ[l] is None][-1]
    b = 1 if ctx.eta.succ[1] is not None else ctx.eta.exchangeable[-1]
    x = MvLaurent.gen(n, 0) * MvLaurent.gen(n, n - 1) - MvLaurent.gen(n, 1) * MvLaurent.gen(n, n - 2) \
        + 3 * MvLaurent.gen(n, n // 2)
    y = MvLaurent.gen(n, b, -1) * MvLaurent.gen(n, 0) * MvLaurent.gen(n, frozen, -1)
    return [(x, (), "x"), (y, (), "y"), (y, (frozen,), "y"), (x, (frozen,), "x")]


def _runs(ctx):
    """(first permutation, seed key) of each run of equal seed keys along Gamma_N."""
    runs = []
    for tau in gamma_chain(ctx.p.n):
        key = tau_data(ctx.eta, tau)[1]
        if not runs or key != runs[-1][1]:
            runs.append((tau, key))
    return runs


def _walk(ctx, used=()):
    """The runs with the generator images of their clusters and the images
    of the y_j with j in used (zero for the others), carried as
    upper_membership carries them: from cluster_expressions and from each y_j as
    itself, by one exchange per run."""
    n = ctx.p.n
    walks = (cluster._carried_images(ctx, cluster_expressions(ctx), set(range(n))),
             cluster._carried_images(ctx, [MvLaurent.gen(n, j) for j in range(n)], set(used)))
    x_runs, y_runs = ([images for _, changed, images in walk if changed] for walk in walks)
    return [(tau, key, x_imgs, y_imgs) for (tau, key), x_imgs, y_imgs in zip(_runs(ctx), x_runs, y_runs)]


# every fixture the walk was checked on: the walk inputs, plus 1x5, 5x5 and the Weyl blocks
KEY_INPUTS = dict(WALK_INPUTS, **{
    "1x5": lambda: build_matrix_poisson(1, 5),
    "5x5": lambda: build_matrix_poisson(5, 5),
    "weyl_block2": lambda: weyl_block(2),
    "weyl_block3": lambda: weyl_block(3),
})


@pytest.mark.parametrize("name", KEY_INPUTS)
def test_gamma_keys_change_in_one_slot(name):
    # the walk relies on this: adjacent keys are equal or differ in one slot,
    # and no key comes back after its run of equal keys ends
    ctx = ClusterContext.build_normalizing(KEY_INPUTS[name]())[0]
    keys = [tau_data(ctx.eta, tau)[1] for tau in gamma_chain(ctx.p.n)]
    assert {sum(u != v for u, v in zip(a, b)) for a, b in zip(keys, keys[1:])} <= {0, 1}
    assert len(_runs(ctx)) == len(set(keys))


class TestMembershipWalk:
    """Each new cluster's generator images derived from the cluster before it
    by one exchange, against the back-substitution of every cluster."""

    @pytest.mark.parametrize("name", WALK_INPUTS)
    def test_walked_images_equal_back_substitution(self, name):
        ctx = _walk_ctx(name)
        runs = _walk(ctx)
        for tau, _, images, _ in runs:
            assert images == cluster_expressions_for_tau(ctx, tau)
        assert len(runs) > 1

    @pytest.mark.parametrize("name", WALK_INPUTS)
    def test_equals_per_tau_oracle(self, name):
        ctx = _walk_ctx(name)
        first_of_key = {}
        for tau in gamma_chain(ctx.p.n):
            first_of_key.setdefault(tau_data(ctx.eta, tau)[1], tau)
        outcomes = []
        for i, (f, inv, coords) in enumerate(_walk_cases(ctx)):
            got = upper_membership(ctx, f, inv=inv, coords=coords)
            if i == 0 or name in SMALL_WALK_INPUTS:
                assert got == _upper_membership_per_tau(ctx, f, inv=inv, coords=coords)
            else:
                # the oracle writes the generators in every cluster, and a
                # y-input's y_j too, about 5 s per input on rescaled_4x5, so
                # past the first input it runs on the first permutation of
                # each cluster; the other witnesses copy their cluster's
                # (TestMembershipDedupe)
                for w in got[1]:
                    if w.tau in first_of_key.values():
                        try:
                            want = _express_per_tau(ctx, f, w.tau, inv=inv, coords=coords)
                        except NotInRing:
                            want = MembershipWitness(tau=w.tau, ok=False, bad_frozen=[])
                        assert w == want
            outcomes.append((got[0], [not w.ok and not w.bad_frozen for w in got[1]]))
        assert outcomes[0][0] and not any(outcomes[0][1])
        # the y-input is not Laurent in some clusters, and the walk resumes after them
        assert outcomes[1][1] == outcomes[2][1]
        assert any(outcomes[1][1]) and not all(outcomes[1][1])
        assert outcomes[1][0] is False and outcomes[2][0] is False
        assert outcomes[3] == outcomes[0]

    @pytest.mark.parametrize("name", WALK_INPUTS)
    def test_one_back_substitution_per_membership(self, name, monkeypatch):
        ctx = _walk_ctx(name)
        calls = _spy_back_substitution(monkeypatch)
        assert upper_membership(ctx, _walk_cases(ctx)[0][0])[0]
        assert calls == [ctx]

    def test_express_in_reverse_chain_order(self, ctx33):
        # express_in_cluster reads only its arguments: the walk's images, met
        # last cluster first, give the per-permutation oracle's witnesses
        runs = _walk(ctx33, used=range(ctx33.p.n))
        for f, inv, coords in _walk_cases(ctx33):
            for tau, _, x_imgs, y_imgs in reversed(runs):
                images = x_imgs if coords == "x" else y_imgs
                try:
                    want = _express_per_tau(ctx33, f, tau, inv=inv, coords=coords)
                except NotInRing:
                    with pytest.raises(NotInRing):
                        express_in_cluster(ctx33, f, tau, images, inv=inv)
                    continue
                assert express_in_cluster(ctx33, f, tau, images, inv=inv)[1] == want

    def _walk_fails(self, tmp_path, capsys, detail, commands=(["membership", "--elem", "t11*t22 - t12*t21"],)):
        """upper_membership on 3x4 and each command on the 3x4 preset (by
        default `pcgl membership`) end in a ClusterError with this detail,
        the commands with exit 2."""
        ctx = _walk_ctx("3x4")
        with pytest.raises(ClusterError) as err:
            upper_membership(ctx, _walk_cases(ctx)[0][0])
        assert type(err.value) is ClusterError and str(err.value) == detail
        path = str(tmp_path / "m34.json")
        assert cli.main(["preset", "matrix", "--m", "3", "--n", "4", "-o", path]) == 0
        capsys.readouterr()
        for argv in commands:
            assert cli.main([argv[0], path, *argv[1:]]) == 2
            assert json.loads(capsys.readouterr().out)["error"] == {"code": "ClusterError", "detail": detail}

    def _corrupt_third_key(self, monkeypatch, corrupt):
        """Make tau_data give the first permutation of the walk's third cluster
        the key corrupt(key, kb, j), with kb the slot where the second and
        third keys differ and j another slot; returns kb and j."""
        _, (_, prev), (target, key) = _runs(_walk_ctx("3x4"))[:3]
        kb = next(j for j in range(len(key)) if prev[j] != key[j])
        j = kb - 1 if kb else 1
        bad = corrupt(key, kb, j)
        inner = cluster.tau_data

        def corrupted(eta, tau):
            sigma, k = inner(eta, tau)
            return sigma, bad if tuple(tau) == target else k

        monkeypatch.setattr(cluster, "tau_data", corrupted)
        return kb, j

    def test_neighbour_two_slots_away_raises(self, monkeypatch, tmp_path, capsys):
        # slot j, where the keys agree, gets slot kb's new label, so two slots
        # change; the walk builds both, and the exchange refuses the step
        kb, j = self._corrupt_third_key(monkeypatch, lambda key, kb, j: key[:j] + (key[kb],) + key[j + 1:])
        slots = sorted([kb + 1, j + 1])
        self._walk_fails(tmp_path, capsys, f"seed keys differ in slots {slots}, not in exactly one")

    def test_corrupted_exchange_column_raises(self, monkeypatch, tmp_path, capsys):
        # the walk's identity exchange matrix, once the identity seed's checks
        # have passed, with column kb, the slot of the first exchange, changed
        # in one entry: y'_kb * y_kb is no longer its binomial, and the walk
        # refuses the step before rewriting, mutating or building a bundle,
        # for membership, chain-verify and seeds --gamma alike
        (_, first), (_, second) = _runs(_walk_ctx("3x4"))[:2]
        kb = next(j for j in range(len(first)) if first[j] != second[j])
        inner = cluster.check_seed_invariants

        def corrupting(variables, r, btilde, *rest):
            # the identity's are the only seed checks a walk runs before its first exchange
            beta = inner(variables, r, btilde, *rest)
            col = list(btilde.column(kb))
            col[0 if kb else 1] += 1
            btilde.cols[kb] = tuple(col)
            return beta

        monkeypatch.setattr(cluster, "check_seed_invariants", corrupting)
        for never_reached in ("substitute", "mutate_matrix"):
            monkeypatch.setattr(cluster, never_reached, None)
        self._walk_fails(tmp_path, capsys, f"exchange identity of slot {kb+1} fails",
                         [["membership", "--elem", "t11*t22 - t12*t21"], ["chain-verify"], ["seeds", "--gamma"]])

    def test_inexact_division_raises(self, monkeypatch, tmp_path, capsys):
        def inexact(f, images):
            raise NonInvertibleImage("forced")

        monkeypatch.setattr(cluster, "substitute", inexact)
        (_, first), (_, second) = _runs(_walk_ctx("3x4"))[:2]
        kb = next(j for j in range(len(first)) if first[j] != second[j])
        self._walk_fails(tmp_path, capsys, f"exchange in slot {kb+1} is not exact: forced")


    @pytest.mark.parametrize("name", ["3x3", "4x4", "rescaled_4x5", "two_block"])
    def test_carried_y_images_equal_substitution(self, name):
        # every y_j carried along the walk is y_j written in that cluster
        ctx = _walk_ctx(name)
        for _, _, x_imgs, y_imgs in _walk(ctx, used=range(ctx.p.n)):
            assert y_imgs == [substitute(y, x_imgs) for y in ctx.seq.y]

    def test_one_substitution_of_a_y_input_per_cluster(self, ctx33, monkeypatch):
        # the y-input is substituted once per cluster, into its carried
        # images; no y_j is rewritten from the generator images
        f = _walk_cases(ctx33)[1][0]
        calls = []
        inner = cluster.substitute

        def counting(g, images):
            calls.append(g)
            return inner(g, images)

        monkeypatch.setattr(cluster, "substitute", counting)
        upper_membership(ctx33, f, coords="y")
        assert sum(g is f for g in calls) == len(_runs(ctx33)) == 6
        assert not any(g is y for g in calls for y in ctx33.seq.y)

    @pytest.mark.parametrize("name", WALK_INPUTS)
    def test_forced_fallback_gives_the_same_witnesses(self, name):
        # the substitution of an x-input into every cluster, the fallback
        # upper_membership no longer has, gives the witnesses its
        # certificate from the generator images gives, without and with --inv
        ctx = _walk_ctx(name)
        x = _walk_cases(ctx)[0][0]
        frozen = [l for l in range(ctx.p.n) if ctx.eta.succ[l] is None]
        for f, inv in [(x, ()), (x * x, ()), (x, frozen[-1:])]:
            got = upper_membership(ctx, f, inv=inv)
            assert got[0] and got == membership_by_substitution(ctx, f, inv=inv)

    def test_images_with_a_negative_frozen_exponent_do_not_certify(self, monkeypatch, tmp_path, capsys):
        # R lies in the upper cluster algebra, so an x-input's generator image
        # with a negative frozen exponent is a fault of the walk: the first
        # exchange gives the image of x_j a factor y_l^-1 for a frozen l, and
        # membership refuses the cluster, --inv l included
        ctx = _walk_ctx("3x4")
        l = [i for i in range(ctx.p.n) if ctx.eta.succ[i] is None][-1]
        (_, first), (tau, second) = _runs(ctx)[:2]
        kb = next(i for i in range(len(first)) if first[i] != second[i])
        x = _walk_cases(ctx)[0][0]
        j = next(i for i in sorted(x.support()) if any(e[kb] for e in cluster_expressions(ctx)[i].terms))
        inner, seen = cluster.substitute, []

        def with_frozen_inverse(g, images):
            out = inner(g, images)
            if not seen:
                seen.append(g)
                out = out * MvLaurent.gen(ctx.p.n, l, -1)
            return out

        monkeypatch.setattr(cluster, "substitute", with_frozen_inverse)
        detail = (f"the image of x{j+1} in the cluster of tau = {[v + 1 for v in tau]} has a negative "
                  f"exponent at frozen index {l+1}, so R does not lie in the upper cluster algebra")
        for inv in [(), (l,)]:
            seen.clear()
            with pytest.raises(ClusterError) as err:
                upper_membership(ctx, x, inv=inv)
            assert type(err.value) is ClusterError and str(err.value) == detail
        path = str(tmp_path / "m34.json")
        assert cli.main(["preset", "matrix", "--m", "3", "--n", "4", "-o", path]) == 0
        capsys.readouterr()
        seen.clear()
        argv = ["membership", path, "--elem", "t11*t34 - t12*t33 + 3*t23", "--inv", str(l + 1)]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"code": "ClusterError", "detail": detail}

    @pytest.mark.parametrize("coords, elem", [("x", "t11*t22 - t12*t21"), ("y", "y6^-1*y1*y16")])
    def test_one_solve_and_no_substitution_of_an_interval_prime(self, coords, elem, tmp_path,
                                                                monkeypatch, capsys):
        # 4x4: B is solved at the identity and mutated after it; no new
        # variable is written in the old cluster, and only an x-input writes
        # the generators in the initial cluster
        path = str(tmp_path / "m44.json")
        assert cli.main(["preset", "matrix", "--m", "4", "--n", "4", "-o", path]) == 0
        solves, primes, substituted = [], [], []
        back = _spy_back_substitution(monkeypatch)
        solve, prime, subst = linalg.solve, cluster.interval_prime, cluster.substitute
        monkeypatch.setattr(linalg, "solve", lambda *a: solves.append(a) or solve(*a))
        monkeypatch.setattr(cluster, "interval_prime", lambda *a: primes.append(prime(*a)) or primes[-1])
        monkeypatch.setattr(cluster, "substitute", lambda f, images: substituted.append(f) or subst(f, images))
        code = cli.main(["membership", path, "--coords", coords, "--elem", elem])
        capsys.readouterr()
        assert code == (0 if coords == "x" else 1)
        assert len(solves) == 1 and len(primes) == 14
        assert not any(f is y for f in substituted for y in primes)
        assert len(back) == (1 if coords == "x" else 0)


# every fixture the initial cluster's table was checked on
INITIAL_INPUTS = dict({name: KEY_INPUTS[name] for name in
                       ("1x5", "2x3", "3x3", "3x4", "4x4", "5x5", "rescaled_3x3", "rescaled_4x5",
                        "weyl_block2", "weyl_block3", "two_block")}, **{
    "rescaled_2x3": rescaled_2x3,
    "affine3": lambda: build_affine_space(3, [[0, 1, -2], [-1, 0, 3], [2, -3, 0]]),
})


def _interval_labels(ctx):
    """Every interval label (c, m) with s^m(c) defined."""
    labels = set()
    for c in range(ctx.p.n):
        i, m = c, 0
        while i is not None:
            labels.add((c, m))
            i, m = ctx.eta.succ[i], m + 1
    return labels


class TestInitialCluster:
    """ctx.y_table writes every cluster variable of Gamma_N in the initial
    cluster by the exchange quotients of the one walk; the back-substitution
    it replaced, and the substitution of interval primes into it, are the
    oracles."""

    @pytest.mark.parametrize("name", INITIAL_INPUTS)
    def test_x_in_y_is_the_oracle_at_the_identity(self, name, monkeypatch):
        # one walk, one solve, one interval prime per exchange, no substitution
        ctx = ClusterContext.build_normalizing(INITIAL_INPUTS[name]())[0]
        calls = {}

        def spy(owner, attr):
            inner = getattr(owner, attr)
            calls[attr] = []
            monkeypatch.setattr(owner, attr, lambda *args: calls[attr].append(args) or inner(*args))

        for owner, attr in ((cluster, "_gamma_walk"), (linalg, "solve"), (cluster, "interval_prime"),
                            (cluster, "substitute")):
            spy(owner, attr)
        got = cluster_expressions(ctx)
        assert len(calls["_gamma_walk"]) == 1
        assert len(calls["solve"]) == min(1, len(ctx.eta.exchangeable))
        assert len(calls["interval_prime"]) == len(_runs(ctx)) - 1
        assert calls["substitute"] == []
        want = cluster_expressions_for_tau(ctx, tuple(range(ctx.p.n)))
        # coefficients and terms in the order reports render them
        assert [f.sorted_terms() for f in got] == [f.sorted_terms() for f in want]

    @pytest.mark.parametrize("name", INITIAL_INPUTS)
    def test_table_holds_every_interval_label(self, name):
        # so variable_in_y reads the variable of any Xi_N key off the table
        ctx = ClusterContext.build_normalizing(INITIAL_INPUTS[name]())[0]
        assert set(ctx.y_table) == _interval_labels(ctx)
        assert [ctx.y_table[(k, 0)] for k in range(ctx.p.n)] == cluster_expressions(ctx)

    @pytest.mark.parametrize("name", INITIAL_INPUTS)
    def test_table_equals_substituted_interval_primes(self, name):
        # each label other than (k, 0) against its interval prime substituted
        # into the back-substitution, the route the table replaced
        ctx = ClusterContext.build_normalizing(INITIAL_INPUTS[name]())[0]
        labels = sorted(label for label in ctx.y_table if label[1])
        assert [ctx.y_table[label] for label in labels] == \
            to_y_coordinates(ctx, [ctx.prime(label)[0] for label in labels])
        for label in labels:
            assert ctx.variable_in_y(label) == ctx.y_table[label]

    def test_membership_builds_only_the_walks_interval_primes(self, tmp_path, monkeypatch, capsys):
        # 4x4: the 16 variables of the initial cluster are the prime
        # sequence; the walk builds the 14 new variables it exchanges in
        calls = []
        inner = cluster.interval_prime

        def counting(*args):
            calls.append(args[2:])
            return inner(*args)

        path = str(tmp_path / "m44.json")
        assert cli.main(["preset", "matrix", "--m", "4", "--n", "4", "-o", path]) == 0
        monkeypatch.setattr(cluster, "interval_prime", counting)
        assert cli.main(["membership", path, "--elem", "t11*t22 - t12*t21"]) == 0
        capsys.readouterr()
        assert len(calls) == len(set(calls)) == 14


class TestMutateSeed:
    def test_out_of_range_and_frozen(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        with pytest.raises(DirectionOutOfRange):
            mutate_seed(ctx22, bundle, 98)
        with pytest.raises(NotExchangeable):
            mutate_seed(ctx22, bundle, 3)

    def test_exchange_2x2(self, ctx22):
        bundle = seed_for_tau(ctx22, (0, 1, 2, 3))
        mutated = mutate_seed(ctx22, bundle, 0)
        want = MvLaurent.monomial(4, (-1, 0, 0, 1)) + MvLaurent.monomial(4, (-1, 1, 1, 0))
        assert mutated.vars_y[0] == want
        assert mutated.btilde.column(0) == (0, 1, 1, -1)

    def test_involution(self, ctx23):
        bundle = seed_for_tau(ctx23, tuple(range(6)))
        for k in bundle.btilde.ex:
            once = mutate_seed(ctx23, bundle, k)
            back = mutate_seed(ctx23, once, k)
            assert back.vars_y == bundle.as_seed(ctx23).vars_y
            assert back.btilde == bundle.btilde
            assert back.r == bundle.r

    def test_arbitrary_ex_sequences(self, ctx23):
        # chained mutations stay Laurent in the initial cluster and keep the
        # seed invariants (validated inside mutate_seed)
        rng = random.Random(99)
        seed = seed_for_tau(ctx23, tuple(range(6))).as_seed(ctx23)
        for _ in range(12):
            k = rng.choice(seed.btilde.ex)
            seed = mutate_seed(ctx23, seed, k)
        assert len(seed.history) == 12
        frozen = [l for l in range(6) if ctx23.eta.succ[l] is None]
        for v in seed.vars_y:
            assert all(e[l] >= 0 for e in v.terms for l in frozen)

    def test_doubled_r_keeps_compatibility_but_changes_btr(self, ctx23, monkeypatch):
        # 2 mu(r) is compatible with mu(B) with every beta doubled
        bundle = seed_for_tau(ctx23, tuple(range(6)))
        k = bundle.btilde.ex[0]
        nums, den = mutate_r(bundle.r, bundle.btilde, k)
        doubled = [[2 * x for x in row] for row in nums], den
        assert check_compatible(doubled, mutate_matrix(bundle.btilde, k)) == {
            l: 2 * v for l, v in bundle.beta.items()}
        monkeypatch.setattr(cluster, "mutate_r", lambda r, b, l: doubled)
        with pytest.raises(CompatibilityLost, match=r"^B\^T r changed under pair mutation$"):
            mutate_seed(ctx23, bundle, k)

    def test_incompatible_mutated_r(self, ctx23, monkeypatch):
        bundle = seed_for_tau(ctx23, tuple(range(6)))
        k = bundle.btilde.ex[0]
        b2 = mutate_matrix(bundle.btilde, k)
        nums, den = mutate_r(bundle.r, bundle.btilde, k)
        broken = [list(row) for row in nums], den
        i = next(i for i, c in enumerate(b2.column(k)) if c)
        j = next(j for j in range(6) if j != k)
        broken[0][i][j] += den
        with pytest.raises(CompatibilityFailure) as direct:
            check_compatible(broken, b2)
        monkeypatch.setattr(cluster, "mutate_r", lambda r, b, l: broken)
        with pytest.raises(CompatibilityLost, match="violates compatibility") as lost:
            mutate_seed(ctx23, bundle, k)
        assert str(lost.value) == str(direct.value)
        assert isinstance(lost.value.__cause__, CompatibilityFailure)
