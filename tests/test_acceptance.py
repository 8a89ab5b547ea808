"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check is an exact rational identity; the only numeric
bounds are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import pytest

from pcgl.cgl import AmbiguousPredecessor, compute_eta_and_primes
from pcgl.cluster import (
    ClusterContext,
    NonIntegral,
    chain_verify,
    check_compatible,
    check_log_canonical,
    gamma_bundles,
    mutate_matrix,
    mutate_r,
    seed_for_tau,
    solve_btilde,
    upper_membership,
)
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation, bracket, validate_algebra
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import (
    apply_rescaling,
    rescale_generators,
    validate_symmetric,
)

from algebra_oracles import cauchon_theta, expected_minor_for_generator, sigma, u_element_and_pi


def mark(num, text):
    print(f"[criterion {num}] {text}: PASS")


GRID_OFFSETS = {(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (-1, -1)}


def test_criterion_1_matrix_preset_minors():
    t0 = time.perf_counter()
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        p = build_matrix_poisson(m, n)
        _, seq = compute_eta_and_primes(p)
        for k in range(m * n):
            assert seq.y[k] == expected_minor_for_generator(m, n, k), (m, n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"minor computation took {elapsed:.1f}s"
    mark(1, f"prime sequences equal solid minors for (2,2),(2,3),(3,3) [{elapsed:.2f}s]")


def test_criterion_2_eta_level_sets_and_rank():
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        p = build_matrix_poisson(m, n)
        eta, _ = compute_eta_and_primes(p)
        want = {}
        for k in range(m * n):
            want.setdefault(k % n - k // n, []).append(k)
        got = {}
        for k, lbl in enumerate(eta.eta):
            got.setdefault(lbl, []).append(k)
        assert sorted(want.values()) == sorted(got.values()), (m, n)
        assert eta.rank == m + n - 1, (m, n)
    mark(2, "eta level sets match c - r and rank = m + n - 1")


def test_criterion_3_exchange_matrices(ctx23, ctx33):
    t0 = time.perf_counter()
    for ctx, (m, n) in [(ctx23, (2, 3)), (ctx33, (3, 3))]:
        N = m * n
        bid = seed_for_tau(ctx, tuple(range(N)))
        for l in bid.btilde.ex:
            rl, cl = l // n + 1, l % n + 1
            for i in range(N):
                ri, ci = i // n + 1, i % n + 1
                entry = bid.btilde.entry(i, l)
                assert (entry != 0) == ((ri - rl, ci - cl) in GRID_OFFSETS), (m, n, i, l)
        for bundle in gamma_bundles(ctx):
            # beta_l = (B^T r)_ll checked diagonal-on-ex inside gamma_bundles;
            # the acceptance value is lambda* = 2 everywhere
            assert all(v == 2 for v in bundle.beta.values()), bundle.tau
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"exchange-matrix verification took {elapsed:.1f}s"
    mark(3, f"B support matches the adjacency pattern; B^T r diagonal with entries 2 [{elapsed:.2f}s]")


def test_criterion_4_one_step_chain(ctx23):
    reports = chain_verify(ctx23)
    assert len(reports) == 15
    for rep in reports:
        assert rep.verified, rep.as_dict()
        assert rep.branch in ("equal", "mutation")
    mutations = [r for r in reports if r.branch == "mutation"]
    assert mutations, "chain exercised no mutation links"
    mark(4, f"all 15 adjacent links verified ({len(mutations)} mutations, "
            f"{15 - len(mutations)} equalities)")


def test_criterion_5_log_canonical(ctx23):
    total = 0
    for bundle in gamma_bundles(ctx23):
        total += check_log_canonical(ctx23, bundle)
    assert total == 16 * 15
    mark(5, "all pairwise brackets match Omega_r for every Gamma_6 seed")


def test_criterion_6_membership(ctx23, ctx22):
    for j in range(6):
        ok, _ = upper_membership(ctx23, MvLaurent.gen(6, j))
        assert ok, f"generator {j+1} failed certification"
    y4_inv = MvLaurent.gen(4, 3, -1)
    ok_plain, _ = upper_membership(ctx22, y4_inv, coords="y")
    ok_inv, _ = upper_membership(ctx22, y4_inv, inv=[3], coords="y")
    assert not ok_plain and ok_inv
    mark(6, "generators certified; frozen inverse rejected without inv, accepted with inv")


def test_criterion_7_normalization(ctx23):
    rng = random.Random(123)
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        p = build_matrix_poisson(m, n)
        _, ps, _ = validate_symmetric(p)
        eta, _ = compute_eta_and_primes(ps)
        gamma, _ = rescale_generators(ps, eta)
        assert all(g == 1 for g in gamma), (m, n)
        for i in range(m * n):
            if eta.succ[i] is not None:
                assert u_element_and_pi(ps, eta, i, 1).pi == 1

    base = seed_for_tau(ctx23, tuple(range(6)))
    for _ in range(5):
        scale = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(6)]
        scaled = apply_rescaling(ctx23.p, scale)
        eta_s, _ = compute_eta_and_primes(scaled)
        gamma, fixed = rescale_generators(scaled, eta_s)
        eta_f, _ = compute_eta_and_primes(fixed)
        for i in range(6):
            if eta_f.succ[i] is not None:
                assert u_element_and_pi(fixed, eta_f, i, 1).pi == 1
        ctx_f = ClusterContext.build(fixed)
        redone = seed_for_tau(ctx_f, tuple(range(6)))
        assert redone.btilde == base.btilde
        assert redone.r == base.r
    mark(7, "gamma = pi = 1 on presets; adversarial rescale restored; B unchanged")


class TestCriterion8Properties:
    """Structural property suite, >= 100 random small instances per property."""

    @pytest.fixture(scope="class", autouse=True)
    @staticmethod
    def budget_clock():
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"property suite took {elapsed:.1f}s"
        mark(8, f"full structural property suite within budget [{elapsed:.2f}s]")

    def test_mutation_involutivity(self, ctx23):
        rng = random.Random(8)
        bundle = seed_for_tau(ctx23, tuple(range(6)))
        count = 0
        b = bundle.btilde
        for _ in range(100):
            k = rng.choice(b.ex)
            assert mutate_matrix(mutate_matrix(b, k), k) == b
            b = mutate_matrix(b, k)  # walk to fresh matrices
            count += 1
        assert count >= 100
        mark("8a", f"matrix mutation involutive on {count} random instances")

    def test_epsilon_independence_and_btr_invariance(self, ctx23, ctx33):
        # mutate_r computes both epsilon signs and asserts equality; the
        # mutated pair must stay compatible with B^T r unchanged; each
        # mutation is one instance of each property
        rng = random.Random(88)
        count = 0
        for ctx in (ctx23, ctx33):
            bundle = seed_for_tau(ctx, tuple(range(ctx.p.n)))
            r, b = bundle.r, bundle.btilde
            check_compatible(r, b)
            base_btr = {(l, j): sum(b.column(l)[i] * r[i][j] for i in range(ctx.p.n))
                        for l in b.ex for j in range(ctx.p.n)}
            for _ in range(55):
                k = rng.choice(b.ex)
                r, b = mutate_r(r, b, k), mutate_matrix(b, k)
                check_compatible(r, b)
                got_btr = {(l, j): sum(b.column(l)[i] * r[i][j] for i in range(ctx.p.n))
                           for l in b.ex for j in range(ctx.p.n)}
                assert got_btr == base_btr
                count += 1
        assert count >= 100
        mark("8b", f"epsilon-independence and B^T r invariance on {count} mutations")

    def test_pi_f_cocycle(self):
        rng = random.Random(888)
        count = 0

        def check_chain(p, eta, i):
            nonlocal count
            # pi_[s(i),s(i)] pi_[i,s^2(i)] = pi_[i,s(i)] pi_[s(i),s^2(i)], same for f
            s_i = eta.succ[i]
            u_ss = u_element_and_pi(p, eta, s_i, 0)
            u_i2 = u_element_and_pi(p, eta, i, 2)
            u_i1 = u_element_and_pi(p, eta, i, 1)
            u_s1 = u_element_and_pi(p, eta, s_i, 1)
            assert u_ss.pi * u_i2.pi == u_i1.pi * u_s1.pi
            assert tuple(a + b for a, b in zip(u_ss.f, u_i2.f)) == \
                tuple(a + b for a, b in zip(u_i1.f, u_s1.f))
            count += 1

        for m, n, reps in [(3, 3, 40), (3, 4, 30)]:
            p0 = build_matrix_poisson(m, n)
            _, ps, _ = validate_symmetric(p0)
            eta0, _ = compute_eta_and_primes(ps)
            chains = [i for i in range(m * n)
                      if eta0.succ[i] is not None and eta0.succ_power(i, 2) is not None]
            for _ in range(reps):
                gamma = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(m * n)]
                q = apply_rescaling(ps, gamma)
                eta_q, _ = compute_eta_and_primes(q)
                for i in chains:
                    check_chain(q, eta_q, i)
        assert count >= 100
        mark("8c", f"pi/f cocycle identities on {count} rescaled instances")

    def test_cauchon_identity(self, p23, p33):
        rng = random.Random(4242)
        count = 0
        for p in (p23, p33):
            n = p.n
            xs = [MvLaurent.gen(n, i) for i in range(n)]
            for _ in range(55):
                k = rng.randrange(1, n)
                f = MvLaurent.zero(n)
                for _ in range(rng.randint(1, 2)):
                    e = [0] * n
                    for _ in range(rng.randint(1, 2)):
                        e[rng.randrange(k)] += 1
                    f = f + MvLaurent.monomial(n, e, rng.randint(-3, 3))
                if f.is_zero():
                    f = xs[rng.randrange(k)]
                lhs = bracket(p, xs[k], cauchon_theta(p, k, f))
                rhs = cauchon_theta(p, k, sigma(p, k, f)) * xs[k]
                assert lhs == rhs
                count += 1
        assert count >= 100
        mark("8d", f"Cauchon bracket identity on {count} random (k, f) instances")

    def test_theta_multiplicative(self, p33):
        rng = random.Random(31337)
        count = 0
        xs = [MvLaurent.gen(9, i) for i in range(9)]
        for _ in range(100):
            k = rng.randrange(1, 9)
            f = xs[rng.randrange(k)] + rng.randint(-2, 2)
            g = xs[rng.randrange(k)] * xs[rng.randrange(k)]
            assert cauchon_theta(p33, k, f * g) == \
                cauchon_theta(p33, k, f) * cauchon_theta(p33, k, g)
            count += 1
        mark("8e", f"theta homomorphism property on {count} random pairs")

    def test_jacobi_random_elements(self, p22, p23):
        rng = random.Random(5150)
        count = 0
        for p in (p22, p23):
            n = p.n
            for _ in range(55):
                fs = []
                for _ in range(3):
                    e = [0] * n
                    e[rng.randrange(n)] += 1
                    e[rng.randrange(n)] += 1
                    fs.append(MvLaurent.monomial(n, e, rng.randint(1, 3))
                              + rng.randint(-2, 2))
                f, g, h = fs
                acc = bracket(p, f, bracket(p, g, h)) \
                    + bracket(p, g, bracket(p, h, f)) \
                    + bracket(p, h, bracket(p, f, g))
                assert acc.is_zero()
                count += 1
        assert count >= 100
        mark("8f", f"Jacobi identity on {count} random element triples")


class TestCriterion9NegativeControls:
    def test_inhomogeneous_delta(self, p22):
        delta = dict(p22.delta)
        delta[(3, 0)] = MvLaurent.monomial(4, (2, 0, 0, 0), Fraction(1))  # t11^2
        bad = PoissonPresentation(n=4, torus_rank=4, weights=p22.weights, h=p22.h,
                                  delta=delta, h_star=p22.h_star)
        report = validate_algebra(bad)
        hits = [f for f in report.failures if type(f).__name__ == "InhomogeneousDelta"]
        assert hits and hits[0].pair == (3, 0)
        mark("9a", "InhomogeneousDelta(4,1) triggered on the tampered preset")

    def test_ambiguous_predecessor(self):
        bad = PoissonPresentation(
            n=3, torus_rank=1,
            weights=((1,), (1,), (1,)),
            h=((Fraction(1),), (Fraction(1),), (Fraction(1),)),
            delta={(2, 0): MvLaurent.gen(3, 1), (2, 1): MvLaurent.gen(3, 0)},
        )
        with pytest.raises(AmbiguousPredecessor) as err:
            compute_eta_and_primes(bad)
        assert err.value.candidates == [0, 1]
        mark("9b", "AmbiguousPredecessor triggered on the crafted non-P-CGL fixture")

    def test_nonintegral_solver(self, ctx22):
        bid = seed_for_tau(ctx22, (0, 1, 2, 3))
        wts = [tuple(3 * x for x in w) if i == 2 else w for i, w in enumerate(bid.weights)]
        with pytest.raises(NonIntegral):
            solve_btilde(ctx22, bid.r, wts)
        mark("9c", "NonIntegral triggered on the corrupted weight table")
