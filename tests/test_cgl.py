"""Eta/prime-sequence machinery, certification, theta map, torus equations."""

import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl.cgl import (
    AmbiguousPredecessor,
    NoPredecessor,
    alpha_q_matrices,
    certify_prime_sequence,
    compute_eta_and_primes,
    hmax_equations,
)
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation, SupportViolation, bracket
from pcgl.presets import build_affine_space, build_matrix_poisson

from algebra_oracles import alpha_q_recurrence, cauchon_theta, delta, expected_minor_for_generator, sigma
from conftest import rescaled_3x3, rescaled_4x5, two_block, weyl_block
from tau_oracles import eta_of_labels


class TestDelta:
    def test_matrix_2x2_examples(self, p22):
        t11 = MvLaurent.gen(4, 0)
        assert delta(p22, 3, t11) == MvLaurent.monomial(4, (0, 1, 1, 0), -2)
        assert delta(p22, 1, t11).is_zero()
        assert delta(p22, 3, MvLaurent.const(4, 5)).is_zero()

    def test_support_violation(self, p22):
        with pytest.raises(SupportViolation):
            delta(p22, 1, MvLaurent.gen(4, 2))

    def test_weight_shift(self, p23):
        eta, seq = compute_eta_and_primes(p23)
        from pcgl.presentation import weight_of
        for k in range(1, 6):
            for j in range(k):
                e = p23.delta_entry(k, j)
                if e.is_zero():
                    continue
                want = tuple(a + b for a, b in zip(p23.weights[k], p23.weights[j]))
                assert weight_of(p23, e) == want


class TestEtaAndPrimes:
    def test_2x2_level_sets(self, p22):
        eta, seq = compute_eta_and_primes(p22)
        classes = {}
        for k, lbl in enumerate(eta.eta):
            classes.setdefault(lbl, []).append(k)
        assert sorted(sorted(v) for v in classes.values()) == [[0, 3], [1], [2]]
        assert seq.y[3] == expected_minor_for_generator(2, 2, 3)
        assert eta.rank == 3
        assert eta.exchangeable == [0]

    def test_affine_space(self):
        p = build_affine_space(3, [[0, 1, 0], [-1, 0, 2], [0, -2, 0]])
        eta, seq = compute_eta_and_primes(p)
        assert eta.pred == [None, None, None]
        assert all(seq.y[k] == MvLaurent.gen(3, k) for k in range(3))
        assert eta.rank == 3

    def test_2x3_solid_minors(self, p23):
        eta, seq = compute_eta_and_primes(p23)
        for k in range(6):
            assert seq.y[k] == expected_minor_for_generator(2, 3, k)
        # eta labels match c - r up to relabeling: compare partitions
        want = {}
        for k in range(6):
            want.setdefault(k % 3 - k // 3, []).append(k)
        got = {}
        for k, lbl in enumerate(eta.eta):
            got.setdefault(lbl, []).append(k)
        assert sorted(want.values()) == sorted(got.values())

    def test_3x3_solid_minors(self, p33):
        eta, seq = compute_eta_and_primes(p33)
        for k in range(9):
            assert seq.y[k] == expected_minor_for_generator(3, 3, k)
        assert eta.rank == 5

    def test_rank_equalities(self, p33):
        eta, _ = compute_eta_and_primes(p33)
        n_pred_inf = sum(1 for v in eta.pred if v is None)
        n_succ_inf = sum(1 for v in eta.succ if v is None)
        assert eta.rank == n_pred_inf == n_succ_inf == len(set(eta.eta))

    def test_c_relations(self, p33):
        # with c_k = y_p(k) x_k - y_k: delta_k(y_p(k)) = lambda_k c_k and delta_k(c_k) = 0
        eta, seq = compute_eta_and_primes(p33)
        for k in range(9):
            pk = eta.pred[k]
            if pk is None:
                continue
            ck = seq.y[pk] * MvLaurent.gen(9, k) - seq.y[k]
            assert delta(p33, k, seq.y[pk]) == ck * p33.lam_diag(k)
            assert delta(p33, k, ck).is_zero()

    def test_ambiguous_predecessor(self):
        # crafted non-P-CGL input: delta_3 nonzero on both final primes
        bad = PoissonPresentation(
            n=3, torus_rank=1,
            weights=((1,), (1,), (1,)),
            h=((Fraction(1),), (Fraction(1),), (Fraction(1),)),
            delta={(2, 0): MvLaurent.gen(3, 1), (2, 1): MvLaurent.gen(3, 0)},
        )
        with pytest.raises(AmbiguousPredecessor) as err:
            compute_eta_and_primes(bad)
        assert err.value.index == 2
        assert err.value.candidates == [0, 1]

    def test_no_predecessor(self):
        # delta_3 kills y_2 = x1 x2 - 1/lambda_2 but is nonzero
        bad = PoissonPresentation(
            n=3, torus_rank=1,
            weights=((1,), (-1,), (1,)),
            h=((Fraction(1),), (Fraction(2),), (Fraction(1),)),
            delta={(1, 0): MvLaurent.const(3, 1),
                   (2, 0): MvLaurent.gen(3, 0), (2, 1): -MvLaurent.gen(3, 1)},
        )
        with pytest.raises(NoPredecessor):
            compute_eta_and_primes(bad)


class TestCertification:
    def test_presets_certify(self, p22, p23, p33):
        for p in (p22, p23, p33):
            eta, seq = compute_eta_and_primes(p)
            certify_prime_sequence(p, eta, seq)  # raises on violation

    def test_affine_certifies(self):
        q = [[0, 2, -1], [-2, 0, 0], [1, 0, 0]]
        p = build_affine_space(3, q)
        eta, seq = compute_eta_and_primes(p)
        qd = certify_prime_sequence(p, eta, seq)
        # singleton level sets: q-matrix equals the input lambda-matrix
        assert qd.q == [[Fraction(x) for x in row] for row in q]


class TestAlphaQ:
    def test_2x2_q_values(self, p22):
        eta, seq = compute_eta_and_primes(p22)
        qd = alpha_q_matrices(p22, eta)
        q = qd.q
        assert (q[3][0], q[3][1], q[3][2]) == (0, 0, 0)
        assert (q[1][0], q[2][0], q[2][1]) == (-1, -1, 0)

    def test_q_skew(self, p23):
        eta, _ = compute_eta_and_primes(p23)
        qd = alpha_q_matrices(p23, eta)
        for k in range(6):
            for j in range(6):
                assert qd.q[k][j] == -qd.q[j][k]

    def test_q_matches_brackets(self, p23):
        eta, seq = compute_eta_and_primes(p23)
        qd = alpha_q_matrices(p23, eta)
        for k in range(6):
            for j in range(6):
                assert bracket(p23, seq.y[k], seq.y[j]) == seq.y[j] * seq.y[k] * qd.q[k][j]

    def test_alpha_closed_form(self, p22):
        # {y_j, x_k} = -alpha_kj y_j x_k for s(j) > k; alpha_24 controls {y_4, t12}
        eta, seq = compute_eta_and_primes(p22)
        qd = alpha_q_matrices(p22, eta)
        t12 = MvLaurent.gen(4, 1)
        assert qd.alpha[1][3] == 0
        assert bracket(p22, seq.y[3], t12).is_zero()

    @pytest.mark.parametrize("build", [
        lambda: build_matrix_poisson(2, 3), lambda: build_matrix_poisson(3, 4),
        rescaled_3x3, weyl_block, lambda: two_block(2, 3), rescaled_4x5,
    ], ids=["2x3", "3x4", "rescaled_3x3", "weyl_block", "two_block", "rescaled_4x5"])
    def test_chain_recurrence_equals_omega_lambda(self, build):
        # Omega_lambda on unit and ebar vectors against the chain recurrence
        p = build()
        eta, _ = compute_eta_and_primes(p)
        assert alpha_q_matrices(p, eta) == alpha_q_recurrence(p, eta)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_chain_recurrence_on_rational_h(self, data):
        # alpha and q read only lambda and the predecessor chains, so any
        # lambda (rational h, drawn weights) pairs with any level-set labels
        n, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        weights = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(n))
        entry = st.fractions(min_value=-6, max_value=6, max_denominator=12)
        h = tuple(tuple(data.draw(entry) for _ in range(d)) for _ in range(n))
        p = PoissonPresentation(n=n, torus_rank=d, weights=weights, h=h)
        eta = eta_of_labels(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        assert alpha_q_matrices(p, eta) == alpha_q_recurrence(p, eta)


class TestCauchonTheta:
    def test_one_step_example(self, p22):
        t11 = MvLaurent.gen(4, 0)
        got = cauchon_theta(p22, 3, t11)
        expect = t11 + MvLaurent.monomial(4, (0, 1, 1, -1), -1)
        assert got == expect

    def test_delta_zero_fixed(self, p22):
        t12 = MvLaurent.gen(4, 1)
        assert cauchon_theta(p22, 1, MvLaurent.const(4, 7)) == MvLaurent.const(4, 7)
        assert cauchon_theta(p22, 2, t12) == t12

    def test_homomorphism(self, p33):
        rng = random.Random(17)
        xs = [MvLaurent.gen(9, i) for i in range(9)]
        k = 8
        for _ in range(40):
            f = xs[rng.randrange(8)] + rng.randint(0, 2)
            g = xs[rng.randrange(8)] * xs[rng.randrange(8)]
            assert cauchon_theta(p33, k, f * g) == cauchon_theta(p33, k, f) * cauchon_theta(p33, k, g)

    def test_bracket_identity_on_generators(self, p23):
        # {x_k, theta(f)} = theta(sigma_k(f)) x_k
        xk_idx = 5
        xk = MvLaurent.gen(6, xk_idx)
        for j in range(xk_idx):
            f = MvLaurent.gen(6, j)
            lhs = bracket(p23, xk, cauchon_theta(p23, xk_idx, f))
            rhs = cauchon_theta(p23, xk_idx, sigma(p23, xk_idx, f)) * xk
            assert lhs == rhs


class TestHmax:
    def test_2x3_equations(self, p23):
        eta, _ = compute_eta_and_primes(p23)
        eqs, dim = hmax_equations(p23, eta)
        assert dim == 4
        # psi_{(r-1)n+c} = psi_1^{-1} psi_c psi_{(r-1)n+1} for r=2, c in {2,3}
        by_k = {e.k: e for e in eqs}
        assert set(by_k) == {4, 5}
        for c in (2, 3):
            e = by_k[3 + c - 1]
            assert e.j == 0
            want = [0] * 6
            want[c - 1] = 1
            want[3] = 1
            assert list(e.f) == want

    def test_affine_no_equations(self):
        p = build_affine_space(4, [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]])
        eta, _ = compute_eta_and_primes(p)
        eqs, dim = hmax_equations(p, eta)
        assert eqs == [] and dim == 4

    def test_2x2_single_equation(self, p22):
        eta, _ = compute_eta_and_primes(p22)
        eqs, dim = hmax_equations(p22, eta)
        assert len(eqs) == 1 and dim == 3 == eta.rank
        assert eqs[0].k == 3 and eqs[0].j == 0 and list(eqs[0].f) == [0, 1, 1, 0]
