"""Preset constructors and their ground-truth oracles."""

import random

import pytest

from pcgl.cgl import compute_eta_and_primes
from pcgl.poly import MvLaurent
from pcgl.presentation import validate_algebra
from pcgl.presets import ShapeMismatch, build_affine_space, build_matrix_poisson
from pcgl.symmetric import validate_symmetric

from algebra_oracles import expected_minor_for_generator, solid_minor, u_element_and_pi


class TestMatrixPreset:
    def test_2x2_lambda_values(self, p22):
        assert p22.lam(1, 0) == -1
        assert p22.lam(3, 0) == 0
        assert p22.lam(3, 2) == -1
        assert p22.delta_entry(3, 0) == MvLaurent.monomial(4, (0, 1, 1, 0), -2)

    def test_1x3_degenerates_to_affine(self):
        p = build_matrix_poisson(1, 3)
        assert not p.delta
        assert validate_algebra(p).passed

    def test_2x3_rank(self, p23):
        eta, _ = compute_eta_and_primes(p23)
        assert eta.rank == 4

    def test_validates_and_symmetric(self, p33):
        assert validate_algebra(p33).passed
        report, _, _ = validate_symmetric(p33)
        assert report.passed

    def test_lambda_diag(self, p33):
        assert all(p33.lam_diag(k) == -2 for k in range(9))


class TestAffinePreset:
    def test_n2(self):
        p = build_affine_space(2, [[0, 1], [-1, 0]])
        eta, seq = compute_eta_and_primes(p)
        assert seq.y == [MvLaurent.gen(2, 0), MvLaurent.gen(2, 1)]
        assert eta.exchangeable == []

    def test_zero_matrix_still_valid(self):
        p = build_affine_space(3, [[0, 0, 0]] * 3)
        assert validate_algebra(p).passed

    def test_random_skew(self):
        rng = random.Random(19)
        for _ in range(10):
            n = 4
            q = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    q[i][j] = rng.randint(-3, 3)
                    q[j][i] = -q[i][j]
            p = build_affine_space(n, q)
            assert validate_algebra(p).passed
            eta, _ = compute_eta_and_primes(p)
            assert eta.rank == 4

    def test_rejects_non_skew(self):
        with pytest.raises(Exception):
            build_affine_space(2, [[0, 1], [1, 0]])


class TestSolidMinor:
    def test_2x2_determinant(self):
        det = solid_minor(2, 2, (1, 2), (1, 2))
        want = MvLaurent.monomial(4, (1, 0, 0, 1)) - MvLaurent.monomial(4, (0, 1, 1, 0))
        assert det == want

    def test_1x1(self):
        assert solid_minor(2, 3, (1, 1), (3, 3)) == MvLaurent.gen(6, 2)

    def test_3x3_six_terms(self):
        det = solid_minor(3, 3, (1, 3), (1, 3))
        assert len(det.terms) == 6
        assert det.coeff((1, 0, 0, 0, 1, 0, 0, 0, 1)) == 1
        assert det.coeff((0, 0, 1, 0, 1, 0, 1, 0, 0)) == -1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            solid_minor(2, 2, (1, 2), (1, 1))
        with pytest.raises(ShapeMismatch):
            solid_minor(2, 2, (1, 3), (1, 3))


class TestPresetInvariants:
    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_prime_sequence_is_solid_minors(self, m, n):
        p = build_matrix_poisson(m, n)
        _, seq = compute_eta_and_primes(p)
        for k in range(m * n):
            assert seq.y[k] == expected_minor_for_generator(m, n, k)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_u_is_cross_product(self, m, n):
        # u_[i,s(i)] = t_{r,c+1} t_{r+1,c} exactly
        p = build_matrix_poisson(m, n)
        eta, _ = compute_eta_and_primes(p)
        for i in range(m * n):
            if eta.succ[i] is None:
                continue
            r, c = i // n + 1, i % n + 1
            ud = u_element_and_pi(p, eta, i, 1)
            e = [0] * (m * n)
            e[(r - 1) * n + c] += 1
            e[r * n + (c - 1)] += 1
            assert ud.u == MvLaurent.monomial(m * n, e)
            assert ud.pi == 1

    def test_pi_all_one_3x3(self, p33):
        eta, _ = compute_eta_and_primes(p33)
        for i in range(9):
            m = 0
            cur = i
            while eta.succ[cur] is not None:
                m += 1
                cur = eta.succ[cur]
                assert u_element_and_pi(p33, eta, i, m).pi == 1
