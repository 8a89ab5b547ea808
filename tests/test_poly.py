"""Exact Laurent arithmetic: term order, division, substitution, derivations."""

import random
from fractions import Fraction

import pytest

from pcgl.poly import (
    MvLaurent,
    NonInvertibleImage,
    NotDivisible,
    ZeroDivisor,
    ZeroPolynomial,
    apply_derivation,
    exact_divide,
    substitute,
)


def gen(i, n=4, power=1):
    return MvLaurent.gen(n, i, power)


def random_poly(rng, n=3, max_terms=3, exp_range=(0, 2)):
    out = MvLaurent.zero(n)
    for _ in range(rng.randint(1, max_terms)):
        e = [rng.randint(*exp_range) for _ in range(n)]
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        out = out + MvLaurent.monomial(n, e, c)
    return out


class TestLeadingTerm:
    def test_two_by_two_determinant(self):
        f = gen(0) * gen(3) - gen(1) * gen(2)
        coeff, exp = f.leading_term()
        assert coeff == 1
        assert exp == (1, 0, 0, 1)

    def test_constant(self):
        coeff, exp = MvLaurent.const(4, 5).leading_term()
        assert (coeff, exp) == (5, (0, 0, 0, 0))

    def test_last_coordinate_decides(self):
        f = MvLaurent.gen(2, 0) + MvLaurent.gen(2, 1)
        coeff, exp = f.leading_term()
        assert exp == (0, 1)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            MvLaurent.zero(3).leading_term()

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(120):
            f = random_poly(rng)
            g = random_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            _, ef = f.leading_term()
            _, eg = g.leading_term()
            _, efg = (f * g).leading_term()
            assert efg == tuple(a + b for a, b in zip(ef, eg))


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(7)
        for _ in range(100):
            f, g, h = (random_poly(rng, exp_range=(-2, 2)) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f - f == MvLaurent.zero(3)

    def test_pow_monomial_inverse(self):
        m = MvLaurent.monomial(2, (1, 2), Fraction(3, 2))
        assert m ** -2 == MvLaurent.monomial(2, (-2, -4), Fraction(4, 9))
        with pytest.raises(NonInvertibleImage):
            (MvLaurent.gen(2, 0) + 1) ** -1


class TestExactDivide:
    def test_multiply_then_divide(self):
        det = gen(0) * gen(3) - gen(1) * gen(2)
        assert exact_divide(det * gen(1), gen(1)) == det

    def test_not_divisible_degree(self):
        det = gen(0) * gen(3) - gen(1) * gen(2)
        with pytest.raises(NotDivisible):
            exact_divide(gen(1) * gen(2), det)

    def test_monomial_exponent_arithmetic(self):
        assert exact_divide(gen(0, 2, 2), gen(0, 2, -1)) == gen(0, 2, 3)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            exact_divide(gen(0), MvLaurent.zero(4))

    def test_zero_numerator(self):
        assert exact_divide(MvLaurent.zero(4), gen(0)).is_zero()

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(120):
            f = random_poly(rng, exp_range=(-2, 2))
            g = random_poly(rng, exp_range=(-2, 2))
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f


class TestSubstitute:
    def test_identity(self):
        f = gen(0) * gen(3)
        imgs = [gen(i) for i in range(4)]
        assert substitute(f, imgs) == f

    def test_change_of_variables(self):
        # x4 -> y1^-1 (y4 + y2 y3): the inverse of y4 = y1 x4 - y2 y3
        f = gen(3)
        imgs = [gen(i) for i in range(3)] + [gen(0, power=-1) * (gen(3) + gen(1) * gen(2))]
        got = substitute(f, imgs)
        expect = MvLaurent.monomial(4, (-1, 0, 0, 1)) + MvLaurent.monomial(4, (-1, 1, 1, 0))
        assert got == expect
        # back-substitution: y4 = y1 x4 - y2 y3 recovers x4
        back = [gen(i) for i in range(3)] + [gen(0) * gen(3) - gen(1) * gen(2)]
        assert substitute(got, back) == f

    def test_non_invertible_image(self):
        f = gen(0, power=-1)
        imgs = [gen(0) + gen(1)] + [gen(i) for i in range(1, 4)]
        with pytest.raises(NonInvertibleImage):
            substitute(f, imgs)

    def test_cancellation_across_terms(self):
        # x1^-1 * (x1 * x2) cancels even though the image of x1 has two terms
        f = MvLaurent.monomial(2, (-1, 1))
        imgs = [MvLaurent.gen(2, 0) + MvLaurent.gen(2, 1),
                (MvLaurent.gen(2, 0) + MvLaurent.gen(2, 1)) * MvLaurent.gen(2, 1)]
        assert substitute(f, imgs) == MvLaurent.gen(2, 1)

    def test_composition(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_poly(rng, n=2, exp_range=(0, 2))
            a = [random_poly(rng, n=2, exp_range=(0, 1)) for _ in range(2)]
            b = [random_poly(rng, n=2, exp_range=(0, 1)) for _ in range(2)]
            lhs = substitute(substitute(f, a), b)
            rhs = substitute(f, [substitute(ai, b) for ai in a])
            assert lhs == rhs


class TestApplyDerivation:
    def test_partial_derivative(self):
        imgs = [MvLaurent.const(3, 1), MvLaurent.zero(3), MvLaurent.zero(3)]
        f = MvLaurent.monomial(3, (2, 1, 0))
        assert apply_derivation(imgs, f) == MvLaurent.monomial(3, (1, 1, 0), 2)

    def test_diagonal_weight_derivation(self):
        # D(x_j) = w_j x_j with w = (1,1,0,0): determinant is an eigenvector
        imgs = [gen(0), gen(1), MvLaurent.zero(4), MvLaurent.zero(4)]
        det = gen(0) * gen(3) - gen(1) * gen(2)
        assert apply_derivation(imgs, det) == det

    def test_zero_derivation(self):
        imgs = [MvLaurent.zero(4)] * 4
        assert apply_derivation(imgs, gen(0) * gen(2)).is_zero()

    def test_leibniz(self):
        rng = random.Random(31)
        for _ in range(100):
            imgs = [random_poly(rng, exp_range=(0, 1)) for _ in range(3)]
            f = random_poly(rng, exp_range=(-1, 2))
            g = random_poly(rng, exp_range=(-1, 2))
            lhs = apply_derivation(imgs, f * g)
            rhs = apply_derivation(imgs, f) * g + f * apply_derivation(imgs, g)
            assert lhs == rhs

    def test_inverse_rule(self):
        imgs = [MvLaurent.const(1, 1)]
        f = MvLaurent.gen(1, 0, -1)
        assert apply_derivation(imgs, f) == MvLaurent.gen(1, 0, -2) * -1


def test_render():
    det = gen(0) * gen(3) - gen(1) * gen(2)
    assert det.render() == "x1*x4 - x2*x3"
    assert det.render(["t11", "t12", "t21", "t22"]) == "t11*t22 - t12*t21"
    assert MvLaurent.zero(2).render() == "0"
    assert (MvLaurent.gen(2, 1, -1) * Fraction(-3, 2)).render() == "-3/2*x2^-1"
