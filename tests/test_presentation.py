"""Bracket engine and axiom validation."""

import random
from fractions import Fraction

import pytest

from pcgl import serialize as ser
from pcgl.poly import MvLaurent
from pcgl.presentation import (
    Inhomogeneous,
    InhomogeneousDelta,
    PoissonPresentation,
    PresentationError,
    bracket,
    validate_algebra,
    weight_of,
)
from pcgl.presets import build_affine_space

from conftest import weyl_block


def gens(n):
    return [MvLaurent.gen(n, i) for i in range(n)]


class TestBracket:
    def test_matrix_same_row(self, p22):
        t11, t12, t21, t22 = gens(4)
        assert bracket(p22, t12, t11) == -(t11 * t12)

    def test_matrix_cross(self, p22):
        t11, t12, t21, t22 = gens(4)
        assert bracket(p22, t11, t22) == 2 * t12 * t21
        assert bracket(p22, t12, t21).is_zero()

    def test_skew_on_determinant(self, p22):
        t11, t12, t21, t22 = gens(4)
        det = t11 * t22 - t12 * t21
        assert bracket(p22, det, det).is_zero()

    def test_full_bracket_table_2x2(self, p22):
        # {t_ij, t_kl} = (sign(k-i) + sign(l-j)) t_il t_kj
        t = gens(4)
        pos = {0: (1, 1), 1: (1, 2), 2: (2, 1), 3: (2, 2)}
        def sign(x):
            return (x > 0) - (x < 0)
        for a in range(4):
            for b in range(4):
                (i, j), (k, l) = pos[a], pos[b]
                coeff = sign(k - i) + sign(l - j)
                til = t[(i - 1) * 2 + (l - 1)]
                tkj = t[(k - 1) * 2 + (j - 1)]
                assert bracket(p22, t[a], t[b]) == coeff * til * tkj

    def test_biderivation(self, p23):
        rng = random.Random(3)
        xs = gens(6)
        for _ in range(60):
            f = xs[rng.randrange(6)] * xs[rng.randrange(6)] + rng.randint(-2, 2)
            g = xs[rng.randrange(6)]
            h = xs[rng.randrange(6)] * xs[rng.randrange(6)]
            lhs = bracket(p23, f, g * h)
            rhs = bracket(p23, f, g) * h + g * bracket(p23, f, h)
            assert lhs == rhs

    def test_laurent_arguments(self, p22):
        t = gens(4)
        inv = MvLaurent.gen(4, 0, -1)
        # {x1^-1, f} = -x1^-2 {x1, f}
        f = t[1] * t[3]
        assert bracket(p22, inv, f) == MvLaurent.gen(4, 0, -2) * -1 * bracket(p22, t[0], f)


class TestWeights:
    def test_determinant_weight(self, p22):
        t11, t12, t21, t22 = gens(4)
        det = t11 * t22 - t12 * t21
        assert weight_of(p22, det) == (1, 1, -1, -1)

    def test_inhomogeneous(self, p22):
        with pytest.raises(Inhomogeneous):
            weight_of(p22, MvLaurent.gen(4, 0) + MvLaurent.gen(4, 1))

    def test_constant(self, p22):
        assert weight_of(p22, MvLaurent.const(4, 3)) == (0, 0, 0, 0)

    def test_bracket_adds_weights(self, p23):
        rng = random.Random(9)
        xs = gens(6)
        for _ in range(60):
            a, b = rng.randrange(6), rng.randrange(6)
            f, g = xs[a], xs[b] * xs[rng.randrange(6)]
            br = bracket(p23, f, g)
            if br.is_zero():
                continue
            wa = weight_of(p23, f)
            wb = weight_of(p23, g)
            assert weight_of(p23, br) == tuple(x + y for x, y in zip(wa, wb))


class TestValidate:
    def test_matrix_presets_pass(self, p22, p23, p33):
        for p in (p22, p23, p33):
            report = validate_algebra(p)
            assert report.passed, report.failures

    def test_affine_passes(self):
        p = build_affine_space(3, [[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
        assert validate_algebra(p).passed

    def test_weyl_passes(self):
        assert validate_algebra(weyl_block()).passed

    def test_zero_generators_rejected(self):
        with pytest.raises(PresentationError):
            PoissonPresentation(n=0, torus_rank=1, weights=(), h=())

    def test_inhomogeneous_delta_detected(self, p22):
        delta = dict(p22.delta)
        delta[(3, 0)] = MvLaurent.monomial(4, (2, 0, 0, 0), Fraction(1))  # t11^2, wrong weight
        bad = PoissonPresentation(n=4, torus_rank=4, weights=p22.weights, h=p22.h,
                                  delta=delta, h_star=p22.h_star)
        report = validate_algebra(bad)
        assert not report.passed
        assert not report.checks["delta_homogeneous"]
        names = [type(f).__name__ for f in report.failures]
        assert "InhomogeneousDelta" in names

    @pytest.mark.parametrize("bad_entry", [
        {(2, 0, 0, 0): Fraction(1)},                                 # one wrong weight
        {(0, 1, 1, 0): Fraction(-2), (2, 0, 0, 0): Fraction(1, 3)},  # mixed weights
    ], ids=["wrong_weight", "mixed_weights"])
    def test_inhomogeneous_delta_report(self, p22, bad_entry):
        delta = dict(p22.delta)
        delta[(3, 0)] = MvLaurent(4, bad_entry)
        bad = PoissonPresentation(n=4, torus_rank=4, weights=p22.weights, h=p22.h,
                                  delta=delta, h_star=p22.h_star)
        report = validate_algebra(bad)
        hits = [f for f in report.failures if isinstance(f, InhomogeneousDelta)]
        assert [(f.pair, f.witness) for f in hits] == [((3, 0), delta[(3, 0)])]
        entry = next(e for e in ser.validation_report(report)["failures"] if e["code"] == "InhomogeneousDelta")
        assert entry == {
            "code": "InhomogeneousDelta",
            "detail": "delta_4(x_1) is not homogeneous of weight chi_4+chi_1",
            "witness": [[c.numerator, c.denominator, list(e)] for e, c in delta[(3, 0)].sorted_terms()],
        }

    def test_zero_eigenvalue_detected(self, p22):
        h = list(p22.h)
        h[1] = (Fraction(0),) * 4
        bad = PoissonPresentation(n=4, torus_rank=4, weights=p22.weights, h=tuple(h),
                                  delta=dict(p22.delta), h_star=None)
        report = validate_algebra(bad)
        assert not report.checks["nonzero_eigenvalues"]

    def test_jacobi_failure_detected(self):
        # delta_3(x_1) = x_2 with generic weights breaks Jacobi
        bad = PoissonPresentation(
            n=3, torus_rank=1,
            weights=((1,), (2,), (1,)),
            h=((Fraction(1),), (Fraction(1),), (Fraction(1),)),
            delta={(2, 0): MvLaurent.gen(3, 1)},
        )
        report = validate_algebra(bad)
        assert not report.checks["jacobi"]

    def test_nilpotence_bound(self):
        # delta_2(x_1) = x_1 is not locally nilpotent (and fails homogeneity)
        bad = PoissonPresentation(
            n=2, torus_rank=1, weights=((1,), (1,)),
            h=((Fraction(1),), (Fraction(1),)),
            delta={(1, 0): MvLaurent.gen(2, 0)},
        )
        report = validate_algebra(bad)
        assert not report.checks["local_nilpotence"]

    def test_jacobi_on_generator_triples_all_presets(self, p22, p23, p33):
        for p in (p22, p23, p33):
            xs = gens(p.n)
            for i in range(p.n):
                for j in range(i):
                    for k in range(j):
                        acc = bracket(p, xs[k], bracket(p, xs[j], xs[i])) \
                            + bracket(p, xs[j], bracket(p, xs[i], xs[k])) \
                            + bracket(p, xs[i], bracket(p, xs[k], xs[j]))
                        assert acc.is_zero()
