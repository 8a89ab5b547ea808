"""The precomputed lambda and delta data, the integer h*-check of
validate_symmetric and the integer bracket kernel against the code they
replaced, kept here as the oracles: the per-call lambda and lambda* and the
h*-check as Fraction pairings, the term-by-term bracket, and the Fraction
bracket that visited only the table entries inside a term pair's support."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcgl import symmetric
from pcgl.cgl import PrimeSequenceError
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation, bracket
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import validate_symmetric

from algebra_oracles import dot, sigma_scalar
from conftest import rescaled_2x3, rescaled_3x3, two_block
from tau_oracles import as_fractions


# ------------------------------------------------------------------ the oracle


def _oracle_lam(p, k, j):
    if k == j:
        return Fraction(0)
    if k > j:
        return dot(p.h[k], p.weights[j])
    return -dot(p.h[j], p.weights[k])


def _oracle_lam_diag(p, k):
    return dot(p.h[k], p.weights[k])


def _oracle_lambda_star(p, j):
    return dot(p.h_star[j], p.weights[j])


def _oracle_h_star_failures(p):
    """validate_symmetric's check of supplied h* rows as the Fraction loop it
    was: (class, index, message) of each failure, in order."""
    out = []
    for j in range(p.n):
        for k in range(j + 1, p.n):
            want = -_oracle_lam(p, k, j)
            got = dot(p.h_star[j], p.weights[k])
            if got != want:
                out.append(("NoHStarSolution", j, f"<h*_{j+1}, chi_{k+1}> = {got}, expected {want}"))
        if _oracle_lambda_star(p, j) == 0:
            out.append(("ZeroLambdaStar", j, f"every admissible h*_{j+1} has zero eigenvalue on x_{j+1}"))
    return out


def _oracle_omega_lambda(p, f, g):
    total = Fraction(0)
    for k, fk in enumerate(f):
        if not fk:
            continue
        for j, gj in enumerate(g):
            if gj:
                total += fk * gj * _oracle_lam(p, k, j)
    return total


def _oracle_bracket(p, f, g):
    n = p.n
    out = MvLaurent.zero(n)
    if f.is_zero() or g.is_zero():
        return out
    delta_items = [(k, j, poly) for (k, j), poly in sorted(p.delta.items()) if not poly.is_zero()]
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            scale = ca * cb
            lam_part = _oracle_omega_lambda(p, ea, eb)
            if lam_part:
                out = out + MvLaurent.monomial(n, [x + y for x, y in zip(ea, eb)], scale * lam_part)
            for k, j, poly in delta_items:
                factor = ea[k] * eb[j] - ea[j] * eb[k]
                if not factor:
                    continue
                shift = list(ea)
                for idx, m in enumerate(eb):
                    shift[idx] += m
                shift[k] -= 1
                shift[j] -= 1
                out = out + MvLaurent.monomial(n, shift, scale * factor) * poly
    return out


def _fraction_bracket(p, f, g):
    """The Fraction-coefficient bracket the integer kernel replaced: it visits
    the same table entries in the same order, adding Fractions term by term."""
    n = p.n
    if f.is_zero() or g.is_zero():
        return MvLaurent.zero(n)
    num, den = p.lam_num, p.lam_den
    delta_rows = [{j: poly for (kk, j), poly in p.delta.items() if kk == k and not poly.is_zero()}
                  for k in range(n)]
    g_terms = []
    for eb, cb in g.terms.items():
        b_nz = [(j, m) for j, m in enumerate(eb) if m]
        g_terms.append((eb, cb, b_nz, {j for j, _ in b_nz}))
    out = {}

    def add(e, c):
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]

    for ea, ca in f.terms.items():
        a_nz = [(k, m) for k, m in enumerate(ea) if m]
        a_supp = {k for k, _ in a_nz}
        for eb, cb, b_nz, b_supp in g_terms:
            scale = ca * cb
            total = 0
            for k, ak in a_nz:
                row = num[k]
                for j, bj in b_nz:
                    total += ak * bj * row[j]
            ab = tuple(x + y for x, y in zip(ea, eb))
            if total:
                add(ab, scale * Fraction(total, den))
            supp = sorted(a_supp | b_supp)
            for i, k in enumerate(supp):
                entries = delta_rows[k]
                for j in supp[:i]:
                    poly = entries.get(j)
                    if poly is None:
                        continue
                    factor = ea[k] * eb[j] - ea[j] * eb[k]
                    if not factor:
                        continue
                    shift = list(ab)
                    shift[k] -= 1
                    shift[j] -= 1
                    c = scale * factor
                    for ep, cp in poly.terms.items():
                        add(tuple(x + y for x, y in zip(shift, ep)), c * cp)
    return MvLaurent(n, out)


# --------------------------------------------------------------- presentations

PRESENTATIONS = {
    "2x3": build_matrix_poisson(2, 3),
    "rescaled_3x3": validate_symmetric(rescaled_3x3())[1],
    # lam_den 7, delta_den 36: neither common denominator divides the other
    "rescaled_2x3": rescaled_2x3(),
    "two_block": two_block(2, 3),
}
NAMES = sorted(PRESENTATIONS)


def test_rescaled_preset_has_a_denominator():
    p = PRESENTATIONS["rescaled_3x3"]
    assert p.lam_den == 3
    assert any(x.denominator != 1 for c in p.delta.values() for x in c.terms.values())


@pytest.mark.parametrize("name", NAMES)
def test_lambda_data_equals_oracle(name):
    p = PRESENTATIONS[name]
    n = p.n
    want = [[_oracle_lam(p, k, j) for j in range(n)] for k in range(n)]
    assert [[p.lam(k, j) for j in range(n)] for k in range(n)] == want
    assert [[Fraction(x, p.lam_den) for x in row] for row in p.lam_num] == want
    assert [p.lam_diag(k) for k in range(n)] == [_oracle_lam_diag(p, k) for k in range(n)]
    assert list(p.lam_star) == [_oracle_lambda_star(p, j) for j in range(n)]


def _oracle_lambda_matrix(p):
    """The lambda matrix, lam_num and lam_den as they were built from Fraction
    dot products: the lower triangle, negated above, over the lcm of the
    entries' denominators."""
    n = p.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for j in range(k):
            v = dot(p.h[k], p.weights[j])
            rows[k][j] = v
            rows[j][k] = -v
    den = lcm(*(v.denominator for row in rows for v in row))
    num = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
    return tuple(tuple(row) for row in rows), num, den


@st.composite
def weighted_h(draw):
    """(n, torus rank, weights, h, h*) with rational h and h*; h is all zero,
    and so is lambda, about one time in four.  Each h*_j is drawn, zero, or
    -h_j; a drawn or zero row meets some of the h*-pairings and misses
    others."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    weights = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(n))
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    entry = st.just(Fraction(0)) if draw(st.integers(0, 3)) == 0 else fractions
    h = tuple(tuple(draw(entry) for _ in range(d)) for _ in range(n))
    h_star = []
    for hj in h:
        kind = draw(st.integers(0, 2))
        h_star.append(tuple(-x for x in hj) if kind == 0 else (Fraction(0),) * d if kind == 1
                      else tuple(draw(fractions) for _ in range(d)))
    return n, d, weights, h, tuple(h_star)


@settings(max_examples=100, deadline=None)
@given(weighted_h())
@example((3, 2, ((1, 0), (0, 1), (1, 1)), ((Fraction(0),) * 2,) * 3, ((Fraction(0),) * 2,) * 3))
def test_lambda_matrix_equals_the_fraction_loop(data):
    n, d, weights, h, h_star = data
    p = PoissonPresentation(n=n, torus_rank=d, weights=weights, h=h, h_star=h_star)
    lam = tuple(tuple(p.lam(k, j) for j in range(n)) for k in range(n))
    assert (lam, p.lam_num, p.lam_den) == _oracle_lambda_matrix(p)
    assert p.lam_diagonal == tuple(_oracle_lam_diag(p, k) for k in range(n))
    assert p.lam_star == tuple(_oracle_lambda_star(p, j) for j in range(n))


def _h_star_failures(p):
    """(class, index, message) of each failure validate_symmetric reports on
    a presentation whose delta table is empty or symmetric."""
    try:
        report = validate_symmetric(p)[0]
    except PrimeSequenceError:   # passed, and then had no prime sequence
        return []
    return [(type(f).__name__, f.index, str(f)) for f in report.failures]


@settings(max_examples=200, deadline=None)
@given(weighted_h())
@example((2, 1, ((1,), (-1,)), ((Fraction(1),), (Fraction(2),)), ((Fraction(2),), (Fraction(-1),))))
@example((3, 2, ((1, 0), (0, 1), (1, 1)), ((Fraction(0),) * 2,) * 3, ((Fraction(0),) * 2,) * 3))
def test_h_star_check_equals_the_fraction_loop(data):
    n, d, weights, h, h_star = data
    p = PoissonPresentation(n=n, torus_rank=d, weights=weights, h=h, h_star=h_star)
    assert _h_star_failures(p) == _oracle_h_star_failures(p)


@pytest.mark.parametrize("name", NAMES)
def test_a_passing_h_star_check_builds_no_fraction(name, monkeypatch):
    monkeypatch.setattr(symmetric, "Fraction", None)
    assert validate_symmetric(PRESENTATIONS[name])[0].passed


@pytest.mark.parametrize("name", NAMES)
def test_h_star_check_of_a_preset_equals_the_fraction_loop(name):
    """Each preset passes; with 1/7 added to one entry of h*_1, or h*_N set
    to zero, it fails as the Fraction loop does."""
    p = PRESENTATIONS[name]
    assert _h_star_failures(p) == _oracle_h_star_failures(p) == []
    rows = [list(row) for row in p.h_star]
    rows[0][-1] += Fraction(1, 7)
    rows[-1] = [Fraction(0)] * p.torus_rank
    bad = PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                              delta=p.delta, h_star=tuple(map(tuple, rows)))
    assert _h_star_failures(bad) == _oracle_h_star_failures(bad)
    assert _h_star_failures(bad)[-1][0] == "ZeroLambdaStar"


def test_coprime_denominators_preset():
    p = PRESENTATIONS["rescaled_2x3"]
    assert (p.lam_den, p.delta_den) == (7, 36)


@pytest.mark.parametrize("name", NAMES)
def test_delta_table_equals_entries(name):
    """Fraction(num, delta_den) gives back every table coefficient, row by row
    in table order and term by term in each entry's order."""
    p = PRESENTATIONS[name]
    assert len(p.delta_num) == p.n
    for k, row in enumerate(p.delta_num):
        got = [(j, [(e, Fraction(c, p.delta_den)) for e, c in terms]) for j, terms in row]
        want = [(j, list(poly.terms.items())) for (kk, j), poly in sorted(p.delta.items())
                if kk == k and not poly.is_zero()]
        assert got == want


DERIVED = ("lam_num", "lam_den", "lam_diagonal", "lam_star", "delta_num", "delta_den")


def test_derived_fields_outside_equality_and_repr(p23):
    twin = build_matrix_poisson(2, 3)
    assert twin == p23
    args = dict(n=p23.n, torus_rank=p23.torus_rank, weights=p23.weights, h=p23.h,
                delta=p23.delta, h_star=p23.h_star)
    for name in DERIVED:
        assert f"{name}=" not in repr(p23)
        with pytest.raises(TypeError):
            PoissonPresentation(**args, **{name: getattr(p23, name)})
        # a derived value that differs does not take part in equality
        odd = build_matrix_poisson(2, 3)
        object.__setattr__(odd, name, None)
        assert odd == p23, name
    assert "lam_num" not in repr(p23) and "delta_num" not in repr(p23)
    assert repr(p23) == repr(PoissonPresentation(**args))
    assert repr(p23).startswith("PoissonPresentation(n=6, torus_rank=")
    assert PoissonPresentation(**dict(args, h_star=None)) != p23
    with pytest.raises(AttributeError):
        p23.lam_den = 1


# ------------------------------------------------------------ generated inputs

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


@st.composite
def laurent(draw, n):
    exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=0, max_size=4, unique=True))
    return MvLaurent(n, {e: draw(_coeffs) for e in exps})


@st.composite
def presentation_and_pair(draw):
    p = PRESENTATIONS[draw(st.sampled_from(NAMES))]
    return p, draw(laurent(p.n)), draw(laurent(p.n))


@settings(max_examples=200, deadline=None, database=None)
@given(presentation_and_pair())
def test_bracket_equals_oracle(case):
    p, f, g = case
    got = bracket(p, f, g)
    want = _oracle_bracket(p, f, g)
    assert got == want
    # same terms in the same order, so every report built from it is unchanged
    assert list(got.terms.items()) == list(want.terms.items())
    assert list(got.terms.items()) == list(_fraction_bracket(p, f, g).terms.items())
    # {f, f + g}: the {f, f} terms cancel on the way, exercising term removal
    got = bracket(p, f, f + g)
    assert list(got.terms.items()) == list(_oracle_bracket(p, f, f + g).terms.items())
    assert list(got.terms.items()) == list(_fraction_bracket(p, f, f + g).terms.items())


@st.composite
def presentation_and_vectors(draw):
    p = PRESENTATIONS[draw(st.sampled_from(NAMES))]
    vec = st.lists(st.integers(-3, 3), min_size=p.n, max_size=p.n)
    return p, draw(vec), draw(vec)


@settings(max_examples=300, deadline=None, database=None)
@given(presentation_and_vectors())
def test_omega_lambda_equals_oracle(case):
    p, f, g = case
    fg = _oracle_omega_lambda(p, f, g)
    # rows f and g against the one column g: a 2x1 matrix, row by row
    assert as_fractions(p.omega_lambda_matrix([f, g], [g])) == [[fg], [_oracle_omega_lambda(p, g, g)]]
    assert as_fractions(p.omega_lambda_matrix([g], [f])) == [[-fg]]


# ----------------------------------------------- h_k-pairing is not lambda_kj


@pytest.mark.parametrize("name", NAMES)
def test_sigma_scalar_pairs_h_k_with_every_weight(name):
    """sigma_k pairs h_k with chi_j also for j >= k, where that pairing is
    not lambda_kj; a lambda lookup there would change these values."""
    p = PRESENTATIONS[name]
    n = p.n
    differs = 0
    for k in range(n):
        for j in range(k, n):
            for m in (1, -2):
                exp = [0] * n
                exp[j] = m
                if j > 0:
                    exp[0] = 1
                want = dot(p.h[k], p.monomial_weight(exp))
                assert sigma_scalar(p, k, exp) == want
                differs += want != sum(e * p.lam(k, i) for i, e in enumerate(exp))
    assert differs
