"""The integer multiply kernel against the rational arithmetic it replaced.

The oracles below are the `Fraction` implementations of `MvLaurent.__mul__`,
`__pow__`, `exact_divide`, `substitute` and `apply_derivation`, and the
`out = out + monomial` accumulation of the serializers, as they were before
the kernel scaled coefficients to int numerators.  They call only each other,
never the code under test.  Results must agree in value, in the order of
their terms (the order a rational product produces them), in the exception
raised, and in coefficient type: every coefficient is a `Fraction`.
"""

from fractions import Fraction
from typing import Dict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcgl import serialize
from pcgl.poly import (
    MvLaurent,
    NonInvertibleImage,
    NotDivisible,
    apply_derivation,
    exact_divide,
    substitute,
)

from algebra_oracles import sigma, sigma_scalar

# ---------------------------------------------------------------- oracles


def _o_add(f, g):
    out = dict(f.terms)
    for e, c in g.terms.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return MvLaurent(f.nvars, out)


def _o_scalar(f, c):
    c = Fraction(c)
    return MvLaurent(f.nvars, {e: cf * c for e, cf in f.terms.items()} if c else {})


def oracle_mul(f, g):
    if not f.terms or not g.terms:
        return MvLaurent(f.nvars)
    a, b = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    out: Dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return MvLaurent(f.nvars, out)


def oracle_pow(f, n):
    if n == 0:
        return MvLaurent.const(f.nvars, 1)
    if n < 0:
        if len(f.terms) != 1:
            raise NonInvertibleImage("negative power of a non-monomial")
        (e, c), = f.terms.items()
        return MvLaurent(f.nvars, {tuple(x * n for x in e): c ** n})
    result = MvLaurent.const(f.nvars, 1)
    base = f
    k = n
    while k:
        if k & 1:
            result = oracle_mul(result, base)
        base = oracle_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def _o_shift(f, shift):
    return MvLaurent(f.nvars, {tuple(x + s for x, s in zip(e, shift)): c for e, c in f.terms.items()})


def _o_min_exponents(f):
    mins = None
    for e in f.terms:
        mins = list(e) if mins is None else [min(a, b) for a, b in zip(mins, e)]
    return tuple(mins)


def oracle_exact_divide(num, den):
    if num.is_zero():
        return MvLaurent(num.nvars)
    gnum = _o_min_exponents(num)
    gden = _o_min_exponents(den)
    rem = _o_shift(num, tuple(-x for x in gnum))
    d = _o_shift(den, tuple(-x for x in gden))
    cd, ed = d.leading_term()
    q = {}
    while rem.terms:
        cr, er = rem.leading_term()
        et = tuple(a - b for a, b in zip(er, ed))
        if min(et) < 0:
            raise NotDivisible("no Laurent quotient exists")
        ct = cr / cd
        q[et] = ct
        rem = _o_add(rem, _o_scalar(_o_shift(d, et), -ct))
    return _o_shift(MvLaurent(num.nvars, q), tuple(a - b for a, b in zip(gnum, gden)))


def oracle_substitute(f, images):
    nv = images[0].nvars
    if not f.terms:
        return MvLaurent(nv)
    neg_max = [0] * f.nvars
    for e in f.terms:
        for i, m in enumerate(e):
            if m < 0 and -m > neg_max[i]:
                neg_max[i] = -m
    hard = [i for i, m in enumerate(neg_max) if m and not images[i].is_monomial()]
    for i in range(f.nvars):
        if neg_max[i] and images[i].is_zero():
            raise NonInvertibleImage("image is zero")
    shift = neg_max if hard else [0] * f.nvars
    out = MvLaurent(nv)
    for e, c in f.terms.items():
        term = MvLaurent.const(nv, c)
        for i, m in enumerate(e):
            if m + shift[i]:
                term = oracle_mul(term, oracle_pow(images[i], m + shift[i]))
        out = _o_add(out, term)
    if not hard:
        return out
    denominator = MvLaurent.const(nv, 1)
    for i, m in enumerate(neg_max):
        if m:
            denominator = oracle_mul(denominator, oracle_pow(images[i], m))
    try:
        return oracle_exact_divide(out, denominator)
    except NotDivisible as exc:
        raise NonInvertibleImage("does not cancel") from exc


def oracle_apply_derivation(gen_images, f):
    out = MvLaurent(f.nvars)
    for e, c in f.terms.items():
        for i, m in enumerate(e):
            if not m or gen_images[i].is_zero():
                continue
            shifted = list(e)
            shifted[i] -= 1
            out = _o_add(out, oracle_mul(MvLaurent.monomial(f.nvars, shifted, c * m), gen_images[i]))
    return out


def oracle_from_terms(nvars, terms):
    out = MvLaurent(nvars)
    for e, c in terms:
        out = _o_add(out, MvLaurent.monomial(nvars, e, c))
    return out


# ---------------------------------------------------------------- helpers


def same(got, want):
    """Equal value, equal term order, and only Fraction coefficients."""
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is Fraction for c in got.terms.values())


def outcome(fn, *args):
    try:
        return fn(*args), None
    except (NotDivisible, NonInvertibleImage) as exc:
        return None, type(exc)


def same_outcome(got, want):
    assert got[1] is want[1]
    if want[1] is None:
        same(got[0], want[0])


NV = 3
integers = st.integers(-5, 5).map(Fraction)
rationals = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
coeffs = st.one_of(integers, rationals)


def polys(exps=(-2, 2), max_terms=5, coefficients=coeffs, nvars=NV):
    term = st.tuples(st.tuples(*[st.integers(*exps)] * nvars), coefficients)
    return st.lists(term, max_size=max_terms).map(lambda ts: MvLaurent(nvars, dict(ts)))


def nonzero(strategy):
    return strategy.filter(lambda f: not f.is_zero())


def flipped(f, signs):
    """f with some coefficients negated, so products with f cancel terms."""
    return MvLaurent(f.nvars, {e: c * s for (e, c), s in zip(f.terms.items(), signs)})


SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# ---------------------------------------------------------------- multiply and power


@SETTINGS
@given(polys(), polys(), st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
def test_mul_equals_oracle(f, g, signs):
    same(f * g, oracle_mul(f, g))
    same(g * f, oracle_mul(g, f))
    # (f + g)(f - g) and f * f' drop terms whose sums cancel
    same((f + g) * (f - g), oracle_mul(_o_add(f, g), _o_add(f, _o_scalar(g, -1))))
    same(f * flipped(f, signs), oracle_mul(f, flipped(f, signs)))


@SETTINGS
@given(polys(), polys(), st.lists(st.sampled_from((1, -1)), min_size=5, max_size=5))
def test_add_equals_oracle(f, g, signs):
    same(f + g, _o_add(f, g))
    same(g - f, _o_add(g, _o_scalar(f, -1)))
    # some of f's terms cancel against -f', the others double
    minus = _o_scalar(flipped(f, signs), -1)
    same(f + minus, _o_add(f, minus))


def test_mul_cancels_to_fewer_terms():
    x, y = MvLaurent.gen(2, 0), MvLaurent.gen(2, 1)
    h = Fraction(1, 2)
    got = (x * h + y) * (x * h - y)
    same(got, oracle_mul(_o_add(_o_scalar(x, h), y), _o_add(_o_scalar(x, h), _o_scalar(y, -1))))
    assert len(got.terms) == 2


@SETTINGS
@given(polys(max_terms=4), st.integers(0, 4))
def test_pow_equals_oracle(f, n):
    same(f ** n, oracle_pow(f, n))


@SETTINGS
@given(nonzero(polys(max_terms=1)), st.integers(-3, -1))
def test_negative_pow_of_monomial(f, n):
    same(f ** n, oracle_pow(f, n))


# ---------------------------------------------------------------- exact division


@SETTINGS
@given(polys(), nonzero(polys()))
def test_exact_divide_of_a_product(q, d):
    num = oracle_mul(q, d)
    same(exact_divide(num, d), oracle_exact_divide(num, d))


@SETTINGS
@given(polys(), nonzero(polys(max_terms=3)))
def test_exact_divide_either_outcome(num, den):
    same_outcome(outcome(exact_divide, num, den), outcome(oracle_exact_divide, num, den))


def test_exact_divide_scales_for_a_non_unit_leading_coefficient():
    x, y = MvLaurent.gen(2, 0), MvLaurent.gen(2, 1)
    d = _o_add(_o_scalar(y, 3), _o_scalar(x, Fraction(2, 5)))       # lc 3, not a unit
    q = _o_add(_o_scalar(oracle_mul(y, y), Fraction(7, 2)), _o_scalar(x, 5))
    num = oracle_mul(q, d)
    same(exact_divide(num, d), oracle_exact_divide(num, d))
    same(exact_divide(num, d), q)
    with pytest.raises(NotDivisible):
        exact_divide(_o_add(num, x), d)


# ---------------------------------------------------------------- substitution


def laurent_over(images_strategy):
    return st.tuples(polys(exps=(-2, 2), max_terms=4), images_strategy)


mixed_images = st.lists(
    st.one_of(nonzero(polys(exps=(-1, 1), max_terms=1)), nonzero(polys(exps=(0, 1), max_terms=3))),
    min_size=NV, max_size=NV)


@SETTINGS
@given(laurent_over(mixed_images))
def test_substitute_either_outcome(case):
    f, images = case
    same_outcome(outcome(substitute, f, images), outcome(oracle_substitute, f, images))


@SETTINGS
@given(nonzero(polys(exps=(0, 1), max_terms=3)).filter(lambda p: not p.is_monomial()),
       polys(exps=(0, 1), max_terms=3), polys(exps=(0, 1), max_terms=2),
       polys(exps=(0, 2), max_terms=3), coeffs.filter(bool))
def test_substitute_cancels_a_non_monomial_inverse(p, a, b, g, c):
    # f = c x1^-1 x2 - c x1^-1 x3 + g0 with x1 -> p, x2 -> p a + b, x3 -> b
    # and g0 free of x1: no term of f is divisible by p, but the sum is, and
    # the result is c a + g0(images).
    g0 = MvLaurent(NV, {(0,) + e[1:]: cf for e, cf in g.terms.items()})
    f = _o_add(MvLaurent(NV, {(-1, 1, 0): c, (-1, 0, 1): -c}), g0)
    images = [p, _o_add(oracle_mul(p, a), b), b]
    got = substitute(f, images)
    same(got, oracle_substitute(f, images))
    assert got == _o_add(_o_scalar(a, c), oracle_substitute(g0, images))


@SETTINGS
@given(nonzero(polys(exps=(0, 1), max_terms=3)).filter(lambda p: not p.is_monomial()),
       nonzero(polys(exps=(0, 2), max_terms=3)))
def test_substitute_raises_on_a_non_monomial_inverse(p, rest):
    f = MvLaurent(NV, {(-1, 0, 0): Fraction(1)})
    images = [p, rest, rest]
    with pytest.raises(NonInvertibleImage):
        oracle_substitute(f, images)
    with pytest.raises(NonInvertibleImage):
        substitute(f, images)


def test_substitute_zero_image_with_negative_power():
    f = MvLaurent(2, {(-1, 0): Fraction(1)})
    with pytest.raises(NonInvertibleImage):
        substitute(f, [MvLaurent.zero(2), MvLaurent.gen(2, 1)])


@pytest.mark.parametrize("hard", [False, True])
def test_substitute_computes_each_power_once(monkeypatch, hard):
    nv = 3
    x = [MvLaurent.gen(nv, i) for i in range(nv)]
    p = x[0] + x[1] if hard else x[0] * 2
    images = [p, p * x[2], x[2] * x[0] + 1]
    # x1^-1 in most terms, always next to a power of x2, whose image p divides;
    # x2^2 and x3 repeat across terms
    f = MvLaurent(nv, {(-1, 2, 0): Fraction(1), (-1, 2, 1): Fraction(3), (0, 2, 1): Fraction(-2),
                       (-1, 1, 1): Fraction(1, 2), (1, 0, 0): Fraction(5)})
    want = oracle_substitute(f, images)
    calls = []
    original = MvLaurent.__pow__

    def counting(self, n):
        calls.append((next(i for i, g in enumerate(images) if g is self), n))
        return original(self, n)

    monkeypatch.setattr(MvLaurent, "__pow__", counting)
    got = substitute(f, images)
    monkeypatch.undo()
    same(got, want)
    assert len(calls) == len(set(calls))
    shift = (1, 0, 0) if hard else (0, 0, 0)
    needed = {(i, m + shift[i]) for e in f.terms for i, m in enumerate(e) if m + shift[i]}
    if hard:
        needed.add((0, 1))                       # the common denominator images[0] ** 1
    assert set(calls) == needed


# ---------------------------------------------------------------- derivations and accumulation


@SETTINGS
@given(st.lists(polys(exps=(0, 1), max_terms=3), min_size=NV, max_size=NV), polys())
def test_apply_derivation_equals_oracle(gen_images, f):
    same(apply_derivation(gen_images, f), oracle_apply_derivation(gen_images, f))


terms_lists = st.lists(st.tuples(st.tuples(*[st.integers(-1, 1)] * NV),
                                 st.one_of(coeffs, st.just(Fraction(0)))), max_size=8)


@SETTINGS
@given(terms_lists)
def test_from_terms_equals_repeated_addition(terms):
    # few distinct exponents, so sums cancel and terms come back
    same(MvLaurent.from_terms(NV, terms), oracle_from_terms(NV, terms))


@SETTINGS
@given(terms_lists)
def test_poly_from_triples_equals_repeated_addition(terms):
    triples = [[c.numerator, c.denominator, list(e)] for e, c in terms]
    same(serialize.poly_from_triples(NV, triples), oracle_from_terms(NV, terms))


def test_parse_poly_expr_accumulates_in_order():
    got = serialize.parse_poly_expr("x1 + 2*x2 - x1 + 0*x3 + 1/2*x3 + x1", 3)
    want = oracle_from_terms(3, [((1, 0, 0), Fraction(1)), ((0, 1, 0), Fraction(2)),
                                 ((1, 0, 0), Fraction(-1)), ((0, 0, 1), Fraction(0)),
                                 ((0, 0, 1), Fraction(1, 2)), ((1, 0, 0), Fraction(1))])
    same(got, want)


def test_sigma_equals_termwise_oracle(p23):
    f = MvLaurent(p23.n, {(1, 0, 0, 0, 1, 0): Fraction(2), (0, 1, 0, 1, 0, 0): Fraction(-1, 3),
                          (0, 0, 0, 0, 0, 0): Fraction(4)})
    for k in range(p23.n):
        want = oracle_from_terms(p23.n, [(e, c * sigma_scalar(p23, k, e)) for e, c in f.terms.items()])
        same(sigma(p23, k, f), want)
