"""validate_algebra's Jacobi check, which brackets each generator pair once,
against the triple loop it replaced, which recomputed the inner brackets for
every triple; the old loop is kept here as the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl import serialize as ser
from pcgl.poly import MvLaurent
from pcgl.presentation import (
    JacobiFailure,
    PoissonPresentation,
    ValidationReport,
    bracket,
    validate_algebra,
)
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import validate_symmetric

from conftest import rescaled_3x3, two_block

BASES = {
    "2x3": build_matrix_poisson(2, 3),
    "rescaled_3x3": validate_symmetric(rescaled_3x3())[1],
    "two_block": two_block(2, 3),
}
# Few derivation steps keep a corrupted table's nilpotence check short; the
# check's outcome does not feed the Jacobi loop.
NILPOTENCE_ITERS = 3


def _oracle_jacobi(p):
    n = p.n
    gens = [MvLaurent.gen(n, i) for i in range(n)]
    failures = []
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                acc = bracket(p, gens[i], bracket(p, gens[j], gens[k]))
                acc = acc + bracket(p, gens[j], bracket(p, gens[k], gens[i]))
                acc = acc + bracket(p, gens[k], bracket(p, gens[i], gens[j]))
                if not acc.is_zero():
                    failures.append(JacobiFailure(k, j, i, acc))
    return failures


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def corrupted(draw):
    """A base presentation with one delta entry added or altered: the entry
    gets a random polynomial in the generators below x_k, or is scaled, or
    gains a term."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    n = base.n
    k = draw(st.integers(1, n - 1))
    j = draw(st.integers(0, k - 1))
    old = base.delta.get((k, j), MvLaurent.zero(n))
    exps = st.lists(st.integers(0, 1), min_size=k, max_size=k).map(
        lambda e: tuple(e) + (0,) * (n - k))
    extra = MvLaurent(n, {draw(exps): draw(_coeffs) for _ in range(draw(st.integers(1, 2)))})
    how = draw(st.sampled_from(["replace", "scale", "add"]))
    if how == "replace":
        new = extra
    elif how == "scale":
        new = old * draw(_coeffs) if not old.is_zero() else extra
    else:
        new = old + extra
    delta = dict(base.delta)
    delta[(k, j)] = new
    return PoissonPresentation(n=n, torus_rank=base.torus_rank, weights=base.weights, h=base.h,
                               delta=delta, h_star=base.h_star)


def _expected(report, oracle):
    """The report with its Jacobi part replaced by the oracle's."""
    checks = dict(report.checks, jacobi=not oracle)
    rest = [f for f in report.failures if not isinstance(f, JacobiFailure)]
    return ValidationReport(passed=all(checks.values()), checks=checks, failures=rest + oracle)


@settings(max_examples=60, deadline=None, database=None)
@given(corrupted())
def test_jacobi_pairs_equal_triple_loop(p):
    report = validate_algebra(p, max_nilpotence_iters=NILPOTENCE_ITERS)
    oracle = _oracle_jacobi(p)
    assert ser.validation_report(report) == ser.validation_report(_expected(report, oracle))
    got = [f for f in report.failures if isinstance(f, JacobiFailure)]
    assert [f.triple for f in got] == [f.triple for f in oracle]
    # the witnesses hold the same terms in the same order
    assert [list(f.witness.terms.items()) for f in got] == \
        [list(f.witness.terms.items()) for f in oracle]
