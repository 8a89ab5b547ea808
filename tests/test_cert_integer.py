"""The integer bracket identities against the Fraction checks they replaced.

`certify_prime_sequence`, the Jacobi loop of `validate_algebra` and
`check_log_canonical` (an oracle in tau_oracles, which no command runs)
decide their identities on int numerators through the bracket kernel; `certify_prime_sequence` decides its {y_k, y_j} identities
from the certified {y_k, x_i} relations instead, and brackets only a pair
those relations do not cover.  The oracles below are those checks as they
were before, with every bracket and right-hand side a `Fraction` polynomial;
they call only the public `bracket` and `MvLaurent` arithmetic.  Pass or
fail, exception, `what`, `lhs`, `rhs` and the validation report must agree.
"""

from fractions import Fraction
from math import gcd
from typing import Dict, List, Tuple

import pytest

from pcgl import cgl
from pcgl import serialize as ser
from pcgl.cgl import CertFailure, QData, certify_prime_sequence, compute_eta_and_primes
from pcgl.cluster import ClusterContext, seed_for_tau
from pcgl.poly import MvLaurent, _mul
from pcgl.presentation import (
    JacobiFailure,
    PoissonPresentation,
    ValidationReport,
    _bracket_is_multiple,
    _prepare,
    bracket,
    validate_algebra,
    weight_of,
)
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import validate_symmetric

from algebra_oracles import fraction_terms
from conftest import rescaled_3x3, rescaled_4x5, two_block
from tau_oracles import LogCanonicalFailure, as_fractions, check_log_canonical, from_fractions

PRESENTATIONS = {
    "2x3": build_matrix_poisson(2, 3),
    "rescaled_3x3": validate_symmetric(rescaled_3x3())[1],
    "two_block": two_block(2, 3),
    "rescaled_4x5": rescaled_4x5(),
}
NAMES = sorted(PRESENTATIONS)

# ---------------------------------------------------------------- oracles


def oracle_certify(p, eta, seq) -> QData:
    """certify_prime_sequence with Fraction brackets and right-hand sides."""
    n = p.n
    qd = cgl.alpha_q_matrices(p, eta)
    alpha, q = as_fractions(qd.alpha), as_fractions(qd.q)
    gens = [MvLaurent.gen(n, i) for i in range(n)]
    for k in range(n):
        coeff, exp = seq.y[k].leading_term()
        if coeff != 1 or exp != eta.ebar(k):
            raise CertFailure(f"lt(y_{k+1})", (coeff, exp), (Fraction(1), eta.ebar(k)))
        weight_of(p, seq.y[k])
    for j in range(n):
        for k in range(n):
            sj = eta.succ[j]
            if sj is not None and sj <= k:
                continue
            lhs = bracket(p, seq.y[j], gens[k])
            rhs = seq.y[j] * gens[k] * (-alpha[k][j])
            if lhs != rhs:
                raise CertFailure(f"{{y_{j+1}, x_{k+1}}} = -alpha y x", lhs, rhs)
    for k in range(n):
        for j in range(k):
            lhs = bracket(p, seq.y[k], seq.y[j])
            rhs = seq.y[k] * seq.y[j] * q[k][j]
            if lhs != rhs:
                raise CertFailure(f"{{y_{k+1}, y_{j+1}}} = q y y", lhs, rhs)
    return qd


def oracle_jacobi(p) -> List[JacobiFailure]:
    """The Jacobi triple loop, each generator pair bracketed once, summed as Fractions."""
    n = p.n
    gens = [MvLaurent.gen(n, i) for i in range(n)]
    pairs: Dict[Tuple[int, int], MvLaurent] = {}

    def gen_bracket(a, b):
        if (a, b) not in pairs:
            pairs[(a, b)] = bracket(p, gens[a], gens[b])
        return pairs[(a, b)]

    failures = []
    for k in range(2, n):
        for j in range(1, k):
            for i in range(j):
                acc = bracket(p, gens[i], gen_bracket(j, k))
                acc = acc + bracket(p, gens[j], gen_bracket(k, i))
                acc = acc + bracket(p, gens[k], gen_bracket(i, j))
                if not acc.is_zero():
                    failures.append(JacobiFailure(k, j, i, acc))
    return failures


def oracle_log_canonical(p, bundle) -> int:
    n = p.n
    r = as_fractions(bundle.r)
    for l in range(n):
        for j in range(l):
            lhs = bracket(p, bundle.vars_x[l], bundle.vars_x[j])
            rhs = bundle.vars_x[l] * bundle.vars_x[j] * r[l][j]
            if lhs != rhs:
                raise LogCanonicalFailure(l, j, lhs, rhs)
    return n * (n - 1) // 2


def _outcome(fn, *args):
    """What fn returns, or the type and witnesses of the exception it raises."""
    try:
        return "ok", fn(*args)
    except (CertFailure, LogCanonicalFailure) as exc:
        return type(exc).__name__, (str(exc), getattr(exc, "what", getattr(exc, "pair", None)),
                                    exc.lhs, exc.rhs)


# ---------------------------------------------------------------- fixtures


def test_rescaled_4x5_has_coprime_denominators():
    p = PRESENTATIONS["rescaled_4x5"]
    assert p.lam_den > 1 and p.delta_den > 1 and gcd(p.lam_den, p.delta_den) == 1


@pytest.fixture(scope="module", params=NAMES)
def primes(request):
    p = PRESENTATIONS[request.param]
    eta, seq = compute_eta_and_primes(p)
    return p, eta, seq


# ---------------------------------------------------------------- prime sequence


def test_certify_passes_with_the_oracle(primes):
    p, eta, seq = primes
    got = certify_prime_sequence(p, eta, seq)
    want = oracle_certify(p, eta, seq)
    assert (got.alpha, got.q) == (want.alpha, want.q)


def _assert_same_failure(p, eta, seq):
    got = _outcome(certify_prime_sequence, p, eta, seq)
    want = _outcome(oracle_certify, p, eta, seq)
    assert got[0] == "CertFailure"
    assert got == want


def test_perturbed_y_coefficient_fails_like_the_oracle(primes):
    p, eta, seq = primes
    k = max(range(p.n), key=lambda i: len(seq.y[i].terms))
    y = seq.y[k]
    lead = y.leading_term()[1]
    e = next(e for e in y.terms if e != lead)
    terms = fraction_terms(y)
    terms[e] += Fraction(1, 3)
    ys = list(seq.y)
    ys[k] = MvLaurent(p.n, terms)
    _assert_same_failure(p, eta, seq._replace(y=ys))


def test_truncated_y_fails_like_the_oracle(primes):
    # y_k cut to its leading monomial: its brackets keep every term of the
    # right-hand side and gain the terms the cut part cancelled
    p, eta, seq = primes
    k = max(range(p.n), key=lambda i: len(seq.y[i].terms))
    coeff, lead = seq.y[k].leading_term()
    ys = list(seq.y)
    ys[k] = MvLaurent.monomial(p.n, lead, coeff)
    _assert_same_failure(p, eta, seq._replace(y=ys))


def _off_by_a_fifth(qd: QData, which: str, entries) -> QData:
    """qd with 1/5 added to the given entries of one matrix; alpha and q
    both become numerators over 5 times their denominator."""
    mats = {name: as_fractions(m) for name, m in qd._asdict().items()}
    for k, j in entries:
        mats[which][k][j] += Fraction(1, 5)
    den = 5 * qd.alpha[1]
    return QData(**{name: from_fractions(m, den) for name, m in mats.items()})


def _corrupt(monkeypatch, which: str, k: int, j: int):
    """Make alpha_q_matrices return a QData with one entry off by 1/5."""
    right = cgl.alpha_q_matrices

    def wrong(p, eta):
        return _off_by_a_fifth(right(p, eta), which, [(k, j)])

    monkeypatch.setattr(cgl, "alpha_q_matrices", wrong)


def test_wrong_alpha_fails_like_the_oracle(primes, monkeypatch):
    p, eta, seq = primes
    # {y_N, x_1} is checked: y_N has no successor.
    _corrupt(monkeypatch, "alpha", 0, p.n - 1)
    _assert_same_failure(p, eta, seq)


def test_wrong_q_fails_like_the_oracle(primes, monkeypatch):
    p, eta, seq = primes
    _corrupt(monkeypatch, "q", p.n - 1, 0)
    _assert_same_failure(p, eta, seq)


@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_wrong_q_in_loop_order_fails_like_the_oracle(primes, monkeypatch, at):
    p, eta, seq = primes
    pairs = [(l, j) for l in range(p.n) for j in range(l)]
    l, j = {"first": pairs[0], "middle": pairs[len(pairs) // 2], "last": pairs[-1]}[at]
    _corrupt(monkeypatch, "q", l, j)
    _assert_same_failure(p, eta, seq)


# ---------------------------------------------------------------- y-y pairs from y-x relations

VERDICT_INPUTS = dict(PRESENTATIONS, **{"4x4": build_matrix_poisson(4, 4)})


@pytest.mark.parametrize("name", sorted(VERDICT_INPUTS))
def test_derived_verdicts_equal_the_kernel(name):
    """Every pair's verdict, under the true q and under a q off by 1/5 on every
    other pair, equals the bracket kernel's."""
    p = VERDICT_INPUTS[name]
    eta, seq = compute_eta_and_primes(p)
    qd = certify_prime_sequence(p, eta, seq)
    ys = seq.y
    yops = [_prepare(p, y.terms) for y in ys]
    skewed = _off_by_a_fifth(qd, "q", [(l, j) for l in range(p.n) for j in range(p.n) if (l + j) % 2])
    for case in (qd, skewed):
        got = list(cgl._q_verdicts(p, eta, case, ys, yops))
        q, den = case.q
        want = [(l, j, _bracket_is_multiple(p, yops[l], yops[j], q[l][j], den, _mul(ys[l].terms, ys[j].terms)))
                for l in range(p.n) for j in range(l)]
        assert got == want
    assert {v for *_, v in got} == {True, False}


def _kernel_calls(monkeypatch):
    """Record the arguments of every bracket-kernel call cgl makes."""
    calls = []
    kernel = cgl._bracket_is_multiple

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(cgl, "_bracket_is_multiple", spy)
    return calls


def test_a_genuine_sequence_brackets_no_y_y_pair(primes, monkeypatch):
    p, eta, seq = primes
    calls = _kernel_calls(monkeypatch)
    certify_prime_sequence(p, eta, seq)
    y_x = sum(p.n if s is None else s for s in eta.succ)
    assert len(calls) == y_x


@pytest.mark.parametrize("wrong_q", [False, True])
def test_pairs_beyond_the_certified_relations_go_through_the_kernel(primes, monkeypatch, wrong_q):
    """With s(y_N) forged to 2, only {y_N, x_1} is certified, so every pair
    (N, j) whose y_j involves a generator past x_1 goes through the kernel.
    alpha is made wrong at {y_N, x_2}, which no longer is checked: it must
    decide no pair.  With q also wrong at (N, 2), that pair fails as in the
    oracle."""
    p, eta, seq = primes
    n = p.n
    succ = list(eta.succ)
    succ[n - 1] = 1
    forged = eta._replace(succ=succ)
    _corrupt(monkeypatch, "alpha", 1, n - 1)
    if wrong_q:
        _corrupt(monkeypatch, "q", n - 1, 1)
    want = _outcome(oracle_certify, p, forged, seq)
    calls = _kernel_calls(monkeypatch)
    assert _outcome(certify_prime_sequence, p, forged, seq) == want
    assert want[0] == ("CertFailure" if wrong_q else "ok")
    # y_1 = x_1 is decided from {y_N, x_1}; each of y_2..y_{N-1} involves
    # its own generator, so it reaches the kernel, and y_2 comes first.
    y_x = sum(n if s is None else s for s in succ)
    assert len(calls) - y_x == (1 if wrong_q else n - 2)


# ---------------------------------------------------------------- Jacobi


def _with_entry(p: PoissonPresentation, k: int, j: int, poly: MvLaurent) -> PoissonPresentation:
    delta = dict(p.delta)
    delta[(k, j)] = poly
    return PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                               delta=delta, h_star=p.h_star)


def _corrupted_tables(p: PoissonPresentation):
    """The last table entry scaled by 3/2 plus x_1, and 2/7 x_2 added to delta_N(x_1)."""
    n = p.n
    k, j = max(key for key, poly in p.delta.items() if not poly.is_zero())
    poly = p.delta[(k, j)]
    yield _with_entry(p, k, j, poly * Fraction(3, 2) + MvLaurent.gen(n, 0))
    yield _with_entry(p, n - 1, 0, p.delta_entry(n - 1, 0) + MvLaurent.gen(n, 1) * Fraction(2, 7))


@pytest.mark.parametrize("name", NAMES)
def test_jacobi_report_equals_the_oracle(name):
    p = PRESENTATIONS[name]
    assert validate_algebra(p).checks["jacobi"] and not oracle_jacobi(p)
    for bad in _corrupted_tables(p):
        report = validate_algebra(bad, max_nilpotence_iters=3)
        oracle = oracle_jacobi(bad)
        assert oracle, "the corruption must break the Jacobi identity"
        checks = dict(report.checks, jacobi=False)
        rest = [f for f in report.failures if not isinstance(f, JacobiFailure)]
        want = ValidationReport(passed=False, checks=checks, failures=rest + oracle)
        assert ser.validation_report(report) == ser.validation_report(want)
        got = [f for f in report.failures if isinstance(f, JacobiFailure)]
        assert [list(fraction_terms(f.witness).items()) for f in got] == \
            [list(fraction_terms(f.witness).items()) for f in oracle]


# ---------------------------------------------------------------- log-canonicality


@pytest.mark.parametrize("name", ["2x3", "rescaled_3x3"])
def test_log_canonical_failure_equals_the_oracle(name):
    ctx = ClusterContext.build_normalizing(PRESENTATIONS[name])[0]
    n = ctx.p.n
    tau = tuple(range(1, n)) + (0,)
    bundle = seed_for_tau(ctx, tau)
    assert check_log_canonical(ctx, bundle) == oracle_log_canonical(ctx.p, bundle)
    for l, j, bump in ((1, 0, Fraction(1, 3)), (n - 1, n - 2, Fraction(-2))):
        r = as_fractions(bundle.r)
        r[l][j] += bump
        bad = bundle._replace(r=from_fractions(r, 3 * ctx.p.lam_den))
        got = _outcome(check_log_canonical, ctx, bad)
        assert got[0] == "LogCanonicalFailure"
        assert got == _outcome(oracle_log_canonical, ctx.p, bad)
