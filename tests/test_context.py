"""The one-pass cluster context, against the three-pass build it replaced.

ClusterContext.build and build_normalizing share one pass: validate once,
compute eta, the primes and the d-integers once, and rescale (then certify
pi == 1 again) only when some pi_[i, s(i)] is not 1.  The x-to-y table is
cluster_expressions, read on first use off the table that the one Gamma_N
walk of the context fills by exchange quotients; a command takes that walk
at most once.  The oracle below is the old path: `build` with its eager
x-to-y table by back-substitution, `build_normalizing` validating and computing eta again
before calling `build`, and the CLI's catch-and-rebuild `_build_context`.
"""

import json
from fractions import Fraction

import pytest

from pcgl import cgl, cli, cluster, symmetric
from pcgl.cluster import (
    ClusterContext,
    ClusterError,
    chain_verify,
    cluster_expressions,
    seed_for_tau,
    upper_membership,
)
from pcgl.cgl import PrimeSequenceError, compute_eta_and_primes
from pcgl.poly import MvLaurent, substitute
from pcgl.presentation import PoissonPresentation
from pcgl.presets import build_matrix_poisson
from pcgl.serialize import fraction_to_json, parse_poly_expr, presentation_to_doc
from pcgl.symmetric import (
    Incompatible,
    apply_rescaling,
    compute_d_integers,
    rescale_generators,
    validate_symmetric,
)

from algebra_oracles import u_element_and_pi
from conftest import benchmark_input, rescaled_3x3, rescaled_4x5, two_block, weyl_block

GAMMA_3X4 = [Fraction(3), Fraction(-1, 2), Fraction(2, 5), Fraction(1), Fraction(-4), Fraction(5, 3),
             Fraction(1, 7), Fraction(2), Fraction(-3, 4), Fraction(6), Fraction(1, 2), Fraction(-1)]


def rescaled_3x4():
    return apply_rescaling(build_matrix_poisson(3, 4), GAMMA_3X4)


def _x_in_y_eager(ctx):
    n = ctx.p.n
    out = []
    for k in range(n):
        pk = ctx.eta.pred[k]
        if pk is None:
            out.append(MvLaurent.gen(n, k))
            continue
        ck = ctx.seq.y[pk] * MvLaurent.gen(n, k) - ctx.seq.y[k]
        ck_y = substitute(ck, out + [MvLaurent.gen(n, i) for i in range(k, n)]) if not ck.is_zero() \
            else MvLaurent.zero(n)
        out.append(MvLaurent.gen(n, pk, -1) * (MvLaurent.gen(n, k) + ck_y))
    return out


def _oracle_build(p):
    """ClusterContext.build as it was; returns the context and its eager x-to-y table."""
    report, ps, _ = validate_symmetric(p)
    if not report.passed:
        raise ClusterError("presentation is not symmetric: " + "; ".join(str(f) for f in report.failures))
    eta, seq = compute_eta_and_primes(ps)
    d_map, _ = compute_d_integers(ps, eta)
    for i in range(ps.n):
        if eta.succ[i] is not None:
            ud = u_element_and_pi(ps, eta, i, 1)
            if ud.pi != 1:
                raise ClusterError(f"pi_[{i+1}, s({i+1})] = {ud.pi} != 1; rescale the generators first")
    ctx = ClusterContext(p=ps, eta=eta, seq=seq, d_map=d_map)
    return ctx, _x_in_y_eager(ctx)


def _oracle_build_normalizing(p):
    report, ps, _ = validate_symmetric(p)
    if not report.passed:
        raise ClusterError("presentation is not symmetric: " + "; ".join(str(f) for f in report.failures))
    eta, _ = compute_eta_and_primes(ps)
    gamma, ps2 = rescale_generators(ps, eta)
    return _oracle_build(ps2), gamma


def _oracle_build_context(p):
    """The CLI's _build_context as it was: (context, x_in_y), gamma or None."""
    try:
        return _oracle_build(p), None
    except ClusterError:
        return _oracle_build_normalizing(p)


INPUTS = {
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "rescaled_3x3": rescaled_3x3,
    "weyl_block": lambda: weyl_block(2),
    "two_block": lambda: two_block(2, 3),
    "rescaled_3x4": rescaled_3x4,
}


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:      # compared by type and message below
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("name", INPUTS)
def test_context_equals_three_pass_build(name, tmp_path, capsys):
    p = INPUTS[name]()
    (want, want_x_in_y), want_gamma = _oracle_build_context(p)
    ctx, gamma = ClusterContext.build_normalizing(p)
    assert ctx.p == want.p
    assert ctx.eta == want.eta
    assert ctx.seq == want.seq
    assert ctx.d_map == want.d_map
    assert gamma == (want_gamma if want_gamma is not None else [1] * p.n)
    assert cluster_expressions(ctx) == want_x_in_y
    # the CLI reports gamma_applied exactly when the old path had to rescale
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation_to_doc(p)))
    assert cli.main(["seeds", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("gamma_applied") == (None if want_gamma is None else [fraction_to_json(g) for g in want_gamma])

    got, got_err = _outcome(ClusterContext.build, p)
    old, old_err = _outcome(_oracle_build, p)
    assert got_err == old_err
    if old_err is None:
        assert got.p == old[0].p and got.eta == old[0].eta and got.d_map == old[0].d_map


def _nonsymmetric():
    """The 2x2 preset with zero h* rows: every lambda*_j is 0."""
    p = build_matrix_poisson(2, 2)
    return PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                               delta=p.delta, h_star=((Fraction(0),) * p.torus_rank,) * p.n)


ERROR_INPUTS = {
    "nonsymmetric": _nonsymmetric,
    "incompatible": lambda: two_block(2, -2),
    "rescaled_incompatible": lambda: apply_rescaling(two_block(2, -2), [2, Fraction(1, 3), -1, 5]),
}


@pytest.mark.parametrize("name", ERROR_INPUTS)
def test_same_exception_as_three_pass_build(name):
    p = ERROR_INPUTS[name]()
    _, want = _outcome(_oracle_build_context, p)
    assert want is not None
    assert want[0] is (ClusterError if name == "nonsymmetric" else Incompatible)
    assert _outcome(ClusterContext.build_normalizing, p)[1] == want
    assert _outcome(ClusterContext.build, p)[1] == _outcome(_oracle_build, p)[1]


def test_pi_not_one_after_rescaling_still_raises(monkeypatch):
    # a rescaling that changes nothing leaves pi != 1, and the certificate catches it
    monkeypatch.setattr(cluster, "rescale_generators", lambda p, eta: ([Fraction(1)] * p.n, p))
    with pytest.raises(ClusterError, match=r"pi_\[1, s\(1\)\] = .* != 1; rescale the generators first"):
        ClusterContext.build_normalizing(weyl_block(2))


class _Counter:
    def __init__(self, monkeypatch):
        self.calls = {}
        self.monkeypatch = monkeypatch

    def wrap(self, owners, name, label):
        inner = getattr(owners[0], name)

        def counted(*args, **kwargs):
            self.calls[label] = self.calls.get(label, 0) + 1
            return inner(*args, **kwargs)

        for owner in owners:
            self.monkeypatch.setattr(owner, name, counted)

    def __getitem__(self, label):
        return self.calls.get(label, 0)


@pytest.fixture
def counter(monkeypatch):
    c = _Counter(monkeypatch)
    c.wrap([symmetric, cluster, cli], "validate_symmetric", "validate")
    c.wrap([cgl, symmetric, cluster, cli], "compute_eta_and_primes", "eta")
    c.wrap([cluster], "_gamma_walk", "walk")
    return c


def test_rescaled_build_counts(counter):
    ctx, gamma = ClusterContext.build_normalizing(rescaled_3x4())
    assert any(g != 1 for g in gamma)
    assert counter["validate"] == 1
    assert counter["eta"] <= 2
    chain_verify(ctx)
    identity = tuple(range(ctx.p.n))
    seed_for_tau(ctx, identity)
    f = parse_poly_expr("x1*x6 - x2*x5", ctx.p.n, None, prefix="x")
    assert upper_membership(ctx, f)[0]
    assert counter["walk"] == 1
    assert cluster_expressions(ctx) == _x_in_y_eager(ctx)


def test_prime_sequence_of_a_solved_h_star_is_computed_once(counter, tmp_path, capsys):
    # validate_symmetric needs the successors to solve h*, so it computes the
    # prime sequence, and the context reuses it
    doc = presentation_to_doc(build_matrix_poisson(3, 4))
    del doc["h_star"]
    path = tmp_path / "m34.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["chain-verify", str(path)]) == 0
    capsys.readouterr()
    assert counter["validate"] == 1
    assert counter["eta"] == 1


@pytest.mark.parametrize("argv, code, walks", [
    pytest.param(["chain-verify"], 0, 1, id="argv0-0"),
    pytest.param(["btilde"], 0, 0, id="argv1-0"),
    pytest.param(["membership", "--elem", "x1*x6 - x2*x5"], 0, 1, id="argv2-0"),
    pytest.param(["seeds"], 0, 0, id="argv3-0"),
    pytest.param(["mutate", "--at", "1"], 0, 0, id="argv4-0"),
    pytest.param(["seeds", "--tau", "2,3,4,5,6,7,8,9,10,11,12,1"], 0, 1, id="argv5-1"),
    pytest.param(["membership", "--coords", "y", "--elem", "y2^-1*y1*y12"], 1, 1, id="membership-y"),
    pytest.param(["seeds", "--gamma"], 0, 1, id="seeds-gamma"),
    pytest.param(["mutate", "--tau", "2,3,4,5,6,7,8,9,10,11,12,1", "--at", "1"], 0, 1, id="mutate-tau"),
])
def test_cli_builds_context_once(argv, code, walks, counter, tmp_path, capsys):
    path = tmp_path / "m34.json"
    path.write_text(json.dumps(presentation_to_doc(rescaled_3x4())))
    assert cli.main([argv[0], str(path), *argv[1:]]) == code
    capsys.readouterr()
    assert counter["validate"] == 1
    assert counter["eta"] <= 2
    # the Gamma_N walk, taken at most once per command
    assert counter["walk"] == walks


def _without_h_star(p):
    return PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                               delta=p.delta)


HAND_OFF = {"3x3": lambda: build_matrix_poisson(3, 3), "rescaled_4x5": rescaled_4x5,
            "two_block": two_block}


@pytest.mark.parametrize("supplied", [True, False], ids=["h_star", "solved"])
@pytest.mark.parametrize("name", sorted(HAND_OFF))
def test_validate_symmetric_hands_off_the_prime_sequence(name, supplied):
    p = HAND_OFF[name]()
    if not supplied:
        p = _without_h_star(p)
    report, ps, primes = validate_symmetric(p)
    assert report.passed
    assert (ps is p) == supplied
    assert primes == compute_eta_and_primes(ps)


def test_a_failed_report_hands_off_no_prime_sequence():
    p = build_matrix_poisson(3, 3)
    bad = PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                              delta=p.delta, h_star=p.h_star[:-1] + ((Fraction(0),) * p.torus_rank,))
    report, ps, primes = validate_symmetric(bad)
    assert not report.passed and ps is bad and primes is None


def test_a_passing_presentation_without_a_prime_sequence_raises():
    """delta_2(x_1) = 1 with lambda_2 = <h_2, chi_2> = 0: the symmetric checks
    pass on the supplied h*, and the prime sequence has no y_2."""
    p = PoissonPresentation(n=2, torus_rank=2, weights=((1, 0), (0, 1)),
                            h=((Fraction(0),) * 2, (Fraction(1), Fraction(0))),
                            delta={(1, 0): MvLaurent.const(2, 1)},
                            h_star=((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))))
    with pytest.raises(PrimeSequenceError, match="lambda_2 = 0"):
        validate_symmetric(p)


@pytest.mark.parametrize("command, name, primes", [
    ("symmetric", "3x3", 1),
    ("chain-verify", "3x3", 1),
    ("rescale", "chain1", 1),
    ("chain-verify", "chain1", 2),
])
def test_one_prime_sequence_per_presentation_checked(command, name, primes, counter, tmp_path, capsys):
    """A command computes one prime sequence for its input, and a cluster
    command one more for the rescaled presentation when it rescales: the
    benchmark's chain input has pi != 1, and the 3x3 preset has every pi = 1.
    rescale reads the pi of the rescaled presentation with its input's eta,
    which rescaling by nonzero scalars keeps."""
    if name == "chain1":
        path = benchmark_input("chain", 1, tmp_path)
    else:
        path = tmp_path / "m33.json"
        path.write_text(json.dumps(presentation_to_doc(build_matrix_poisson(3, 3))))
    assert cli.main([command, str(path)]) == 0
    capsys.readouterr()
    assert counter["validate"] == 1
    assert counter["eta"] == primes
