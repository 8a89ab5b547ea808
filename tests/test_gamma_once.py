"""Each Gamma_N quantity is computed once, where it is defined.

The walk along Gamma_N starts from the prime sequence and builds and weighs
one interval prime per slot whose label changes; it solves the exchange
matrix once, at the identity, and mutates it at each change of key.
The walk is the one place a Gamma_N exchange identity is multiplied out.
gamma_bundles builds r once per run of equal seed keys; the identity's
bundle gets the full seed checks, each later key's B compatibility with r
and beta == lambda*, and its bundles equal seed_for_tau's, which builds and
solves each permutation's bundle on its own.  chain_verify checks each link
on the seed keys, r and B of its two ends, and agrees with the polynomial
link check it replaced (tau_oracles.verify_one_step_polynomial).  The
full-rank check that check_seed_invariants no longer makes, and the full
seed checks the derived keys no longer get, are kept here as tests of every
bundle along the chain.  One seed mutation certifies the mutated pair's
compatibility once, on r's int numerators over lam_den; the check on r's
Fractions with an lcm rescale it replaced (tau_oracles.check_compatible_lcm)
is the oracle of every key's.
"""

import pytest

from pcgl import cli, cluster, linalg
from pcgl.cluster import (
    BMatrix,
    ClusterContext,
    ClusterError,
    CompatibilityFailure,
    LinkFailure,
    LinkReport,
    SeedInvariantFailure,
    chain_verify,
    check_compatible,
    check_seed_invariants,
    gamma_bundles,
    mutate_seed,
    seed_for_tau,
    verify_one_step,
)
from pcgl.poly import MvLaurent
from pcgl.presentation import weight_of
from pcgl.presets import build_affine_space, build_matrix_poisson
from pcgl.symmetric import gamma_chain, interval_exponent

from conftest import rescaled_2x3, rescaled_3x3, rescaled_4x5, two_block, weyl_block
from tau_oracles import as_fractions, check_compatible_lcm, verify_one_step_polynomial

BUILDS = {
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "rescaled_3x3": rescaled_3x3,
    "3x4": lambda: build_matrix_poisson(3, 4),
    "two_block": two_block,
}
# the walk's bundles are compared with seed_for_tau's on these and on BUILDS;
# on the N = 1 inputs no key changes after the identity
WALK_BUILDS = dict(BUILDS, **{
    "4x4": lambda: build_matrix_poisson(4, 4),
    "rescaled_4x5": rescaled_4x5,
    "weyl_block3": lambda: weyl_block(3),
    "rescaled_2x3": rescaled_2x3,
    "1x1": lambda: build_matrix_poisson(1, 1),
    "affine1": lambda: build_affine_space(1, [[0]]),
})


def _context(name):
    return ClusterContext.build_normalizing(WALK_BUILDS[name]())[0]


def _counter(monkeypatch, calls):
    """count(owner, name) replaces owner.name by a wrapper that counts its calls in calls."""
    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    return count


def test_chain_verify_computes_each_quantity_once(monkeypatch):
    ctx = _context("3x4")
    calls = {}
    count = _counter(monkeypatch, calls)
    for name in ("seed_for_tau", "r_matrix_for_tau", "weight_of", "interval_prime", "tau_data",
                 "check_seed_invariants"):
        count(cluster, name)
    count(cluster, "_exchange_binomial")
    count(linalg, "rank")
    count(linalg, "solve")
    reports = chain_verify(ctx)
    assert len(reports) == 66 and all(rep.verified for rep in reports)
    # 67 permutations, 9 seed keys, 8 changes of key of one slot each; the
    # identity's 12 variables are the prime sequence, its exchange matrix
    # the one solve and its seed the one full seed check; each change of
    # key multiplies out its exchange identity once, in the walk
    assert calls == {"tau_data": 67, "r_matrix_for_tau": 9, "rank": 1, "weight_of": 8,
                     "interval_prime": 8, "check_seed_invariants": 1, "solve": 1,
                     "_exchange_binomial": 8}


@pytest.mark.parametrize("argv, preset, keys", [
    (["chain-verify"], (4, 4), 15),
    (["seeds", "--gamma"], (3, 3), 6),
    (["membership", "--elem", "t11*t22 - t12*t21"], (4, 4), 1),
], ids=["chain-verify-4x4", "seeds-gamma-3x3", "membership-4x4"])
def test_commands_solve_once(argv, preset, keys, tmp_path, monkeypatch, capsys):
    # one linear solve and one full seed check per run, at the identity; r
    # once per seed key for the bundle reports, once in all for membership
    path = str(tmp_path / "m.json")
    m, n = preset
    assert cli.main(["preset", "matrix", "--m", str(m), "--n", str(n), "-o", path]) == 0
    calls = {}
    count = _counter(monkeypatch, calls)
    for name in ("solve_btilde", "r_matrix_for_tau", "check_seed_invariants"):
        count(cluster, name)
    count(linalg, "solve")
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == {"solve": 1, "solve_btilde": 1, "r_matrix_for_tau": keys, "check_seed_invariants": 1}


@pytest.mark.parametrize("argv, preset, primes", [
    (["chain-verify"], (3, 4), 8),
    (["seeds", "--gamma"], (3, 3), 5),
    (["membership", "--elem", "t11*t22 - t12*t21"], (4, 4), 14),
], ids=["chain-verify-3x4", "seeds-gamma-3x3", "membership-4x4"])
def test_commands_build_one_interval_prime_per_change_of_key(argv, preset, primes, tmp_path,
                                                             monkeypatch, capsys):
    # 9, 6 and 15 seed keys; the 5x5 count is in tests/test_cli.py
    path = str(tmp_path / "m.json")
    m, n = preset
    assert cli.main(["preset", "matrix", "--m", str(m), "--n", str(n), "-o", path]) == 0
    calls = {}
    _counter(monkeypatch, calls)(cluster, "interval_prime")
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert calls == {"interval_prime": primes}


@pytest.mark.parametrize("name", sorted(WALK_BUILDS))
def test_gamma_bundles_equal_seed_for_tau(name):
    # the identity bundle included, whose variables and weights the walk
    # takes from the prime sequence
    ctx = _context(name)
    assert gamma_bundles(ctx) == [seed_for_tau(ctx, tau) for tau in gamma_chain(ctx.p.n)]


def test_doubled_mutation_fails_the_next_bundle(monkeypatch):
    # a B with every column doubled stays compatible with r, with every beta
    # doubled; the bundle of the first key after the identity refuses it on
    # beta == lambda*, with no full seed check; a walk that mutates to
    # doubled matrices fails at its next exchange, and only the identity's
    # bundle runs the full checks
    ctx = _context("3x4")
    tau, sigma, key, _, b, variables = next(step for step in ctx.walk if step[3] is not None)
    doubled = b._replace(cols={l: tuple(2 * x for x in col) for l, col in b.cols.items()})
    calls = {}
    _counter(monkeypatch, calls)(cluster, "check_seed_invariants")
    with pytest.raises(SeedInvariantFailure, match=r"^beta differs from lambda\*$"):
        cluster._build_bundle(ctx, tau, sigma, key, variables, doubled)
    assert calls == {}
    inner = cluster.mutate_matrix

    def doubling(b, k):
        mutated = inner(b, k)
        return mutated._replace(cols={l: tuple(2 * x for x in col) for l, col in mutated.cols.items()})

    monkeypatch.setattr(cluster, "mutate_matrix", doubling)
    with pytest.raises(ClusterError, match=r"^exchange identity of slot \d+ fails$"):
        gamma_bundles(_context("3x4"))
    assert calls == {"check_seed_invariants": 1}


def test_verify_one_step_refuses_bundles_that_are_not_adjacent():
    ctx = _context("2x3")
    bundles = gamma_bundles(ctx)
    assert verify_one_step(ctx, bundles[0], bundles[1]).verified
    for a, b in ((bundles[0], bundles[2]), (bundles[0], bundles[-1]), (bundles[0], bundles[0])):
        with pytest.raises(LinkFailure, match="^one-step verification failed: permutations are not "
                                              "adjacent by one transposition$"):
            verify_one_step(ctx, a, b)


def test_mutate_seed_checks_compatibility_once(monkeypatch, ctx33):
    bundle = seed_for_tau(ctx33, tuple(range(ctx33.p.n)))
    calls = {}

    def count(name):
        inner = getattr(cluster, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(cluster, name, counted)

    for name in ("check_compatible", "_btr", "mutate_r", "mutate_matrix"):
        count(name)
    for k in bundle.btilde.ex:
        calls.clear()
        seed = mutate_seed(ctx33, bundle, k)
        assert seed.beta == bundle.beta
        assert calls == {"check_compatible": 1, "_btr": 1, "mutate_r": 1, "mutate_matrix": 1}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_chain_exchange_matrix_has_full_rank(name):
    ctx = _context(name)
    for bundle in gamma_bundles(ctx):
        btilde = bundle.btilde
        assert linalg.rank(btilde.as_rows()) == len(btilde.ex)


def test_equal_exchange_columns_fail_compatibility(ctx33):
    bundle = seed_for_tau(ctx33, tuple(range(ctx33.p.n)))
    l1, l2 = bundle.btilde.ex[:2]
    cols = dict(bundle.btilde.cols)
    cols[l2] = cols[l1]
    twin = BMatrix(n=bundle.btilde.n, ex=bundle.btilde.ex, cols=cols)
    assert linalg.rank(twin.as_rows()) < len(twin.ex)
    with pytest.raises(CompatibilityFailure):
        check_seed_invariants(bundle.vars_x, bundle.r, twin, ctx33.d_map, ctx33.eta)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_stored_weights_are_the_primes_weights(name):
    ctx = _context(name)
    for bundle in gamma_bundles(ctx):
        for (i, m), y, w in zip(bundle.intervals, bundle.vars_x, bundle.weights):
            assert w == weight_of(ctx.p, y)
            assert w == ctx.p.monomial_weight(interval_exponent(ctx.eta, i, m))


# ------------------------------------- links on keys against the polynomial check


def _oracle_links(ctx, bundles):
    return [verify_one_step_polynomial(ctx, a, b) for a, b in zip(bundles, bundles[1:])]


@pytest.mark.parametrize("name", sorted(WALK_BUILDS))
def test_links_on_keys_equal_the_polynomial_oracle(name):
    ctx = _context(name)
    reports = chain_verify(ctx)
    assert all(rep.verified for rep in reports)
    assert _oracle_links(ctx, gamma_bundles(ctx)) == reports
    assert _oracle_links(ctx, [seed_for_tau(ctx, tau) for tau in gamma_chain(ctx.p.n)]) == reports


def _outcome(check, ctx, a, b):
    try:
        return check(ctx, a, b)
    except ClusterError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_corrupted_sigma_fails_like_the_polynomial_oracle(name):
    # sigma[k] of both ends set to every slot: a wrong k_bullet fails the
    # link, a frozen one raises, and both checks say the same
    ctx = _context(name)
    bundles = gamma_bundles(ctx)
    n = ctx.p.n
    seen = set()
    for a, b in zip(bundles, bundles[1:]):
        k = next(i for i in range(n) if a.tau[i] != b.tau[i])
        if ctx.eta.eta[a.tau[k]] != ctx.eta.eta[a.tau[k + 1]]:
            continue
        for j in range(n):
            bad_a, bad_b = (x._replace(sigma=x.sigma[:k] + (j,) + x.sigma[k + 1:]) for x in (a, b))
            got = _outcome(verify_one_step, ctx, bad_a, bad_b)
            assert got == _outcome(verify_one_step_polynomial, ctx, bad_a, bad_b)
            seen.add(got.verified if isinstance(got, LinkReport) else got[0].__name__)
    assert seen == {True, False, "NotExchangeable"}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_equal_link_to_another_cluster_fails_like_the_polynomial_oracle(name):
    # the far end of each equal link given the variables of another key,
    # with its own r and B
    ctx = _context(name)
    bundles = gamma_bundles(ctx)
    other = bundles[-1]
    checked = 0
    for a, b in zip(bundles, bundles[1:]):
        moved = b._replace(vars_x=other.vars_x, intervals=other.intervals)
        got = verify_one_step(ctx, a, moved)
        if got.branch == "equal" and a.intervals != other.intervals:
            assert got == verify_one_step_polynomial(ctx, a, moved)
            assert (got.verified, got.detail) == (False, "bundles differ despite distinct eta classes")
            checked += 1
    assert checked


@pytest.mark.parametrize("name", sorted(WALK_BUILDS))
def test_links_do_no_polynomial_arithmetic(name, monkeypatch):
    ctx = _context(name)
    bundles = gamma_bundles(ctx)
    want = chain_verify(ctx)

    def refuse(*args):
        raise AssertionError("polynomial arithmetic in a link check")

    for op in ("__mul__", "__rmul__", "__pow__", "__add__", "__radd__", "__sub__", "__eq__"):
        monkeypatch.setattr(MvLaurent, op, refuse)
    reports = [verify_one_step(ctx, a, b) for a, b in zip(bundles, bundles[1:])]
    assert all(rep.verified for rep in reports)
    assert reports == want


@pytest.mark.parametrize("name", sorted(WALK_BUILDS))
def test_walk_bundles_pass_the_full_seed_checks(name):
    # the rank and d-skew verdicts derived keys no longer compute: every
    # bundle passes check_seed_invariants, which returns its own beta
    ctx = _context(name)
    if name == "two_block":
        assert len(set(ctx.d_map.values())) == 2
    for bundle in gamma_bundles(ctx):
        assert check_seed_invariants(bundle.vars_x, bundle.r, bundle.btilde, ctx.d_map,
                                     ctx.eta) == bundle.beta


# ------------------------- compatibility on numerators against the lcm oracle


def _compatibility(check, r, b):
    try:
        return check(r, b)
    except CompatibilityFailure as exc:
        return exc.pair, exc.value, str(exc)


@pytest.mark.parametrize("name", sorted(WALK_BUILDS))
def test_compatibility_on_numerators_equals_the_lcm_oracle(name):
    """check_compatible on r's numerators over lam_den against the lcm form on
    r's Fractions, on the first bundle of every seed key: the same beta, and,
    with one numerator added to an off-diagonal entry r_ij that meets a
    nonzero b_il (j != l), the same CompatibilityFailure."""
    ctx = _context(name)
    first = {}
    for bundle in gamma_bundles(ctx):
        first.setdefault(tuple(bundle.intervals), bundle)
    failed = 0
    for bundle in first.values():
        r, b = bundle.r, bundle.btilde
        assert r[1] == ctx.p.lam_den
        assert check_compatible(r, b) == check_compatible_lcm(as_fractions(r), b) == bundle.beta
        if not b.ex or b.n < 3:
            continue
        l = b.ex[0]
        i = next(i for i, c in enumerate(b.column(l)) if c)
        j = next(j for j in range(b.n) if j not in (i, l))
        nums = [list(row) for row in r[0]]
        nums[i][j] += 1
        bad = (nums, r[1])
        got = _compatibility(check_compatible, bad, b)
        assert isinstance(got, tuple)
        assert got == _compatibility(check_compatible_lcm, as_fractions(bad), b)
        failed += 1
    assert failed == (len(first) if ctx.eta.exchangeable and ctx.p.n >= 3 else 0)
