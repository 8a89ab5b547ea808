"""Each Gamma_N quantity is computed once, where it is defined.

The walk along Gamma_N starts from the prime sequence and builds and weighs
one interval prime per slot whose label changes; gamma_bundles runs r, the
solve and the seed checks once per run of equal seed keys, and its bundles
equal seed_for_tau's, which builds each permutation's bundle on its own.
chain_verify checks each link on the bundles of its two ends.  The
full-rank check that check_seed_invariants no longer makes is kept here as a
test of every bundle along the chain.  One seed mutation certifies the
mutated pair's compatibility once.
"""

import pytest

from pcgl import cli, cluster, linalg
from pcgl.cluster import (
    BMatrix,
    ClusterContext,
    CompatibilityFailure,
    LinkFailure,
    chain_verify,
    check_seed_invariants,
    gamma_bundles,
    mutate_seed,
    seed_for_tau,
    verify_one_step,
)
from pcgl.presentation import weight_of
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import gamma_chain, interval_exponent

from conftest import rescaled_3x3, rescaled_4x5, two_block

BUILDS = {
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "rescaled_3x3": rescaled_3x3,
    "3x4": lambda: build_matrix_poisson(3, 4),
    "two_block": two_block,
}
# the walk's bundles are compared with seed_for_tau's on these and on BUILDS
WALK_BUILDS = dict(BUILDS, **{
    "4x4": lambda: build_matrix_poisson(4, 4),
    "rescaled_4x5": rescaled_4x5,
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
    for name in ("seed_for_tau", "r_matrix_for_tau", "weight_of", "interval_prime", "tau_data"):
        count(cluster, name)
    count(linalg, "rank")
    reports = chain_verify(ctx)
    assert len(reports) == 66 and all(rep.verified for rep in reports)
    # 67 permutations, 9 seed keys, 8 changes of key of one slot each; the
    # identity's 12 variables are the prime sequence
    assert calls == {"tau_data": 67, "r_matrix_for_tau": 9, "rank": 9, "weight_of": 8,
                     "interval_prime": 8}


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
