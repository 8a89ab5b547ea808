"""Each Gamma_N quantity is computed once, where it is defined.

chain_verify builds one bundle per permutation; r, the variables, the
solve and the seed checks run once per seed key; and each interval prime is
built and weighed once per label.  The full-rank check that
check_seed_invariants no longer makes is kept here as a test of every
bundle along the chain.  One seed mutation certifies the mutated pair's
compatibility once.
"""

import pytest

from pcgl import cluster, linalg
from pcgl.cluster import (
    BMatrix,
    ClusterContext,
    CompatibilityFailure,
    chain_verify,
    check_seed_invariants,
    mutate_seed,
    seed_for_tau,
)
from pcgl.presentation import weight_of
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import interval_exponent

from conftest import rescaled_3x3, two_block

BUILDS = {
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "rescaled_3x3": rescaled_3x3,
    "3x4": lambda: build_matrix_poisson(3, 4),
    "two_block": two_block,
}


def _context(name):
    return ClusterContext.build_normalizing(BUILDS[name]())[0]


def test_chain_verify_computes_each_quantity_once(monkeypatch):
    ctx = _context("3x4")
    calls = {}

    def count(owner, name):
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("seed_for_tau", "r_matrix_for_tau", "weight_of"):
        count(cluster, name)
    count(linalg, "rank")
    reports = chain_verify(ctx)
    assert len(reports) == 66 and all(rep.verified for rep in reports)
    # 67 permutations, 9 seed keys, 20 interval labels
    assert calls == {"seed_for_tau": 67, "r_matrix_for_tau": 9, "rank": 9, "weight_of": 20}
    assert len(ctx._seeds) == 9
    assert len(ctx._primes) == 20


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
    for tau in ctx.gamma().perms:
        btilde = seed_for_tau(ctx, tau).btilde
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
    chain_verify(ctx)
    assert ctx._primes
    for (i, m), (y, w) in ctx._primes.items():
        assert w == weight_of(ctx.p, y)
        assert w == ctx.p.monomial_weight(interval_exponent(ctx.eta, i, m))
