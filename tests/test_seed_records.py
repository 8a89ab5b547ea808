"""One seed per seed key, against the per-permutation construction it replaced.

seed_for_tau builds, solves and checks one bundle per seed key and hands it
out with each permutation's own tau and sigma, while r_tau is still
assembled for every permutation.  The oracle below is the old path: every
permutation built on its own, with r_tau from omega_lambda on every pair of
ebar vectors.
"""

import pytest

from pcgl import cluster
from pcgl.cluster import (
    ClusterContext,
    TauSeedBundle,
    chain_verify,
    check_seed_invariants,
    eta_tau_data,
    mutate_seed,
    seed_for_tau,
    seed_key,
    solve_btilde,
)
from pcgl.presentation import weight_of
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import interval_prime, perm_compose, perm_inverse, tau_bullet

from conftest import rescaled_3x3


def _r_matrix_for_tau_omega(p, eta, tau):
    """r_matrix_for_tau as it was: omega_lambda on every pair of ebar vectors."""
    n = p.n
    etau = eta_tau_data(eta, tau)
    tau_inv = perm_inverse(tau)
    vecs = [[e[l] for l in tau_inv] for e in map(etau.ebar, range(n))]
    q_tau = [[p.omega_lambda(vecs[k], vecs[j]) for j in range(n)] for k in range(n)]
    sig_inv = perm_inverse(perm_compose(tau_bullet(tau, eta), tau))
    return [[q_tau[sig_inv[a]][sig_inv[b]] for b in range(n)] for a in range(n)]


def _seed_for_tau_per_tau(ctx, tau):
    """seed_for_tau as it was: every permutation built, solved and checked alone."""
    tau = tuple(tau)
    p, eta = ctx.p, ctx.eta
    sigma, key = seed_key(eta, tau)
    vars_x = [interval_prime(p, eta, i, m) for (i, m) in key]
    weights = [weight_of(p, v) for v in vars_x]
    r = _r_matrix_for_tau_omega(p, eta, tau)
    btilde, beta = solve_btilde(ctx, tau, r, weights)
    check_seed_invariants(vars_x, r, btilde, ctx.d_map, eta)
    return TauSeedBundle(tau=tau, sigma=sigma, vars_x=vars_x, intervals=list(key),
                         weights=weights, r=r, btilde=btilde, beta=beta)


def _fresh_context(name):
    if name == "rescaled_3x3":
        return ClusterContext.build_normalizing(rescaled_3x3())[0]
    m, n = map(int, name.split("x"))
    return ClusterContext.build(build_matrix_poisson(m, n))


# distinct seed keys along Gamma_N, out of N(N-1)/2 + 1 permutations
DISTINCT = {"2x3": 3, "3x3": 6, "rescaled_3x3": 6, "3x4": 9}


def _oracle_reports(ctx, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cluster, "seed_for_tau", _seed_for_tau_per_tau)
        return chain_verify(ctx)


def _assert_matches_oracle(ctx, want_reports):
    for tau in ctx.gamma().perms:
        assert seed_for_tau(ctx, tau) == _seed_for_tau_per_tau(ctx, tau)
    assert chain_verify(ctx) == want_reports


@pytest.mark.parametrize("name", sorted(DISTINCT))
def test_bundles_and_links_equal_the_per_tau_oracle(name, monkeypatch):
    ctx = _fresh_context(name)
    want = _oracle_reports(_fresh_context(name), monkeypatch)
    assert all(rep.verified for rep in want)
    _assert_matches_oracle(ctx, want)
    assert len(ctx._seeds) == DISTINCT[name]
    first_of_key = {}
    for tau in ctx.gamma().perms:
        first = seed_for_tau(ctx, first_of_key.setdefault(seed_key(ctx.eta, tau)[1], tau))
        assert seed_for_tau(ctx, tau).vars_x is first.vars_x
    # bundles of one key share their lists; mutating every seed in every
    # exchangeable direction must leave every bundle and link unchanged
    for tau in first_of_key.values():
        bundle = seed_for_tau(ctx, tau)
        for k in bundle.btilde.ex:
            mutate_seed(ctx, bundle, k)
    _assert_matches_oracle(ctx, want)


# ------------------------------------------------- r_tau is checked per tau


def _stealth_perturbation(bundle, c=1):
    """c (u v^T - v u^T) for two rows u, v of the variables' weight matrix.

    Every exchange-matrix column b has zero weight, so u.b = v.b = 0: adding
    this to the numerators of r leaves the solved exchange matrix, beta and
    every seed check unchanged.  Only the comparison of r itself sees it.
    """
    u = [w[0] for w in bundle.weights]
    v = [w[1] for w in bundle.weights]
    e = [[c * (u[i] * v[j] - v[i] * u[j]) for j in range(len(u))] for i in range(len(u))]
    assert any(any(row) for row in e)
    return e


def _verify_with_perturbed_r(monkeypatch, target):
    """chain_verify on a fresh 3x3 context whose r_tau assembly is perturbed
    for the permutation `target` alone."""
    ctx = _fresh_context("3x3")
    e = _stealth_perturbation(_seed_for_tau_per_tau(ctx, target))
    assemble = cluster.r_numerators_for_tau

    def perturbed(p, eta, tau, sigma):
        num = assemble(p, eta, tau, sigma)
        if tuple(tau) != target:
            return num
        return tuple(tuple(x + d for x, d in zip(row, drow)) for row, drow in zip(num, e))

    monkeypatch.setattr(cluster, "r_numerators_for_tau", perturbed)
    return chain_verify(ctx)


def _target_link(branch):
    ctx = _fresh_context("3x3")
    return next(rep for rep in chain_verify(ctx) if rep.branch == branch)


@pytest.mark.parametrize("branch, detail", [
    ("equal", "bundles differ despite distinct eta classes"),
    ("mutation", "r' != mu_k(r)"),
])
def test_perturbed_r_tau_fails_its_links(monkeypatch, branch, detail):
    link = _target_link(branch)
    target = link.tau_next
    reports = _verify_with_perturbed_r(monkeypatch, target)
    rep = next(r for r in reports if r.tau_next == target)
    assert (rep.branch, rep.verified, rep.detail) == (branch, False, detail)
    assert all(r.verified for r in reports if target not in (r.tau, r.tau_next))
