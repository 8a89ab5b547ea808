"""One seed per seed key, against the per-permutation construction it replaced.

gamma_bundles builds r, solves and checks one bundle per seed key and hands
it out with each permutation's own tau and sigma.  The oracle below is the
old path: every permutation built on its own, with r_tau from Omega_lambda
on every pair of the tau-presentation's ebar vectors, and every link checked
on its variables with the exchange identity multiplied out.
"""

import pytest

from pcgl import cluster
from pcgl.cluster import (
    ClusterContext,
    TauSeedBundle,
    chain_verify,
    check_seed_invariants,
    gamma_bundles,
    mutate_seed,
    solve_btilde,
)
from pcgl.presentation import weight_of
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import gamma_chain, interval_prime

from conftest import rescaled_3x3
from tau_oracles import (
    eta_tau_data,
    perm_compose,
    perm_inverse,
    seed_key,
    tau_bullet,
    verify_one_step_polynomial,
)


def _r_matrix_for_tau_omega(p, eta, tau):
    """r_matrix_for_tau as it was: Omega_lambda on every pair of ebar vectors."""
    n = p.n
    etau = eta_tau_data(eta, tau)
    tau_inv = perm_inverse(tau)
    vecs = [[e[l] for l in tau_inv] for e in map(etau.ebar, range(n))]
    q_tau, den = p.omega_lambda_matrix(vecs, vecs)
    sig_inv = perm_inverse(perm_compose(tau_bullet(tau, eta), tau))
    return [[q_tau[sig_inv[a]][sig_inv[b]] for b in range(n)] for a in range(n)], den


def _seed_for_tau_per_tau(ctx, tau):
    """seed_for_tau as it was: every permutation built, solved and checked alone."""
    tau = tuple(tau)
    p, eta = ctx.p, ctx.eta
    sigma, key = seed_key(eta, tau)
    vars_x = [interval_prime(p, eta, i, m) for (i, m) in key]
    weights = [weight_of(p, v) for v in vars_x]
    r = _r_matrix_for_tau_omega(p, eta, tau)
    btilde = solve_btilde(ctx, r, weights)
    check_seed_invariants(vars_x, r, btilde, ctx.d_map, eta)
    # beta as solve_btilde returned it: the lambda*_l it solved for
    beta = {l: p.lam_star[l] for l in eta.exchangeable}
    return TauSeedBundle(tau=tau, sigma=sigma, vars_x=vars_x, intervals=list(key),
                         weights=weights, r=r, btilde=btilde, beta=beta)


def _fresh_context(name):
    if name == "rescaled_3x3":
        return ClusterContext.build(rescaled_3x3())
    m, n = map(int, name.split("x"))
    return ClusterContext.build(build_matrix_poisson(m, n))


# distinct seed keys along Gamma_N, out of N(N-1)/2 + 1 permutations
DISTINCT = {"2x3": 3, "3x3": 6, "rescaled_3x3": 6, "3x4": 9}


def _links(ctx, bundles):
    return [verify_one_step_polynomial(ctx, a, b) for a, b in zip(bundles, bundles[1:])]


def _oracle_reports(ctx):
    return _links(ctx, [_seed_for_tau_per_tau(ctx, tau) for tau in gamma_chain(ctx.p.n)])


def _assert_matches_oracle(ctx, bundles, want_reports):
    for bundle in bundles:
        assert bundle == _seed_for_tau_per_tau(ctx, bundle.tau)
    assert _links(ctx, bundles) == want_reports


@pytest.mark.parametrize("name", sorted(DISTINCT))
def test_bundles_and_links_equal_the_per_tau_oracle(name):
    ctx = _fresh_context(name)
    want = _oracle_reports(_fresh_context(name))
    assert all(rep.verified for rep in want)
    assert chain_verify(ctx) == want
    bundles = gamma_bundles(ctx)
    assert [bundle.tau for bundle in bundles] == gamma_chain(ctx.p.n)
    _assert_matches_oracle(ctx, bundles, want)
    first_of_key = {}
    for bundle in bundles:
        first = first_of_key.setdefault(seed_key(ctx.eta, bundle.tau)[1], bundle)
        assert bundle.vars_x is first.vars_x
    assert len(first_of_key) == DISTINCT[name]
    # bundles of one key share their lists; mutating every seed in every
    # exchangeable direction must leave every bundle and link unchanged
    for bundle in first_of_key.values():
        for k in bundle.btilde.ex:
            mutate_seed(ctx, bundle, k)
    _assert_matches_oracle(ctx, bundles, want)


# ------------------------------------------------- a key's r is checked on its links


def _stealth_perturbation(bundle, c=1):
    """c (u v^T - v u^T) for two rows u, v of the variables' weight matrix.

    Every exchange-matrix column b has zero weight, so u.b = v.b = 0: adding
    this to r leaves the solved exchange matrix, beta and every seed check
    unchanged.  Only the mutation links' comparison of r sees it.
    """
    u = [w[0] for w in bundle.weights]
    v = [w[1] for w in bundle.weights]
    e = [[c * (u[i] * v[j] - v[i] * u[j]) for j in range(len(u))] for i in range(len(u))]
    assert any(any(row) for row in e)
    return e


@pytest.mark.parametrize("branch, detail", [("mutation", "r' != mu_k(r)")])
def test_perturbed_r_tau_fails_its_links(monkeypatch, branch, detail):
    """chain_verify on a fresh 3x3 context whose r is perturbed for the seed
    key of one mutation link's far end: exactly the mutation links into or
    out of that key fail, each with the r comparison alone.  Links between
    two permutations of one key compare two equal, perturbed r's and pass."""
    ctx = _fresh_context("3x3")
    link = next(rep for rep in chain_verify(_fresh_context("3x3")) if rep.branch == branch)
    target = seed_key(ctx.eta, link.tau_next)[1]
    e = _stealth_perturbation(_seed_for_tau_per_tau(ctx, link.tau_next))
    r_for_tau = cluster.r_matrix_for_tau

    def perturbed(p, eta, key):
        r = r_for_tau(p, eta, key)
        if key != target:
            return r
        nums, den = r   # e is added as numerators over lam_den
        return [[x + d for x, d in zip(row, drow)] for row, drow in zip(nums, e)], den

    monkeypatch.setattr(cluster, "r_matrix_for_tau", perturbed)
    reports = chain_verify(ctx)
    touched = [rep for rep in reports if rep.branch == branch
               and target in (seed_key(ctx.eta, rep.tau)[1], seed_key(ctx.eta, rep.tau_next)[1])]
    assert link in [rep._replace(verified=True, detail="") for rep in touched]
    assert all((rep.verified, rep.detail) == (False, detail) for rep in touched)
    assert all(rep.verified for rep in reports if rep not in touched)
