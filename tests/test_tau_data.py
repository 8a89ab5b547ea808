"""tau_data, the one pass per permutation, against the derivations it replaced.

At each position of tau in Xi_N, tau_data reads sigma = tau_bullet o tau
and the seed key off the class members placed so far.  The oracles in
tau_oracles walk the p/s chains inside each prefix and sort each level set
by position.  The tau-predecessors, which only the oracles read, come from
a full EtaData of the labels eta o tau (eta_tau_data); they are checked
against the prime sequence of the permuted presentation itself.
"""

import pytest

from pcgl.cgl import compute_eta_and_primes
from pcgl.cluster import ClusterContext
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import SymmetryError, gamma_chain, tau_data

from conftest import rescaled_3x3, two_block, weyl_block
from tau_oracles import (
    enumerate_xi,
    eta_tau_data,
    interval_data_for_tau,
    permute_presentation,
    seed_key,
    tau_bullet,
    tau_bullet_read,
)

INPUTS = {
    "2x2": lambda: build_matrix_poisson(2, 2),
    "2x3": lambda: build_matrix_poisson(2, 3),
    "3x3": lambda: build_matrix_poisson(3, 3),
    "3x4": lambda: build_matrix_poisson(3, 4),
    "rescaled_3x3": rescaled_3x3,
    "weyl_block": lambda: weyl_block(2),
    "two_block": lambda: two_block(2, 3),
}


@pytest.fixture(scope="module", params=sorted(INPUTS))
def ctx(request):
    return ClusterContext.build_normalizing(INPUTS[request.param]())[0]


def test_one_pass_equals_the_oracles_on_all_of_xi(ctx):
    eta = ctx.eta
    taus = enumerate_xi(ctx.p.n)
    assert len(taus) == 2 ** (ctx.p.n - 1)
    for tau in taus:
        sigma, key = tau_data(eta, tau)
        assert (sigma, key) == seed_key(eta, tau)
        assert tau_bullet_read(tau, eta) == tau_bullet(tau, eta)
        assert [key[s] for s in sigma] == interval_data_for_tau(eta, tau)


def test_pred_is_that_of_the_permuted_presentation(ctx):
    # every tau of Xi_N up to N = 9, the Gamma_N chain above that
    n = ctx.p.n
    taus = enumerate_xi(n) if n <= 9 else gamma_chain(n)
    for tau in taus:
        eta_t, _ = compute_eta_and_primes(permute_presentation(ctx.p, tau))
        assert eta_tau_data(ctx.eta, tau).pred == eta_t.pred


@pytest.mark.parametrize("tau", [
    (0, 1, 2),             # too short
    (0, 1, 2, 3, 4),       # too long
    (0, 1, 1, 3),          # repeated value
    (1, 2, 3, 4),          # values outside 0..N-1
    (1, 3, 0, 2),          # a permutation, but not in Xi_4
    (0, 2, 1, 3),
])
def test_same_symmetry_error_as_the_oracle(ctx22, tau):
    with pytest.raises(SymmetryError) as want:
        interval_data_for_tau(ctx22.eta, tau)
    with pytest.raises(SymmetryError) as got:
        tau_data(ctx22.eta, tau)
    assert str(got.value) == str(want.value)
