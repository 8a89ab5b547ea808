"""Symmetry validation, permutation combinatorics, interval primes, rescaling."""

import json
import random
from fractions import Fraction
from functools import partial
from itertools import permutations

import pytest

from pcgl import cluster, symmetric
from pcgl.cgl import EtaData, compute_eta_and_primes
from pcgl.cluster import ClusterContext, chain_verify
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation, SupportViolation
from pcgl.presets import build_affine_space, build_matrix_poisson
from pcgl.serialize import presentation_from_doc
from pcgl.symmetric import (
    Incompatible,
    LeadingFormViolation,
    SymmetryError,
    apply_rescaling,
    compute_d_integers,
    gamma_chain,
    interval_exponent,
    interval_prime,
    is_xi_element,
    rescale_generators,
    tau_data,
    u_leading_term,
    validate_symmetric,
)

from algebra_oracles import fraction_terms, solid_minor, u_element_and_pi
from conftest import benchmark_input, rescaled_3x3, rescaled_4x5, two_block, weyl_block
from tau_oracles import (
    as_fractions,
    enumerate_xi,
    perm_compose,
    perm_inverse,
    permute_presentation,
    tau_bullet_read,
    y_sequence_for_tau,
)


class TestValidateSymmetric:
    def test_matrix_preset_with_h_star(self, p23):
        report, ps, _ = validate_symmetric(p23)
        assert report.passed
        assert all(ps.lam_star[j] == 2 for j in range(6))

    def test_solved_h_star(self, p23):
        bare = PoissonPresentation(n=6, torus_rank=5, weights=p23.weights, h=p23.h,
                                   delta=dict(p23.delta), h_star=None)
        report, ps, _ = validate_symmetric(bare)
        assert report.passed
        assert ps.h_star is not None
        # solved family satisfies the reversal constraints exactly
        check, _, _ = validate_symmetric(ps)
        assert check.passed
        eta, _ = compute_eta_and_primes(ps)
        for l in eta.exchangeable:
            assert ps.lam_star[l] == -ps.lam_diag(eta.succ[l])

    def test_affine_passes(self):
        p = build_affine_space(3, [[0, 5, -1], [-5, 0, 2], [1, -2, 0]])
        report, _, _ = validate_symmetric(p)
        assert report.passed

    def test_support_violation(self, p22):
        delta = dict(p22.delta)
        delta[(3, 0)] = MvLaurent.monomial(4, (1, 1, 0, 0), Fraction(1))  # touches x_1
        bad = PoissonPresentation(n=4, torus_rank=4, weights=p22.weights, h=p22.h,
                                  delta=delta, h_star=p22.h_star)
        report, _, _ = validate_symmetric(bad)
        assert not report.passed
        assert any(isinstance(f, SupportViolation) for f in report.failures)


class TestDIntegers:
    def test_matrix_all_ones(self, p23):
        _, ps, _ = validate_symmetric(p23)
        eta, _ = compute_eta_and_primes(ps)
        d, q = compute_d_integers(ps, eta)
        assert set(d.values()) == {1}
        assert q == 2

    def test_two_classes(self):
        p = two_block(2, 3)
        report, ps, _ = validate_symmetric(p)
        assert report.passed
        eta, _ = compute_eta_and_primes(ps)
        d, q = compute_d_integers(ps, eta)
        assert q == 1
        assert sorted(d.values()) == [2, 3]

    def test_opposite_signs_incompatible(self):
        p = two_block(2, -2)
        report, ps, _ = validate_symmetric(p)
        assert report.passed
        eta, _ = compute_eta_and_primes(ps)
        with pytest.raises(Incompatible):
            compute_d_integers(ps, eta)


class TestXiEnumeration:
    def test_n3_explicit(self):
        got = sorted(tuple(v + 1 for v in t) for t in enumerate_xi(3))
        assert got == [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]

    def test_counts_and_brute_force(self):
        for n in range(1, 7):
            xi = enumerate_xi(n)
            assert len(xi) == 2 ** (n - 1)
            brute = {t for t in permutations(range(n)) if is_xi_element(t)}
            assert set(xi) == brute

    def test_n1(self):
        assert enumerate_xi(1) == [(0,)]

    def test_gamma_chain_n4(self):
        chain = gamma_chain(4)
        got = [tuple(v + 1 for v in t) for t in chain]
        assert got == [(1, 2, 3, 4), (2, 1, 3, 4), (2, 3, 1, 4), (2, 3, 4, 1),
                       (3, 2, 4, 1), (3, 4, 2, 1), (4, 3, 2, 1)]

    def test_gamma_chain_lengths(self):
        for n in range(2, 13):
            chain = gamma_chain(n)
            assert len(chain) == n * (n - 1) // 2 + 1
            assert all(is_xi_element(t) for t in chain)
            # adjacency by one transposition of neighboring positions
            for tau, tau_next in zip(chain, chain[1:]):
                k = next(i for i in range(n) if tau[i] != tau_next[i])
                assert tau_next == tau[:k] + (tau[k + 1], tau[k]) + tau[k + 2:]

    def test_gamma_chain_annotation(self, ctx22):
        # a link mutates exactly when the swapped values share an eta class
        branches = [rep.branch for rep in chain_verify(ctx22)]
        assert branches == ["equal", "equal", "mutation", "equal", "equal", "equal"]


class TestTauBullet:
    def test_identity_case(self, ctx22):
        assert tau_bullet_read((1, 2, 0, 3), ctx22.eta) == (0, 1, 2, 3)

    def test_reordering_case(self, ctx22):
        tb = tau_bullet_read((1, 2, 3, 0), ctx22.eta)
        comp = perm_compose(tb, (1, 2, 3, 0))
        assert comp == (1, 2, 0, 3)

    def test_injective_eta_trivial(self):
        p = build_affine_space(4, [[0, 1, 1, 1], [-1, 0, 1, 1], [-1, -1, 0, 1], [-1, -1, -1, 0]])
        eta, _ = compute_eta_and_primes(p)
        for tau in enumerate_xi(4):
            assert tau_bullet_read(tau, eta) == (0, 1, 2, 3)

    def test_level_set_preserving_and_increasing(self, ctx33):
        eta = ctx33.eta
        for tau in gamma_chain(9):
            tb = tau_bullet_read(tau, eta)
            comp = perm_compose(tb, tau)
            for v in range(9):
                assert eta.eta[tb[v]] == eta.eta[v]
            # comp restricted to tau^-1(L) is increasing onto L
            for lbl in set(eta.eta):
                level = [v for v in range(9) if eta.eta[v] == lbl]
                pos = sorted(perm_inverse(tau)[v] for v in level)
                assert [comp[p] for p in pos] == sorted(level)


class TestIntervalPrimes:
    def test_2x2_determinant(self, p22, ctx22):
        assert interval_prime(p22, ctx22.eta, 0, 1) == solid_minor(2, 2, (1, 2), (1, 2))

    def test_base_case(self, p22, ctx22):
        assert interval_prime(p22, ctx22.eta, 1, 0) == MvLaurent.gen(4, 1)

    def test_3x3_full_determinant(self, p33, ctx33):
        det = interval_prime(p33, ctx33.eta, 0, 2)
        assert det == solid_minor(3, 3, (1, 3), (1, 3))
        assert len(det.terms) == 6

    def test_all_solid_minors_3x3(self, p33, ctx33):
        # Every interval prime is the corresponding solid minor
        eta = ctx33.eta
        for i in range(9):
            m = 0
            cur = i
            while eta.succ[cur] is not None:
                m += 1
                cur = eta.succ[cur]
                r, c = i // 3 + 1, i % 3 + 1
                assert interval_prime(p33, eta, i, m) == solid_minor(
                    3, 3, (r, r + m), (c, c + m))

    def test_index_error(self, p22, ctx22):
        with pytest.raises(IndexError):
            interval_prime(p22, ctx22.eta, 1, 1)

    def test_interval_prime_record(self, p22, ctx22):
        poly = interval_prime(p22, ctx22.eta, 0, 1)
        exponent = interval_exponent(ctx22.eta, 0, 1)
        assert poly == solid_minor(2, 2, (1, 2), (1, 2))
        assert exponent == (1, 0, 0, 1)
        assert poly.leading_term() == (1, exponent)


class TestYSequenceForTau:
    def test_2x2_examples(self, p22, ctx22):
        det = solid_minor(2, 2, (1, 2), (1, 2))
        xs = [MvLaurent.gen(4, i) for i in range(4)]
        assert y_sequence_for_tau(p22, ctx22.eta, (1, 2, 3, 0)) == [xs[1], xs[2], xs[3], det]
        assert y_sequence_for_tau(p22, ctx22.eta, (1, 2, 0, 3)) == [xs[1], xs[2], xs[0], det]
        assert y_sequence_for_tau(p22, ctx22.eta, (0, 1, 2, 3)) == ctx22.seq.y

    def _roundtrip(self, ps, tau):
        """Oracle: run the recursion on the permuted presentation, map back."""
        n = ps.n
        pp = permute_presentation(ps, tau)
        _, seq_t = compute_eta_and_primes(pp)
        out = []
        for f in seq_t.y:
            moved = {}
            for e, c in fraction_terms(f).items():
                ne = [0] * n
                for idx, mm in enumerate(e):
                    ne[tau[idx]] = mm
                moved[tuple(ne)] = c
            out.append(MvLaurent(n, moved))
        return out

    def test_all_xi_2x2(self, ctx22):
        for tau in enumerate_xi(4):
            assert y_sequence_for_tau(ctx22.p, ctx22.eta, tau) == self._roundtrip(ctx22.p, tau)

    def test_all_xi_2x3(self, ctx23):
        for tau in enumerate_xi(6):
            assert y_sequence_for_tau(ctx23.p, ctx23.eta, tau) == self._roundtrip(ctx23.p, tau)

    def test_non_xi_rejected(self, p22, ctx22):
        with pytest.raises(SymmetryError):
            tau_data(ctx22.eta, (1, 3, 0, 2))
        with pytest.raises(SymmetryError):
            y_sequence_for_tau(p22, ctx22.eta, (1, 3, 0, 2))

    def test_weyl_and_blocks(self):
        for p in (weyl_block(), two_block()):
            _, ps, _ = validate_symmetric(p)
            eta, _ = compute_eta_and_primes(ps)
            for tau in enumerate_xi(ps.n):
                assert y_sequence_for_tau(ps, eta, tau) == self._roundtrip(ps, tau)


class TestUElements:
    def test_2x2(self, p22, ctx22):
        ud = u_element_and_pi(p22, ctx22.eta, 0, 1)
        assert ud.u == MvLaurent.monomial(4, (0, 1, 1, 0))
        assert ud.pi == 1
        assert ud.f == (0, 1, 1, 0)
        assert ud.g == (0, 1, 1, 0)

    def test_3x3_inner(self, p33, ctx33):
        ud = u_element_and_pi(p33, ctx33.eta, 0, 1)
        # u_[i,s(i)] = t_{r,c+1} t_{r+1,c} = x2 x4
        want = [0] * 9
        want[1] = 1
        want[3] = 1
        assert ud.u == MvLaurent.monomial(9, want)
        assert ud.pi == 1

    def test_3x3_long_interval(self, p33, ctx33):
        # u_[1, s^2(1)] = Delta_{12,23} Delta_{23,12}
        ud = u_element_and_pi(p33, ctx33.eta, 0, 2)
        want = solid_minor(3, 3, (1, 2), (2, 3)) * solid_minor(3, 3, (2, 3), (1, 2))
        assert ud.u == want
        assert ud.pi == 1
        # f decomposes over the two class-final indices of the open interval
        assert ud.g == tuple(1 if i in (5, 7) else 0 for i in range(9))

    def test_rescaled_pi(self, p22):
        _, ps, _ = validate_symmetric(p22)
        scaled = apply_rescaling(ps, [Fraction(1), Fraction(1, 3), Fraction(1), Fraction(1)])
        eta, _ = compute_eta_and_primes(scaled)
        assert u_element_and_pi(scaled, eta, 0, 1).pi == 3

    def test_pi_f_cocycle_3x3(self, p33, ctx33):
        rng = random.Random(41)
        eta = ctx33.eta
        for trial in range(30):
            gamma = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(9)]
            q = apply_rescaling(ctx33.p, gamma)
            eta_q, _ = compute_eta_and_primes(q)
            # central chain {1,5,9}, i = 0, m = 1:
            # pi_[s(i),s(i)] pi_[i,s^2(i)] = pi_[i,s(i)] pi_[s(i),s^2(i)]
            u_ss = u_element_and_pi(q, eta_q, 4, 0)
            u_02 = u_element_and_pi(q, eta_q, 0, 2)
            u_01 = u_element_and_pi(q, eta_q, 0, 1)
            u_41 = u_element_and_pi(q, eta_q, 4, 1)
            assert u_ss.pi * u_02.pi == u_01.pi * u_41.pi
            lhs_f = tuple(a + b for a, b in zip(u_ss.f, u_02.f))
            rhs_f = tuple(a + b for a, b in zip(u_01.f, u_41.f))
            assert lhs_f == rhs_f


def _forged_eta(succ) -> EtaData:
    """EtaData with the given successors; classes and predecessors follow."""
    n = len(succ)
    pred = [None] * n
    for k, s_k in enumerate(succ):
        if s_k is not None:
            pred[s_k] = k
    eta = list(range(n))
    for k in range(n):
        if pred[k] is not None:
            eta[k] = eta[pred[k]]
    return EtaData(eta=eta, pred=pred, succ=list(succ),
                   exchangeable=[k for k in range(n) if succ[k] is not None], rank=len(set(eta)))


def _forged(n, delta) -> PoissonPresentation:
    """n generators of weight 1 with every lambda_k = 1 and the given table."""
    return PoissonPresentation(n=n, torus_rank=1, weights=((1,),) * n, h=((Fraction(1),),) * n,
                               delta={key: MvLaurent.from_terms(n, terms) for key, terms in delta.items()})


def _benchmark_presentation(workload, seed, tmp) -> PoissonPresentation:
    return presentation_from_doc(json.loads(benchmark_input(workload, seed, tmp).read_text()))[0]


PI_INPUTS = {
    "2x3": lambda tmp: build_matrix_poisson(2, 3),
    "3x3": lambda tmp: build_matrix_poisson(3, 3),
    "3x4": lambda tmp: build_matrix_poisson(3, 4),
    "4x4": lambda tmp: build_matrix_poisson(4, 4),
    "4x5": lambda tmp: build_matrix_poisson(4, 5),
    "rescaled_3x3": lambda tmp: rescaled_3x3(),
    "rescaled_4x5": lambda tmp: rescaled_4x5(),
    "two_block": lambda tmp: two_block(),
    "weyl_block": lambda tmp: weyl_block(),
    **{f"{workload}{seed}": partial(_benchmark_presentation, workload, seed)
       for workload in ("chain", "analyze") for seed in (1, 2, 3)},
}


class TestULeadingTerm:
    """u_leading_term reads (pi, f) of u_[i, s(i)] = lambda_s^-1 delta_s(x_i)
    off the table; the oracle builds u from three interval primes."""

    @pytest.mark.parametrize("name", sorted(PI_INPUTS))
    def test_equals_the_oracle(self, name, tmp_path):
        p = PI_INPUTS[name](tmp_path)
        eta, _ = compute_eta_and_primes(p)
        checked = 0
        for i, s_i in enumerate(eta.succ):
            if s_i is None:
                continue
            ud = u_element_and_pi(p, eta, i, 1)
            assert p.delta_entry(s_i, i) * (1 / p.lam_diag(s_i)) == ud.u
            assert u_leading_term(p, eta, i) == (ud.pi, ud.f)
            checked += 1
        assert checked == len(eta.exchangeable) > 0

    @pytest.mark.parametrize("n,succ,delta,message", [
        (2, [1, None], {}, "u_[1, s^1] vanishes"),
        (2, [1, None], {(1, 0): [((2, 0), 1)]},
         "leading exponent of u_[1, s^1] touches the class of 1"),
        (4, [3, 2, None, None], {(3, 0): [((0, 1, 0, 0), 1)]},
         "f of u_[1, s^1] is not a combination of interval ebar-vectors"),
        (4, [3, 2, None, None], {(3, 0): [((0, 0, 1, 0), 1)]},
         "f of u_[1, s^1] is not a combination of interval ebar-vectors"),
    ], ids=["vanishes", "touches_class", "not_class_final", "ebar_chain_cut_short"])
    def test_violations_match_the_oracle(self, n, succ, delta, message):
        p, eta = _forged(n, delta), _forged_eta(succ)
        with pytest.raises(LeadingFormViolation) as new:
            u_leading_term(p, eta, 0)
        with pytest.raises(LeadingFormViolation) as old:
            u_element_and_pi(p, eta, 0, 1)
        assert str(new.value) == str(old.value) == message

    @pytest.mark.parametrize("name", ["chain1", "4x4", "rescaled_3x3"])
    def test_context_build_builds_no_interval_prime(self, name, tmp_path, monkeypatch):
        p = PI_INPUTS[name](tmp_path)
        built = []

        def spy(*args):
            built.append(args[2:])
            return interval_prime(*args)

        monkeypatch.setattr(symmetric, "interval_prime", spy)
        monkeypatch.setattr(cluster, "interval_prime", spy)
        ClusterContext.build(p)
        assert built == []


class TestRescaling:
    def test_matrix_presets_trivial(self, p22, p23):
        for p in (p22, p23):
            _, ps, _ = validate_symmetric(p)
            eta, _ = compute_eta_and_primes(ps)
            gamma, _ = rescale_generators(ps, eta)
            assert all(g == 1 for g in gamma)

    def test_prescaled_2x2(self, p22):
        _, ps, _ = validate_symmetric(p22)
        scaled = apply_rescaling(ps, [Fraction(1), Fraction(1, 3), Fraction(1), Fraction(1)])
        eta, _ = compute_eta_and_primes(scaled)
        gamma, fixed = rescale_generators(scaled, eta)
        assert gamma == [1, 1, 1, Fraction(1, 3)]
        eta2, _ = compute_eta_and_primes(fixed)
        assert u_element_and_pi(fixed, eta2, 0, 1).pi == 1

    def test_affine_trivial(self):
        p = build_affine_space(3, [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
        eta, _ = compute_eta_and_primes(p)
        gamma, _ = rescale_generators(p, eta)
        assert all(g == 1 for g in gamma)

    def test_weyl_nontrivial(self):
        p = weyl_block(2)
        eta, _ = compute_eta_and_primes(p)
        assert u_element_and_pi(p, eta, 0, 1).pi == Fraction(-1, 2)
        gamma, fixed = rescale_generators(p, eta)
        eta2, _ = compute_eta_and_primes(fixed)
        assert u_element_and_pi(fixed, eta2, 0, 1).pi == 1

    def test_random_rescale_then_fix(self, p23):
        rng = random.Random(13)
        _, ps, _ = validate_symmetric(p23)
        for _ in range(10):
            gamma = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(6)]
            scaled = apply_rescaling(ps, gamma)
            eta, _ = compute_eta_and_primes(scaled)
            fix, fixed = rescale_generators(scaled, eta)
            eta2, _ = compute_eta_and_primes(fixed)
            for i in range(6):
                if eta2.succ[i] is not None:
                    assert u_element_and_pi(fixed, eta2, i, 1).pi == 1


class TestIntervalBrackets:
    def test_nested_interval_law(self, p33, ctx33):
        # {y_[i,s^m(i)], y_[j,s^n(j)]} = Omega_lambda(e-int, e-int) * product
        from pcgl.presentation import bracket
        from pcgl.symmetric import interval_exponent
        eta = ctx33.eta
        chain = [0, 4, 8]  # the central eta class of O(M_33)
        pairs = [((0, 2), (4, 1)), ((0, 2), (4, 0)), ((0, 1), (4, 0)), ((0, 2), (0, 1))]
        for (i, m), (j, nn) in pairs:
            yi = interval_prime(p33, eta, i, m)
            yj = interval_prime(p33, eta, j, nn)
            om = as_fractions(p33.omega_lambda_matrix([interval_exponent(eta, i, m)],
                                                      [interval_exponent(eta, j, nn)]))[0][0]
            assert bracket(p33, yi, yj) == yj * yi * om

    def test_interval_normality_in_window(self, p33, ctx33):
        # {y_[i,s^m(i)], x_k} = Omega(e-int, e_k) x_k y for p(i) < k < s^(m+1)(i)
        from pcgl.presentation import bracket
        from pcgl.symmetric import interval_exponent
        eta = ctx33.eta
        i, m = 4, 0   # y_[5,5] = t22, window p(5)=1 < k < s(5)... wait indices 0-based
        for (i, m) in [(0, 1), (4, 0), (1, 1)]:
            y = interval_prime(p33, eta, i, m)
            e_int = interval_exponent(eta, i, m)
            low = eta.pred[i] if eta.pred[i] is not None else -1
            hi_idx = eta.succ_power(i, m + 1)
            hi = hi_idx if hi_idx is not None else 9
            for k in range(low + 1, hi):
                xk = MvLaurent.gen(9, k)
                unit = tuple(1 if t == k else 0 for t in range(9))
                om = as_fractions(p33.omega_lambda_matrix([e_int], [unit]))[0][0]
                assert bracket(p33, y, xk) == xk * y * om

    def test_lambda_chain_consistency(self, p33):
        # lambda* constant on level sets, equal to -lambda_{s(l)}
        _, ps, _ = validate_symmetric(p33)
        eta, _ = compute_eta_and_primes(ps)
        for lbl in set(eta.eta):
            level = sorted(v for v in range(9) if eta.eta[v] == lbl)
            if len(level) < 2:
                continue
            stars = {ps.lam_star[v] for v in level[:-1]}
            lams = {-ps.lam_diag(v) for v in level[1:]}
            assert len(stars | lams) == 1
