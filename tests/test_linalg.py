"""Fraction-free elimination against the per-system rational Gauss-Jordan it
replaced, kept here as the oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgl import linalg
from pcgl.cluster import (
    BMatrix,
    ClusterContext,
    NoSolution,
    NonIntegral,
    NonUnique,
    SolverFailure,
    seed_for_tau,
    solve_btilde,
)
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import gamma_chain


# ------------------------------------------------------------------ the oracle


def _oracle_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def _oracle_solve(rows, rhs):
    """One right-hand side: (particular or None, nullspace basis)."""
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    aug = [a[i] + [b[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    particular = None
    if all(aug[i][ncols] == 0 for i in range(r, nrows)):
        particular = [Fraction(0)] * ncols
        for i, col in enumerate(pivots):
            particular[col] = aug[i][ncols]
    null_basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][fc]
        null_basis.append(vec)
    return particular, null_basis


# ------------------------------------------------------------- random systems


rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def systems(draw):
    """A matrix of shape up to 8x8 with 1-4 right-hand sides.

    The matrix is either dense or a product of inner dimension 0-3 (low
    rank), and may have zeroed columns (skipped pivots).  Each right-hand
    side is either the image of a random vector (consistent) or random
    (usually inconsistent when the matrix is rank-deficient).
    """
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))

    def matrix(rows, cols):
        return [[draw(rationals) for _ in range(cols)] for _ in range(rows)]

    if draw(st.booleans()):
        a = matrix(m, n)
    else:
        k = draw(st.integers(0, 3))
        left, right = matrix(m, k), matrix(k, n)
        a = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
             for i in range(m)]
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
    a = [[Fraction(0) if j in zero_cols else x for j, x in enumerate(row)] for row in a]
    rhs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            x = [draw(rationals) for _ in range(n)]
            rhs.append([sum((ai * xi for ai, xi in zip(row, x)), Fraction(0)) for row in a])
        else:
            rhs.append([draw(rationals) for _ in range(m)])
    return a, rhs


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None, database=None)
    @given(systems())
    def test_rank_and_solve_every_rhs(self, system):
        a, rhs = system
        assert linalg.rank(a) == _oracle_rank(a)
        particulars, null_basis = linalg.solve(a, rhs)
        want = [_oracle_solve(a, b) for b in rhs]
        assert particulars == [p for p, _ in want]
        for _, basis in want:
            assert null_basis == basis

    def test_consistent_and_inconsistent_rhs(self):
        a = [[1, 2], [2, 4]]                     # rank 1, second column free
        particulars, null_basis = linalg.solve(a, [[1, 2], [1, 3]])
        assert particulars == [[1, 0], None]
        assert null_basis == [[-2, 1]]

    def test_integer_and_fraction_entries(self):
        a = [[2, Fraction(1, 3)], [0, Fraction(-5, 2)]]
        particular, null_basis = _oracle_solve(a, [1, 1])
        assert linalg.solve(a, [[1, 1]]) == ([particular], null_basis)
        assert linalg.rank(a) == 2

    def test_empty_and_mismatch(self):
        assert linalg.rank([]) == 0
        with pytest.raises(ValueError):
            linalg.solve([[1, 0], [0, 1]], [[1, 2, 3]])


# ------------------------------------------------- solve_btilde failure order


def _solve_btilde_per_column(ctx, r, var_weights):
    """solve_btilde as it was: one oracle elimination per exchangeable l."""
    n, d = ctx.p.n, ctx.p.torus_rank
    rows = [[r[i][j] for i in range(n)] for j in range(n)]
    rows += [[Fraction(var_weights[k][a]) for k in range(n)] for a in range(d)]
    cols = {}
    for l in ctx.eta.exchangeable:
        lam_l = ctx.p.lam_star[l]
        rhs = [lam_l if j == l else Fraction(0) for j in range(n)] + [Fraction(0)] * d
        particular, null_basis = _oracle_solve(rows, rhs)
        if particular is None:
            raise NoSolution(l)
        if null_basis:
            raise NonUnique(l)
        if any(x.denominator != 1 for x in particular):
            raise NonIntegral(l, particular)
        cols[l] = tuple(int(x) for x in particular)
    return BMatrix.from_columns(n, cols) if cols else BMatrix(n=n, ex=(), cols={})


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except SolverFailure as exc:
        return (type(exc).__name__, exc.index, getattr(exc, "vector", None))


def _corrupt(rng, r, weights):
    """One random defect in the system of solve_btilde."""
    r = [list(row) for row in r]
    w = [list(x) for x in weights]
    kind = rng.randrange(5)
    if kind == 0:                      # rescaled variable weight
        k = rng.randrange(len(w))
        w[k] = [rng.choice((2, 3, -2)) * x for x in w[k]]
    elif kind == 1:                    # one wrong r entry
        i, j = rng.randrange(len(r)), rng.randrange(len(r))
        r[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    elif kind == 2:                    # one wrong weight coordinate
        k, a = rng.randrange(len(w)), rng.randrange(len(w[0]))
        w[k][a] += rng.choice((-1, 1))
    elif kind == 3:                    # no weight rows at all
        w = [[0] * len(x) for x in w]
    else:                              # no weights and a zero row/column of r
        i0 = rng.randrange(len(r))
        r = [[Fraction(0) if i0 in (i, j) else x for j, x in enumerate(row)]
             for i, row in enumerate(r)]
        w = [[0] * len(x) for x in w]
    return r, [tuple(x) for x in w]


class TestSolveBtildeFailures:
    def test_same_failure_for_same_direction(self):
        rng = random.Random(3)
        seen = set()
        for m, n in ((2, 3), (3, 3)):
            ctx = ClusterContext.build(build_matrix_poisson(m, n))
            for tau in gamma_chain(ctx.p.n)[::3]:
                bundle = seed_for_tau(ctx, tau)
                for _ in range(12):
                    r, w = _corrupt(rng, bundle.r, bundle.weights)
                    got = _outcome(solve_btilde, ctx, r, w)
                    assert got == _outcome(_solve_btilde_per_column, ctx, r, w)
                    seen.add(got[0] if got[0] == "ok" else (got[0], got[1] == ctx.eta.exchangeable[0]))
        # every failure class, at the first and at a later direction, and success
        assert {"ok", ("NoSolution", True), ("NoSolution", False), ("NonUnique", True),
                ("NonIntegral", True), ("NonIntegral", False)} <= seen
