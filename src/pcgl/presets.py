"""Canonical example presentations: the matrix Poisson space and Poisson affine space.

The matrix Poisson space O(M_{m,n}) carries the standard bracket

    {t_ij, t_kj} = t_ij t_kj          (i < k)
    {t_ij, t_il} = t_ij t_il          (j < l)
    {t_ij, t_kl} = 0                  (i < k, j > l)
    {t_ij, t_kl} = 2 t_il t_kj        (i < k, j < l)

with generators ordered x_{(r-1)n+c} = t_rc and the rank-(m+n) torus acting
by (xi . t_rc) = xi_r xi_{m+c}^{-1} t_rc.  Poisson affine space has
{x_k, x_j} = q_kj x_k x_j for a skew-symmetric rational matrix q, under the
standard (K^x)^N action.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .poly import MvLaurent
from .presentation import PoissonPresentation, PresentationError


class ShapeMismatch(PresentationError):
    pass


def build_matrix_poisson(m: int, n: int) -> PoissonPresentation:
    """The matrix Poisson space preset on m x n matrices (N = mn generators)."""
    if m < 1 or n < 1:
        raise ShapeMismatch(f"matrix shape {m}x{n}: m and n must be positive")
    N = m * n
    d = m + n

    def idx(r, c):  # 1-based (r, c) -> 0-based generator index
        return (r - 1) * n + (c - 1)

    weights = []
    h = []
    h_star = []
    for r in range(1, m + 1):
        for c in range(1, n + 1):
            w = [0] * d
            w[r - 1] = 1
            w[m + c - 1] = -1
            weights.append(tuple(w))
            hv = [Fraction(0)] * d
            hv[r - 1] = Fraction(-1)
            hv[m + c - 1] = Fraction(1)
            h.append(tuple(hv))
            h_star.append(tuple(-x for x in hv))

    delta = {}
    for r in range(1, m + 1):
        for c in range(1, n + 1):
            k = idx(r, c)
            for rp in range(1, r):
                for cp in range(1, c):
                    j = idx(rp, cp)
                    # {t_rc, t_rp cp} = -2 t_rp,c t_r,cp  (k > j, lambda_kj = 0)
                    e = [0] * N
                    e[idx(rp, c)] += 1
                    e[idx(r, cp)] += 1
                    delta[(k, j)] = MvLaurent.monomial(N, e, Fraction(-2))

    return PoissonPresentation(
        n=N, torus_rank=d, weights=tuple(weights), h=tuple(h),
        delta=delta, h_star=tuple(h_star),
    )


def build_affine_space(N: int, q: Sequence[Sequence]) -> PoissonPresentation:
    """Poisson affine space for a skew-symmetric rational matrix q (all delta = 0)."""
    qm = [[Fraction(x) for x in row] for row in q]
    if len(qm) != N or any(len(row) != N for row in qm):
        raise ShapeMismatch(f"q must be {N}x{N}")
    for k in range(N):
        for j in range(N):
            if qm[k][j] != -qm[j][k]:
                raise PresentationError("q must be skew-symmetric")
    weights = tuple(tuple(1 if i == j else 0 for i in range(N)) for j in range(N))
    h = []
    h_star = []
    for k in range(N):
        hv = [Fraction(0)] * N
        for j in range(k):
            hv[j] = qm[k][j]
        hv[k] = Fraction(1)
        h.append(tuple(hv))
        hs = [Fraction(0)] * N
        for j in range(k + 1, N):
            hs[j] = qm[k][j]
        hs[k] = Fraction(1)
        h_star.append(tuple(hs))
    return PoissonPresentation(
        n=N, torus_rank=N, weights=weights, h=tuple(h), delta={}, h_star=tuple(h_star),
    )
