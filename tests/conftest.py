"""Shared fixtures: presets, synthetic presentations, cluster contexts."""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from pcgl.cluster import ClusterContext
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation
from pcgl.presets import build_matrix_poisson
from pcgl.symmetric import apply_rescaling


def weyl_block(c: int = 2) -> PoissonPresentation:
    """N = 2 symmetric presentation with {x2, x1} = c x2 x1 + 1.

    A Poisson-Weyl-flavored example whose normalization is nontrivial:
    pi_[1,2] = -1/c, so the rescaling machinery has real work to do.
    """
    return PoissonPresentation(
        n=2, torus_rank=1,
        weights=((1,), (-1,)),
        h=((Fraction(1),), (Fraction(c),)),
        delta={(1, 0): MvLaurent.const(2, 1)},
        h_star=((Fraction(c),), (Fraction(-1),)),
    )


def two_block(c1: int = 2, c2: int = 3) -> PoissonPresentation:
    """Two commuting Weyl-type blocks with lambda* = (c1, c2) on the two classes."""
    return PoissonPresentation(
        n=4, torus_rank=2,
        weights=((1, 0), (-1, 0), (0, 1), (0, -1)),
        h=(
            (Fraction(1), Fraction(0)),
            (Fraction(c1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(c2)),
        ),
        delta={(1, 0): MvLaurent.const(4, 1), (3, 2): MvLaurent.const(4, 1)},
        h_star=(
            (Fraction(c1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(c2)),
            (Fraction(0), Fraction(-1)),
        ),
    )


def scaled_bracket(p: PoissonPresentation, c) -> PoissonPresentation:
    """The presentation of the bracket c {-, -}: h, h* and delta scaled by c."""
    c = Fraction(c)
    return PoissonPresentation(
        n=p.n, torus_rank=p.torus_rank, weights=p.weights,
        h=tuple(tuple(c * x for x in row) for row in p.h),
        delta={key: poly * c for key, poly in p.delta.items()},
        h_star=None if p.h_star is None else tuple(tuple(c * x for x in row) for row in p.h_star),
    )


def rescaled_3x3() -> PoissonPresentation:
    """The 3x3 preset with bracket scaled by 2/3 and rescaled generators.

    Its lambda matrix has denominator 3 and its delta table non-integer
    coefficients, so pi != 1 until the presentation is normalized.
    """
    gamma = [Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(1), Fraction(3, 4),
             Fraction(-2), Fraction(1, 5), Fraction(3), Fraction(-7, 2)]
    return apply_rescaling(scaled_bracket(build_matrix_poisson(3, 3), Fraction(2, 3)), gamma)


def rescaled_2x3() -> PoissonPresentation:
    """The 2x3 preset with bracket scaled by 2/7 and rescaled generators.

    Its lambda matrix has denominator 7 and its delta table denominator 36,
    so neither common denominator divides the other.
    """
    gamma = [Fraction(7), Fraction(3, 2), Fraction(-1, 5), Fraction(4), Fraction(2, 3),
             Fraction(-7, 4)]
    return apply_rescaling(scaled_bracket(build_matrix_poisson(2, 3), Fraction(2, 7)), gamma)


def rescaled_4x5() -> PoissonPresentation:
    """The 4x5 preset with bracket scaled by 3/2 and rescaled generators.

    Its lambda matrix has denominator 2 and its delta table denominator
    10125 = 3^4 5^3, so the two common denominators are coprime.
    """
    gamma = [Fraction(3), Fraction(-1, 5), Fraction(5, 3), Fraction(1), Fraction(-3, 5),
             Fraction(1, 3), Fraction(5), Fraction(-1), Fraction(9, 5), Fraction(1, 5),
             Fraction(-5), Fraction(3, 5), Fraction(1), Fraction(-1, 3), Fraction(5, 9),
             Fraction(3), Fraction(1, 5), Fraction(-3), Fraction(5, 3), Fraction(1)]
    return apply_rescaling(scaled_bracket(build_matrix_poisson(4, 5), Fraction(3, 2)), gamma)


def benchmark_input(workload: str, seed: int, workdir) -> Path:
    """The presentation file perfbench/inputs.py writes for one workload and seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    ops = inputs.make_workload(workload, seed, str(workdir))["ops"]
    return Path(workdir) / ops[0]["argv"][1]


@pytest.fixture(scope="session")
def p22():
    return build_matrix_poisson(2, 2)


@pytest.fixture(scope="session")
def p23():
    return build_matrix_poisson(2, 3)


@pytest.fixture(scope="session")
def p33():
    return build_matrix_poisson(3, 3)


@pytest.fixture(scope="session")
def ctx22(p22):
    return ClusterContext.build(p22)


@pytest.fixture(scope="session")
def ctx23(p23):
    return ClusterContext.build(p23)


@pytest.fixture(scope="session")
def ctx33(p33):
    return ClusterContext.build(p33)
