"""Pinned reports: the stdout of four commands on the 3x3 matrix preset, and
of the bracket's consumers on rescaled presets.

The first digests were taken before the polynomial core moved to integer
numerators.  Every reported polynomial passes through that core, so a kernel
change that alters a coefficient, an exponent or the order of terms fails
here instead of passing silently.  The bracket digests were taken before the
bracket moved to integer numerators, on presentations whose delta tables
carry several coprime denominators.  The mutate digests on rescaled_3x3,
one per exchangeable direction and one on a non-identity permutation, were
taken before a seed's mutation was folded into one path.  The analyze
digests on rescaled_4x5, two_block and the 4x4 matrix preset were taken before the
prime sequence's {y_k, y_j} identities were decided from the {y_l, x_i}
relations instead of by bracketing.
"""

import hashlib
from fractions import Fraction
from functools import partial

import pytest

from pcgl import serialize as ser
from pcgl.cli import main
from pcgl.presentation import PoissonPresentation
from pcgl.presets import build_matrix_poisson

from conftest import rescaled_2x3, rescaled_3x3, rescaled_4x5, two_block

GOLDEN = [
    (["membership", "--elem", "t11*t22 - t12*t21"], 0,
     "c06bfa925d2a61ea8167432f268d1253be0b4d80a357c0fba5ee0b6e01bfa1c9"),
    (["membership", "--coords", "y", "--elem", "y4^-1*y1*y9"], 1,
     "bae8a4d41da7cf9c22c78864cbeae751e7600b6ce646f130674bc1bb04fc34af"),
    (["seeds", "--gamma"], 0,
     "4bc90031a95d3345e78c580bdf4bba23a1d228f4b43809fc3f7334ef755e2e61"),
    (["mutate", "--at", "1"], 0,
     "2beecc5294caf62a55bd3cd2b1ddd1d831e30c899792eccf5390904392a47578"),
]


@pytest.fixture(scope="module")
def m33_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "m33.json"
    assert main(["preset", "matrix", "--m", "3", "--n", "3", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[" ".join(g[0][:2]) for g in GOLDEN])
def test_report_digest(m33_file, capsys, args, code, digest):
    command, *rest = args
    assert main([command, m33_file, *rest]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def jacobi_broken_3x3() -> PoissonPresentation:
    """rescaled_3x3 with its third delta entry scaled by 5/7: six generator
    triples fail the Jacobi identity, with fractional witnesses."""
    p = rescaled_3x3()
    delta = dict(p.delta)
    key = sorted(delta)[2]
    delta[key] = delta[key] * Fraction(5, 7)
    return PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                               delta=delta, h_star=p.h_star)


BRACKET_INPUTS = {"r33": rescaled_3x3, "r23": rescaled_2x3, "broken": jacobi_broken_3x3,
                  "r45": rescaled_4x5, "two_block": two_block, "m44": partial(build_matrix_poisson, 4, 4)}

BRACKET_GOLDEN = [
    ("analyze", "r33", 0, "9b5f9df692a85336778e5c0b3482df653ed062fd5794850ef4847302aa3d4207"),
    ("validate", "r33", 0, "984eb32983a51a1ba34478e4da8f9ca888d216143f7293c4e6ef11981ff5ecf1"),
    ("analyze", "r23", 0, "d7b5bcb661b9737d597be5cb39df88b1d6ffee069aa22afdc4dbc32d878be223"),
    ("validate", "broken", 2, "c9e495726eff2c1fa518f53c9cd528a831e5758608c4ef4cb2e08460f9b0b6bc"),
    ("analyze", "r45", 0, "872c636262805d22e8021a02e569c26e9f3eae0ea5c968dfcc7d24ee9a071eaf"),
    ("analyze", "two_block", 0, "92aef3f71527e6584440893a1ea9cc15c5fe65ccf899e67aa35ad41928905135"),
    ("analyze", "m44", 0, "1fd31f9dde368b325e8916787e65a191abaf8083b786c1cb768f85bd604684bc"),
]


@pytest.fixture(scope="module")
def bracket_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("bracket_golden")
    files = {}
    for name, build in BRACKET_INPUTS.items():
        path = root / f"{name}.json"
        path.write_text(ser.dump_json(ser.presentation_to_doc(build())))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("command,name,code,digest", BRACKET_GOLDEN,
                         ids=[f"{g[0]} {g[1]}" for g in BRACKET_GOLDEN])
def test_bracket_report_digest(bracket_files, capsys, command, name, code, digest):
    assert main([command, bracket_files[name]]) == code
    out = capsys.readouterr().out
    if name == "broken":
        assert '"code": "JacobiFailure"' in out and '"witness"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


MUTATE_GOLDEN = [
    (["--at", "1"], "201d28d647600272c4e4b4c1e70b7f7a09d102955d5938d1f7546f65d233402d"),
    (["--at", "2"], "0f8e5de01a131b44f8c1d09da412cc67db3fe7b834a720b599840458048fa827"),
    (["--at", "4"], "63e5657323aa34c4b55cb67811aa8f164aa87453a4037f602656a5caee868eae"),
    (["--at", "5"], "0ad8b9ea67c3d2b9d48d36eacecbb49d615b4e10f671d7dea1fcd8125193f49c"),
    (["--tau", "5,4,6,3,7,2,8,1,9", "--at", "4"],
     "eda58e83dc45d1b37e5a5929f1d4222e6b4cabcb1609aadf4ffd02e506c07430"),
]


@pytest.mark.parametrize("args,digest", MUTATE_GOLDEN, ids=[" ".join(g[0]) for g in MUTATE_GOLDEN])
def test_mutate_report_digest(bracket_files, capsys, args, digest):
    assert main(["mutate", bracket_files["r33"], *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

