"""Pinned reports: the stdout of four commands on the 3x3 matrix preset.

The digests were taken before the polynomial core moved to integer
numerators.  Every reported polynomial passes through that core, so a kernel
change that alters a coefficient, an exponent or the order of terms fails
here instead of passing silently.
"""

import hashlib

import pytest

from pcgl.cli import main

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
