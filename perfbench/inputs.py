"""Seeded inputs for the benchmark workloads, built through the public pcgl API.

Every input is a function of the seed alone: the same seed writes the same
bytes, and ``pcgl`` sees only the files and argv produced here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from fractions import Fraction
from typing import Dict, List

from pcgl import apply_rescaling, build_matrix_poisson
from pcgl import serialize as ser

# Exchangeable generators of the 4x4 matrix preset (1-based): every generator
# with a successor in its eta class, i.e. t_rc with r < 4 and c < 4.
EXCHANGEABLE_4X4 = (1, 2, 3, 5, 6, 7, 9, 10, 11)


def _names(m: int, n: int) -> List[str]:
    return [f"t{r}{c}" for r in range(1, m + 1) for c in range(1, n + 1)]


def _random_gamma(rng: random.Random, count: int) -> List[Fraction]:
    """Nonzero small rationals, never all equal to 1, so pi != 1 after rescaling."""
    while True:
        gamma = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 7))
                 for _ in range(count)]
        if any(g != 1 for g in gamma):
            return gamma


def rescaled_matrix_doc(m: int, n: int, rng: random.Random) -> dict:
    p = build_matrix_poisson(m, n)
    return ser.presentation_to_doc(apply_rescaling(p, _random_gamma(rng, p.n)), _names(m, n))


def matrix_doc(m: int, n: int) -> dict:
    return ser.presentation_to_doc(build_matrix_poisson(m, n), _names(m, n))


# Support of the membership x-probe: the diagonal and anti-diagonal products
# and four 2x2 cross terms of the 4x4 matrix, total degree <= 4.  It is fixed
# because the cost of expressing a monomial varies by generator (one product
# of t11^2*t21^2 alone doubles the command's time and memory); the seed picks
# the coefficients, so the work and the peak memory stay the same across seeds.
X_PROBE_SUPPORT = ("t11*t22*t33*t44", "t14*t23*t32*t41", "t12*t21", "t34*t43", "t13*t31", "t24*t42")


def x_probe_poly(rng: random.Random) -> str:
    """X_PROBE_SUPPORT with seeded nonzero integer coefficients in [-5, 5]."""
    text = " + ".join(f"{rng.choice((-1, 1)) * rng.randint(1, 5)}*{m}" for m in X_PROBE_SUPPORT)
    return text.replace("+ -", "- ")


def make_workload(name: str, seed: int, workdir: str) -> dict:
    """Write the seeded inputs for one workload into workdir.

    Returns ``ops``: the operations, each a dict with the pcgl ``argv`` (paths
    relative to workdir), the ``check`` kind and the expected sizes that
    check.py needs; ``setup``: the setup_probe.py arguments; ``sha256``: the
    digest of every input file and of the argv list.
    """
    rng = random.Random(f"{name}:{seed}")
    files: Dict[str, dict] = {}
    if name == "chain":
        files["m34.json"] = rescaled_matrix_doc(3, 4, rng)
        ops = [{"argv": ["chain-verify", "m34.json"], "check": "chain", "n": 12}]
        setup = ["context", "m34.json"]
    elif name == "membership":
        files["m44.json"] = matrix_doc(4, 4)
        elem = x_probe_poly(rng)
        a = rng.choice(EXCHANGEABLE_4X4)
        b = rng.choice([i for i in range(1, 17) if i != a])
        ops = [{"argv": ["membership", "m44.json", "--elem", elem], "check": "x_probe", "n": 16},
               {"argv": ["membership", "m44.json", "--coords", "y", "--elem", f"y{a}^-1*y{b}"],
                "check": "y_probe", "n": 16}]
        setup = ["context", "m44.json"]
    elif name == "analyze":
        files["m45.json"] = rescaled_matrix_doc(4, 5, rng)
        ops = [{"argv": ["analyze", "m45.json"], "check": "analyze", "n": 20, "rank": 8}]
        setup = ["validate", "m45.json"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    digests = {}
    for fname, doc in files.items():
        data = ser.dump_json(doc).encode()
        with open(os.path.join(workdir, fname), "wb") as fh:
            fh.write(data)
        digests[fname] = hashlib.sha256(data).hexdigest()
    digests["argv"] = hashlib.sha256(json.dumps([op["argv"] for op in ops]).encode()).hexdigest()
    return {"ops": ops, "setup": setup, "sha256": digests}
