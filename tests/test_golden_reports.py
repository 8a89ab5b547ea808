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
relations instead of by bracketing.  The membership digests on the 4x4
preset, rescaled_4x5 and two_block were taken while every cluster's
generator images were still written by their own back-substitution.  The
rescale, symmetric and chain-verify digests on rescaled_3x3, rescaled_4x5
and the benchmark's chain input of seed 1 were taken while each
pi_[i, s(i)] was still read off a product of interval primes.  The digests
of the y-coordinate membership reports were re-taken when their element
text moved from x names to y names; a JSON diff against the reports before
showed element.text as the only change.  The symmetric and rescale digests
on presentations without h* rows, or with h* rows that fail, were taken
while validate_symmetric still paired h* with the weights as Fractions.  The
seeds --gamma digest on rescaled_2x3 (lam_den 7, delta_den 36) was taken
while every seed's r was still a matrix of Fractions, mutated and scaled to
integers by an lcm in each consumer; it pins the r and beta of every chain
bundle at a denominator above 1.  The seeds digests of the identity on the
3x3 preset, rescaled_4x5 and two_block, and of a key with non-initial labels
on rescaled_3x3, were taken while every variable of a seeds report was
rewritten in y_1..y_N through the generators' back-substitution, an initial
cluster variable y_j included.  The off-chain seeds --tau and mutate --tau
digests on the 4x4 preset, rescaled_3x3 and two_block were taken while each
variable of a non-initial label was still written in y_1..y_N by
substituting the generators' back-substitution into its interval prime.
The mutate digests on rescaled_3x3 and two_block were re-taken when mutate
began to report the gamma_applied of its pi-normalizing rescaling, as seeds
and chain-verify do; a JSON diff against the reports before showed the added
gamma_applied key as the only change.
"""

import hashlib
from fractions import Fraction
from functools import partial

import pytest

from pcgl import serialize as ser
from pcgl.cli import main
from pcgl.presentation import PoissonPresentation
from pcgl.presets import build_matrix_poisson

from conftest import benchmark_input, rescaled_2x3, rescaled_3x3, rescaled_4x5, two_block

GOLDEN = [
    (["membership", "--elem", "t11*t22 - t12*t21"], 0,
     "c06bfa925d2a61ea8167432f268d1253be0b4d80a357c0fba5ee0b6e01bfa1c9"),
    (["membership", "--coords", "y", "--elem", "y4^-1*y1*y9"], 1,
     "63cab3c533f85f11f7ceff5bcb2d05e4a6de075e581c946ddbefe53366624b5f"),
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
    (["--at", "1"], "68f4f2912905de7678ae7e9090824845747a79d859bffd7cbcbbf3d6c03b056e"),
    (["--at", "2"], "d8a8f3d86bf9f28fdbe6ee8f78354a211106b4d456390d99397906fad4c74589"),
    (["--at", "4"], "28e87e64323efa0971033a0cd1ddfc894051695c67fd8d4308b2e98e3a5b0af5"),
    (["--at", "5"], "971a98700d16c2c5e9f53e2033586ed488c412c293c4ffd9047808e835709c8b"),
    (["--tau", "5,4,6,3,7,2,8,1,9", "--at", "4"],
     "c10b8c8f1dc8308ab710731b4f360cbb6dfe15fbfb2763842019f3a8b394031e"),
]


@pytest.mark.parametrize("args,digest", MUTATE_GOLDEN, ids=[" ".join(g[0]) for g in MUTATE_GOLDEN])
def test_mutate_report_digest(bracket_files, capsys, args, digest):
    assert main(["mutate", bracket_files["r33"], *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_seeds_gamma_digest_over_lam_den_7(bracket_files, capsys):
    assert main(["seeds", bracket_files["r23"], "--gamma"]) == 0
    out = capsys.readouterr().out
    assert '"4/7"' in out and '"2/7"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cb915269f7344bdf6a864f5781719dbdd333ea36ab5fe619ac1b9760f63e9fbf"



SEEDS_GOLDEN = [
    ("m33", [], "0eed8c8f3744e9c6a2bae24be7c6b06a58c0bba63f8c154f4965d85aa9ede05b"),
    ("r45", [], "fa4a88171ff661b42a39c250c2be04f0dc1fa407fd9213d6dc01f2d55a1a55a7"),
    ("two_block", [], "fd03c91882dd575d08cd1ab6820a4438d1605f1cbb0a0fe96f252fe7c60cdd61"),
    ("r33", ["--tau", "5,4,6,3,7,2,8,1,9"], "df3d171af0902446ee59a9450d0333b46659d10b7b670b282565728133db8075"),
]


@pytest.mark.parametrize("name,args,digest", SEEDS_GOLDEN, ids=[" ".join([g[0], *g[1]]) for g in SEEDS_GOLDEN])
def test_seeds_report_digest(m33_file, bracket_files, capsys, name, args, digest):
    path = m33_file if name == "m33" else bracket_files[name]
    assert main(["seeds", path, *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# membership on the 4x4 preset with the x-probe and y-probe argv of the
# benchmark's seeds 1-3, and on rescaled_4x5 and two_block(2, 3).
MEMBERSHIP_GOLDEN = [
    ("m44", ["--elem", "3*t11*t22*t33*t44 + 3*t14*t23*t32*t41"
              " - 5*t12*t21 + 5*t34*t43 + 5*t13*t31 + 3*t24*t42"], 0,
     "44b5e3b24ac033bf37830e79db268e465521dec65beedb675b6e80b95451fa60"),
    ("m44", ["--coords", "y", "--elem", "y6^-1*y5"], 1,
     "ad8dd6e736f9b12f12701becf5369efdc28a130a29915860a673cd6d1cf15ce5"),
    ("m44", ["--elem", "1*t11*t22*t33*t44 - 5*t14*t23*t32*t41"
              " - 5*t12*t21 + 4*t34*t43 - 3*t13*t31 - 5*t24*t42"], 0,
     "464d82770d00acfcb699768f1b2d836c6d76c739e6ac84ecf0bd3bb1224b6b88"),
    ("m44", ["--coords", "y", "--elem", "y7^-1*y8"], 1,
     "343a24f519eb6b6dc4c5ef0d52eb56acc6aeff4ecaf96d8a6637c73830d138f2"),
    ("m44", ["--elem", "5*t11*t22*t33*t44 - 4*t14*t23*t32*t41"
              " + 4*t12*t21 + 1*t34*t43 - 1*t13*t31 - 4*t24*t42"], 0,
     "db224bc27d20fa0d2cfdb559d62356c5f4e03968dd793e9d1cb8f29595c41c83"),
    ("m44", ["--coords", "y", "--elem", "y10^-1*y4"], 1,
     "c6161feab63333b1df560f9a720372c7ac7eff7cbd361a1d9e23ed125a8bef9e"),
    ("r45", ["--elem", "x1*x7 - x2*x6 + 2*x3*x20"], 0,
     "bbffa50d54f4dab6048061aa3fd6802f6ff29d40276b9084fa6389cda40d0c2c"),
    ("r45", ["--coords", "y", "--elem", "y6^-1*y1*y20"], 1,
     "84ad455275fb0af8cdd01454b14f86bdf22b66af96aaa709ffeff346184d646e"),
    ("r45", ["--coords", "y", "--elem", "y20^-1*y3", "--inv", "20"], 0,
     "6583267efac6278aeb42e4d178406ecda7eb07c41c2dc6f18fb6e321f7eb6e49"),
    ("two_block", ["--elem", "x1*x2 + x3*x4"], 0,
     "1bda1ed918876e10af4d7643b204a23830a10ad70fed5ce01ad1861da37f64d9"),
    ("two_block", ["--coords", "y", "--elem", "y2^-1*y1"], 1,
     "02fab498fd08daae73afe1f97761720e1466b33adfc21a6084df4af333b7871e"),
]


@pytest.fixture(scope="module")
def m44_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "m44.json"
    assert main(["preset", "matrix", "--m", "4", "--n", "4", "-o", str(path)]) == 0
    return str(path)


@pytest.mark.parametrize("name,args,code,digest", MEMBERSHIP_GOLDEN,
                         ids=[f"{g[0]} {' '.join(g[1])}"[:60] for g in MEMBERSHIP_GOLDEN])
def test_membership_report_digest(m44_file, bracket_files, capsys, name, args, code, digest):
    path = m44_file if name == "m44" else bracket_files[name]
    assert main(["membership", path, *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# seeds --tau and mutate --tau ... --at 1 on keys with non-initial labels:
# 2,3,...,N,1 and the longest permutation N,...,1, each of whose keys holds
# some interval label that is not the identity's.
OFF_CHAIN_GOLDEN = [
    ("seeds", "m44", ["--tau", "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,1"], 0,
     "44f0ce682075c1e4aead1f18c0ca7f4f81921452254ed7e3664170eb70f6096a"),
    ("seeds", "m44", ["--tau", "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1"], 0,
     "488dfc17e78f2d2dd3152263792300e8b5621a2328bbbfd830d0cbd0a2a03426"),
    ("mutate", "m44", ["--tau", "2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,1", "--at", "1"], 0,
     "a1f57b85ccc91c5db3e2fb0ae5adfe8206ad044e317ee72f390f853b47761f81"),
    ("mutate", "m44", ["--tau", "16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1", "--at", "1"], 0,
     "df638336f4bf70bf0c48ba697f844620d0ff76a968767c8f214f680e5468d69b"),
    ("seeds", "r33", ["--tau", "2,3,4,5,6,7,8,9,1"], 0,
     "4312dbecb67380e184ddb0a26757fbcce0f3310a30dfadaff2de283f2343b358"),
    ("seeds", "r33", ["--tau", "9,8,7,6,5,4,3,2,1"], 0,
     "86a391277d112aecd108ca8333add6bb0008b85969f2ea86bc81b0d27a7f2f9c"),
    ("mutate", "r33", ["--tau", "2,3,4,5,6,7,8,9,1", "--at", "1"], 0,
     "55d7ac75f74de9aaccbd4624ade8107c0cff7567316d2e8970a275a88942edda"),
    ("mutate", "r33", ["--tau", "9,8,7,6,5,4,3,2,1", "--at", "1"], 0,
     "15c8c3295b96ab9ee4bd211ca5a38aaccf02bea8abefc82531888684578f4e89"),
    ("seeds", "two_block", ["--tau", "2,3,4,1"], 0,
     "bfdb0a654414e83ec58f530c75745d5839157852f9e48b3f5869e18b120c0eeb"),
    ("seeds", "two_block", ["--tau", "4,3,2,1"], 0,
     "eb6f8070855dcf936adde49b97240e9037bd64e51bd04cb0d18c47dbfaf83958"),
    ("mutate", "two_block", ["--tau", "2,3,4,1", "--at", "1"], 0,
     "c0d09a8a919ca86b15f716e55118927c152756671c29de808db138a68cfd311d"),
    ("mutate", "two_block", ["--tau", "4,3,2,1", "--at", "1"], 0,
     "a65dd54a65aab01605fb6ae16c9715c0956f062ae22eacfc0e94f4995ed22c6b"),
]


@pytest.mark.parametrize("command,name,args,code,digest", OFF_CHAIN_GOLDEN,
                         ids=[f"{g[0]} {g[1]} {g[2][1]}" for g in OFF_CHAIN_GOLDEN])
def test_off_chain_report_digest(m44_file, bracket_files, capsys, command, name, args, code, digest):
    path = m44_file if name == "m44" else bracket_files[name]
    assert main([command, path, *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PI_GOLDEN = [
    ("rescale", "r33", "6895ba1e71c83cc2d9a8dd45c3ccd38ac98d235b6c70d1638aaf7a2870aa0ad7"),
    ("symmetric", "r33", "a3a2e4f8c87089881332e746b629ee0f14dc168176374591f251260cfc85b986"),
    ("chain-verify", "r33", "c7172194c039625f4014984c210788e2e0f46f78796e9ad7eb93ecad2ea8351a"),
    ("rescale", "r45", "895cbc5479319ee850c09d7ab19da8d506da8d8442f971a975cee9b42c09ac0e"),
    ("symmetric", "r45", "11af94a80a42b82a4f10dd10add081b5ebca4db949366a7f95ce96e582c7ef20"),
    ("chain-verify", "r45", "e3be9fa21f9b5baf49c9ecc664e597edf80c3c02848b3d09d76689d061bbb6d6"),
    ("rescale", "chain1", "0724aba32d0a401a72df2c4038ee001bc9de40432a786e5b41b3b0af2440bdf0"),
    ("symmetric", "chain1", "b65115af03f7cdcb0f34beef78674689b1f3e494d7051dede8e6c628ab9afa15"),
    ("chain-verify", "chain1", "89371e6a72974de891ce71b4e03747817f3ac868a9f8f4ddf7b8bc9a36b280e7"),
]


@pytest.fixture(scope="module")
def chain1_file(tmp_path_factory):
    return str(benchmark_input("chain", 1, tmp_path_factory.mktemp("chain1")))


@pytest.mark.parametrize("command,name,digest", PI_GOLDEN, ids=[f"{g[0]} {g[1]}" for g in PI_GOLDEN])
def test_pi_report_digest(bracket_files, chain1_file, capsys, command, name, digest):
    path = chain1_file if name == "chain1" else bracket_files[name]
    assert main([command, path]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _with_h_star(p: PoissonPresentation, h_star) -> PoissonPresentation:
    return PoissonPresentation(n=p.n, torus_rank=p.torus_rank, weights=p.weights, h=p.h,
                               delta=p.delta, h_star=h_star)


def h_star_off_3x3() -> PoissonPresentation:
    """rescaled_3x3 with 1/7 added to the second entry of h*_1: three
    pairings <h*_1, chi_k> miss -lambda_k1 by a fraction."""
    p = rescaled_3x3()
    rows = [list(row) for row in p.h_star]
    rows[0][1] += Fraction(1, 7)
    return _with_h_star(p, tuple(map(tuple, rows)))


def zero_lambda_star_3x3() -> PoissonPresentation:
    """The 3x3 preset with h*_9 = 0: lambda*_9 vanishes, and no other check fails."""
    p = build_matrix_poisson(3, 3)
    return _with_h_star(p, p.h_star[:-1] + ((Fraction(0),) * p.torus_rank,))


H_STAR_INPUTS = {
    "m33_bare": lambda: _with_h_star(build_matrix_poisson(3, 3), None),
    "r45_bare": lambda: _with_h_star(rescaled_4x5(), None),
    "r33_off": h_star_off_3x3,
    "m33_zero_star": zero_lambda_star_3x3,
}

# symmetric and rescale where h* is solved, and symmetric where supplied h*
# rows fail; pinned while validate_symmetric still paired h* with the
# weights as Fractions.
H_STAR_GOLDEN = [
    ("symmetric", "m33_bare", 0,
     "c71a9ab3b5b316e9f69cece19c4834f4f11c6919cacb0197c034f596e451a9c0"),
    ("rescale", "m33_bare", 0,
     "8f2e068db83b82b1178832aeb01f0663fa303454dc370daf65299a1c33622ee4"),
    ("symmetric", "r45_bare", 0,
     "acae628e4512da589bfb348249612022d8f2eb771ed46b26567b5113c47fc7e4"),
    ("rescale", "r45_bare", 0,
     "852c5eb0cafa6c8f3dd53f0ac612a33064fccbd0b4cbefa962f8c533c359d984"),
    ("symmetric", "r33_off", 2,
     "ffea888c6b1170de83c7ded3e52d956f6369d41a71c02cbf68453f8290c52cd1"),
    ("symmetric", "m33_zero_star", 2,
     "a5ec2ebd7aa5098bfd3ecf3a181a7c580396d7b8b2957a176141d31c49e99f07"),
]


@pytest.fixture(scope="module")
def h_star_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("h_star_golden")
    files = {}
    for name, build in H_STAR_INPUTS.items():
        path = root / f"{name}.json"
        path.write_text(ser.dump_json(ser.presentation_to_doc(build())))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("command,name,code,digest", H_STAR_GOLDEN,
                         ids=[f"{g[0]} {g[1]}" for g in H_STAR_GOLDEN])
def test_h_star_report_digest(h_star_files, capsys, command, name, code, digest):
    assert main([command, h_star_files[name]]) == code
    out = capsys.readouterr().out
    if name == "r33_off":
        assert out.count('"code": "NoHStarSolution"') == 3 and "expected" in out
    if name == "m33_zero_star":
        assert out.count('"code": "ZeroLambdaStar"') == 1 and out.count('"code"') == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest
