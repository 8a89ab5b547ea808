"""CLI surface: subcommands, exit codes, pipelines, determinism."""

import importlib.util
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pcgl import cli
from pcgl.cli import main
from pcgl.poly import MvLaurent
from pcgl.presentation import PoissonPresentation
from pcgl.presets import build_affine_space, build_matrix_poisson
from pcgl.serialize import poly_report, presentation_from_doc, presentation_to_doc
from pcgl.symmetric import gamma_chain

from conftest import rescaled_3x3
from tau_oracles import to_y_coordinates

README = Path(__file__).resolve().parents[1] / "README.md"
# The child process imports the same pcgl as this one, installed or not.
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_python(args, stdin=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, input=stdin,
                          env=dict(os.environ, PYTHONPATH=path))


def run_cli(args, stdin=None):
    return run_python(["-m", "pcgl.cli", *args], stdin)


def test_startup_imports_neither_dataclasses_nor_inspect():
    # every command pays for what pcgl.cli imports
    proc = run_python(["-c", "import sys, pcgl.cli; "
                             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"])
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.fixture(scope="module")
def m22_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "m22.json"
    assert main(["preset", "matrix", "--m", "2", "--n", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def m23_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "m23.json"
    assert main(["preset", "matrix", "--m", "2", "--n", "3", "-o", str(path)]) == 0
    return str(path)


class TestPipelines:
    def test_preset_pipe_analyze(self):
        preset = run_cli(["preset", "matrix", "--m", "2", "--n", "2"])
        assert preset.returncode == 0
        analyzed = run_cli(["analyze", "-"], stdin=preset.stdout)
        assert analyzed.returncode == 0
        doc = json.loads(analyzed.stdout)
        assert doc["eta"]["rank"] == 3
        assert doc["y"][3]["text"] == "t11*t22 - t12*t21"

    def test_stdout_is_pure_json(self):
        preset = run_cli(["preset", "matrix", "--m", "2", "--n", "2"])
        json.loads(preset.stdout)  # no summary noise on stdout
        assert preset.stderr.strip()  # summary lands on stderr


class TestSubcommands:
    def test_validate_ok(self, m22_file, capsys):
        assert main(["validate", m22_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["validation"]["passed"] is True

    def test_validate_zero_eigenvalue_exit_2(self, m22_file, tmp_path, capsys):
        doc = json.load(open(m22_file))
        doc["h"][1] = ["0", "0", "0", "0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        out = json.loads(capsys.readouterr().out)
        assert any("lambda_2" in f["detail"] for f in out["validation"]["failures"])

    def test_symmetric(self, m23_file, capsys):
        assert main(["symmetric", m23_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["d_integers"]["by_label"] == {str(k): 1 for k in doc["d_integers"]["by_label"]}
        assert doc["d_integers"]["q"] == "2"

    def test_analyze_q_matrix(self, m22_file, capsys):
        assert main(["analyze", m22_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"][1][0] == "-1"
        assert doc["hmax"]["dimension"] == 3

    def test_btilde(self, m22_file, capsys):
        assert main(["btilde", m22_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["btilde"]["rows"] == [[0], [-1], [-1], [1]]

    def test_seeds_tau(self, m22_file, capsys):
        assert main(["seeds", m22_file, "--tau", "2,3,4,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [v["text"] for v in doc["bundles"][0]["variables_x"]] == \
            ["t22", "t12", "t21", "t11*t22 - t12*t21"]

    def test_seeds_gamma_count(self, m23_file, capsys):
        assert main(["seeds", m23_file, "--gamma"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["bundles"]) == 16

    def test_mutate(self, m22_file, capsys):
        assert main(["mutate", m22_file, "--tau", "1,2,3,4", "--at", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["variables_y"][0]["text"] == "y1^-1*y4 + y1^-1*y2*y3"
        assert doc["btilde"]["rows"] == [[0], [1], [1], [-1]]

    def test_chain_verify(self, m23_file, capsys):
        assert main(["chain-verify", m23_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"all_verified": True, "equal": 13, "links": 15, "mutations": 2}

    def test_membership_positive(self, m22_file, capsys):
        assert main(["membership", m22_file, "--elem", "t11*t22 - t12*t21"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] is True

    def test_membership_frozen_inverse(self, m22_file, capsys):
        assert main(["membership", m22_file, "--elem", "y4^-1", "--coords", "y"]) == 1
        capsys.readouterr()
        assert main(["membership", m22_file, "--elem", "y4^-1", "--coords", "y", "--inv", "4"]) == 0

    def test_membership_non_polynomial_exit_2(self, m22_file, capsys):
        # an x-coordinate input must be a polynomial in the generators
        assert main(["membership", m22_file, "--elem", "t11^-1"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "NotInRing"

    def test_membership_triples_input(self, m22_file, capsys):
        elem = json.dumps([[1, 1, [0, 0, 0, 1]]])  # x4 as triple list
        assert main(["membership", m22_file, "--elem", elem]) == 0

    def test_rescale_roundtrip(self, m22_file, tmp_path, capsys):
        assert main(["rescale", m22_file, "-o", str(tmp_path / "r.json")]) == 0
        doc = json.load(open(tmp_path / "r.json"))
        assert doc["gamma"] == ["1", "1", "1", "1"]
        # the embedded presentation is consumable by other subcommands
        assert main(["analyze", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("h,delta", [
        # lambda_2 = 0, so the prime sequence has no y_2
        (((Fraction(1),), (Fraction(0),)), MvLaurent.const(2, 1)),
        # lambda_1 = 0 and delta_2(x_1) = x_1 has the wrong weight, so y_2 is inhomogeneous
        (((Fraction(0),), (Fraction(1),)), MvLaurent.gen(2, 0)),
    ], ids=["lambda_2_zero", "inhomogeneous_delta"])
    def test_rescale_reports_the_validation_of_an_invalid_algebra(self, h, delta, tmp_path, capsys):
        # without h_star, solving for it would compute the prime sequence of
        # an algebra that failed validation
        p = PoissonPresentation(n=2, torus_rank=1, weights=((1,), (-1,)), h=h, delta={(1, 0): delta})
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(presentation_to_doc(p)))
        assert main(["symmetric", str(path)]) == 2
        validation = json.loads(capsys.readouterr().out)["validation"]
        assert not validation["passed"]
        assert main(["rescale", str(path)]) == 2
        assert json.loads(capsys.readouterr().out) == {"command": "rescale", "validation": validation}

    def test_bad_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_bad_tau_exit_2(self, m22_file, capsys):
        assert main(["btilde", m22_file, "--tau", "1,2,3"]) == 2

    def test_non_xi_tau_exit_2(self, m22_file, capsys):
        # a permutation, but its prefix {2, 4} is not an interval
        assert main(["btilde", m22_file, "--tau", "2,4,1,3"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "SymmetryError"

    def test_duplicate_delta_exit_2(self, m22_file, tmp_path, capsys):
        doc = json.load(open(m22_file))
        doc["delta"].append(dict(doc["delta"][0]))
        bad = tmp_path / "dup.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "FormatError"

    def test_mutate_direction_errors(self, m22_file, capsys):
        assert main(["mutate", m22_file, "--at", "99"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "DirectionOutOfRange"
        assert main(["mutate", m22_file, "--at", "4"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "NotExchangeable"

    def test_zero_generators_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"n_gens": 0, "torus_rank": 1, "weights": [], "h": []}))
        for argv in (["chain-verify", str(empty)],
                     ["membership", str(empty), "--elem", "1"],
                     ["seeds", str(empty), "--gamma"]):
            assert main(argv) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["command"] == argv[0]
            assert doc["error"]["code"] == "PresentationError"

    def test_enum_cap(self, tmp_path, capsys):
        n = cli.MAX_GAMMA_GENERATORS + 1
        symmetric = presentation_to_doc(build_affine_space(n, [[0] * n] * n))
        # zero h* rows make it non-symmetric: the size check must still come first
        nonsymmetric = dict(symmetric, h_star=[["0"] * symmetric["torus_rank"]] * n)
        for doc in (symmetric, nonsymmetric):
            path = tmp_path / "big.json"
            path.write_text(json.dumps(doc))
            for argv in (["chain-verify", str(path)],
                         ["seeds", str(path), "--gamma"],
                         ["membership", str(path), "--elem", "1"]):
                assert main(argv) == 2
                error = json.loads(capsys.readouterr().out)["error"]
                assert error["code"] == "CliInputError"
                assert f"N = {n} exceeds {cli.MAX_GAMMA_GENERATORS}" in error["detail"]

    def test_tau_off_the_identity_key_takes_the_cap(self, tmp_path, monkeypatch, capsys):
        # a label off the identity's key is read off the Gamma_N walk; the
        # identity's seed and btilde take no walk, so they are not capped
        path = tmp_path / "m33.json"
        assert main(["preset", "matrix", "--m", "3", "--n", "3", "-o", str(path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_GAMMA_GENERATORS", 8)
        shifted = ",".join(map(str, [*range(2, 10), 1]))
        for argv in (["seeds", str(path), "--tau", shifted],
                     ["mutate", str(path), "--tau", shifted, "--at", "1"]):
            assert main(argv) == 2
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["code"] == "CliInputError"
            assert "N = 9 exceeds 8" in error["detail"]
        for argv in (["seeds", str(path)], ["mutate", str(path), "--at", "1"],
                     ["btilde", str(path), "--tau", shifted]):
            assert main(argv) == 0
            capsys.readouterr()

    def test_chain_verify_5x5_by_default(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "m55.json"
        assert main(["preset", "matrix", "--m", "5", "--n", "5", "-o", str(path)]) == 0
        primes = []
        inner = cli.cl.interval_prime
        monkeypatch.setattr(cli.cl, "interval_prime", lambda *args: primes.append(args) or inner(*args))
        assert main(["chain-verify", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {"all_verified": True, "equal": 270, "links": 300, "mutations": 30}
        # the walk builds one interval prime per change of seed key
        assert len(primes) == 30


class TestInputBoundary:
    """Malformed command-line values end in exit 2 with a structured error."""

    def _error_code(self, argv, capsys):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == argv[0]
        return doc["error"]["code"]

    def test_affine_q_not_json(self, capsys):
        argv = ["preset", "affine", "--n", "3", "--q", "notjson"]
        assert self._error_code(argv, capsys) == "CliInputError"

    @pytest.mark.parametrize("q", ["1" * 5000, "[" * 100000], ids=["integer_of_5000_digits", "nested"])
    def test_affine_q_undecodable(self, q, capsys):
        # more digits than json converts to an int, or nested too deep to decode
        argv = ["preset", "affine", "--n", "2", "--q", q]
        assert self._error_code(argv, capsys) == "CliInputError"

    def test_affine_q_not_rational(self, capsys):
        argv = ["preset", "affine", "--n", "2", "--q", '[[0,"a"],["-a",0]]']
        assert self._error_code(argv, capsys) == "FormatError"

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_matrix_shape_not_positive(self, m, capsys):
        argv = ["preset", "matrix", "--m", m, "--n", "2"]
        assert self._error_code(argv, capsys) == "ShapeMismatch"

    @pytest.mark.parametrize("inv", ["99", "0"])
    def test_membership_inv_out_of_range(self, m22_file, inv, capsys):
        argv = ["membership", m22_file, "--elem", "t11", "--inv", inv]
        assert self._error_code(argv, capsys) == "CliInputError"

    @pytest.mark.parametrize("inv, detail", [
        ("1,1", "--inv index 1 is exchangeable, not frozen: '1,1'"),
        ("1", "--inv index 1 is exchangeable, not frozen: '1'"),
        ("4,4", "--inv index 4 is repeated: '4,4'"),
        ("2,4,2", "--inv index 2 is repeated: '2,4,2'"),
    ])
    def test_membership_inv_not_distinct_frozen(self, m22_file, inv, detail, capsys):
        # --inv acts only on frozen indices; on 2x2 index 1 is the one exchangeable
        argv = ["membership", m22_file, "--coords", "y", "--elem", "y1", "--inv", inv]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["error"] == {"code": "CliInputError", "detail": detail}

    def test_unwritable_output_reports_on_stdout(self, m22_file, tmp_path, capsys):
        out = str(tmp_path / "missing" / "report.json")
        assert main(["analyze", m22_file, "-o", out]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["code"] == "CliInputError"
        assert error["detail"].startswith(f"cannot write {out}")
        # an input error meant for -o lands on stdout too
        assert main(["btilde", m22_file, "--tau", "2,4,1,3", "-o", out]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "SymmetryError"

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"n_gens": 1, "names": ["\u00e9"]}'.encode("latin-1"))
        assert self._error_code(["analyze", str(path)], capsys) == "CliInputError"

    def test_json_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert self._error_code(["analyze", str(path)], capsys) == "CliInputError"

    @pytest.mark.parametrize("elem", [
        "x1^100000",
        "x2*x3 - 1/2*x1^100000",
        "x1^-7",
        "[[1, 1, [100000, 0, 0, 0, 0, 0]]]",
        "[[3, 2, [0, 4, -3, 0, 0, 0]]]",
    ])
    def test_membership_elem_degree_bound(self, m23_file, elem, capsys, monkeypatch):
        # rejected before the cluster context is built, so the exit is immediate
        def no_context(p):
            raise AssertionError("context built for an element over the degree bound")

        monkeypatch.setattr(cli.cl.ClusterContext, "build", staticmethod(no_context))
        argv = ["membership", m23_file, "--elem", elem]
        assert self._error_code(argv, capsys) == "CliInputError"

    @pytest.mark.parametrize("elem", [
        "1e5000",
        "9" * 3000 + "*" + "9" * 3000 + "*x1",
        "1/" + "9" * 3000 + "*1/" + "9" * 3000 + "*x1",
    ])
    def test_membership_elem_coefficient_bound(self, m23_file, elem, capsys, monkeypatch):
        # a coefficient the report could not print, rejected before the context is built
        def no_context(p):
            raise AssertionError("context built for an element over the coefficient bound")

        monkeypatch.setattr(cli.cl.ClusterContext, "build", staticmethod(no_context))
        argv = ["membership", m23_file, "--elem", elem]
        assert self._error_code(argv, capsys) == "CliInputError"

    def test_membership_elem_coefficient_bound_is_inclusive(self, m23_file, capsys):
        elem = "9" * cli.MAX_ELEM_COEFF_DIGITS + "*x1"
        assert main(["membership", m23_file, "--elem", elem]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True
        assert report["element"]["terms"] == [[10 ** cli.MAX_ELEM_COEFF_DIGITS - 1, 1, [1, 0, 0, 0, 0, 0]]]

    @pytest.mark.parametrize("argv", [["matrix", "--m", str(cli.MAX_PRESET_GENERATORS + 1), "--n", "1"],
                                      ["affine", "--n", str(cli.MAX_PRESET_GENERATORS + 1)]],
                             ids=["matrix", "affine"])
    def test_preset_size_bound(self, argv, capsys, monkeypatch):
        # rejected before the presentation is built
        def no_build(*args):
            raise AssertionError("preset built over the size bound")

        monkeypatch.setattr(cli, "build_matrix_poisson", no_build)
        monkeypatch.setattr(cli, "build_affine_space", no_build)
        assert self._error_code(["preset", *argv], capsys) == "CliInputError"

    def test_preset_size_bound_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PRESET_GENERATORS", 6)
        assert main(["preset", "matrix", "--m", "2", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["n_gens"] == 6
        assert main(["preset", "affine", "--n", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["n_gens"] == 6
        assert self._error_code(["preset", "matrix", "--m", "7", "--n", "1"], capsys) == "CliInputError"
        assert self._error_code(["preset", "affine", "--n", "7"], capsys) == "CliInputError"

    def test_membership_elem_degree_bound_is_inclusive(self, m23_file, capsys):
        elem = f"x1^{cli.MAX_ELEM_DEGREE}"
        assert main(["membership", m23_file, "--elem", elem]) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    @pytest.mark.parametrize("elem", ["x1^" + "9" * 5000, "[[1, 1, [" + "9" * 5000 + "]]]",
                                      "[" * 100000])
    def test_membership_elem_unconvertible(self, m23_file, elem, capsys):
        # more digits than int() converts, or JSON nested too deep to decode
        assert self._error_code(["membership", m23_file, "--elem", elem], capsys) == "FormatError"

    def test_membership_elem_echo_is_cut(self, m23_file, tmp_path, capsys):
        # the FormatError quotes the whole --elem; report and summary keep a bounded part
        out = tmp_path / "report.json"
        assert main(["membership", m23_file, "--elem", "[" * 100000, "-o", str(out)]) == 2
        detail = json.loads(out.read_text(encoding="utf-8"))["error"]["detail"]
        assert detail.startswith("unknown factor '[[[")
        assert detail.endswith("more characters cut]")
        assert out.stat().st_size < 2 * cli.MAX_ERROR_DETAIL
        assert len(capsys.readouterr().err) < 2 * cli.MAX_ERROR_DETAIL

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_max_nilpotence_iters_below_one(self, m22_file, command, bound, capsys):
        # a bound below one would blame the algebra for the flag
        argv = [command, m22_file, "--max-nilpotence-iters", bound]
        assert self._error_code(argv, capsys) == "CliInputError"

    def test_max_nilpotence_iters_one_is_accepted(self, m22_file, capsys):
        assert main(["validate", m22_file, "--max-nilpotence-iters", "1"]) == 0

    def test_seeds_gamma_with_tau(self, m22_file, capsys):
        argv = ["seeds", m22_file, "--gamma", "--tau", "4,3,2,1"]
        assert self._error_code(argv, capsys) == "CliInputError"

    @pytest.mark.parametrize("command,extra", [("seeds", []), ("btilde", []), ("mutate", ["--at", "1"])])
    def test_empty_tau(self, m22_file, command, extra, capsys):
        # an empty --tau is not read as the identity permutation
        argv = [command, m22_file, "--tau", "", *extra]
        assert self._error_code(argv, capsys) == "CliInputError"

    def test_empty_inv(self, m22_file, capsys):
        # an empty --inv is not read as "no inverted frozen index"
        argv = ["membership", m22_file, "--coords", "y", "--elem", "y4^-1", "--inv", ""]
        assert self._error_code(argv, capsys) == "CliInputError"

    def test_empty_affine_q(self, capsys):
        # an empty --q is not read as the zero bracket
        assert self._error_code(["preset", "affine", "--n", "2", "--q", ""], capsys) == "CliInputError"

    @pytest.mark.parametrize("exc", [MemoryError, RuntimeError])
    @pytest.mark.parametrize("argv,target", [
        (["chain-verify"], "chain_verify"),
        (["membership", "--elem", "t11"], "upper_membership"),
    ], ids=["chain-verify", "membership"])
    def test_unexpected_exception_exit_2(self, m22_file, argv, target, exc, capsys, monkeypatch):
        """Any exception ends in exit 2 and a report naming its class, never
        in a traceback and exit 1, which means "not certified"."""
        def fail(*args, **kwargs):
            raise exc("out of luck")

        monkeypatch.setattr(cli.cl, target, fail)
        assert main([argv[0], m22_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error == {"code": exc.__name__, "detail": "out of luck"}
        assert captured.err.strip() == "error: out of luck"

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupts_propagate(self, m22_file, exc, monkeypatch):
        def fail(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(cli.cl, "chain_verify", fail)
        with pytest.raises(exc):
            main(["chain-verify", m22_file])

    def test_error_detail_cut_only_past_the_bound(self):
        text = "e" * cli.MAX_ERROR_DETAIL
        assert cli._detail(ValueError(text)) == text
        assert cli._detail(ValueError(text + "xyz")) == text + "... [3 more characters cut]"

    def test_readme_and_benchmark_elems_under_degree_bound(self):
        """The README's membership example and the benchmark's probes (x-probe
        support of degree 4, y-probe of degree 2) stay under the bound."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_inputs", README.parent / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        names = [f"t{r}{c}" for r in range(1, 5) for c in range(1, 5)]
        elems = re.findall(r'membership FILE --elem "([^"]+)"', README.read_text(encoding="utf-8"))
        assert elems
        for elem in elems + list(inputs.X_PROBE_SUPPORT):
            f = cli._parse_elem(elem, 16, names, "x")
            assert max(sum(map(abs, e)) for e in f.terms) < cli.MAX_ELEM_DEGREE
        f = cli._parse_elem("y9^-1*y16", 16, None, "y")
        assert max(sum(map(abs, e)) for e in f.terms) < cli.MAX_ELEM_DEGREE


def _corrupt(**fields):
    """The 2x2 preset document with some fields replaced (Ellipsis deletes one)."""
    doc = presentation_to_doc(build_matrix_poisson(2, 2), ["a", "b", "c", "d"])
    for key, value in fields.items():
        if value is ...:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _corrupt_entry(field, path, value):
    """The 2x2 preset document with the entry at doc[field][path...] replaced."""
    doc = _corrupt()
    *head, last = path
    target = doc[field]
    for step in head:
        target = target[step]
    assert target[last] in (1, 4)   # the value int() would read back
    target[last] = value
    return doc


MALFORMED = {
    "not_an_object": ([1, 2], "FormatError"),
    "no_n_gens": (_corrupt(n_gens=...), "FormatError"),
    "n_gens_not_a_number": (_corrupt(n_gens="four"), "FormatError"),
    "n_gens_mismatch": (_corrupt(n_gens=5), "FormatError"),
    "weights_not_a_list": (_corrupt(weights=5), "FormatError"),
    "weights_too_short": (_corrupt(weights=[[1, 0, 1, 0]]), "PresentationError"),
    "h_not_a_list": (_corrupt(h=5), "FormatError"),
    "h_float": (_corrupt(h=[[0.5] * 4] * 4), "FormatError"),
    "h_star_not_a_list": (_corrupt(h_star=5), "FormatError"),
    "h_star_rows_not_lists": (_corrupt(h_star=[5, 5, 5, 5]), "FormatError"),
    "h_star_too_short": (_corrupt(h_star=[["1"] * 4]), "PresentationError"),
    "delta_not_a_list": (_corrupt(delta=5), "FormatError"),
    "delta_an_object": (_corrupt(delta={"k": 4, "j": 1}), "FormatError"),
    "delta_entry_not_an_object": (_corrupt(delta=[5]), "FormatError"),
    "delta_poly_not_a_list": (_corrupt(delta=[{"k": 4, "j": 1, "poly": 5}]), "FormatError"),
    "delta_index_out_of_range": (
        _corrupt(delta=[{"k": 9, "j": 1, "poly": [[1, 1, [0, 1, 1, 0]]]}]), "PresentationError"),
    "names_not_a_list": (_corrupt(names=5), "FormatError"),
    "names_a_string": (_corrupt(names="abcd"), "FormatError"),
    "names_too_short": (_corrupt(names=["a"]), "FormatError"),
    # --elem would read a repeated name as its last generator
    "names_repeated": (_corrupt(names=["a", "a", "b", "c"]), "FormatError"),
    # str() would turn these into the names "1" and "None"
    "names_not_strings": (_corrupt(names=[1, None, "c", "d"]), "FormatError"),
    "names_a_list": (_corrupt(names=[["a"], "b", "c", "d"]), "FormatError"),
    # not a factor of a polynomial expression, so --elem could not name it
    "names_with_a_space": (_corrupt(names=["a b", "b", "c", "d"]), "FormatError"),
    "names_with_a_leading_digit": (_corrupt(names=["1a", "b", "c", "d"]), "FormatError"),
    "names_empty_string": (_corrupt(names=["", "b", "c", "d"]), "FormatError"),
    # int() reads each of these back as the value the field had, 1 or 4
    "n_gens_float": (_corrupt(n_gens=4.7), "FormatError"),
    "n_gens_string": (_corrupt(n_gens="4"), "FormatError"),
    "torus_rank_float": (_corrupt(torus_rank=4.2), "FormatError"),
    "weight_float": (_corrupt_entry("weights", [0, 0], 1.9), "FormatError"),
    "weight_bool": (_corrupt_entry("weights", [0, 0], True), "FormatError"),
    "delta_k_float": (_corrupt_entry("delta", [0, "k"], 4.2), "FormatError"),
    "delta_j_float": (_corrupt_entry("delta", [0, "j"], 1.5), "FormatError"),
    "delta_j_bool": (_corrupt_entry("delta", [0, "j"], True), "FormatError"),
    "poly_denominator_bool": (_corrupt_entry("delta", [0, "poly", 0, 1], True), "FormatError"),
    "poly_exponent_bool": (_corrupt_entry("delta", [0, "poly", 0, 2, 1], True), "FormatError"),
    # more digits than json converts to an int; written as text, as json.dumps cannot
    "integer_of_5000_digits": (
        json.dumps(_corrupt(torus_rank="BIG")).replace('"BIG"', "1" * 5000), "CliInputError"),
}


@pytest.mark.parametrize("command", ["analyze", "chain-verify"])
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_presentation_exit_2(name, command, tmp_path, capsys):
    doc, code = MALFORMED[name]
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main([command, str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == command
    assert report["error"]["code"] == code


def test_preset_names_with_underscores_round_trip(tmp_path, capsys):
    # the 2x10 preset names its generators t1_1 ... t2_10; --elem reads them
    # and the report renders the element with them
    path = str(tmp_path / "m2_10.json")
    assert main(["preset", "matrix", "--m", "2", "--n", "10", "-o", path]) == 0
    capsys.readouterr()
    assert main(["membership", path, "--elem", "t1_1*t2_2 - t1_2*t2_1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified"] is True
    assert doc["element"]["text"] == "t1_1*t2_2 - t1_2*t2_1"


def test_y_membership_report_names_its_element_in_y(tmp_path, capsys):
    path = str(tmp_path / "m22.json")
    assert main(["preset", "matrix", "--m", "2", "--n", "2", "-o", path]) == 0
    capsys.readouterr()
    assert main(["membership", path, "--coords", "y", "--elem", "y4^-1"]) == 1
    assert json.loads(capsys.readouterr().out)["element"]["text"] == "y4^-1"


@pytest.mark.parametrize("names, detail", [
    (["a", "a", "b", "c"], "names must be distinct"),
    ([1, None, "c", "d"], "name 1 is not a letter followed by letters, digits or _"),
    (["a", None, "c", "d"], "name None is not a letter followed by letters, digits or _"),
    (["a b", "b", "c", "d"], "name 'a b' is not a letter followed by letters, digits or _"),
])
def test_names_must_be_distinct_factors(names, detail, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_corrupt(names=names)))
    assert main(["membership", str(path), "--elem", "a"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"code": "FormatError", "detail": detail}


def test_integer_limit_detail_names_the_limit(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(MALFORMED["integer_of_5000_digits"][0])
    assert main(["analyze", str(path)]) == 2
    detail = json.loads(capsys.readouterr().out)["error"]["detail"]
    assert detail.endswith("invalid JSON: pcgl reads integers of at most 4300 digits")
    assert "set_int_max_str_digits" not in detail


def _matrix_doc(m, n):
    names = [f"t{r}{c}" for r in range(1, m + 1) for c in range(1, n + 1)]
    return presentation_to_doc(build_matrix_poisson(m, n), names)


def _zero_eigenvalue_doc():
    """The 2x2 preset with h_1 = (1, 0, 1, 0), so lambda_1 = 0."""
    doc = _matrix_doc(2, 2)
    doc["h"][0] = ["1", "0", "1", "0"]
    return doc


def _jacobi_failure_doc():
    """The 3x3 preset with the coefficient of delta_9(x_1) changed from -2 to -3."""
    doc = _matrix_doc(3, 3)
    entry = next(e for e in doc["delta"] if (e["k"], e["j"]) == (9, 1))
    assert [term[0] for term in entry["poly"]] == [-2]
    entry["poly"][0][0] = -3
    return doc


AXIOM_FAILURES = {"ZeroEigenvalue": _zero_eigenvalue_doc, "JacobiFailure": _jacobi_failure_doc}


@pytest.mark.parametrize("argv", [["chain-verify"], ["seeds"], ["btilde"], ["mutate", "--at", "1"],
                                  ["membership", "--elem", "t11"]],
                         ids=["chain-verify", "seeds", "btilde", "mutate", "membership"])
@pytest.mark.parametrize("code", sorted(AXIOM_FAILURES))
def test_cluster_commands_check_the_algebra_axioms(code, argv, tmp_path, capsys):
    """Inputs that validate rejects are input errors for every cluster command too."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(AXIOM_FAILURES[code]()))
    assert main(["validate", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["validation"]["failures"][0]["code"] == code
    assert main([argv[0], str(path), *argv[1:]]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == argv[0]
    assert report["error"]["code"] == code


def _variables_y_per_bundle(ctx, bundle):
    """The y-coordinate reports of one bundle, each variable rewritten anew
    by substitution (tau_oracles.to_y_coordinates)."""
    names = [f"y{i+1}" for i in range(len(bundle.vars_x))]
    return [poly_report(v, names) for v in to_y_coordinates(ctx, bundle.vars_x)]


@pytest.mark.parametrize("build", [lambda: build_matrix_poisson(2, 3),
                                   lambda: build_matrix_poisson(3, 3),
                                   rescaled_3x3], ids=["2x3", "3x3", "rescaled_3x3"])
def test_seeds_variables_y_equal_per_bundle_conversion(build, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation_to_doc(build())))
    assert main(["seeds", str(path), "--gamma"]) == 0
    bundles = json.loads(capsys.readouterr().out)["bundles"]
    ctx = cli.cl.ClusterContext.build(presentation_from_doc(json.loads(path.read_text()))[0])
    perms = gamma_chain(ctx.p.n)
    assert [tuple(v - 1 for v in b["tau"]) for b in bundles] == list(perms)
    for doc, bundle in zip(bundles, cli.cl.gamma_bundles(ctx)):
        assert doc["variables_y"] == _variables_y_per_bundle(ctx, bundle)


@pytest.mark.parametrize("build, gamma", [
    (rescaled_3x3, ["1", "1", "1", "1", "-2/9", "-5/8", "1", "-1/90", "-1/14"]),
    (lambda: build_matrix_poisson(4, 4), None)], ids=["rescaled_3x3", "4x4"])
def test_mutate_and_seeds_report_one_gamma_applied(build, gamma, tmp_path, capsys):
    # mutate writes its variables in the prime sequence of the rescaled
    # presentation, so it reports the rescaling as seeds does
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation_to_doc(build())))
    for argv in (["seeds"], ["mutate", "--at", "1"]):
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert json.loads(capsys.readouterr().out).get("gamma_applied") == gamma


def _usage_variants(line):
    """Every argv a README usage line stands for, with the leading pcgl dropped.

    `a | b` outside brackets is a shell pipe; `[a | b]` is an optional choice
    of alternatives, and a token `x|y` is a choice of values.
    """
    commands, items, group = [], [], None
    for tok in shlex.split(line, comments=True):
        if tok.startswith("["):
            group, tok = [[]], tok[1:]
        closes = tok.endswith("]")
        tok = tok.rstrip("]")
        if group is None:
            if tok == "|":
                commands.append(items)
                items = []
            else:
                items.append([[tok]])
        else:
            if tok == "|":
                group.append([])
            elif tok:
                group[-1].append(tok)
            if closes:
                items.append([[]] + group)   # omitted, or one alternative
                group = None
    commands.append(items)
    for items in commands:
        assert items[0] == [["pcgl"]]
        for choice in itertools.product(*items[1:]):
            words = [w for alternative in choice for w in alternative]
            yield from itertools.product(*(w.split("|") for w in words))


def test_readme_cli_lines_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("pcgl ")]
    assert len(lines) >= 10
    for line in lines:
        for argv in _usage_variants(line):
            try:
                cli.build_parser().parse_args(list(argv))
            except SystemExit:
                pytest.fail(f"README usage does not parse: {' '.join(argv)!r} (from {line!r})")


class TestDeterminism:
    def test_byte_identical_reports(self, m23_file):
        a = run_cli(["chain-verify", m23_file])
        b = run_cli(["chain-verify", m23_file])
        assert a.stdout == b.stdout

    def test_roundtrip_equals_in_memory(self, m23_file):
        from pcgl.cgl import compute_eta_and_primes
        from pcgl.presets import build_matrix_poisson
        from pcgl.serialize import presentation_from_doc
        doc = json.load(open(m23_file))
        parsed, _ = presentation_from_doc(doc)
        direct = build_matrix_poisson(2, 3)
        assert parsed == direct
        e1, s1 = compute_eta_and_primes(parsed)
        e2, s2 = compute_eta_and_primes(direct)
        assert s1.y == s2.y and e1.eta == e2.eta
