"""CLI surface: subcommands, exit codes, pipelines, determinism."""

import itertools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pcgl import cli
from pcgl.cli import main
from pcgl.presets import build_matrix_poisson
from pcgl.serialize import poly_report, presentation_from_doc, presentation_to_doc

from conftest import rescaled_3x3

README = Path(__file__).resolve().parents[1] / "README.md"
# The child process imports the same pcgl as this one, installed or not.
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args, stdin=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pcgl.cli", *args],
                          capture_output=True, text=True, input=stdin,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc


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

    def test_enum_cap(self, m22_file, capsys, monkeypatch):
        monkeypatch.setenv("PCGL_MAX_N", "3")
        assert main(["chain-verify", m22_file]) == 2


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


def _variables_y_per_bundle(ctx, tau):
    """The y-coordinate reports of one bundle, each variable rewritten anew."""
    bundle = cli.cl.seed_for_tau(ctx, tau)
    names = [f"y{i+1}" for i in range(len(bundle.vars_x))]
    return [poly_report(ctx.to_y_coordinates(v), names) for v in bundle.vars_x]


@pytest.mark.parametrize("build", [lambda: build_matrix_poisson(2, 3),
                                   lambda: build_matrix_poisson(3, 3),
                                   rescaled_3x3], ids=["2x3", "3x3", "rescaled_3x3"])
def test_seeds_variables_y_equal_per_bundle_conversion(build, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(presentation_to_doc(build())))
    assert main(["seeds", str(path), "--gamma"]) == 0
    bundles = json.loads(capsys.readouterr().out)["bundles"]
    ctx, _ = cli._build_context(presentation_from_doc(json.loads(path.read_text()))[0])
    perms = ctx.gamma().perms
    assert [tuple(v - 1 for v in b["tau"]) for b in bundles] == list(perms)
    for doc, tau in zip(bundles, perms):
        assert doc["variables_y"] == _variables_y_per_bundle(ctx, tau)


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
