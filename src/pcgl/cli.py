"""Command-line surface binding the modules into a reproducible pipeline.

JSON reports go to stdout (or -o FILE); a short human summary goes to
stderr so pipelines like ``pcgl preset matrix --m 2 --n 2 | pcgl analyze -``
stay machine-clean.  Exit codes: 0 all verified, 1 verification failure,
2 input error or any other error, whose report names the exception class.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import cluster as cl
from . import serialize as ser
from .cgl import EtaData, certify_prime_sequence, compute_eta_and_primes, hmax_equations
from .presentation import validate_algebra
from .presets import build_affine_space, build_matrix_poisson
from .serialize import FormatError
from .symmetric import (
    Incompatible,
    compute_d_integers,
    pi_values,
    rescale_generators,
    validate_symmetric,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

# Most generators a Gamma_N command (chain-verify, membership, seeds --gamma)
# accepts: Gamma_N has N(N-1)/2 + 1 permutations; 36 admits the 6x6 preset.
MAX_GAMMA_GENERATORS = 36

# Largest total degree (sum of absolute exponents) of one term of a
# membership --elem.  The cost of substituting a term grows steeply with its
# degree.  An x-input whose generator images certify each cluster is not
# substituted: under Python 3.11 on 2 vCPUs, x1^6 takes about 0.14 s on the
# 4x4 preset and 0.4 s on 5x5 (CLI runs).  A y-input is substituted in every
# cluster: y6^-3*y1^3 takes 10.2 s on 5x5 (one CLI run).
MAX_ELEM_DEGREE = 6

# Most decimal digits in the numerator or denominator of one --elem
# coefficient: the report prints the element, and 4300 digits is the most
# Python converts between int and str by default.
MAX_ELEM_COEFF_DIGITS = 4300

# Most generators `pcgl preset` emits (m*n for matrix, n for affine).  The
# cost grows as N^3: 10x10 takes about 1 s and 43 MB, 20x20 took 30 s and
# 1.5 GB.
MAX_PRESET_GENERATORS = 100

# Longest error detail a report or summary echoes.  A detail can quote the
# offending input (a whole --elem or --tau); a longer one keeps its first
# MAX_ERROR_DETAIL characters and says how many it cut.
MAX_ERROR_DETAIL = 500


class CliInputError(Exception):
    pass


def _load_json(text: str, what: str):
    """json.loads, raising every failure as a CliInputError about `what`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # malformed, or nested too deep
        raise CliInputError(f"{what}: invalid JSON: {exc}") from exc
    except ValueError as exc:   # an integer longer than Python converts from str
        raise CliInputError(f"{what}: invalid JSON: pcgl reads integers of at most "
                            f"{sys.get_int_max_str_digits()} digits") from exc


def _read_doc(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    doc = _load_json(text, path)
    if isinstance(doc, dict) and "presentation" in doc and "n_gens" not in doc:
        doc = doc["presentation"]
    return doc


def _load_presentation(path: str):
    return ser.presentation_from_doc(_read_doc(path))


def _emit(report: dict, out: Optional[str], summary: str) -> None:
    text = ser.dump_json(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliInputError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    if summary:
        print(summary, file=sys.stderr)


def _parse_tau(text: str, n: int) -> Tuple[int, ...]:
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"--tau must be a comma-separated permutation: {text!r}") from exc
    if sorted(vals) != list(range(1, n + 1)):
        raise CliInputError(f"--tau must be a permutation of 1..{n}")
    return tuple(v - 1 for v in vals)


def _parse_inv(text: Optional[str], eta: EtaData) -> List[int]:
    """Distinct frozen indices, 0-based; --inv acts on nothing else."""
    if text is None:
        return []
    n = len(eta.eta)
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"--inv must be comma-separated indices: {text!r}") from exc
    if any(not 1 <= v <= n for v in vals):
        raise CliInputError(f"--inv indices must lie in 1..{n}: {text!r}")
    for i, v in enumerate(vals):
        if v in vals[:i]:
            raise CliInputError(f"--inv index {v} is repeated: {text!r}")
        if eta.succ[v - 1] is not None:
            raise CliInputError(f"--inv index {v} is exchangeable, not frozen: {text!r}")
    return [v - 1 for v in vals]


def _parse_q(text: str) -> List[list]:
    rows = _load_json(text, "--q")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise CliInputError("--q must be a JSON list of rows")
    return [[ser.fraction_from_json(x) for x in row] for row in rows]


def _max_nilpotence_iters(args) -> Optional[int]:
    """--max-nilpotence-iters, which must allow at least one iteration."""
    bound = args.max_nilpotence_iters
    if bound is not None and bound < 1:
        raise CliInputError(f"--max-nilpotence-iters must be at least 1, not {bound}")
    return bound


def _check_gamma_size(n: int) -> None:
    if n > MAX_GAMMA_GENERATORS:
        raise CliInputError(f"N = {n} exceeds {MAX_GAMMA_GENERATORS}, the largest number of "
                            "generators a Gamma_N command accepts")


def _parse_elem(text: str, n: int, names, coords: str):
    """The membership element: JSON triples, else a polynomial expression,
    with every term of total degree at most MAX_ELEM_DEGREE and every
    coefficient of at most MAX_ELEM_COEFF_DIGITS digits over and under."""
    try:
        f = ser.poly_from_triples(n, _load_json(text, "--elem"))
    except (CliInputError, FormatError):
        prefix = "y" if coords == "y" else "x"
        f = ser.parse_poly_expr(text, n, names if coords == "x" else None, prefix=prefix)
    too_long = 10 ** MAX_ELEM_COEFF_DIGITS
    for e, c in f.terms.items():
        degree = sum(map(abs, e))
        if degree > MAX_ELEM_DEGREE:
            raise CliInputError(f"--elem has a term of total degree {degree}; membership accepts "
                                f"at most {MAX_ELEM_DEGREE}")
        if abs(c.numerator) >= too_long or c.denominator >= too_long:
            raise CliInputError(f"--elem has a coefficient of more than {MAX_ELEM_COEFF_DIGITS} "
                                f"digits; membership accepts at most {MAX_ELEM_COEFF_DIGITS}")
    return f


def _detail(exc: Exception) -> str:
    """str(exc), cut to MAX_ERROR_DETAIL characters with the cut marked."""
    text = str(exc)
    if len(text) <= MAX_ERROR_DETAIL:
        return text
    return f"{text[:MAX_ERROR_DETAIL]}... [{len(text) - MAX_ERROR_DETAIL} more characters cut]"


def _error_report(command: str, exc: Exception) -> dict:
    return {"command": command, "error": {"code": type(exc).__name__, "detail": _detail(exc)}}


def _bmatrix_dict(b: cl.BMatrix) -> dict:
    return {
        "ex": [l + 1 for l in b.ex],
        "rows": b.as_rows(),
    }


def _rmatrix_dict(m) -> List[List[str]]:
    """The report of r, alpha or q: its int numerators over lam_den, as rationals."""
    nums, den = m
    return [[ser.fraction_to_json(Fraction(x, den)) for x in row] for row in nums]


def _beta_dict(beta) -> Dict[str, str]:
    return {str(l + 1): ser.fraction_to_json(v) for l, v in sorted(beta.items())}


def _note_gamma(doc: dict, gamma) -> None:
    """Report the pi-normalizing rescaling, when one was applied."""
    if any(g != 1 for g in gamma):
        doc["gamma_applied"] = [ser.fraction_to_json(g) for g in gamma]


def _y_names(n: int) -> List[str]:
    return [f"y{i+1}" for i in range(n)]


def _bundle_dict(ctx: cl.ClusterContext, bundle: cl.TauSeedBundle, names,
                 y_reports: Dict[Tuple[int, int], dict]) -> dict:
    """Report of one bundle; y_reports maps each interval label already seen
    to its variable's report in initial-y coordinates and gains the new ones."""
    for label in bundle.intervals:
        if label not in y_reports:
            y_reports[label] = ser.poly_report(ctx.variable_in_y(label), _y_names(ctx.p.n))
    return {
        "tau": [v + 1 for v in bundle.tau],
        "tau_bullet_tau": [v + 1 for v in bundle.sigma],
        "variables_x": [ser.poly_report(v, names) for v in bundle.vars_x],
        "variables_y": [y_reports[label] for label in bundle.intervals],
        "intervals": [[i + 1, m] for (i, m) in bundle.intervals],
        "weights": [list(w) for w in bundle.weights],
        "r": _rmatrix_dict(bundle.r),
        "btilde": _bmatrix_dict(bundle.btilde),
        "beta": _beta_dict(bundle.beta),
    }


# --------------------------------------------------------------------- commands


def cmd_preset(args) -> int:
    n_gens = args.m * args.n if args.kind == "matrix" else args.n
    if n_gens > MAX_PRESET_GENERATORS:
        raise CliInputError(f"N = {n_gens} exceeds {MAX_PRESET_GENERATORS}, the largest number of "
                            "generators a preset emits")
    if args.kind == "matrix":
        p = build_matrix_poisson(args.m, args.n)
        if args.m <= 9 and args.n <= 9:
            names = [f"t{r}{c}" for r in range(1, args.m + 1) for c in range(1, args.n + 1)]
        else:
            names = [f"t{r}_{c}" for r in range(1, args.m + 1) for c in range(1, args.n + 1)]
        summary = f"matrix Poisson preset {args.m}x{args.n}: N = {p.n}, torus rank {p.torus_rank}"
    else:
        q_rows = _parse_q(args.q) if args.q is not None else [[0] * args.n for _ in range(args.n)]
        p = build_affine_space(args.n, q_rows)
        names = None
        summary = f"Poisson affine space preset: N = {p.n}"
    _emit(ser.presentation_to_doc(p, names), args.output, summary)
    return EXIT_OK


def cmd_validate(args) -> int:
    bound = _max_nilpotence_iters(args)
    p, names = _load_presentation(args.file)
    report = validate_algebra(p, max_nilpotence_iters=bound)
    doc = {"command": "validate", "validation": ser.validation_report(report)}
    ok = report.passed
    _emit(doc, args.output, f"validation {'passed' if ok else 'FAILED'}: "
          + ", ".join(f"{k}={v}" for k, v in sorted(report.checks.items())))
    return EXIT_OK if ok else EXIT_INPUT


def cmd_analyze(args) -> int:
    bound = _max_nilpotence_iters(args)
    p, names = _load_presentation(args.file)
    vrep = validate_algebra(p, max_nilpotence_iters=bound)
    if not vrep.passed:
        _emit({"command": "analyze", "validation": ser.validation_report(vrep)}, args.output,
              "validation FAILED; aborting analysis")
        return EXIT_INPUT
    eta, seq = compute_eta_and_primes(p)
    qd = certify_prime_sequence(p, eta, seq)
    eqs, dim = hmax_equations(p, eta)
    doc = {
        "command": "analyze",
        "validation": ser.validation_report(vrep),
        "eta": eta.as_dict(),
        "y": [ser.poly_report(f, names) for f in seq.y],
        "leading_exponents": [list(e) for e in seq.leading_exponents],
        "y_weights": [list(w) for w in seq.weights],
        "alpha": _rmatrix_dict(qd.alpha),
        "q": _rmatrix_dict(qd.q),
        "hmax": {"equations": [e.as_dict() for e in eqs], "dimension": dim},
        "certified": True,
    }
    _emit(doc, args.output,
          f"rank {eta.rank}; exchangeable {[x+1 for x in eta.exchangeable]}; certification passed")
    return EXIT_OK


def cmd_symmetric(args) -> int:
    p, names = _load_presentation(args.file)
    vrep = validate_algebra(p)
    if not vrep.passed:
        _emit({"command": "symmetric", "validation": ser.validation_report(vrep)}, args.output,
              "P-CGL validation FAILED")
        return EXIT_INPUT
    srep, ps, primes = validate_symmetric(p)
    doc = {"command": "symmetric", "validation": ser.validation_report(vrep),
           "symmetric": ser.validation_report(srep)}
    if not srep.passed:
        _emit(doc, args.output, "symmetric validation FAILED")
        return EXIT_INPUT
    eta, _ = primes
    doc["lambda_star"] = [ser.fraction_to_json(v) for v in ps.lam_star]
    try:
        d_map, qscale = compute_d_integers(ps, eta)
    except Incompatible as exc:
        doc["d_integers"] = {"error": {"code": "Incompatible", "detail": str(exc)}}
        _emit(doc, args.output, f"symmetric, but d-integers incompatible: {exc}")
        return EXIT_INPUT
    doc["d_integers"] = {"by_label": {str(k): v for k, v in sorted(d_map.items())},
                         "q": ser.fraction_to_json(qscale)}
    _emit(doc, args.output, f"symmetric; lambda* consistent; d = {d_map}, q = {qscale}")
    return EXIT_OK


def cmd_rescale(args) -> int:
    p, names = _load_presentation(args.file)
    vrep = validate_algebra(p)
    if not vrep.passed:
        _emit({"command": "rescale", "validation": ser.validation_report(vrep)}, args.output,
              "P-CGL validation FAILED")
        return EXIT_INPUT
    srep, ps, primes = validate_symmetric(p)
    if not srep.passed:
        _emit({"command": "rescale", "validation": ser.validation_report(vrep),
               "symmetric": ser.validation_report(srep)},
              args.output, "input not a valid symmetric presentation")
        return EXIT_INPUT
    eta, _ = primes
    gamma, p2 = rescale_generators(ps, eta)
    pis = dict(pi_values(p2, compute_eta_and_primes(p2)[0]))
    doc = {
        "command": "rescale",
        "gamma": [ser.fraction_to_json(g) for g in gamma],
        "pi_after": {str(i + 1): ser.fraction_to_json(v) for i, v in sorted(pis.items())},
        "presentation": ser.presentation_to_doc(p2, names),
    }
    ok = all(v == 1 for v in pis.values())
    _emit(doc, args.output, f"gamma = {[str(g) for g in gamma]}; pi normalized: {ok}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_seeds(args) -> int:
    if args.gamma and args.tau is not None:
        raise CliInputError("--gamma and --tau exclude each other")
    p, names = _load_presentation(args.file)
    if args.gamma:
        _check_gamma_size(p.n)
    ctx, gamma = cl.ClusterContext.build_normalizing(p)
    if args.gamma:
        chosen = cl.gamma_bundles(ctx)
    else:
        tau = _parse_tau(args.tau, p.n) if args.tau is not None else tuple(range(p.n))
        chosen = [cl.seed_for_tau(ctx, tau)]
    y_reports: Dict[Tuple[int, int], dict] = {}
    bundles = [_bundle_dict(ctx, bundle, names, y_reports) for bundle in chosen]
    doc = {"command": "seeds", "bundles": bundles}
    _note_gamma(doc, gamma)
    _emit(doc, args.output, f"{len(bundles)} seed bundle(s) computed")
    return EXIT_OK


def cmd_btilde(args) -> int:
    p, names = _load_presentation(args.file)
    ctx, _ = cl.ClusterContext.build_normalizing(p)
    tau = _parse_tau(args.tau, p.n) if args.tau is not None else tuple(range(p.n))
    bundle = cl.seed_for_tau(ctx, tau)
    doc = {"command": "btilde", "tau": [v + 1 for v in tau],
           "btilde": _bmatrix_dict(bundle.btilde),
           "beta": _beta_dict(bundle.beta)}
    _emit(doc, args.output, f"exchange matrix with columns {[l+1 for l in bundle.btilde.ex]}")
    return EXIT_OK


def cmd_mutate(args) -> int:
    p, names = _load_presentation(args.file)
    ctx, _ = cl.ClusterContext.build_normalizing(p)
    tau = _parse_tau(args.tau, p.n) if args.tau is not None else tuple(range(p.n))
    bundle = cl.seed_for_tau(ctx, tau)
    k = args.at - 1
    mutated = cl.mutate_seed(ctx, bundle, k)
    ynames = _y_names(p.n)
    doc = {
        "command": "mutate",
        "tau": [v + 1 for v in tau],
        "at": args.at,
        "variables_y": [ser.poly_report(v, ynames) for v in mutated.vars_y],
        "r": _rmatrix_dict(mutated.r),
        "btilde": _bmatrix_dict(mutated.btilde),
        "beta": _beta_dict(mutated.beta),
    }
    _emit(doc, args.output, f"mutated seed at direction {args.at}")
    return EXIT_OK


def cmd_chain_verify(args) -> int:
    p, names = _load_presentation(args.file)
    _check_gamma_size(p.n)
    ctx, gamma = cl.ClusterContext.build_normalizing(p)
    link_dicts = [link.as_dict() for link in cl.chain_verify(ctx)]
    ok = all(l["verified"] for l in link_dicts)
    n_mut = sum(1 for l in link_dicts if l["branch"] == "mutation")
    doc = {"command": "chain-verify", "links": link_dicts,
           "summary": {"links": len(link_dicts), "mutations": n_mut,
                       "equal": len(link_dicts) - n_mut, "all_verified": ok}}
    _note_gamma(doc, gamma)
    _emit(doc, args.output,
          f"{len(link_dicts)} links, {n_mut} mutations, all verified: {ok}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_membership(args) -> int:
    p, names = _load_presentation(args.file)
    _check_gamma_size(p.n)
    coords = args.coords
    f = _parse_elem(args.elem, p.n, names, coords)
    ctx, _ = cl.ClusterContext.build_normalizing(p)
    inv = _parse_inv(args.inv, ctx.eta)
    ok, witnesses = cl.upper_membership(ctx, f, inv=inv, coords=coords)
    doc = {
        "command": "membership",
        "element": ser.poly_report(f, names if coords == "x" else _y_names(p.n)),
        "coords": coords,
        "inv": [i + 1 for i in inv],
        "certified": ok,
        "witnesses": [w.as_dict() for w in witnesses],
    }
    _emit(doc, args.output, f"membership certified: {ok}")
    return EXIT_OK if ok else EXIT_VERIFY


# ------------------------------------------------------------------ entry point


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcgl", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, tau=False):
        sp.add_argument("file", help="presentation JSON file, or - for stdin")
        sp.add_argument("-o", "--output", help="write the JSON report here instead of stdout")
        if tau:
            sp.add_argument("--tau", help="one-line permutation, e.g. 2,3,4,1")

    sp = sub.add_parser("preset", help="emit a canonical presentation")
    sp.add_argument("kind", choices=["matrix", "affine"])
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--q", help="affine only: skew-symmetric matrix as JSON rows")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_preset)

    sp = sub.add_parser("validate", help="check the Poisson/torus axioms")
    common(sp)
    sp.add_argument("--max-nilpotence-iters", type=int, default=None)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="eta/p/s, prime sequence, rank, alpha/q, H_max")
    common(sp)
    sp.add_argument("--max-nilpotence-iters", type=int, default=None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("symmetric", help="symmetry axioms, lambda*, d-integers")
    common(sp)
    sp.set_defaults(func=cmd_symmetric)

    sp = sub.add_parser("rescale", help="normalize pi to 1 by rescaling generators")
    common(sp)
    sp.set_defaults(func=cmd_rescale)

    sp = sub.add_parser("seeds", help="seed bundles per permutation")
    common(sp, tau=True)
    sp.add_argument("--gamma", action="store_true", help="all Gamma_N bundles")
    sp.set_defaults(func=cmd_seeds)

    sp = sub.add_parser("btilde", help="exchange matrix for one permutation")
    common(sp, tau=True)
    sp.set_defaults(func=cmd_btilde)

    sp = sub.add_parser("mutate", help="mutate the tau-seed in one direction")
    common(sp, tau=True)
    sp.add_argument("--at", type=int, required=True, help="1-based exchangeable direction")
    sp.set_defaults(func=cmd_mutate)

    sp = sub.add_parser("chain-verify", help="verify every adjacent Gamma_N link")
    common(sp)
    sp.set_defaults(func=cmd_chain_verify)

    sp = sub.add_parser("membership", help="upper-cluster membership certificate")
    common(sp)
    sp.add_argument("--elem", required=True, help="polynomial (expression or JSON triples)")
    sp.add_argument("--coords", choices=["x", "y"], default="x",
                    help="coordinates of --elem: generators (x) or initial cluster (y)")
    sp.add_argument("--inv", help="frozen indices allowed inverses, e.g. 4,6")
    sp.set_defaults(func=cmd_membership)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, FormatError) as exc:
        _emit_error(args, exc, f"input error: {_detail(exc)}")
        return EXIT_INPUT
    except Exception as exc:   # KeyboardInterrupt and SystemExit propagate
        _emit_error(args, exc, f"error: {_detail(exc)}")
        return EXIT_INPUT


def _emit_error(args, exc: Exception, summary: str) -> None:
    """Write the error report to -o, or to stdout when -o cannot be written."""
    report = _error_report(args.command, exc)
    try:
        _emit(report, getattr(args, "output", None), summary)
    except CliInputError:
        _emit(report, None, summary)


if __name__ == "__main__":
    sys.exit(main())
