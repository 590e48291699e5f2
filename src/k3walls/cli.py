"""Command-line front end.

Machine-readable JSON goes to stdout (sorted keys, stable formatting); short
human summaries go to stderr.  Exit status: 0 on success, 1 on domain errors
including flag problems, 2 on verification failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import chains, hbn, strata, tableaux, verify
from .errors import DomainError, OracleViolation, SearchBudgetExceeded
from .jsonio import dumps_canonical, frac_str, parse_frac
from .lattice import MukaiVector, SurfaceParams, check_special_shape, line_bundle_vector
from .stability import StabilityParams, default_epsilon, wall_on_axis
from .svg import render_wall_diagram

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_VERIFICATION_FAILURE = 2

#: Every integer read from the command line, and every numerator and
#: denominator of a rational one, is below 2**MAX_INPUT_BITS, so it has at
#: most 300 decimal digits.  A printed value has at most about 11 times the
#: digits of the inputs it is computed from (a wall position with the default
#: eps is the largest), which keeps it below Python's 4,300-digit limit on
#: int-to-str conversion.
MAX_INPUT_BITS = 996


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports usage problems as domain errors (exit 1).

    A value that starts with a minus sign and a digit, such as -1/2 or
    -1,1,0,-2, is a value for every option, not only a plain negative number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise DomainError(message, code="bad_usage")


def _check_size(numbers, what: str, code: str) -> None:
    """Reject an input integer of more than MAX_INPUT_BITS bits."""
    if any(n.bit_length() > MAX_INPUT_BITS for n in numbers):
        raise DomainError(f"{what}: an integer of more than {MAX_INPUT_BITS} bits", code=code)


def _check_int_flags(args) -> None:
    for name, value in vars(args).items():
        if type(value) is int:
            _check_size([value], f"argument --{name.replace('_', '-')}", "bad_usage")


def _fraction_parts(values) -> list[int]:
    return [n for f in values for n in (f.numerator, f.denominator)]


def _parse_vector(text: str) -> MukaiVector:
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"expected r,x,y,s with four entries, got {text!r}", code="bad_vector")
    try:
        r, x, y, s = (int(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"bad vector {text!r}: {exc}", code="bad_vector") from exc
    _check_size((r, x, y, s), "vector", "bad_vector")
    return MukaiVector(r, x, y, s)


def _parse_type(text: str) -> strata.StabilityType:
    try:
        pairs = json.loads(text)
    except ValueError as exc:  # malformed JSON, or a number past the int-from-str limit
        raise DomainError(f"bad type JSON {text!r}: {exc}", code="bad_type") from exc
    t = strata.StabilityType.from_list(pairs)
    _check_size([n for pair in t.pairs for n in pair], "type", "bad_type")
    return t


def _parse_viewport(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"expected bmin,bmax,wmin,wmax, got {text!r}", code="bad_viewport")
    try:
        viewport = tuple(Fraction(p) for p in parts)  # accepts both p/q and decimals
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad viewport {text!r}: {exc}", code="bad_viewport") from exc
    _check_size(_fraction_parts(viewport), "viewport", "bad_viewport")
    return viewport


def _stability_params(args) -> tuple[MukaiVector, StabilityParams, str]:
    params = SurfaceParams(args.g, args.k)
    v = _parse_vector(args.v)
    if args.eps is not None:
        eps = parse_frac(args.eps)
        _check_size(_fraction_parts([eps]), "eps", "bad_eps")
    else:
        eps = default_epsilon(params, v)
    return v, StabilityParams(params, eps), frac_str(eps)


def _emit(args, inputs: dict, result, summary: str, warnings=()) -> None:
    """Write the report of subcommand ``args.command`` to stdout, the summary to stderr."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "warnings": list(warnings),
    }
    sys.stdout.write(dumps_canonical(report))
    sys.stderr.write(summary + "\n")


# ------------------------------------------------------------- subcommands

def _cmd_rho(args) -> int:
    value = hbn.rho(args.g, args.r, args.d)
    inputs = {"g": args.g, "r": args.r, "d": args.d}
    _emit(args, inputs, {"rho": value}, f"rho(g={args.g}, r={args.r}, d={args.d}) = {value}")
    return EXIT_OK


def _cmd_rho_k(args) -> int:
    value, argmax = hbn.rho_k(args.g, args.k, args.r, args.d)
    result = {"rho_k": value, "argmax_ell": argmax}
    inputs = {"g": args.g, "k": args.k, "r": args.r, "d": args.d}
    _emit(
        args, inputs, result,
        f"rho_{args.k}(g={args.g}, r={args.r}, d={args.d}) = {value}, "
        f"argmax ell = {argmax}",
    )
    return EXIT_OK


def _cmd_decompose(args) -> int:
    dec = hbn.ell_decompose(args.r, args.ell)
    result = {"ell": dec.ell, "e": dec.e, "m1": dec.m1, "m2": dec.m2}
    inputs = {"r": args.r, "ell": args.ell}
    warnings: list[str] = []
    if args.g is not None and args.k is not None and args.d is not None:
        inputs.update({"g": args.g, "k": args.k, "d": args.d})
        dims = hbn.degeneracy_dims(args.g, args.k, args.d, args.r, args.ell)
        result["degeneracy"] = {
            "s": dims.s,
            "rk_e": dims.rk_e,
            "rk_f": dims.rk_f,
            "expected_dim": dims.expected_dim,
            "h0_conditions": (
                f"vanishing h0 after twisting down e+2 = {dec.e + 2} pencil steps; "
                f"h0 = m1 = {dec.m1} after e+1 steps"
            ),
        }
    elif args.g is not None or args.k is not None or args.d is not None:
        warnings.append("degeneracy block needs all of --g, --k, --d; skipped")
    _emit(
        args, inputs, result,
        f"ell={args.ell} on r={args.r}: e={dec.e}, m1={dec.m1}, m2={dec.m2}",
        warnings,
    )
    return EXIT_OK


def _cmd_types(args) -> int:
    params = SurfaceParams(args.g, args.k)
    v = _parse_vector(args.v)
    check_special_shape(v)
    items = []
    for t in strata.enumerate_types(args.r, refined=args.refined).items:
        if args.square_filter and not strata.passes_square_filter(params, v, t):
            continue
        items.append(
            {
                "type": t.to_list(),
                "dim": strata.stratum_dimension(params, v, t),
                "ell": strata.ell_value(t, args.r),
                "verdict": strata.type_verdict(params, v, t).value,
            }
        )
    result = {
        "r": args.r,
        "refined": args.refined,
        "square_filtered": args.square_filter,
        "items": items,
    }
    inputs = {"g": args.g, "k": args.k, "v": args.v, "r": args.r,
              "refined": args.refined, "square_filter": args.square_filter}
    _emit(args, inputs, result, f"{len(items)} stability types for r={args.r}")
    return EXIT_OK


def _cmd_walls(args) -> int:
    v, sp, eps_text = _stability_params(args)
    t = _parse_type(args.type)
    walls = strata.wall_sequence(sp, v, t)
    result = {"eps": eps_text, "walls": [w.to_dict() for w in walls]}
    inputs = {"g": args.g, "k": args.k, "eps": args.eps, "v": args.v, "type": args.type}
    _emit(
        args, inputs, result,
        "walls at w = " + ", ".join(frac_str(w.w) for w in walls),
    )
    return EXIT_OK


def _cmd_tableaux(args) -> int:
    report = tableaux.oracle_check(args.g, args.k, args.r, args.d, budget=args.budget)
    result = {
        "feasible": report.feasible,
        "omitted": report.omitted,
        "rho_k": report.rho_k,
        "argmax_ell": list(report.argmax_ell),
        "equality": report.equality,
        "witness": report.witness.to_list() if report.witness else None,
    }
    inputs = {"g": args.g, "k": args.k, "r": args.r, "d": args.d}
    summary = (
        f"omitted = {report.omitted}, rho_k = {report.rho_k}"
        if report.feasible
        else f"no valid tableau; rho_k = {report.rho_k}"
    )
    _emit(args, inputs, result, summary)
    return EXIT_OK


def _cmd_chain(args) -> int:
    chain = chains.build_chain(args.g, args.k, args.r, args.d)
    report = chains.verify_chain(chain)
    result = dict(chain.to_dict())
    result["report"] = report.to_dict()
    inputs = {"g": args.g, "k": args.k, "r": args.r, "d": args.d}
    _emit(
        args, inputs, result,
        f"{len(chain.components)} components, total adjusted = {report.total_adjusted}, "
        f"ok = {report.ok}",
    )
    return EXIT_VERIFICATION_FAILURE if not report.ok else EXIT_OK


def _cmd_verify(args) -> int:
    results = verify.run_checks(args.suite, args.max_g, args.max_k, args.processes)
    passed = sum(res.ok for res in results)
    result = {
        "suite": args.suite,
        "max_g": args.max_g,
        "max_k": args.max_k,
        "checks": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results],
        "passed": passed,
        "failed": len(results) - passed,
    }
    inputs = {"suite": args.suite, "max_g": args.max_g, "max_k": args.max_k}
    lines = [f"{'PASS' if res.ok else 'FAIL'} {res.name}: {res.detail}" for res in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(args, inputs, result, "\n".join(lines))
    return EXIT_OK if passed == len(results) else EXIT_VERIFICATION_FAILURE


def _cmd_plot_walls(args) -> int:
    v, sp, eps_text = _stability_params(args)
    walls = []
    if args.type is not None:
        t = _parse_type(args.type)
        for e, _m in t.pairs:
            walls.append(wall_on_axis(sp, v, line_bundle_vector(e)))
    viewport = _parse_viewport(args.viewport)
    svg, warnings = render_wall_diagram(sp, v, walls, viewport)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise DomainError(f"cannot write the SVG: {exc}", code="bad_output") from exc
    result = {
        "eps": eps_text,
        "out": args.out,
        "wall_count": len(walls),
        "viewport": args.viewport,
    }
    inputs = {"g": args.g, "k": args.k, "eps": args.eps, "v": args.v,
              "type": args.type, "viewport": args.viewport, "out": args.out}
    _emit(args, inputs, result, f"wrote {args.out} with {len(walls)} wall lines", warnings)
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _add_int(parser, name, required=True):
    parser.add_argument(name, type=int, required=required)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="k3walls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rho", help="Brill-Noether number")
    for flag in ("--g", "--r", "--d"):
        _add_int(p, flag)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("rho-k", help="pencil-adjusted Brill-Noether number with maximizers")
    for flag in ("--g", "--k", "--r", "--d"):
        _add_int(p, flag)
    p.set_defaults(fn=_cmd_rho_k)

    p = sub.add_parser("decompose", help="balanced decomposition of an index ell")
    for flag in ("--r", "--ell"):
        _add_int(p, flag)
    for flag in ("--g", "--k", "--d"):
        _add_int(p, flag, required=False)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("types", help="enumerate destabilization types")
    for flag in ("--g", "--k", "--r"):
        _add_int(p, flag)
    p.add_argument("--v", required=True, help="Mukai vector r,x,y,s")
    p.add_argument("--refined", action="store_true")
    p.add_argument("--square-filter", dest="square_filter", action="store_true")
    p.set_defaults(fn=_cmd_types)

    p = sub.add_parser("walls", help="wall sequence of a type on the central ray")
    for flag in ("--g", "--k"):
        _add_int(p, flag)
    p.add_argument("--eps", default=None, help='slice parameter "p/q"; default is the heuristic')
    p.add_argument("--v", required=True, help="Mukai vector r,x,y,s")
    p.add_argument("--type", required=True, help="JSON list of [e, m] pairs")
    p.set_defaults(fn=_cmd_walls)

    p = sub.add_parser("tableaux", help="displacement-tableau oracle vs the closed formula")
    for flag in ("--g", "--k", "--r", "--d"):
        _add_int(p, flag)
    p.add_argument("--budget", type=int, default=tableaux.MAX_NODES, help="search node limit")
    p.set_defaults(fn=_cmd_tableaux)

    p = sub.add_parser("chain", help="elliptic-chain ramification data and its verification")
    for flag in ("--g", "--k", "--r", "--d"):
        _add_int(p, flag)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", default="all", help="all or one of: " + ", ".join(verify.SUITES))
    p.add_argument("--max-g", dest="max_g", type=int, default=8)
    p.add_argument("--max-k", dest="max_k", type=int, default=5)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("plot-walls", help="SVG diagram of walls in the (b, w) plane")
    for flag in ("--g", "--k"):
        _add_int(p, flag)
    p.add_argument("--eps", default=None)
    p.add_argument("--v", required=True, help="Mukai vector r,x,y,s")
    p.add_argument("--type", default=None, help="JSON list of [e, m] pairs selecting walls")
    p.add_argument("--viewport", default="-1,1,-0.2,1", help="bmin,bmax,wmin,wmax")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=_cmd_plot_walls)

    return parser


# exception type -> (error code, exit status); a DomainError carries its own code
ERRORS = {
    DomainError: (None, EXIT_DOMAIN_ERROR),
    SearchBudgetExceeded: ("budget_exhausted", EXIT_DOMAIN_ERROR),
    OracleViolation: ("oracle_violation", EXIT_VERIFICATION_FAILURE),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # only --help exits; error() raises DomainError
            return exc.code
        _check_int_flags(args)
        # only the process k3walls owns (no argv given) forks verify workers
        args.processes = verify.available_cpus() if argv is None else 1
        return args.fn(args)
    except tuple(ERRORS) as exc:
        code, status = next(entry for kind, entry in ERRORS.items() if isinstance(exc, kind))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": code or exc.code, "message": str(exc)},
        }
        sys.stdout.write(dumps_canonical(payload))
        sys.stderr.write(f"error: {exc}\n")
        return status


if __name__ == "__main__":
    sys.exit(main())
