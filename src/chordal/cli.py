"""Command-line front end.

Subcommands map one-to-one onto the library: ``transform`` and ``invert``
expose the measure transforms, ``evolve`` the certified flow solver,
``grunsky`` the univalence certificate, and ``hayman`` the capacity
diagnostic.  Reports are deterministic: JSON with sorted keys, or CSV with
a fixed column order, and every numeric result is accompanied by the error
bound or tolerance it was produced under; ``transform`` prints the value
and round-off bound that ``measures`` takes from one pass over its node
terms.  Each handler imports the layer it runs, past ``measures`` and
``numerics``, so one call loads only its own.

Exit codes: 0 success, 2 invalid input (bad flags, malformed files,
constraint violations), 1 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import asdict

import numpy as np

from . import measures as _measures
from .errors import InvalidInputError, NonConvergenceError
from .numerics import floats, json_numbers, settle_tol

__all__ = ["run", "main", "parse_complex"]


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` (no spaces), e.g. ``0+1i``, ``-1.5-0.25i``, ``2i``, ``i``.

    The trailing ``i`` becomes ``j`` and ``complex()`` reads the rest: it
    takes a bare ``j`` as ``1j`` and refuses blanks and inner spaces.
    """
    s = text.strip()
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        z = complex(s)
    except ValueError as exc:
        raise InvalidInputError(f"malformed complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise InvalidInputError(f"complex number {text!r} must be finite")
    return z


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, text that is not UTF-8, an integer past Python's digit
        # limit, or nesting deeper than the parser's recursion limit
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from exc


def _measure_arg(path: str) -> _measures.RealMeasure:
    return _measures.measure_from_dict(_load_json(path))


def _emit_json(obj: dict) -> None:
    # strict JSON: a NaN or Infinity field refuses instead of printing
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonConvergenceError("report holds a value that is not finite") from exc
    sys.stdout.write(text + "\n")


# -- subcommand handlers ----------------------------------------------------


def _cmd_transform(args) -> None:
    mu = _measure_arg(args.measure)
    if args.op == "nevanlinna":
        triple = _measures.nevanlinna_triple(lambda z: _measures.reciprocal_cauchy(mu, z))
        _emit_json({"op": "nevanlinna", **asdict(triple),
                    "ladder_settle_tol": settle_tol(triple.c)})
        return
    if args.z is None:
        raise InvalidInputError(f"--z is required for op {args.op!r}")
    z = parse_complex(args.z)
    value, bound = _measures._transform_bound(mu, z, args.op == "reciprocal")
    _emit_json({
        "op": args.op,
        "z": [z.real, z.imag],
        "value": [value.real, value.imag],
        "roundoff_bound": bound,
    })


def _cmd_invert(args) -> None:
    mu = _measure_arg(args.measure)
    # "a,b,c" leaves "b,c" for b, which is no float
    a, _, b = args.interval.partition(",")
    a, b = floats([a, b], "--interval expects 'a,b'").tolist()
    ladder = floats(args.eps_ladder.split(","),
                    "--eps-ladder expects comma-separated floats").tolist()
    value = _measures.stieltjes_invert(
        lambda z: _measures.cauchy_transform(mu, z), (a, b), ladder)
    _emit_json({
        "interval": [a, b],
        "eps_ladder": ladder,
        "value": value,
        "extrapolation_settle_tol": settle_tol(value),
    })


def _cmd_evolve(args) -> None:
    from . import loewner as _loewner

    family = _loewner.driver_from_dict(_load_json(args.driver))
    if (args.z is None) == (args.grid is None):
        raise InvalidInputError("evolve needs exactly one of --z or --grid")
    if args.z is not None:
        zs = np.array([parse_complex(args.z)])
    else:
        raw = _load_json(args.grid)
        if not isinstance(raw, list):
            raise InvalidInputError("--grid file must hold a JSON list of [re, im] pairs")
        pairs = floats(json_numbers(raw, "--grid entries"),
                       "--grid entries must be [re, im] pairs", pairs=True)
        # each (re, im) row read as one complex, with no arithmetic to turn inf into nan
        zs = pairs.view(complex).ravel()
    config = _loewner.SolverConfig(tol=args.tol) if args.tol is not None else None
    t = args.t
    values, bounds = _loewner.transition_grid(family, 0.0, t, zs, config)
    out = ["t,re_z,im_z,re_f,im_f,err_bound"]
    for z, w, e in zip(zs, values, bounds):
        out.append(",".join([
            _fmt(t), _fmt(z.real), _fmt(z.imag), _fmt(w.real), _fmt(w.imag), _fmt(e),
        ]))
    sys.stdout.write("\n".join(out) + "\n")


def _cmd_grunsky(args) -> None:
    from . import grunsky as _grunsky

    if (args.moments is None) == (args.measure is None):
        raise InvalidInputError("grunsky needs exactly one of --moments or --measure")
    if args.moments is not None:
        moments = floats(args.moments.split(","), "--moments expects comma-separated floats")
        report = _grunsky.univalence_certificate(
            moments, args.order, boundary_tol=args.boundary_tol)
    else:
        report = _grunsky.measure_certificate(
            _measure_arg(args.measure), args.order, boundary_tol=args.boundary_tol)
    _emit_json({**asdict(report), "eigenvalues": report.eigenvalues.tolist(),
                "c_matrix": report.c_matrix.tolist()})


def _cmd_hayman(args) -> None:
    from . import capacity as _capacity

    mu = _measure_arg(args.measure)
    report = _capacity.hayman_report(
        mu, n=args.n, resolution=args.resolution, epsilon=args.eps)
    if args.curve_csv is not None:
        try:
            with open(args.curve_csv, "w", encoding="utf-8") as fh:
                fh.write("re,im\n")
                for p in report.curve.points:
                    fh.write(f"{_fmt(p.real)},{_fmt(p.imag)}\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write {args.curve_csv}: {exc}") from exc
    _emit_json({
        "n_points": report.n_points,
        "d_image": report.d_image,
        "d_interval": report.d_interval,
        "ratio": report.ratio,
        "verdict": report.verdict,
        "ratio_band": _capacity.RATIO_BAND,
    })


class _Parser(argparse.ArgumentParser):
    # a bad, missing or unknown flag ends in one "error: ..." line and exit
    # 2, like any other invalid input, not in argparse's usage message;
    # add_subparsers makes each subcommand's parser of this class too
    def error(self, message):
        raise InvalidInputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chordal",
        description="Loewner flows, univalence certificates, and capacity "
                    "diagnostics for measure transforms.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("transform", help="Cauchy/reciprocal transform or Nevanlinna triple")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--z", help="evaluation point, a+bi")
    p.add_argument("--op", choices=("cauchy", "reciprocal", "nevanlinna"), default="cauchy")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("invert", help="Stieltjes inversion over an interval")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--interval", required=True, help="a,b")
    p.add_argument("--eps-ladder", required=True, dest="eps_ladder",
                   help="strictly decreasing positive heights, e1,e2,...")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("evolve", help="solve the flow map f(t; z) = B(0, t; z)")
    p.add_argument("--driver", required=True, help="driver JSON file")
    p.add_argument("--t", required=True, type=float)
    p.add_argument("--z", help="single point, a+bi")
    p.add_argument("--grid", help="JSON file with a list of [re, im] pairs")
    p.add_argument("--tol", type=float, help="solver tolerance override")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("grunsky", help="univalence certificate from moments")
    p.add_argument("--moments", help="a0,a1,... (a0 = 1)")
    p.add_argument("--measure", help="measure JSON file")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--boundary-tol", dest="boundary_tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_grunsky)

    p = sub.add_parser("hayman", help="transfinite-diameter diagnostic")
    p.add_argument("--measure", required=True, help="measure JSON file")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--resolution", type=int, default=2048)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--curve-csv", dest="curve_csv",
                   help="also write the boundary trace to this CSV file")
    p.set_defaults(func=_cmd_hayman)

    return parser


def _join_negative_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    # argparse reads a "-"-leading value such as "-2,2" or "-i" as an option
    # string: fold each one that follows an option taking a value into
    # --flag=value form, unless it is itself one of the parser's options
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for p in sub.choices.values() for a in p._actions]
    flags = {f for a in actions for f in a.option_strings}
    valued = {f for a in actions if a.nargs != 0 for f in a.option_strings}
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in valued and tok.startswith("-") and tok not in flags:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(parser, list(argv)))
        args.func(args)
        return 0
    except SystemExit as exc:  # --help
        return exc.code or 0
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
