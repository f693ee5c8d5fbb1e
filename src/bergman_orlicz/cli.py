"""Command-line front end for the half-plane analysis toolkit.

Single binary, subcommand style.  All mathematical inputs arrive as JSON,
either as a file path or inline (an argument starting with ``{``).  Reports
are JSON (default) or RFC-4180 CSV with a mandatory header row.

Exit codes: 0 success, 2 input/validation error, 3 accuracy or divergence
failure, 1 internal error.  Every error report is the machine-readable
document ``{"error": {"kind": ..., "detail": ...}}``.

With ``--no-meta`` the report contains only result fields, so identical
configuration plus seed yields byte-identical output.  Non-finite floats
are emitted as the strings "nan", "inf", "-inf" to keep reports strict
JSON.
"""

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys

import numpy as np

from . import atoms
from . import bergman
from . import carleson
from . import growth
from . import lattice as lattice_mod
from . import orlicz
from .errors import (
    AccuracyError,
    BergmanOrliczError,
    DivergenceError,
    DomainError,
    NotInSpaceError,
    OverflowBracketError,
    ParameterError,
    need,
    number,
)
from .halfplane import HPoint, region_from_json

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_ACCURACY = 3

_VALIDATION_ERRORS = (ParameterError, DomainError)
_ACCURACY_ERRORS = (AccuracyError, DivergenceError, OverflowBracketError,
                    NotInSpaceError)


# ------------------------------------------------------------ small helpers


def _load_doc(arg):
    """A JSON document from an inline literal or a file path."""
    text = arg.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParameterError(f"cannot read input file {arg!r}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParameterError(f"malformed JSON in {arg!r}: {e}")


def _parse_floats(text, n, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParameterError(f"{what} needs {n} comma-separated values, "
                             f"got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ParameterError(f"{what} has a non-numeric entry: {text!r}")


def _parse_point(text):
    x, y = _parse_floats(text, 2, "--at")
    return HPoint(x, y)


def _lattice_from_json(obj):
    gamma = obj.get("gamma") if isinstance(obj, dict) else None
    return lattice_mod.build(
        number(obj, "delta", "lattice"), need(obj, "window", "lattice", 2),
        None if gamma is None else number(obj, "gamma", "lattice"))


def _json_safe(x):
    """Plain JSON types only; non-finite floats become strings."""
    if isinstance(x, dict):
        return {str(k): _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, complex):
        return [_json_safe(x.real), _json_safe(x.imag)]
    return x


def _flatten(doc, prefix=""):
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        else:
            out[key] = v
    return out


def _emit(result, table, args):
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if table is not None:
            header, rows = table
            writer.writerow(header)
            for row in rows:
                writer.writerow([_json_safe(v) for v in row])
        else:
            flat = _flatten(_json_safe(result))
            keys = sorted(flat)
            writer.writerow(keys)
            writer.writerow([flat[k] for k in keys])
        text = buf.getvalue()
    else:
        doc = dict(result)
        if not args.no_meta:
            doc["meta"] = {
                "subcommand": args.subcommand,
                "seed": args.seed,
                "tol": args.tol,
                "timestamp": datetime.datetime.now(
                    datetime.timezone.utc).isoformat(),
            }
        text = json.dumps(_json_safe(doc), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def _cmd_gamma(args):
    lo, hi = lattice_mod.gamma_interval(args.delta)
    return {"delta": args.delta, "lo": lo, "hi": hi,
            "midpoint": 0.5 * (lo + hi)}, None


def _cmd_lattice(args):
    lat = lattice_mod.build(args.delta, (args.lmax, args.jmax), args.gamma)
    result = {"delta": lat.delta, "gamma": lat.gamma, "s_delta": lat.s_delta,
              "window": [args.lmax, args.jmax],
              "points_count": (2 * args.lmax + 1) * (2 * args.jmax + 1)}
    if args.report is not None:
        region = None if args.report == "auto" else region_from_json(
            _load_doc(args.report))
        rep = lattice_mod.covering_report(lat, region,
                                          n_samples=args.samples,
                                          seed=args.seed)
        result["report"] = {
            "disjoint_ok": rep.disjoint_ok,
            "cover_fraction": rep.cover_fraction,
            "max_overlap": rep.max_overlap,
            "samples": rep.samples,
            "violations": [list(v) for v in rep.violations],
            "seed": rep.seed,
        }
    rows = [list(r) for r in zip(*(a.tolist() for a in lat.index_arrays()))]
    return result, (("l", "j", "x", "y"), rows)


def _cmd_luxnorm(args):
    phi = growth.from_json(_load_doc(args.phi))
    mu = orlicz.measure_from_json(_load_doc(args.measure))
    fn = bergman.fn_from_json(_load_doc(args.fn))
    res = orlicz.luxembourg(fn, mu, phi, tol=args.tol or 1e-8)
    return {"value": res.value}, None


def _cmd_synthesize(args):
    seq = bergman.sequence_from_json(_load_doc(args.seq))
    F = bergman.atom_sum(seq, args.alpha)
    z = _parse_point(args.at)
    v = complex(F(complex(z.x, z.y)))
    return {"at": [z.x, z.y], "alpha": args.alpha,
            "value": [v.real, v.imag]}, None


def _cmd_sample(args):
    F = bergman.fn_from_json(_load_doc(args.fn))
    lat = _lattice_from_json(_load_doc(args.lattice))
    doc = bergman.sequence_to_json(atoms.sample(F, lat))
    rows = doc["sequence"]
    return {**doc, "count": len(rows)}, (("l", "j", "re", "im"), rows)


def _cmd_decompose(args):
    F = bergman.fn_from_json(_load_doc(args.fn))
    lat = _lattice_from_json(_load_doc(args.lattice))
    seq, residual = atoms.decompose_l2(F, lat, alpha=args.alpha)
    rows = bergman.sequence_to_json(seq)["sequence"]
    result = {"alpha": args.alpha, "residual": residual,
              "count": len(rows), "sequence": rows}
    return result, (("l", "j", "re", "im"), rows)


def _cmd_berezin(args):
    mu = orlicz.measure_from_json(_load_doc(args.measure))
    z = _parse_point(args.at)
    val = carleson.berezin(mu, z, alpha=args.alpha, tol=args.tol or 1e-8)
    return {"at": [z.x, z.y], "alpha": args.alpha, "value": val}, None


def _cmd_embed_check(args):
    phi1 = growth.from_json(_load_doc(args.phi1))
    phi2 = growth.from_json(_load_doc(args.phi2))
    mu = orlicz.measure_from_json(_load_doc(args.measure))
    family = _load_doc(args.family) if args.family else None
    v = carleson.embedding_test(mu, phi1, phi2, alpha=args.alpha,
                                family_spec=family, seed=args.seed,
                                tol=args.tol or 1e-6)
    return carleson.verdict_to_json(v), None


def _cmd_comp_check(args):
    a, b, c, d = _parse_floats(args.mobius, 4, "--mobius")
    phi1 = growth.from_json(_load_doc(args.phi1))
    phi2 = growth.from_json(_load_doc(args.phi2))
    family = _load_doc(args.family) if args.family else None
    v = carleson.composition_check(a, b, c, d, args.beta, phi1, phi2,
                                   alpha=args.alpha, family_spec=family,
                                   seed=args.seed, tol=args.tol or 1e-4)
    result = carleson.verdict_to_json(v)
    result["mobius"] = [a, b, c, d]
    result["beta"] = args.beta
    return result, None


def _cmd_atoms_experiment(args):
    phi = growth.from_json(_load_doc(args.phi))
    window = (6, 2)
    if args.window:  # lattice.build rejects a non-integral bound
        window = _parse_floats(args.window, 2, "--window")
    result = atoms.equivalence_experiment(
        phi, args.alpha, args.delta, args.trials, args.seed,
        window=window, support_size=args.support_size)
    header = ("trial", "norm_mu", "norm_F", "ratio_synth", "ratio_sample")
    rows = [[r[k] for k in header] for r in result["rows"]]
    return result, (header, rows)


def _cmd_verify(args):
    from . import acceptance
    results = acceptance.run(suites=args.suite or None)
    stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        failed = 0
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            stream.write(f"{status} {r.name}: {r.detail} "
                         f"({r.elapsed:.1f}s)\n")
            failed += 0 if r.passed else 1
        total = len(results)
        stream.write(f"{total - failed}/{total} criteria passed\n")
    finally:
        if args.out:
            stream.close()
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


# ----------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Argument errors leave on the validation exit code with a JSON body."""

    def error(self, message):
        _print_error("ParameterError", message)
        raise SystemExit(EXIT_VALIDATION)


def _print_error(kind, detail):
    doc = {"error": {"kind": kind, "detail": str(detail)}}
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--no-meta", action="store_true", dest="no_meta")

    parser = _Parser(prog="bergman-orlicz",
                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gamma", parents=[common],
                       help="admissible row-exponent interval for a mesh")
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("lattice", parents=[common],
                       help="build a lattice and optionally audit coverage")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lmax", type=int, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--report", default=None,
                   help="region JSON (or 'auto') for a covering report")
    p.add_argument("--samples", type=int, default=10000)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("luxnorm", parents=[common],
                       help="Luxembourg norm of a function in L^phi(mu)")
    p.add_argument("--phi", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True)
    p.set_defaults(handler=_cmd_luxnorm)

    p = sub.add_parser("synthesize", parents=[common],
                       help="evaluate the atom sum of a coefficient sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--at", required=True, metavar="X,Y")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("sample", parents=[common],
                       help="restrict a function to the lattice points")
    p.add_argument("--fn", required=True)
    p.add_argument("--lattice", required=True)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("decompose", parents=[common],
                       help="least-squares atomic coefficients of a function")
    p.add_argument("--fn", required=True)
    p.add_argument("--lattice", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("berezin", parents=[common],
                       help="kernel-squared transform of a measure at a point")
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--at", required=True, metavar="X,Y")
    p.set_defaults(handler=_cmd_berezin)

    p = sub.add_parser("embed-check", parents=[common],
                       help="embedding verdict for a measure and growth pair")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--family", default=None)
    p.set_defaults(handler=_cmd_embed_check)

    p = sub.add_parser("comp-check", parents=[common],
                       help="composition-operator verdict for a Mobius map")
    p.add_argument("--mobius", required=True, metavar="A,B,C,D")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--family", default=None)
    p.set_defaults(handler=_cmd_comp_check)

    p = sub.add_parser("atoms-experiment", parents=[common],
                       help="synthesis/sampling norm-ratio experiment")
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--window", default=None, metavar="L,J")
    p.add_argument("--support-size", type=int, default=4,
                   dest="support_size")
    p.set_defaults(handler=_cmd_atoms_experiment)

    p = sub.add_parser("verify", parents=[common],
                       help="run the acceptance suite (PASS/FAIL per check)")
    p.add_argument("--suite", action="append", default=None,
                   help="restrict to a named suite (repeatable)")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.handler is _cmd_verify:
            code = _cmd_verify(args)
        else:
            _emit(*args.handler(args), args)
            code = EXIT_OK
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: write nothing more; devnull takes the
        # flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INTERNAL
    except _VALIDATION_ERRORS as e:
        _print_error(type(e).__name__, e)
        return EXIT_VALIDATION
    except _ACCURACY_ERRORS as e:
        _print_error(type(e).__name__, e)
        return EXIT_ACCURACY
    except BergmanOrliczError as e:
        _print_error(type(e).__name__, e)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - defensive
        _print_error(type(e).__name__, e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
