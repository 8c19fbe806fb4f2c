"""Command-line entry points.

Subcommands: gamma-so, scan-support, table, param.  All output is exact:
JSON carries rationals as strings and cyclotomic/scalar term records,
CSV rows are emitted in deterministic lexicographic order.  Exit codes:
0 = everything matched, 2 = mathematical mismatch, truncation-boundary
failure or an error raised by the exact arithmetic (an IntegralError,
CharacterError such as OrderOverflow, MatrixError or ScalarError),
3 = configuration error (bad arguments, or an --output path that
cannot be written).

SSGAMMA_OUTPUT_DIR, when set, is the base directory for relative output
paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .cyclotomic import CyclotomicNumber
from .scalars import ExactScalar, ScalarError
from .characters import CharacterError, TameCharacter, primitive_root
from .integrals import (
    IntegralConfig,
    gamma_so,
    gamma_gl_closed,
    scan_support,
    BoundaryNonvanishing,
    IntegralError,
    check_domain,
)
from .matrices import MatrixError
from .padic import is_odd_prime
from .parameter import param_summary, ParameterError

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_CONFIG = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering


def scalar_str(x: ExactScalar) -> str:
    """Compact deterministic rendering: sum of coeff*q^(h/2)*(q^-s)^k."""
    terms = x.canonical_terms()
    if not terms:
        return "0"
    parts = []
    for h, k, c in terms:
        seg = [cyclo_str(c)]
        if h:
            seg.append(f"q^({Fraction(h, 2)})")
        if k:
            seg.append(f"(q^-s)^{k}")
        parts.append("*".join(seg))
    return " + ".join(parts)


def cyclo_str(c: CyclotomicNumber) -> str:
    r = c.is_rational()
    if r is not None:
        return str(r)
    m = c.order
    bits = []
    for e, v in sorted(c.coeffs.items()):
        if v:
            bits.append(f"{v}*z{m}^{e}" if e else str(v))
    return "(" + " + ".join(bits) + ")"


def metadata_block(p, level, cutoff, mode) -> dict:
    return {
        "psi_convention": "psi(x) = exp(2*pi*i*frac(x/p)); conductor p",
        "unit_generator": primitive_root(p),
        "measures": {
            "vol_o": "q^(1/2)",
            "vol_o_units": "1",
            "vol_1_plus_p": "1/(q-1)",
        },
        "level_N": level,
        "cutoff_V": cutoff,
        "mode": mode,
    }


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        return
    base = os.environ.get("SSGAMMA_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}")


def _emit_json(doc: dict, path: str | None):
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _check_prime(p: int) -> int:
    if not is_odd_prime(p):
        raise ConfigError(f"p must be an odd prime, got {p}")
    return p


def _parse_zeta(s: str) -> CyclotomicNumber:
    if s not in ("1", "-1", "+1"):
        raise ConfigError("zeta must be 1 or -1 on the SO side")
    return CyclotomicNumber.from_rational(Fraction(int(s)))


def _parse_tau(p: int, j: int, tau_pi: str) -> TameCharacter:
    if not 0 <= j <= p - 2:
        raise ConfigError(f"tau-j must lie in 0..{p - 2}")
    # no exponent: "1e5000" has more digits than str() prints, and
    # "1e999999999" takes longer to build than any command runs
    if "e" in tau_pi.lower():
        raise ConfigError(f"bad tau-pi value {tau_pi!r}")
    try:
        v = Fraction(tau_pi)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad tau-pi value {tau_pi!r}")
    if v == 0:
        raise ConfigError("tau-pi must be nonzero")
    return TameCharacter(p, j, ExactScalar.from_coeff(p, v))


def _int_list(s: str) -> list:
    try:
        return [int(x) for x in s.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad integer list {s!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gamma_so(args) -> int:
    p = _check_prime(args.p)
    zeta = _parse_zeta(args.zeta)
    tau = _parse_tau(p, args.tau_j, args.tau_pi)
    mode = {"support": "support-aware", "brute": "brute-force"}[args.mode]
    try:
        cfg = IntegralConfig(p, args.ell, zeta, tau, level=args.level, cutoff=args.cutoff, mode=mode)
    except IntegralError as e:
        raise ConfigError(str(e))
    try:
        res = gamma_so(cfg)
    except BoundaryNonvanishing as e:
        _emit_json({"error": "boundary_nonvanishing", "detail": str(e)}, args.output)
        return EXIT_MISMATCH
    doc = {
        "command": "gamma-so",
        "p": p,
        "ell": args.ell,
        "zeta": args.zeta,
        "tau": {"unit_exponent": args.tau_j, "value_at_uniformizer": args.tau_pi},
        "computed": res.computed.to_records(),
        "computed_str": scalar_str(res.computed),
        "predicted": res.predicted.to_records(),
        "predicted_str": scalar_str(res.predicted),
        "matches": res.matches,
        "metadata": metadata_block(p, args.level, args.cutoff, mode),
    }
    _emit_json(doc, args.output)
    return EXIT_OK if res.matches else EXIT_MISMATCH


def cmd_scan_support(args) -> int:
    p = _check_prime(args.p)
    side = {"phi": "phi", "phi-star": "phi_star"}[args.side]
    try:
        points, verdict = scan_support(p, args.ell, side, level=args.level, cutoff=args.cutoff)
    except IntegralError as e:
        raise ConfigError(str(e))
    nonvanishing = [
        {"z": str(pt.z), "y": [str(c) for c in pt.y]} for pt in points if pt.nonzero
    ]
    mismatches = [
        {"z": str(pt.z), "y": [str(c) for c in pt.y], "nonzero": pt.nonzero}
        for pt in points
        if pt.nonzero != pt.predicted
    ]
    doc = {
        "command": "scan-support",
        "p": p,
        "ell": args.ell,
        "side": args.side,
        "points_scanned": len(points),
        "nonvanishing": nonvanishing,
        "predicate_mismatches": mismatches,
        "predicate_match": verdict,
        "metadata": metadata_block(p, args.level, args.cutoff, "brute-force"),
    }
    _emit_json(doc, args.output)
    return EXIT_OK if verdict else EXIT_MISMATCH


def cmd_table(args) -> int:
    ps = [_check_prime(p) for p in _int_list(args.p)]
    ells = _int_list(args.ell)
    if not ps or not ells:
        raise ConfigError("--p and --ell each need at least one value")
    for ell in ells:
        try:
            check_domain(ell, args.level, args.cutoff)
        except IntegralError as e:
            raise ConfigError(str(e))
    header = "p,ell,zeta,tau_j,tau_pi,gamma_so,gamma_gl_closed,match,error"
    rows = []
    any_fail = False
    for p in sorted(ps):
        for ell in sorted(ells):
            for zs in ("-1", "1"):
                for j in range(p - 1):
                    for tau_pi in ("-1", "1"):
                        zeta = _parse_zeta(zs)
                        tau = _parse_tau(p, j, tau_pi)
                        err = ""
                        try:
                            cfg = IntegralConfig(
                                p, ell, zeta, tau, level=args.level, cutoff=args.cutoff
                            )
                            res = gamma_so(cfg)
                            gl = gamma_gl_closed(2 * ell, tau, zeta)
                            match = res.matches and res.computed == gl
                            so_s, gl_s = scalar_str(res.computed), scalar_str(gl)
                        except IntegralError as e:
                            match, so_s, gl_s, err = False, "", "", str(e)
                        if not match:
                            any_fail = True
                        rows.append(
                            f"{p},{ell},{zs},{j},{tau_pi},"
                            f'"{so_s}","{gl_s}",{str(match).lower()},"{err}"'
                        )
    _emit("\n".join([header] + rows) + "\n", args.output)
    return EXIT_OK if not any_fail else EXIT_MISMATCH


def cmd_param(args) -> int:
    p = _check_prime(args.p)
    _parse_zeta(args.zeta)
    try:
        pd = param_summary(p, args.ell)
    except ParameterError as e:
        raise ConfigError(str(e))
    kappa = {str(x + 1): v for x, v in enumerate(pd.kappa_table)}
    doc = {
        "command": "param",
        "p": p,
        "ell": args.ell,
        "degree": pd.degree,
        "depth": str(pd.depth),
        "kappa_on_units": kappa,
        # xi on units is kappa^(-1); kappa has values +-1, so it is its own inverse
        "xi_on_unit_residues": kappa,
        "xi_at_uniformizer": {
            "zeta": args.zeta,
            "lambda_token_inverse": True,
        },
        "depth_check": pd.depth_check,
        "metadata": metadata_block(p, 0, 0, "n/a"),
    }
    _emit_json(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssgamma",
        description="Exact gamma factors of simple supercuspidal representations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, ell_default=1):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--ell", type=int, default=ell_default)
        sp.add_argument("--level", type=int, default=2, help="class level N (>= 2)")
        sp.add_argument("--cutoff", type=int, default=1, help="valuation window V (>= 1)")
        sp.add_argument("--output", default=None, help="output file (default stdout)")

    g = sub.add_parser("gamma-so", help="compute Phi*/Phi and compare to the closed form")
    common(g)
    g.add_argument("--zeta", required=True)
    g.add_argument("--tau-j", type=int, default=0)
    g.add_argument("--tau-pi", default="1")
    g.add_argument("--mode", choices=("support", "brute"), default="support")
    g.set_defaults(func=cmd_gamma_so)

    s = sub.add_parser("scan-support", help="enumerate integrand support vs the predicate")
    common(s)
    s.add_argument("--side", choices=("phi", "phi-star"), required=True)
    s.set_defaults(func=cmd_scan_support)

    t = sub.add_parser("table", help="SO/GL gamma comparison grid as CSV")
    t.add_argument("--p", required=True, help="comma-separated primes")
    t.add_argument("--ell", required=True, help="comma-separated ranks")
    t.add_argument("--level", type=int, default=2)
    t.add_argument("--cutoff", type=int, default=1)
    t.add_argument("--output", default=None)
    t.set_defaults(func=cmd_table)

    pm = sub.add_parser("param", help="predicted parameter data and depth bookkeeping")
    pm.add_argument("--p", type=int, required=True)
    pm.add_argument("--ell", type=int, required=True)
    pm.add_argument("--zeta", default="1")
    pm.add_argument("--output", default=None)
    pm.set_defaults(func=cmd_param)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if [] in vars(args).values():
            # argparse in Python 3.11 reads "--opt=--" as [], not as "--"
            raise ConfigError("'--' is not an option value")
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegralError, CharacterError, MatrixError, ScalarError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
