"""Command-line interface: direct, inverse, roundtrip, oracle, gallery.

Exit codes: 0 success (certified), 2 result not certified / tolerance not
met, 1 input error.  All reports are deterministic JSON (sorted keys,
shortest round-trip floats) written atomically.
"""

import argparse
import json
import sys

import numpy as np

from . import errors, gallery, inverse, model, oracle
from .direct import LocalizeOptions, solve_direct


def _load_spec(path):
    return model.validate_base(model.base_from_json(model.load_json(path)))


def _read_coeffs(path):
    """Coefficients from a file, less the certificate that `inverse` and the
    report that `gallery --report` write beside them."""
    doc = model.load_json(path)
    if isinstance(doc, dict):
        doc.pop("certificate", None)
        doc.pop("report", None)
    return model.coefficients_from_json(doc)


def _load_coeffs(path, spec):
    return model.validate_coefficients(_read_coeffs(path), spec)


def _load_target(path, spec):
    return model.validate_target(model.target_from_json(model.load_json(path)), spec)


def _emit(doc, out_path):
    if out_path:
        model.dump_json(doc, out_path)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))


def _opts_from_args(args):
    return LocalizeOptions(window=args.trunc_window, n_trunc=args.trunc)


def cmd_direct(args):
    spec = _load_spec(args.spec)
    coeffs = _load_coeffs(args.coeffs, spec)
    ps, _loc = solve_direct(spec, coeffs, _opts_from_args(args))
    _emit(model.spectrum_to_json(ps), args.out)
    return 0


def cmd_inverse(args):
    spec = _load_spec(args.spec)
    target = _load_target(args.target, spec)
    if args.fixed_phi:
        phi = _read_coeffs(args.fixed_phi)
        coeffs, pf = inverse.solve_inverse_fixed_phi(spec, target, phi)
    else:
        coeffs, pf = inverse.solve_inverse(spec, target)
    samples = inverse.default_sample_points(spec, pf)
    disc = inverse.check_F_equals_product(coeffs, pf, samples)
    doc = model.coefficients_to_json(coeffs)
    doc["certificate"] = {
        "residues": [[n, [c.real, c.imag]] for n, c in zip(pf.i1, pf.c1)],
        "max_F_vs_product_discrepancy": disc,
    }
    _emit(doc, args.out)
    return 0


def cmd_roundtrip(args):
    # NaN and negative tolerances meet no deviation; inf meets every one
    if not 0.0 <= args.tol < np.inf:
        raise errors.InputError(f"--tol {args.tol} must be finite and not negative")
    spec = _load_spec(args.spec)
    target = _load_target(args.target, spec)
    coeffs, pf = inverse.solve_inverse(spec, target)
    coeffs = model.validate_coefficients(coeffs, spec)
    opts = _opts_from_args(args)
    ps, loc = solve_direct(spec, coeffs, opts)
    idx = spec.window_indices(loc.window)
    reference = np.atleast_1d(target.nu_at(idx, spec))
    _ok, worst = oracle.compare_spectra(ps, reference, args.tol)
    print(f"max matched deviation: {worst:.3e}")
    return 0 if worst < args.tol else 2


def cmd_oracle(args):
    spec = _load_spec(args.spec)
    coeffs = _load_coeffs(args.coeffs, spec)
    op = oracle.build_truncation(spec, coeffs, args.n)
    vals = oracle.dense_eigenvalues(op)
    doc = {
        "eigenvalues": [[v.real, v.imag] for v in vals],
        "trace_check": float(op.trace_identity_residual(spec, coeffs)),
    }
    _emit(doc, args.out)
    return 0


def cmd_gallery(args):
    spec = gallery.example_periodic_base()
    if args.example == "periodic":
        _emit(model.base_to_json(spec), args.out)
        return 0
    if args.example == "harmonic":
        coeffs, _closed = gallery.harmonic_family(args.window)
        doc = model.coefficients_to_json(coeffs)
        if args.report:
            rep = gallery.harmonic_report(args.window)
            checks = {
                "tan_equation_residual_lt_1e-8": rep["max_tan_residual"] < 1e-8,
                "scaled_offsets_near_1": rep["max_scaled_error_tail"] < 0.05,
                "log_growth_coefficient_in_range": 0.8 <= rep["log_fit_coefficient"] <= 1.2,
            }
            doc["report"] = {
                "max_tan_residual": rep["max_tan_residual"],
                "max_scaled_error_tail": rep["max_scaled_error_tail"],
                "log_fit_coefficient": rep["log_fit_coefficient"],
            }
            for name, ok in checks.items():
                print(f"{name}: {'PASS' if ok else 'FAIL'}")
            if not all(checks.values()):
                _emit(doc, args.out)
                return 2
        _emit(doc, args.out)
        return 0
    # power-decay family
    coeffs = gallery.power_family(args.beta, args.window)
    doc = model.coefficients_to_json(coeffs)
    if args.report:
        n_hi = min(args.window, 200)
        slope, _ns, _offs, _loc = gallery.power_slope(args.beta, n_lo=20, n_hi=n_hi)
        expected = -2.0 * args.beta
        ok = abs(slope - expected) <= 0.05 * abs(expected)
        doc["report"] = {"slope": slope, "expected_slope": expected}
        print(f"offset_decay_slope_within_5pct: {'PASS' if ok else 'FAIL'} (slope {slope:.4f})")
        _emit(doc, args.out)
        return 0 if ok else 2
    _emit(doc, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rank1spec",
        description="Direct and inverse spectral problems for rank-one perturbations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_numeric(p):
        opts = LocalizeOptions()
        p.add_argument("--trunc", type=int, default=opts.n_trunc, help="summation window radius")
        p.add_argument("--trunc-window", type=int, default=opts.window, help="reported index window radius")
        p.add_argument("--out", default=None)

    p = sub.add_parser("direct", help="solve the direct spectral problem")
    p.add_argument("--spec", required=True)
    p.add_argument("--coeffs", required=True)
    common_numeric(p)
    p.set_defaults(func=cmd_direct)

    p = sub.add_parser("inverse", help="construct coefficients for a target spectrum")
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--fixed-phi", default=None, help="coefficients file fixing a_n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("roundtrip", help="inverse then direct, compare to the target")
    p.add_argument("--spec", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--tol", type=float, default=1e-10, help="largest matched deviation from the target")
    common_numeric(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("oracle", help="dense truncation eigenvalues")
    p.add_argument("--spec", required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--n", type=int, required=True, help="truncation radius")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gallery", help="built-in example inputs and reports")
    p.add_argument("--example", choices=["periodic", "harmonic", "power"], required=True)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--report", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gallery)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except errors.CertificationFailed as exc:
        print(f"NotCertified: {exc}", file=sys.stderr)
        return 2
    except errors.Rank1Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"InputError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
