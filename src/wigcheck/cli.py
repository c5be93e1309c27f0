"""Command-line interface: parse a state spec, run checks, emit JSON reports.

State specs are JSON objects with a "type" tag:

    {"type": "fock", "n": 1}
    {"type": "gaussian", "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]}
    {"type": "mixture", "components": [{"weight": 0.5, "state": {"type": "fock", "n": 0}}, ...]}
    {"type": "grid", "manifest": "path/to/manifest.json"}
    {"type": "narcowich-oconnell", "alpha": 0.5, "beta": 0.5}
    {"type": "bump", "radius": 1.0, "profile": "cosine"}

plus optional top-level keys "hbar" and "rescale" (a positive scaling
parameter applied to the built grid).  Exit codes: 0 when the input is
consistent with a state or inconclusive, 2 when it is proven not to be a
state, 1 on input errors.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .blobs import capacity, find_contained_blob, is_admissible, section_area
from .domination import compact_support_flag, fit_dominating_gaussian, hardy_fit
from .fixtures import moment_p4, narcowich_oconnell_grid, no_default_axis, truncated_bump_grid
from .klm import klm_check
from .states import (AxisGrid, default_axis, fock_state, load_wigner_manifest,
                     mixture_wigner, operator_spectrum_oracle, rescale,
                     save_wigner_manifest, trace, wigner_gaussian, wigner_of_pure)
from .uncertainty import covariance_from_grid, hbar_sweep, uncertainty_report

DEFAULT_ORACLE_TOL = 1e-5
DEFAULT_P4_TOL = 1e-4

# admissibility slack for fitted certificates: the fit reports
# mu1 = 1 + O(1%) on tight Gaussian states, which are still admissible
VERDICT_CAP_TOL = 2.5e-2

REPORT_SCHEMA = {
    "type": "object",
    "required": ["input", "hbar", "trace", "covariance", "uncertainty", "classification"],
    "properties": {
        "input": {"type": "object"},
        "hbar": {"type": "number"},
        "seed": {"type": "integer"},
        "trace": {"type": "number"},
        "moment_p4": {"type": "number"},
        "covariance": {"type": "object", "required": ["sigma", "mean"]},
        "uncertainty": {"type": "object", "required": ["psd_min_eigenvalue", "nu_min", "verdict"]},
        "klm": {"type": ["object", "null"]},
        "domination": {"type": ["object", "null"]},
        "blob": {"type": ["object", "null"]},
        "oracle": {"type": ["object", "null"]},
        "witnesses": {"type": "array"},
        "classification": {
            "type": "string",
            "enum": ["consistent_with_state", "proven_not_a_state", "inconclusive"],
        },
    },
}

_TYPE_MAP = {"object": dict, "number": (int, float), "integer": int,
             "string": str, "array": list, "boolean": bool}


def validate_report(obj, schema=None):
    """Minimal structural validation of a report against REPORT_SCHEMA."""
    schema = schema or REPORT_SCHEMA
    if not isinstance(obj, dict):
        raise ValueError("report must be a JSON object")
    for key in schema["required"]:
        if key not in obj:
            raise ValueError(f"report is missing required key {key!r}")
    for key, spec in schema.get("properties", {}).items():
        if key not in obj:
            continue
        val = obj[key]
        kinds = spec.get("type")
        kinds = [kinds] if isinstance(kinds, str) else list(kinds or [])
        if kinds:
            ok = any(val is None if k == "null" else isinstance(val, _TYPE_MAP[k])
                     for k in kinds)
            if not ok or (isinstance(val, bool) and "boolean" not in kinds):
                raise ValueError(f"report key {key!r} has wrong type")
        if "enum" in spec and val not in spec["enum"]:
            raise ValueError(f"report key {key!r} not in {spec['enum']}")
        if isinstance(val, dict) and "required" in spec:
            for sub in spec["required"]:
                if sub not in val:
                    raise ValueError(f"report key {key}.{sub} missing")
    return True


class InputError(Exception):
    pass


def _load_spec(source):
    if source == "-":
        return json.load(sys.stdin)
    path = Path(source)
    if path.exists():
        with open(path) as fh:
            return json.load(fh)
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise InputError(f"cannot read state spec {source!r}: {exc}") from exc


def _square_axis(hbar, count, extent):
    d = 2.0 * extent * np.sqrt(hbar) / count
    return AxisGrid(-(count // 2) * d, (count // 2 - 1) * d, count)


def build_state(spec, args):
    """Build a Wigner grid from a parsed state spec; returns (grid, echo)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InputError("state spec must be an object with a 'type' key")
    kind = spec["type"]
    hbar = float(args.hbar if args.hbar is not None else spec.get("hbar", 1.0))
    if hbar <= 0:
        raise InputError("hbar must be positive")
    count = args.grid_n
    extent = args.grid_extent

    try:
        if kind == "fock":
            axis = default_axis(hbar, count, extent)
            w = wigner_of_pure(fock_state(int(spec["n"]), axis, hbar))
        elif kind == "gaussian":
            axis = _square_axis(hbar, count, extent)
            w = wigner_gaussian(np.asarray(spec["mean"], dtype=float),
                                np.asarray(spec["cov"], dtype=float),
                                axis, axis, hbar)
        elif kind == "mixture":
            axis = default_axis(hbar, count, extent)
            comps = []
            for item in spec["components"]:
                state = item["state"]
                if state.get("type") != "fock":
                    raise InputError("mixture components must be fock states")
                comps.append((float(item["weight"]), fock_state(int(state["n"]), axis, hbar)))
            w = mixture_wigner(comps)
        elif kind == "grid":
            w = load_wigner_manifest(spec["manifest"])
            hbar = w.hbar
        elif kind == "narcowich-oconnell":
            axis = no_default_axis(max(count, 768), max(extent, 28.0))
            w = narcowich_oconnell_grid(float(spec.get("alpha", hbar / 2)),
                                        float(spec.get("beta", hbar / 2)),
                                        axis, axis, hbar)
        elif kind == "bump":
            axis = _square_axis(hbar, count, extent)
            w = truncated_bump_grid(axis, axis, hbar,
                                    radius=float(spec.get("radius", 1.0)),
                                    profile=spec.get("profile", "cosine"))
        else:
            raise InputError(f"unknown state type: {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"invalid state spec: {exc}") from exc

    lam = args.rescale if args.rescale is not None else spec.get("rescale")
    if lam is not None:
        lam = float(lam)
        if lam <= 0:
            raise InputError("rescale parameter must be positive")
        w = rescale(w, lam)
    echo = dict(spec)
    echo["hbar"] = hbar
    if lam is not None:
        echo["rescale"] = lam
    return w, echo


def _dominate(w, cmax_factor):
    """Domination fit; returns (certificate, compact flag, its diagnostics)."""
    compact, diag = compact_support_flag(w)
    # a compactly supported candidate is dominated by an arbitrarily tight
    # Gaussian once C may grow, so use a generous cap
    factor = max(cmax_factor, 10.0) if compact else cmax_factor
    return fit_dominating_gaussian(w, c_max_factor=factor), compact, diag


def _oracle_report(w, tol):
    """Report fragment of the operator-spectrum oracle."""
    eigs = operator_spectrum_oracle(w)
    return {"top_eigenvalues": eigs[:10].tolist(),
            "min_eigenvalue": float(eigs[-1]),
            "eigenvalue_sum": float(eigs.sum()),
            "tol": tol,
            "positive": bool(eigs[-1] >= -tol)}


def analyze(w, echo, args):
    """Full check pipeline on a Wigner grid; returns the report dict."""
    hbar = w.hbar
    tr = trace(w)
    cov = covariance_from_grid(w)
    unc = uncertainty_report(cov.sigma, hbar)
    p4 = moment_p4(w)

    report = {
        "input": echo,
        "hbar": hbar,
        "seed": args.seed,
        "grid": {"x_axis": w.x_axis.to_dict(), "p_axis": w.p_axis.to_dict()},
        "trace": tr,
        "moment_p4": p4,
        "covariance": {"sigma": cov.sigma.tolist(), "mean": cov.mean.tolist()},
        "uncertainty": unc.to_dict(),
        "klm": None,
        "domination": None,
        "blob": None,
        "oracle": None,
        "witnesses": [],
    }
    witnesses = report["witnesses"]
    if not unc.psd_ok:
        witnesses.append({"type": "quantum_psd_failure",
                          "min_eigenvalue": unc.psd_min_eigenvalue})
    if p4 < -args.tol_p4:
        witnesses.append({"type": "negative_p4_moment", "value": p4})

    if not args.no_klm:
        klm = klm_check(w, max_order=args.max_order, trials_per_order=args.trials,
                        seed=args.seed, tol=args.tol_klm)
        report["klm"] = klm.to_dict()
        if klm.overall == "violation_certificate":
            witnesses.append({"type": "klm_violation",
                              "order": klm.witness.order,
                              "min_eigenvalue": klm.witness.min_eigenvalue})

    if not args.no_domination:
        cert, compact, compact_diag = _dominate(w, args.cmax_factor)
        dom = cert.to_dict()
        dom["compact_support"] = compact
        dom["compact_support_diagnostics"] = compact_diag
        report["domination"] = dom
        if cert.verdict == "not_a_wigner_distribution":
            witnesses.append({"type": "domination_mu1_above_1", "mu1": cert.mu1})
        blob_info = {"capacity": capacity(cert.M, hbar),
                     "admissible": is_admissible(cert.M, hbar, tol=VERDICT_CAP_TOL)}
        if blob_info["admissible"]:
            blob, resid = find_contained_blob(cert.M, hbar, tol=VERDICT_CAP_TOL)
            blob_info["contained_blob"] = blob.to_dict()
            blob_info["containment_residual"] = resid
            blob_info["section_areas"] = [section_area(cert.M, 0, hbar)]
        report["blob"] = blob_info

    if not args.no_oracle:
        oracle = _oracle_report(w, args.tol_oracle)
        report["oracle"] = oracle
        if not oracle["positive"]:
            witnesses.append({"type": "oracle_negative_eigenvalue",
                              "min_eigenvalue": oracle["min_eigenvalue"]})

    if witnesses:
        report["classification"] = "proven_not_a_state"
    elif not args.no_oracle:
        report["classification"] = "consistent_with_state"
    else:
        report["classification"] = "inconclusive"
    return report


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output and args.output != "-":
        target = Path(args.output)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        tmp.replace(target)
    else:
        sys.stdout.write(text)


def _cmd_analyze(args):
    w, echo = build_state(_load_spec(args.spec), args)
    report = analyze(w, echo, args)
    _emit(report, args)
    return 2 if report["classification"] == "proven_not_a_state" else 0


def _cmd_wigner(args):
    w, echo = build_state(_load_spec(args.spec), args)
    if args.csv:
        if not args.output or args.output == "-":
            raise InputError("--csv requires -o MANIFEST_PATH")
        save_wigner_manifest(w, args.output, csv_path=args.csv)
        return 0
    manifest = {"input": echo, "x_axis": w.x_axis.to_dict(), "p_axis": w.p_axis.to_dict(),
                "hbar": w.hbar, "trace": trace(w), "values": w.values.tolist()}
    _emit(manifest, args)
    return 0


def _parse_lambdas(text):
    try:
        parts = [float(t) for t in text.split(":")]
        start, stop, step = parts
    except ValueError as exc:
        raise InputError(f"cannot parse --lambdas {text!r}; expected start:stop:step") from exc
    if step <= 0 or stop < start:
        raise InputError("--lambdas needs start <= stop and step > 0")
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(count)]


def _cmd_rescale_sweep(args):
    w, echo = build_state(_load_spec(args.spec), args)
    lambdas = _parse_lambdas(args.lambdas)
    entries = []
    for lam in lambdas:
        wl = rescale(w, lam)
        cov = covariance_from_grid(wl)
        rep = uncertainty_report(cov.sigma, w.hbar)
        entries.append({"lambda": lam, "nu_min": rep.nu_min,
                        "psd_min_eigenvalue": rep.psd_min_eigenvalue,
                        "verdict": "pass" if rep.verdict else "fail"})
    base = covariance_from_grid(w)
    report = {"input": echo, "hbar": w.hbar,
              "lambda_star": uncertainty_report(base.sigma, w.hbar).lambda_star,
              "sweep": entries}
    _emit(report, args)
    return 0


def _cmd_klm(args):
    w, echo = build_state(_load_spec(args.spec), args)
    rep = klm_check(w, max_order=args.max_order, trials_per_order=args.trials,
                    seed=args.seed, tol=args.tol_klm)
    out = {"input": echo, "hbar": w.hbar, "klm": rep.to_dict()}
    _emit(out, args)
    return 2 if rep.overall == "violation_certificate" else 0


def _cmd_dominate(args):
    w, echo = build_state(_load_spec(args.spec), args)
    cert, compact, diag = _dominate(w, args.cmax_factor)
    out = {"input": echo, "hbar": w.hbar, "domination": cert.to_dict(),
           "compact_support": compact, "compact_support_diagnostics": diag}
    _emit(out, args)
    return 2 if cert.verdict == "not_a_wigner_distribution" else 0


def _cmd_oracle(args):
    w, echo = build_state(_load_spec(args.spec), args)
    out = {"input": echo, "hbar": w.hbar, "oracle": _oracle_report(w, args.tol_oracle)}
    _emit(out, args)
    return 0 if out["oracle"]["positive"] else 2


def _cmd_capacity(args):
    spec = _load_spec(args.spec)
    try:
        M = np.asarray(spec["M"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"capacity needs a JSON object with an 'M' matrix: {exc}") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0 or M.shape[0] % 2:
        raise InputError(f"capacity needs 'M' to be a square matrix of even size, "
                         f"got shape {M.shape}")
    hbar = float(args.hbar if args.hbar is not None else spec.get("hbar", 1.0))
    n = M.shape[0] // 2
    out = {"input": spec, "hbar": hbar,
           "capacity": capacity(M, hbar),
           "admissible": is_admissible(M, hbar),
           "section_areas": [section_area(M, j, hbar) for j in range(n)]}
    if out["admissible"]:
        blob, resid = find_contained_blob(M, hbar)
        out["contained_blob"] = blob.to_dict()
        out["containment_residual"] = resid
    _emit(out, args)
    return 0


def _cmd_hbar_sweep(args):
    w, echo = build_state(_load_spec(args.spec), args)
    values = [float(t) for t in args.values.split(",")]
    if any(v <= 0 for v in values):
        raise InputError("hbar values must be positive")
    reports = hbar_sweep(w, values)
    out = {"input": echo, "sweep": [r.to_dict() for r in reports]}
    _emit(out, args)
    return 0


def _cmd_hardy(args):
    spec = _load_spec(args.spec)
    hbar = float(args.hbar if args.hbar is not None else spec.get("hbar", 1.0))
    axis = default_axis(hbar, args.grid_n, args.grid_extent)
    if spec.get("type") != "fock":
        raise InputError("hardy expects a fock state spec")
    fit = hardy_fit(fock_state(int(spec["n"]), axis, hbar))
    _emit({"input": spec, "hbar": hbar, "hardy": fit.to_dict()}, args)
    return 0


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(prog="wigcheck",
                                     description="Is this phase-space function a Wigner distribution?")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=None, help="override hbar")
    common.add_argument("--grid-n", type=int, default=256, help="grid points per axis")
    common.add_argument("--grid-extent", type=float, default=8.0,
                        help="half-width of the position axis in units of sqrt(hbar)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    common.add_argument("--rescale", type=float, default=None,
                        help="apply a rescaling parameter to the built state")
    common.add_argument("--max-order", type=_positive_int, default=5,
                        help="largest sampled order")
    common.add_argument("--trials", type=_positive_int, default=50, help="point sets per order")
    common.add_argument("--cmax-factor", type=float, default=1.25,
                        help="cap on the domination constant, relative to max W")
    common.add_argument("--tol-klm", type=float, default=1e-6)
    common.add_argument("--tol-oracle", type=float, default=DEFAULT_ORACLE_TOL)
    common.add_argument("--tol-p4", type=float, default=DEFAULT_P4_TOL)
    common.add_argument("-o", "--output", default=None, help="write the JSON report here")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="run the full check pipeline")
    p.add_argument("spec", help="state spec: JSON file, inline JSON, or - for stdin")
    p.add_argument("--no-klm", action="store_true")
    p.add_argument("--no-domination", action="store_true")
    p.add_argument("--no-oracle", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("wigner", parents=[common], help="dump the Wigner grid")
    p.add_argument("spec")
    p.add_argument("--csv", default=None, help="write values to this CSV file")
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("rescale-sweep", parents=[common],
                       help="uncertainty verdict along a rescaling sweep")
    p.add_argument("spec")
    p.add_argument("--lambdas", required=True, help="start:stop:step")
    p.set_defaults(func=_cmd_rescale_sweep)

    p = sub.add_parser("klm", parents=[common], help="finite-order positivity search")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_klm)

    p = sub.add_parser("dominate", parents=[common], help="dominating-Gaussian fit")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("oracle", parents=[common], help="operator spectrum ground truth")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("capacity", parents=[common],
                       help="capacity and admissibility of an ellipsoid matrix")
    p.add_argument("spec", help='JSON with {"M": [[...]], "hbar": ...}')
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("hbar-sweep", parents=[common],
                       help="uncertainty checks at several values of hbar")
    p.add_argument("spec")
    p.add_argument("--values", required=True, help="comma-separated hbar values")
    p.set_defaults(func=_cmd_hbar_sweep)

    p = sub.add_parser("hardy", parents=[common],
                       help="Gaussian decay rates of a pure state and its transform")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_hardy)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
