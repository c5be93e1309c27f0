"""Command-line interface: parse a state spec, run checks, emit JSON reports.

State specs are JSON objects with a "type" tag:

    {"type": "fock", "n": 1}
    {"type": "gaussian", "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]}
    {"type": "mixture", "components": [{"weight": 0.5, "state": {"type": "fock", "n": 0}}, ...]}
    {"type": "grid", "manifest": "path/to/manifest.json"}
    {"type": "narcowich-oconnell", "alpha": 0.5, "beta": 0.5}
    {"type": "bump", "radius": 1.0, "profile": "cosine"}

plus optional top-level keys "hbar" and "rescale" (a positive scaling
parameter applied to the built grid); no flag sets either.  Every subcommand
takes one path: load the spec, resolve hbar, build the input, run its stages
and emit one report.  It takes only the flags its build and stages read.  A
stage maps (grid, args) to (report fragment, hard witnesses).
Exit codes: 0 when no stage returns a hard witness (for `analyze`,
consistent with a state), 2 when one does (proven not to be a state), 1 on
input errors.
"""

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .blobs import capacity, find_contained_blob, is_admissible, section_area
from .domination import (C_MAX_FACTOR, COMPACT_C_MAX_FACTOR, VERDICT_BAND,
                         compact_support_flag, fit_dominating_gaussian, hardy_fit)
from .fixtures import NO_COUNT, NO_EXTENT, moment_p4, narcowich_oconnell_grid, truncated_bump_grid
from .klm import klm_check
from .states import (as_dict, default_axis, fock_state, load_wigner_manifest, mixture_wigner,
                     operator_spectrum_oracle, rescale, save_wigner_manifest, trace,
                     wigner_gaussian, wigner_of_pure)
from .uncertainty import covariance_from_grid, uncertainty_report

DEFAULT_EXTENT = 8.0  # half-width of the position axis, in units of sqrt(hbar)
FOCK_MARGIN = 6.0  # tail room beyond a Fock state's turning point, same units
FOCK_STEP = 0.05  # widening step of a default Fock axis whose tail is still on it, same units
ORACLE_TOL = 1e-5  # a kernel eigenvalue below -ORACLE_TOL is a hard witness
MAX_LAMBDAS = 1000  # most rescaling parameters of one sweep


class InputError(Exception):
    pass


def _load_spec(source):
    """The spec, one JSON object: inline JSON, a file path, or - for stdin."""
    if source == "-":
        spec = json.load(sys.stdin)
    elif source.lstrip().startswith(("{", "[")):
        # inline JSON is never taken for a path: a long one is not a valid file name
        try:
            spec = json.loads(source)
        except json.JSONDecodeError as exc:
            raise InputError(f"cannot read state spec {source!r}: {exc}") from exc
    else:
        with open(source) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict):
        raise InputError("the spec must be a JSON object")
    return spec


def _positive(value, name):
    """`value` as a positive, finite float; InputError otherwise (a bool or a string too)."""
    try:
        if isinstance(value, (bool, str)):  # float(True) would be 1.0, float("1.5") 1.5
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{name} must be a number, got {value!r}") from None
    if not (np.isfinite(number) and number > 0):
        raise InputError(f"{name} must be positive and finite, got {number!r}")
    return number


def _numbers(value, name):
    """`value`; InputError if it holds a JSON bool or string, which numpy reads as a number."""
    if isinstance(value, (bool, str)):
        raise InputError(f"{name} must be a number, got {value!r}")
    for item in value if isinstance(value, list) else ():
        _numbers(item, name)
    return value


def _fock_states(specs, hbar, args):
    """Wavefunctions of the fock `specs` on one position axis, of half-width (in
    sqrt(hbar)) the largest turning point sqrt(2n+1) plus FOCK_MARGIN, within
    [DEFAULT_EXTENT, sqrt(pi*count/4)], past which the momentum axis is the shorter.
    Where a state's tail is above FOCK_BOUNDARY_TOL at the axis' end, it widens in
    FOCK_STEPs while the momentum axis, of half-width pi*count/(4*extent), keeps
    FOCK_MARGIN/2 beyond the turning point."""
    ns = [spec.get("n") for spec in specs]
    ns = [int(n) if isinstance(n, float) and n.is_integer() else n for n in ns]
    for n in ns:  # a bool is an int to Python; a fractional n must not be truncated
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InputError(f"a fock spec needs a non-negative integer 'n', got {n!r}")
    count = args.grid_n
    if count % 2:  # no widening mends an odd count: say so before widening
        raise InputError("invalid state spec: count must be even")
    turn = np.sqrt(2 * min(max([0, *ns]), count) + 1)  # no n above count fits: a bounded float
    extent = max(DEFAULT_EXTENT, min(turn + FOCK_MARGIN, np.sqrt(np.pi * count / 4)))
    steps = max(0, int((np.pi * count / (4 * (turn + FOCK_MARGIN / 2)) - extent) / FOCK_STEP))
    for step in range(steps + 1):  # a ValueError here is a too narrow grid
        try:  # every command that builds Fock states reports their errors alike
            return [fock_state(n, default_axis(hbar, count, extent + step * FOCK_STEP), hbar)
                    for n in ns]
        except ValueError as exc:
            if step == steps:
                raise InputError(f"invalid state spec: {exc}") from exc


def _axis(count, half, name, value):
    """Centred axis of half-width `half`, set by the spec's `name` `value`; InputError
    when half**4, which the report's <p^4> sums, is out of floating-point range."""
    if not half < np.finfo(float).max ** 0.25:
        raise InputError(f"{name} {value!r}: half-width {half:.3g} out of floating-point range")
    return default_axis(1.0, count, half)


def build_state(spec, hbar, args):
    """Build a Wigner grid on axes sized from the parsed spec; returns (grid, echo)."""
    if "type" not in spec:
        raise InputError("state spec must be an object with a 'type' key")
    kind = spec["type"]
    count = args.grid_n
    needs = {"gaussian": ("mean", "cov"), "mixture": ("components",), "grid": ("manifest",)}
    for key in needs.get(kind, ()) if isinstance(kind, str) else ():  # in words, not by repr
        if key not in spec:
            raise InputError(f"{kind} spec needs {key!r}")

    try:
        if kind == "fock":
            w = wigner_of_pure(_fock_states([spec], hbar, args)[0])
        elif kind == "gaussian":
            axis = default_axis(hbar, count, DEFAULT_EXTENT)
            w = wigner_gaussian(_numbers(spec["mean"], "gaussian mean"),
                                _numbers(spec["cov"], "gaussian cov"), axis, axis, hbar)
        elif kind == "mixture":
            items = spec["components"]
            if not isinstance(items, list) or not all(
                    isinstance(c, dict) and c.keys() >= {"weight", "state"} for c in items):
                raise InputError("mixture components must be objects with 'weight' and 'state'")
            states = [item["state"] for item in items]
            if not all(isinstance(state, dict) and state.get("type") == "fock" for state in states):
                raise InputError("mixture components must be fock states")
            weights = [_positive(item["weight"], "mixture weight") for item in items]
            w = mixture_wigner(zip(weights, _fock_states(states, hbar, args)))
        elif kind == "grid":
            w = load_wigner_manifest(spec["manifest"])
            if "hbar" in spec and hbar != w.hbar:
                raise InputError(f"hbar {hbar!r} differs from the manifest's hbar {w.hbar!r}")
            hbar = w.hbar
        elif kind == "narcowich-oconnell":
            # the alpha = beta = 1/2 grid on axes scaled by sqrt(2 alpha) and sqrt(2 beta)
            alpha, beta = (_positive(spec.get(key, hbar / 2), key) for key in ("alpha", "beta"))
            x_axis, p_axis = (_axis(max(count, NO_COUNT), NO_EXTENT * np.sqrt(2 * a), key, a)
                              for key, a in (("alpha", alpha), ("beta", beta)))
            w = narcowich_oconnell_grid(alpha, beta, x_axis, p_axis, hbar)
        elif kind == "bump":
            radius = _positive(spec.get("radius", 1.0), "bump radius")
            half = max(DEFAULT_EXTENT * np.sqrt(hbar), 1.25 * radius)  # the disk and a zero rim
            axis = _axis(count, half, "bump radius", radius)
            w = truncated_bump_grid(axis, axis, hbar, radius, spec.get("profile", "cosine"))
        else:
            raise InputError(f"unknown state type: {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid state spec: {exc}") from exc

    echo = {**spec, "hbar": hbar}
    if spec.get("rescale") is not None:
        echo["rescale"] = lam = _positive(spec["rescale"], "rescale parameter")
        try:
            w = rescale(w, lam)
        except ValueError as exc:  # a Gaussian rescales in its spec, on axes sized for it
            hint = "; or give the Gaussian mean/lambda and cov/lambda^2 with no rescale"
            raise InputError(f"{exc}{hint if kind == 'gaussian' else ''}") from exc
    return w, echo


# --- stages: (grid, args) -> (report fragment, hard witnesses) -------------

def _moments(w, args):
    """Trace, covariance, uncertainty criteria and the fourth momentum moment."""
    cov = covariance_from_grid(w)
    unc = uncertainty_report(cov.sigma, w.hbar)
    p4 = moment_p4(w)
    witnesses = []
    if not unc.psd_ok:
        witnesses.append({"type": "quantum_psd_failure",
                          "min_eigenvalue": unc.psd_min_eigenvalue})
    if p4 < 0:  # a state has <p^4> >= <p^2>^2 > 0
        witnesses.append({"type": "negative_p4_moment", "value": p4})
    return {"grid": {"x_axis": as_dict(w.x_axis), "p_axis": as_dict(w.p_axis)},
            "trace": trace(w),
            "moment_p4": p4,
            "covariance": {"sigma": as_dict(cov.sigma), "mean": as_dict(cov.mean)},
            "uncertainty": as_dict(unc)}, witnesses


def _klm(w, args):
    """Finite-order positivity search."""
    klm = klm_check(w, seed=args.seed)
    witnesses = []
    if klm.overall == "violation_certificate":
        witnesses.append({"type": "klm_violation", "order": klm.witness.order,
                          "min_eigenvalue": klm.witness.min_eigenvalue})
    return {"klm": as_dict(klm)}, witnesses


def _domination(w, args):
    """Dominating-Gaussian fit with the compact-support flag inside it, plus
    the capacity pi*hbar/mu_1 of the fitted ellipsoid and its contained
    quantum blob."""
    compact, diag = compact_support_flag(w)
    cert = fit_dominating_gaussian(w, COMPACT_C_MAX_FACTOR if compact else C_MAX_FACTOR)
    witnesses = []
    if cert.verdict == "not_a_wigner_distribution":
        witnesses.append({"type": "domination_mu1_above_1", "mu1": cert.mu1})
    # the fit's mu_1 is the one `capacity` and `is_admissible` compute
    blob = {"capacity": float(np.pi * w.hbar / cert.mu1),
            "admissible": cert.verdict != "not_a_wigner_distribution"}
    if blob["admissible"]:
        contained, resid = find_contained_blob(cert.M, w.hbar, tol=VERDICT_BAND)
        blob["contained_blob"] = as_dict(contained)
        blob["containment_residual"] = resid
        blob["section_areas"] = [section_area(cert.M, 0, w.hbar)]
    return {"domination": {**as_dict(cert), "compact_support": compact,
                           "compact_support_diagnostics": diag}, "blob": blob}, witnesses


def _oracle(w, args):
    """Operator-spectrum ground truth on the two same-parity kernel blocks."""
    even, odd = operator_spectrum_oracle(w)
    low = float(min(even[-1], odd[-1]))
    sums = [float(even.sum()), float(odd.sum())]  # their mean is the trace
    oracle = {"top_eigenvalues": as_dict(even[:10]), "min_eigenvalue": low,
              "eigenvalue_sum": (sums[0] + sums[1]) / 2, "sublattice_sums": sums,
              "tol": ORACLE_TOL, "positive": low >= -ORACLE_TOL}
    witnesses = []
    if not oracle["positive"]:
        witnesses.append({"type": "oracle_negative_eigenvalue",
                          "min_eigenvalue": oracle["min_eigenvalue"]})
    return {"oracle": oracle}, witnesses


def _analyze(w, args):
    """The full battery: moments, KLM search, domination fit and oracle.  The
    input is proven not a state exactly when a stage returns a hard witness."""
    report, witnesses = {"seed": args.seed}, []
    for stage in (_moments, _klm, _domination, _oracle):
        fragment, found = stage(w, args)
        report.update(fragment)
        witnesses += found
    report["witnesses"] = witnesses
    report["classification"] = "proven_not_a_state" if witnesses else "consistent_with_state"
    return report, witnesses


def _rescale_sweep(w, args):
    """Uncertainty checks of W_lam(z) = lam^2 W(lam z) for each lam of `--lambdas`.
    Its covariance is Sigma/lam^2, so the grid is never resampled: the entry at lam
    is the grid checked at hbar' = lam^2 hbar, in the rescaled units."""
    sigma = covariance_from_grid(w).sigma
    entries = []
    for lam in args.lambdas:
        with np.errstate(divide="ignore", over="ignore"):  # a tiny lam overflows it: see below
            scaled = sigma / (lam * lam)
        # the criteria multiply its entries pairwise, so each must stay below sqrt(max float)
        if not (np.isfinite(lam * lam) and np.abs(scaled).max() < np.sqrt(np.finfo(float).max)):
            raise InputError(f"rescaling parameter {lam!r} takes the covariance Sigma/lambda^2 "
                             f"out of floating-point range")
        entries.append({"lambda": lam, **as_dict(uncertainty_report(scaled, w.hbar))})
    return {"lambda_star": uncertainty_report(sigma, w.hbar).lambda_star, "sweep": entries}, []


# --- commands: (spec, hbar, args) -> (report or None, hard witnesses) -------

def _on_grid(stage):
    """Command that builds the spec's grid and reports `stage` on it."""
    def run(spec, hbar, args):
        w, echo = build_state(spec, hbar, args)
        fragment, witnesses = stage(w, args)
        return {"input": echo, "hbar": w.hbar, **fragment}, witnesses
    return run


def _wigner(spec, hbar, args):
    if args.csv and (not args.output or args.output == "-"):
        raise InputError("--csv requires -o MANIFEST_PATH")  # before any grid is built
    w, echo = build_state(spec, hbar, args)
    if args.csv:
        save_wigner_manifest(w, args.output, csv_path=args.csv)
        return None, []
    return {"input": echo, "x_axis": as_dict(w.x_axis), "p_axis": as_dict(w.p_axis),
            "hbar": w.hbar, "trace": trace(w), "values": as_dict(w.values)}, []


def _capacity(spec, hbar, args):
    try:
        M = np.asarray(_numbers(spec["M"], "capacity M"), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"capacity needs a JSON object with an 'M' matrix: {exc}") from exc
    try:  # `williamson` is the one gate of M, its shape included
        cap = capacity(M, hbar)
    except ValueError as exc:
        raise InputError(f"capacity M: {exc}") from exc
    out = {"input": spec, "hbar": hbar, "capacity": cap, "admissible": is_admissible(M, hbar),
           "section_areas": [section_area(M, j, hbar) for j in range(len(M) // 2)]}
    if out["admissible"]:
        blob, resid = find_contained_blob(M, hbar)
        out["contained_blob"] = as_dict(blob)
        out["containment_residual"] = resid
    return out, []


def _hardy(spec, hbar, args):
    if spec.get("type") != "fock":
        raise InputError("hardy expects a fock state spec")
    if "rescale" in spec:
        raise InputError("invalid state spec: hardy fits a wavefunction and takes no rescale")
    psi = _fock_states([spec], hbar, args)[0]
    return {"input": spec, "hbar": hbar, "hardy": as_dict(hardy_fit(psi))}, []


def _at_least(low, most):
    """argparse type: an integer from `low` to `most`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected int, got {text!r}") from None
        if not low <= value <= most:
            bound = f"at least {low}" if value < low else f"at most {most}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


def _lambdas(text):
    """argparse type: the rescaling parameters start, start + step, ... up to stop,
    all finite, with 0 < start <= stop and step > 0, at most MAX_LAMBDAS of them."""
    try:
        start, stop, step = (float(t) for t in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected start:stop:step, got {text!r}") from None
    # the steps that fit, with a relative slack for the quotient's rounding: 0.8:1.2:0.2 keeps 1.2
    if not (np.isfinite([start, stop, step]).all() and 0 < start <= stop and step > 0
            and np.isfinite(steps := (stop - start) / step * (1 + 1e-9))):
        raise argparse.ArgumentTypeError(
            f"needs finite numbers with 0 < start <= stop and step > 0, got {text}")
    count = int(steps) + 1  # the floor, counted before any list is built
    if count > MAX_LAMBDAS:
        raise argparse.ArgumentTypeError(f"at most {MAX_LAMBDAS} points, got {count}")
    return [start + i * step for i in range(count)]


FLAGS = {  # flag: argparse options; integers stay within int64 (the seed: uint64)
    "--grid-n": {"type": _at_least(16, 2**63 - 1), "default": 256,
                 "help": "grid points per axis (even); the spec sets the axes' extent"},
    "--seed": {"type": _at_least(0, 2**64 - 1), "default": 0,
               "help": "seed for randomized searches, below 2**64"},
    "--csv": {"help": "write values to this CSV file"},
    "--lambdas": {"required": True, "type": _lambdas, "help": "start:stop:step"},
}
GRID = ("--grid-n",)
KLM = (*GRID, "--seed")

# name: (help, command, the flags its build and stages read besides -o)
COMMANDS = {
    "analyze": ("run the full check pipeline", _on_grid(_analyze), KLM),
    "wigner": ("dump the Wigner grid", _wigner, (*GRID, "--csv")),
    "rescale-sweep": ("uncertainty verdict along a rescaling sweep", _on_grid(_rescale_sweep),
                      (*GRID, "--lambdas")),
    "klm": ("finite-order positivity search", _on_grid(_klm), KLM),
    "dominate": ("dominating-Gaussian fit", _on_grid(_domination), GRID),
    "oracle": ("operator spectrum ground truth", _on_grid(_oracle), GRID),
    "capacity": ('capacity and admissibility of an ellipsoid matrix {"M": [[...]]}',
                 _capacity, ()),
    # hardy reads no seed; it takes --seed because the benchmark passes it to every case
    "hardy": ("Gaussian decay rates of a pure state and its transform", _hardy, (*GRID, "--seed")),
}


def _emit(report, args):
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.output and args.output != "-":
        target = Path(args.output)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(text)
        try:
            tmp.replace(target)
        except OSError:
            tmp.unlink()
            raise
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line on stderr, like every other input error
        self.exit(2, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser():
    parser = _Parser(prog="wigcheck",
                     description="Is this phase-space function a Wigner distribution?")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, command, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("spec", help="JSON file, inline JSON, or - for stdin")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("-o", "--output", default=None, help="write the JSON report here")
        p.set_defaults(run=command)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # warnings wait for the command to end: an input error prints its one line alone
    with warnings.catch_warnings(record=True) as caught:
        try:
            spec = _load_spec(args.spec)
            hbar = _positive(spec.get("hbar", 1.0), "hbar")
            report, witnesses = args.run(spec, hbar, args)
            if report is not None:
                _emit(report, args)
        except (InputError, OSError, ValueError, OverflowError, MemoryError, RecursionError) as exc:
            if isinstance(exc, OverflowError):
                exc = "numerical overflow: an input number is too large to compute with"
            elif isinstance(exc, RecursionError):  # json reads and writes recursively
                exc = "the JSON input is nested too deeply to read or echo"
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for msg in caught:
        warnings.showwarning(msg.message, msg.category, msg.filename, msg.lineno)
    return 2 if witnesses else 0


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
