"""Checks of wigcheck reports against figures computed without wigcheck.

Nothing here imports the program: reports are parsed as strict JSON and
compared with the closed forms in `workloads`, KLM witnesses are re-evaluated
by a direct sum over a grid the benchmark builds itself, and manifests are
read back with a plain CSV/JSON parser.
"""

import copy
import json

import numpy as np

from workloads import HBAR, MANIFEST_AXIS, NOT_STATE

# Tolerances for comparing grid quadratures with closed forms, 50 to 500
# times the largest deviation seen on the workloads' inputs (trace 6e-12,
# sigma 3e-10 and <p^4> 2e-9 relative on the rotated squeezed state, whose
# tails the [-9, 9] axes cut at 1e-9; witness 2e-8 on rescaled Fock-1,
# whose grid wigcheck resamples by spline).
TRACE_TOL = 1e-9
EIGSUM_TOL = 1e-9
SIGMA_TOL = 1e-7     # relative to the largest entry of the expected matrix
P4_TOL = 1e-6        # relative
WITNESS_TOL = 1e-6   # absolute, plus the same relative to |min_eigenvalue|
HARDY_BAND = 0.05


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def parse_report(text):
    """Parse a report as strict JSON: NaN and +-Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def report_axes(report):
    return [np.linspace(a["min"], a["max"], a["count"])
            for a in (report["grid"]["x_axis"], report["grid"]["p_axis"])]


def grid_moments(xs, ps, values):
    """Covariance and fourth momentum moment of a grid by Riemann sums."""
    area = (xs[1] - xs[0]) * (ps[1] - ps[0])
    x, p = xs[:, None], ps[None, :]
    mx, mp = float((x * values).sum() * area), float((p * values).sum() * area)
    sxx = float((x * x * values).sum() * area) - mx * mx
    spp = float((p * p * values).sum() * area) - mp * mp
    sxp = float((x * p * values).sum() * area) - mx * mp
    p4 = float((p**4 * values).sum() * area)
    return np.array([[sxx, sxp], [sxp, spp]]), p4


def fsw_direct(xs, ps, values, points):
    """F_sigma W(z) = sum over the grid of exp(i(p x' - x p')) W(x', p') dx' dp'."""
    area = (xs[1] - xs[0]) * (ps[1] - ps[0])
    X, P = np.meshgrid(xs, ps, indexing="ij")
    return np.array([np.sum(np.exp(1j * (p * X - x * P)) * values) * area for x, p in points])


def witness_form(case, report):
    """v^H F v for the report's KLM witness, with
    F[j, k] = exp(i hbar/2 sigma(z_j, z_k)) F_sigma W(z_j - z_k)."""
    wit = report["klm"]["witness"]
    pts = np.asarray(wit["points"], dtype=float)
    v = np.asarray(wit["eigenvector_real"]) + 1j * np.asarray(wit["eigenvector_imag"])
    m = len(pts)
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
    if case.fsw is not None:
        fvals = case.fsw(diffs[:, 0], diffs[:, 1])
    else:
        xs, ps = report_axes(report)
        fvals = fsw_direct(xs, ps, case.wigner(xs, ps), diffs)
    sig = np.outer(pts[:, 1], pts[:, 0]) - np.outer(pts[:, 0], pts[:, 1])
    mat = np.exp(0.5j * HBAR * sig) * fvals.reshape(m, m)
    return float(np.real(v.conj() @ mat @ v)), float(np.linalg.norm(v))


def _close(a, b, tol):
    return np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol)


def _check_analyze(case, rep):
    bad = []
    cls = rep.get("classification")
    if cls != case.classification:
        bad.append(f"classification {cls!r}, expected {case.classification!r}")
    if bool(rep["witnesses"]) != (case.classification == NOT_STATE):
        bad.append(f"witness list {[w['type'] for w in rep['witnesses']]} contradicts the verdict")
    if abs(rep["trace"] - 1.0) > TRACE_TOL:
        bad.append(f"trace {rep['trace']!r}, expected 1")
    oracle = rep["oracle"]
    if abs(oracle["eigenvalue_sum"] - rep["trace"]) > EIGSUM_TOL:
        bad.append(f"oracle eigenvalue sum {oracle['eigenvalue_sum']!r} != trace {rep['trace']!r}")

    if case.sigma is None:
        xs, ps = report_axes(rep)
        sigma, p4 = grid_moments(xs, ps, case.wigner(xs, ps))
    else:
        sigma, p4 = case.sigma, case.p4
    got = np.asarray(rep["covariance"]["sigma"], dtype=float)
    scale = np.abs(sigma).max()
    if not _close(got, sigma, SIGMA_TOL * scale):
        bad.append(f"covariance {got.tolist()}, expected {np.asarray(sigma).tolist()}")
    if not _close(rep["covariance"]["mean"], [0.0, 0.0], SIGMA_TOL * scale):
        bad.append(f"mean {rep['covariance']['mean']}, expected 0")
    if abs(rep["moment_p4"] - p4) > P4_TOL * abs(p4):
        bad.append(f"<p^4> {rep['moment_p4']!r}, expected {p4!r}")
    expect_pass = np.sqrt(np.linalg.det(sigma)) >= HBAR / 2 - 1e-12
    if (rep["uncertainty"]["verdict"] == "pass") != expect_pass:
        bad.append(f"uncertainty verdict {rep['uncertainty']['verdict']!r}")

    klm = rep["klm"]
    if klm["witness"] is not None:
        if case.classification != NOT_STATE:
            bad.append("a state has a KLM witness")
        else:
            form, norm = witness_form(case, rep)
            lam = klm["witness"]["min_eigenvalue"]
            if abs(norm - 1.0) > 1e-9 or abs(form - lam) > WITNESS_TOL * (1 + abs(lam)):
                bad.append(f"KLM witness gives v^H F v = {form!r} (|v| = {norm!r}), "
                           f"reported {lam!r}")
            if lam >= -klm["tol"]:
                bad.append(f"KLM witness eigenvalue {lam!r} is not below -tol")
    return bad


def _check_hardy(case, rep):
    product = rep["hardy"]["product"]
    if case.hardy == "vacuum" and abs(product - 1.0) > HARDY_BAND:
        return [f"Hardy product {product!r} is not within 5 % of 1"]
    if case.hardy == "excited" and not product < 1.0:
        return [f"Hardy product {product!r} is not below 1"]
    return []


def check_report(case, text, exit_code):
    """Problems with one report, each a line of text; empty when it is right."""
    try:
        rep = parse_report(text)
    except ValueError as exc:
        return [f"{case.name}: not strict JSON: {exc}"]
    bad = [] if exit_code == case.exit_code else [f"exit code {exit_code}, expected {case.exit_code}"]
    try:
        bad += _check_hardy(case, rep) if case.hardy else _check_analyze(case, rep)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        bad.append(f"malformed report: {exc!r}")
    return [f"{case.name}: {b}" for b in bad]


def check_manifest(manifest):
    """The manifest file and its CSV hold the benchmark's grid bit for bit."""
    with open(manifest.path) as fh:
        doc = json.load(fh)
    bad = [f"{k} {doc.get(k)}" for k in ("x_axis", "p_axis") if doc.get(k) != MANIFEST_AXIS]
    if doc.get("hbar") != HBAR:
        bad.append(f"hbar {doc.get('hbar')}")
    if manifest.csv:
        text = (manifest.path.parent / doc["values_path"]).read_text()
        values = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()])
    else:
        values = np.array(doc["values"], dtype=float)
    if values.shape != manifest.values.shape or not np.array_equal(values, manifest.values):
        bad.append("values differ from the grid written")
    return [f"manifest {manifest.case.name}: {b}" for b in bad]


def self_test(case_texts):
    """Feed the checker wrong reports made from right ones.

    `case_texts` holds (case, text, exit_code) for reports that pass the
    checks.  Returns {mutation: the checker's first objection, or None when
    it accepted the wrong report} for a flipped classification, a perturbed
    sigma, an Infinity value and a corrupted KLM witness.
    """
    analyze = [(c, parse_report(t), e) for c, t, e in case_texts if not c.hardy]
    case, rep, code = analyze[0]
    flip = copy.deepcopy(rep)
    flip["classification"] = ("consistent_with_state" if rep["classification"] == NOT_STATE
                              else NOT_STATE)
    sigma = copy.deepcopy(rep)
    sigma["covariance"]["sigma"][1][1] *= 1.001
    inf = copy.deepcopy(rep)
    inf["moment_p4"] = float("inf")
    mutants = [("flipped classification", case, flip, code),
               ("perturbed sigma", case, sigma, code),
               ("Infinity value", case, inf, code)]
    with_witness = [(c, r, e) for c, r, e in analyze if r["klm"]["witness"] is not None]
    if with_witness:
        case, rep, code = with_witness[0]
        corrupt = copy.deepcopy(rep)
        corrupt["klm"]["witness"]["points"][0][0] += 0.25
        mutants.append(("corrupted witness", case, corrupt, code))
    verdicts = {"corrupted witness": None}
    for name, c, r, e in mutants:
        bad = check_report(c, json.dumps(r), e)
        verdicts[name] = bad[0] if bad else None
    return verdicts
