"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json

import numpy as np

from conftest import (check_williamson_criterion, fourier_wavefunction, oracle_min,
                      p4_series_reference, random_spd, random_symplectic)
from wigcheck import (capacity, check_rs, compact_support_flag,
                      covariance_from_grid, default_axis, fit_dominating_gaussian,
                      fock_state, is_admissible, klm_check, moment_p4,
                      operator_spectrum_oracle,
                      rescale, symplectic_spectrum, domination_verdict,
                      trace, truncated_bump_grid, uncertainty_report, wigner_gaussian,
                      wigner_of_pure)
from wigcheck.cli import main
from wigcheck.states import AxisGrid
from wigcheck.symplectic import williamson


def _report(number, ok, detail):
    print(f"\nACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_williamson_correctness():
    rng = np.random.default_rng(101)
    worst_recon, worst_sym = 0.0, 0.0
    for i in range(500):
        ndof = 1 + i % 3
        M = random_spd(rng, 2 * ndof, lo=0.1, hi=10.0)
        fact = williamson(M)
        worst_recon = max(worst_recon, fact.residual)
        worst_sym = max(worst_sym, fact.symplectic_residual)
    ok = worst_recon <= 1e-9 and worst_sym <= 1e-9
    _report(1, ok, f"500 matrices, worst residuals: reconstruction {worst_recon:.2e}, "
                   f"symplecticity {worst_sym:.2e} (bound 1e-9)")


def test_criterion_02_criterion_equivalence():
    rng = np.random.default_rng(102)
    hbar = 1.0
    agree = total = 0
    for _ in range(1000):
        dim = 2 * int(rng.integers(1, 3))
        sigma = random_spd(rng, dim, lo=0.15, hi=1.5)
        psd_ok = uncertainty_report(sigma, hbar).psd_ok
        will_ok, nu = check_williamson_criterion(sigma, hbar)
        if abs(nu - hbar / 2) <= 1e-10 * np.abs(sigma).max():
            continue
        total += 1
        agree += psd_ok == will_ok
    bridge = bridge_total = 0
    for _ in range(1000):
        dim = 2 * int(rng.integers(1, 3))
        M = random_spd(rng, dim, lo=0.3, hi=3.0)
        mu1 = symplectic_spectrum(M)[0]
        if abs(mu1 - 1.0) <= 1e-9:
            continue
        bridge_total += 1
        psd_ok = uncertainty_report(0.5 * hbar * np.linalg.inv(M), hbar).psd_ok
        bridge += is_admissible(M, hbar) == psd_ok
    ok = agree == total and bridge == bridge_total
    _report(2, ok, f"criterion agreement {agree}/{total}, "
                   f"admissibility bridge {bridge}/{bridge_total}")


def test_criterion_03_vacuum_calibration(vacuum_wigner):
    tr = trace(vacuum_wigner)
    cov = covariance_from_grid(vacuum_wigner).sigma
    klm = klm_check(vacuum_wigner, seed=0)
    worst = min(rec.worst_min_eigenvalue for rec in klm.orders)
    cert = fit_dominating_gaussian(vacuum_wigner)
    blocks = operator_spectrum_oracle(vacuum_wigner)
    head = max(abs(eigs[0] - 1.0) for eigs in blocks)
    rest = max(np.abs(eigs[1:]).max() for eigs in blocks)
    checks = {
        "trace": abs(tr - 1.0) <= 1e-6,
        "covariance": np.abs(cov - 0.5 * np.eye(2)).max() <= 1e-4,
        "klm": klm.overall == "no_violation_found" and worst >= -1e-8,
        "domination": abs(cert.mu1 - 1.0) <= 0.02,
        "oracle": head <= 1e-4 and rest <= 1e-4,
    }
    ok = all(checks.values())
    _report(3, ok, f"trace {tr:.8f}, cov err {np.abs(cov - 0.5 * np.eye(2)).max():.1e}, "
                   f"KLM worst {worst:.1e}, mu1 {cert.mu1:.4f}, "
                   f"oracle head error {head:.1e} / rest {rest:.1e}"
                   f" -> {checks}")


def test_criterion_04_rescaling_beats_uncertainty_checks():
    hbar = 1.0
    mins = []
    rs_ok = psd_ok = True
    nu = None
    for count in (256, 512):
        w = rescale(wigner_of_pure(fock_state(1, default_axis(count=count))), 1.2)
        sigma = covariance_from_grid(w).sigma
        rs_ok &= all(c.ok for c in check_rs(sigma, hbar))
        this_ok = uncertainty_report(sigma, hbar).psd_ok
        psd_ok &= this_ok
        nu = symplectic_spectrum(sigma)[-1]
        mins.append(oracle_min(w))
    stable = 0.5 <= mins[0] / mins[1] <= 2.0
    negative = all(m <= -1e-3 for m in mins)
    ok = rs_ok and psd_ok and negative and stable and nu > hbar / 2
    _report(4, ok, f"moment checks pass (nu_min {nu:.4f} > 0.5) while oracle min "
                   f"eigenvalues {mins[0]:.5f} (n=256) vs {mins[1]:.5f} (n=512)")


def test_criterion_05_rescaling_thresholds(vacuum_wigner, fock1_wigner):
    star_vac = uncertainty_report(covariance_from_grid(vacuum_wigner).sigma, 1.0).lambda_star
    star_fock = uncertainty_report(covariance_from_grid(fock1_wigner).sigma, 1.0).lambda_star
    ok_vals = abs(star_vac - 1.0) <= 1e-10 and abs(star_fock - np.sqrt(3.0)) <= 1e-10
    # sweep the covariance verdict across the predicted threshold
    flips_ok = True
    for w, star in ((vacuum_wigner, star_vac), (fock1_wigner, star_fock)):
        sigma = covariance_from_grid(w).sigma
        for lam in np.linspace(0.8 * star, 1.2 * star, 9):
            ok = uncertainty_report(sigma / lam**2, 1.0).psd_ok
            if abs(lam - star) > 1e-9:
                flips_ok &= ok == (lam < star)
    # and through the full grid pipeline just around the threshold
    for w, star in ((vacuum_wigner, star_vac), (fock1_wigner, star_fock)):
        for lam, expect in ((0.98 * star, True), (1.02 * star, False)):
            sigma = covariance_from_grid(rescale(w, lam)).sigma
            ok = uncertainty_report(sigma, 1.0).psd_ok
            flips_ok &= ok == expect
    ok = ok_vals and flips_ok
    _report(5, ok, f"lambda*(vacuum) = {star_vac:.12f}, lambda*(fock1) = {star_fock:.12f} "
                   f"(sqrt(3) = {np.sqrt(3):.12f}), verdict flips at the threshold")


def test_criterion_06_domination_scaling(vacuum_wigner):
    results = {}
    verdicts_ok = True
    for lam in (1.25, 1.5, 2.0):
        cert = fit_dominating_gaussian(rescale(vacuum_wigner, lam))
        results[lam] = cert.mu1
        verdicts_ok &= domination_verdict(cert.mu1) == "not_a_wigner_distribution"
    base = fit_dominating_gaussian(vacuum_wigner).mu1
    verdicts_ok &= domination_verdict(base) in ("boundary", "compatible")
    scale_ok = all(abs(results[lam] / lam**2 - 1.0) <= 0.05 for lam in results)
    ok = scale_ok and verdicts_ok
    _report(6, ok, "mu1(lambda): " + ", ".join(
        f"{lam} -> {results[lam]:.4f} (lambda^2 = {lam**2})" for lam in results))


def test_criterion_07_klm_violation_detection(vacuum_wigner):
    details = []
    ok = True
    for lam in (1.2, 1.5, 2.0):
        w = rescale(vacuum_wigner, lam)
        report = klm_check(w, seed=0)
        found = report.overall == "violation_certificate"
        ok &= found
        if found:
            from wigcheck import witness_quadratic_form
            reval = witness_quadratic_form(w, report.witness)
            ok &= abs(reval - report.witness.min_eigenvalue) <= 1e-9
            details.append(f"lambda={lam}: m={report.witness.order}, "
                           f"eig={report.witness.min_eigenvalue:.2e}")
        else:
            details.append(f"lambda={lam}: none found")
    _report(7, ok, "; ".join(details))


def test_criterion_08_narcowich_oconnell_end_to_end(no_grid):
    hbar = 1.0
    sigma = covariance_from_grid(no_grid).sigma
    rs_ok = all(c.ok for c in check_rs(sigma, hbar))
    psd_ok = uncertainty_report(sigma, hbar).psd_ok
    p4 = moment_p4(no_grid)
    ref = p4_series_reference(0.5, 0.5)
    p4_ok = abs(p4 / ref - 1.0) <= 0.02 and p4 < 0
    low = oracle_min(no_grid)
    oracle_ok = low < -1e-4
    ok = rs_ok and psd_ok and p4_ok and oracle_ok
    _report(8, ok, f"uncertainty passes, p4 = {p4:.5f} vs series {ref:.1f}, "
                   f"oracle min eigenvalue {low:.5f}")


def test_criterion_09_fourier_rotation():
    axis = default_axis()
    psi = fock_state(1, axis)
    w = wigner_of_pure(psi)
    wf = wigner_of_pure(fourier_wavefunction(psi))
    n = axis.count
    i_idx = np.arange(n // 4, 3 * n // 4)
    j_idx = np.arange(0, n, 2)
    k_idx = n // 2 + 2 * (i_idx - n // 2)
    m_idx = n // 2 + (n // 2 - j_idx) // 2
    expected = w.values[np.ix_(m_idx, k_idx)].T
    got = wf.values[np.ix_(i_idx, j_idx)]
    sup = np.abs(got - expected).max()
    _report(9, sup <= 1e-5, f"rotated-grid sup-norm difference {sup:.2e} (bound 1e-5)")


def test_criterion_10_capacity_invariance_and_chain(vacuum_wigner, fock1_wigner,
                                                    mixture_5050):
    rng = np.random.default_rng(110)
    worst = 0.0
    for i in range(500):
        ndof = 1 + i % 3
        M = random_spd(rng, 2 * ndof, lo=0.3, hi=3.0)
        S = random_symplectic(i, ndof)
        worst = max(worst, abs(capacity(S.T @ M @ S) - capacity(M)))
    invariance_ok = worst <= 1e-9

    axis = vacuum_wigner.x_axis
    squeezed = wigner_gaussian(np.zeros(2), 0.5 * np.diag([2.0, 0.5]),
                               axis, axis)
    chain_ok = True
    half_h = np.pi * 1.0
    details = []
    for name, w in (("vacuum", vacuum_wigner), ("fock1", fock1_wigner),
                    ("mixture", mixture_5050), ("squeezed", squeezed)):
        if oracle_min(w) < -1e-5:
            continue
        cap = capacity(fit_dominating_gaussian(w).M, w.hbar)
        chain_ok &= cap >= half_h * (1 - 0.02)
        details.append(f"{name}: c = {cap:.4f}")
    ok = invariance_ok and chain_ok
    _report(10, ok, f"capacity invariance worst {worst:.1e}; chain on oracle-passing "
                    f"fixtures vs half h = {half_h:.4f}: " + ", ".join(details))


def test_criterion_11_hbar_dependence(capsys):
    # the rescaling sweep's entry at lambda is the grid checked at hbar' = lambda^2 hbar
    lam = np.sqrt(1.5)
    main(["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", f"1:{lam}:{lam - 1}"])
    at_one, at_bigger = json.loads(capsys.readouterr().out)["sweep"]
    ok = (at_one["verdict"] == "pass" and at_one["rs_ok"] and at_bigger["verdict"] == "fail"
          and abs(at_bigger["lambda"] - lam) <= 1e-12)
    _report(11, ok, f"vacuum prepared at hbar=1: passes at hbar'=1.0 "
                    f"(nu_min {at_one['nu_min']:.6f}), fails at hbar'=1.5 "
                    f"(needs {1.5 / 2}, has lambda^2 nu_min {1.5 * at_bigger['nu_min']:.6f})")


def test_criterion_12_compact_support():
    count, extent = 256, 8.0
    d = 2.0 * extent / count
    axis = AxisGrid(-(count // 2) * d, (count // 2 - 1) * d, count)
    w = truncated_bump_grid(axis, axis, radius=1.0, profile="cosine")
    flag, _ = compact_support_flag(w)
    cert = fit_dominating_gaussian(w, c_max_factor=10.0)
    low = oracle_min(w)
    ok = flag and cert.mu1 > 1.0 and low < 0
    _report(12, ok, f"compact flag {flag}, domination mu1 {cert.mu1:.3f} > 1, "
                    f"oracle min eigenvalue {low:.2e} < 0")
