import argparse
import importlib.util
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symplectic
from wigcheck import (AxisGrid, WignerGrid, blobs, cli, default_axis, fock_state, mixture_wigner,
                      save_wigner_manifest, symplectic, uncertainty_report, wigner_gaussian)
from wigcheck.cli import _emit, main
from wigcheck.states import ALIASING_TOL


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_analyze_vacuum_consistent(capsys):
    code, rep = run_cli(capsys, "analyze", '{"type":"fock","n":0}')
    assert code == 0
    assert rep["classification"] == "consistent_with_state"
    assert rep["trace"] == pytest.approx(1.0, abs=1e-6)
    assert rep["uncertainty"]["verdict"] == "pass"
    assert rep["oracle"]["positive"]


def test_analyze_rescaled_fock1_headline(capsys):
    code, rep = run_cli(capsys, "analyze", '{"type":"fock","n":1,"rescale":1.2}')
    assert code == 2
    assert rep["classification"] == "proven_not_a_state"
    # the uncertainty criteria still pass: they do not determine the state
    assert rep["uncertainty"]["verdict"] == "pass"
    assert rep["uncertainty"]["rs_ok"]
    kinds = {w["type"] for w in rep["witnesses"]}
    assert "oracle_negative_eigenvalue" in kinds


def test_analyze_narcowich_oconnell(capsys):
    code, rep = run_cli(capsys, "analyze", '{"type":"narcowich-oconnell"}')
    assert code == 2
    assert rep["classification"] == "proven_not_a_state"
    assert rep["uncertainty"]["verdict"] == "pass"
    kinds = {w["type"] for w in rep["witnesses"]}
    assert "oracle_negative_eigenvalue" in kinds
    assert "negative_p4_moment" in kinds
    assert rep["moment_p4"] == pytest.approx(-6.0, rel=0.02)


@pytest.mark.parametrize("spec, alpha, beta", [
    ({"alpha": 2, "beta": 2}, 2, 2), ({"alpha": 4, "beta": 4}, 4, 4),
    ({"alpha": 0.05, "beta": 5}, 0.05, 5), ({"alpha": 100, "beta": 100}, 100, 100),
    ({"hbar": 4}, 2, 2), ({"alpha": 1e-4, "beta": 2500}, 1e-4, 2500),
    ({"alpha": 1e-3, "beta": 250}, 1e-3, 250), ({"alpha": 1, "beta": 1e8}, 1, 1e8),
    ({"alpha": 1e8, "beta": 1e8}, 1e8, 1e8), ({"alpha": 1e5, "beta": 1e-5}, 1e5, 1e-5)],
    ids=["2-2", "4-4", "0.05-5", "100-100", "hbar-4", "1e-4-2500", "1e-3-250", "1-1e8",
         "1e8-1e8", "1e5-1e-5"])
def test_narcowich_oconnell_fits_at_any_alpha_beta(capsys, spec, alpha, beta):
    # W_ab(x, p) = W_(1/2)(1/2)(x/sqrt(2a), p/sqrt(2b)) / (2 sqrt(ab)): axes of half-width
    # 28 sqrt(2a) and 28 sqrt(2b), each profile transformed from its own source range,
    # resolve every (a, b) on the uncertainty boundary as the a = b = 1/2 grid is resolved
    code, rep = run_cli(capsys, "analyze", json.dumps({"type": "narcowich-oconnell", **spec}))
    assert code == 2 and rep["uncertainty"]["verdict"] == "pass"
    assert -rep["grid"]["x_axis"]["min"] == pytest.approx(cli.NO_EXTENT * np.sqrt(2 * alpha))
    assert -rep["grid"]["p_axis"]["min"] == pytest.approx(cli.NO_EXTENT * np.sqrt(2 * beta))
    np.testing.assert_allclose(rep["covariance"]["sigma"], np.diag([alpha, beta]),
                               rtol=1e-7, atol=1e-7 * max(alpha, beta))
    assert rep["moment_p4"] == pytest.approx(-24 * beta**2, rel=1e-6)
    # a state has <p^4> >= <p^2>^2 > 0: its sign is the witness, at any beta
    assert "negative_p4_moment" in {w["type"] for w in rep["witnesses"]}


@pytest.mark.parametrize("alpha, beta", [(1e-4, 1), (1e-12, 1), (2.5e-7, 5e5)],
                         ids=["1e-4", "1e-12", "2.5e-7-5e5"])
def test_narcowich_oconnell_below_the_boundary_fails_uncertainty(capsys, alpha, beta):
    # alpha beta < hbar^2/4: the covariance itself is a witness, however far the ratio;
    # at (2.5e-7, 5e5), alpha beta = hbar^2/8 is read in balanced units, where the
    # rounding band of the criterion does not grow with beta
    code, rep = run_cli(capsys, "analyze", json.dumps({"type": "narcowich-oconnell",
                                                       "alpha": alpha, "beta": beta}))
    assert code == 2 and rep["uncertainty"]["verdict"] == "fail"
    assert "quantum_psd_failure" in {w["type"] for w in rep["witnesses"]}


@pytest.mark.parametrize("alpha, beta", [(1e-13, 1), (1, 1e12), (5e-7, 5e5), (5e-8, 5e6),
                                         (5e-9, 5e7)],
                         ids=["1e-13-1", "1-1e12", "5e-7-5e5", "5e-8-5e6", "5e-9-5e7"])
def test_narcowich_oconnell_past_the_fit_span_names_it(capsys, alpha, beta):
    # the domination fit's M spans 1/PD_TOL or more in its eigenvalues, but not in the
    # balanced units of `williamson`, so every stage reports; at alpha/beta = 1e-16 the
    # fit's M is ill-conditioned in shape too, and its balanced span is named
    argv = ["analyze", json.dumps({"type": "narcowich-oconnell", "alpha": alpha, "beta": beta})]
    if beta / alpha > 1e15:
        assert_input_error(capsys, argv, "balanced eigenvalues span more than 1/PD_TOL")
        return
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert {"negative_p4_moment", "klm_violation",
            "oracle_negative_eigenvalue"} <= {w["type"] for w in rep["witnesses"]}
    if alpha * beta == 0.25:  # on the uncertainty boundary
        assert rep["uncertainty"]["verdict"] == "pass"
        assert rep["uncertainty"]["nu_min"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("spec", [{"radius": 20}, {"radius": 2, "hbar": 0.01}, {"radius": 1e76}],
                         ids=["radius-20", "radius-2-hbar-0.01", "radius-1e76"])
def test_a_bump_is_never_clipped_by_its_axes(capsys, spec):
    # the axes reach 1.25 radius: the disk and its zero margin stay on the grid, where
    # the +-8 sqrt(hbar) axes cut it into a flat positive square; 1e76 is the largest
    # power of ten whose half-width keeps its fourth power in floating-point range
    code, rep = run_cli(capsys, "analyze", json.dumps({"type": "bump", **spec}))
    assert code == 2 and rep["classification"] == "proven_not_a_state"
    assert rep["domination"]["compact_support"] is True
    assert -rep["grid"]["x_axis"]["min"] == pytest.approx(1.25 * spec["radius"])


@pytest.mark.parametrize("spec, number", [
    ({"type": "bump", "radius": 1e77}, "bump radius 1e+77"),
    ({"type": "bump", "radius": 1e100}, "bump radius 1e+100"),
    ({"type": "bump", "radius": 1e300}, "bump radius 1e+300"),
    ({"type": "narcowich-oconnell", "alpha": 1e151, "beta": 1}, "alpha 1e+151"),
    ({"type": "narcowich-oconnell", "alpha": 1, "beta": 1e151}, "beta 1e+151"),
    ({"type": "narcowich-oconnell", "alpha": 1e-300, "beta": 1e-300}, "alpha 1e-300"),
    ({"type": "narcowich-oconnell", "alpha": 1e-154, "beta": 1}, "alpha 1e-154"),
], ids=["radius-1e77", "radius-1e100", "radius-1e300", "alpha-1e151", "beta-1e151",
        "alpha-beta-1e-300", "alpha-1e-154"])
def test_derived_axes_out_of_float_range_are_input_errors(capsys, spec, number):
    # the report sums p^4 over the axes and the transform divides by alpha^2 and beta^2:
    # a spec number that takes either out of floating-point range is named, not a
    # "matrix is not positive definite" or a "grid trace nan" further on
    assert main(["analyze", json.dumps(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert number in captured.err and "out of floating-point range" in captured.err


def test_wide_thermal_gaussian_names_the_trace(capsys):
    # the Gaussian keeps its +-8 sqrt(hbar) axes: Sigma = 25 I loses a fifth of its mass
    # off them, and the line says so rather than reporting an aliasing witness
    assert_input_error(capsys, ["analyze", '{"type":"gaussian","mean":[0,0],'
                                '"cov":[[25,0],[0,25]]}'], "found 0.792806")


def test_successive_calls_parse_their_own_flags(capsys):
    # one parser serves every call of a process; no flag may leak into the next call
    assert cli.build_parser() is cli.build_parser()
    _, first = run_cli(capsys, "analyze", '{"type":"fock","n":0}', "--grid-n", "64", "--seed", "3")
    _, second = run_cli(capsys, "analyze", '{"type":"fock","n":0}')
    assert first["grid"]["x_axis"]["count"] == 64 and first["seed"] == 3
    assert second["grid"]["x_axis"]["count"] == 256 and second["seed"] == 0


def test_analyze_reproducible(capsys):
    argv = ["analyze", '{"type":"fock","n":1,"rescale":1.3}', "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)


def test_wigner_dump_and_reload(tmp_path, capsys):
    manifest = tmp_path / "grid.json"
    code = main(["wigner", '{"type":"fock","n":0}', "-o", str(manifest),
                 "--csv", str(tmp_path / "grid.csv")])
    capsys.readouterr()
    assert code == 0
    code, rep = run_cli(capsys, "analyze", json.dumps({"type": "grid", "manifest": str(manifest)}))
    assert code == 0
    assert rep["classification"] == "consistent_with_state"


@pytest.mark.parametrize("manifest, csv, stored", [("{cwd}/out/m.json", "out/v.csv", "v.csv"),
                                                   ("out/m.json", "v.csv", "../v.csv")],
                         ids=["absolute-manifest", "csv-outside"])
def test_wigner_csv_in_another_directory_reloads(tmp_path, capsys, monkeypatch, manifest, csv,
                                                 stored):
    # the manifest names its CSV relative to its own directory, where the loader looks
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    manifest = manifest.format(cwd=tmp_path)
    assert main(["wigner", '{"type":"fock","n":0}', "--grid-n", "64", "-o", manifest,
                 "--csv", csv]) == 0
    assert json.loads(Path(manifest).read_text())["values_path"] == stored
    capsys.readouterr()
    code, rep = run_cli(capsys, "oracle", json.dumps({"type": "grid", "manifest": manifest}))
    assert code == 0 and rep["oracle"]["positive"] is True


def test_wigner_inline_values(capsys):
    code, rep = run_cli(capsys, "wigner", '{"type":"fock","n":0}', "--grid-n", "64")
    assert code == 0
    assert rep["trace"] == pytest.approx(1.0, abs=1e-5)
    assert len(rep["values"]) == 64


@pytest.mark.parametrize("output", [[], ["-o", "-"]], ids=["no-output", "stdout"])
def test_wigner_csv_without_a_manifest_path_is_checked_first(capsys, monkeypatch, output):
    # the flag error comes before any grid is built, here before the missing manifest
    monkeypatch.setattr(cli, "build_state", lambda *a: pytest.fail("grid built"))
    assert_input_error(capsys, ["wigner", '{"type":"grid","manifest":"/nope.json"}',
                                "--csv", "v.csv", *output], "--csv requires -o")


def test_rescale_sweep_flips_at_lambda_star(capsys):
    code, rep = run_cli(capsys, "rescale-sweep", '{"type":"fock","n":0}',
                        "--lambdas", "0.9:1.1:0.05")
    assert code == 0
    assert rep["lambda_star"] == pytest.approx(1.0, abs=1e-10)
    verdicts = {e["lambda"]: e["verdict"] for e in rep["sweep"]}
    assert verdicts[0.9] == "pass"
    assert verdicts[1.1] == "fail"


def test_klm_command_exit_codes(capsys):
    code, rep = run_cli(capsys, "klm", '{"type":"fock","n":0}')
    assert code == 0
    assert rep["klm"]["overall"] == "no_violation_found"
    code, rep = run_cli(capsys, "klm", '{"type":"fock","n":0,"rescale":1.5}')
    assert code == 2
    assert rep["klm"]["overall"] == "violation_certificate"


def test_dominate_command_on_bump(capsys):
    code, rep = run_cli(capsys, "dominate", '{"type":"bump","radius":1.0}')
    assert code == 2
    assert rep["domination"]["compact_support"]
    assert rep["domination"]["mu1"] > 1.0


def test_dominate_and_analyze_report_one_domination_and_blob(capsys):
    bump = '{"type":"bump","radius":1.0}'
    _, dominate = run_cli(capsys, "dominate", bump)
    _, analyze = run_cli(capsys, "analyze", bump)
    assert dominate["domination"] == analyze["domination"]
    assert dominate["blob"] == analyze["blob"]
    assert dominate["blob"]["capacity"] == cli.capacity(dominate["domination"]["M"])


@pytest.mark.parametrize("lam, code, verdict", [(1.004, 0, "boundary"),
                                                (1.005, 2, "not_a_wigner_distribution")])
def test_blob_is_admissible_exactly_when_the_verdict_allows_a_state(capsys, lam, code, verdict):
    # vacuum x1.004 and x1.005 fit mu_1 = 1.0189 and 1.0209, on either side
    # of the verdict band's edge 1.02
    got, rep = run_cli(capsys, "dominate", json.dumps({"type": "fock", "n": 0, "rescale": lam}))
    assert got == code and rep["domination"]["verdict"] == verdict
    mu1, blob = rep["domination"]["mu1"], rep["blob"]
    assert abs(mu1 - 1.0) < 0.025 and (mu1 <= 1.0 + cli.VERDICT_BAND) == (code == 0)
    assert blob["admissible"] == (code == 0) and ("contained_blob" in blob) == (code == 0)


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":0}', "--grid-n", "64"],
    ["capacity", '{"M": [[4,0],[0,0.111]], "hbar": 1.0}'],
], ids=["analyze", "capacity"])
def test_the_symplectic_spectrum_is_computed_at_most_three_times(capsys, monkeypatch, argv):
    # analyze: the uncertainty report, the fit and the blob's `williamson`;
    # capacity: `capacity`, `is_admissible` and the blob's `williamson`
    calls, williamson = [], symplectic.williamson
    for module in (symplectic, blobs):
        monkeypatch.setattr(module, "williamson", lambda M: calls.append(1) or williamson(M))
    code, rep = run_cli(capsys, *argv)
    assert code == 0
    assert "contained_blob" in (rep["blob"] if argv[0] == "analyze" else rep)
    assert len(calls) <= 3


def test_oracle_command(capsys):
    code, rep = run_cli(capsys, "oracle", '{"type":"fock","n":1}')
    assert code == 0
    assert rep["oracle"]["top_eigenvalues"][0] == pytest.approx(1.0, abs=1e-4)
    code, rep = run_cli(capsys, "oracle", '{"type":"fock","n":1,"rescale":1.2}')
    assert code == 2
    assert rep["oracle"]["min_eigenvalue"] < -1e-3


@pytest.mark.parametrize("grid_n", ["96", "128"])
def test_fock1_has_no_oracle_witness_on_coarse_grids(capsys, grid_n):
    # the sublattice blocks take every entry from a grid row, so a true state's
    # kernel is positive to round-off however coarse the grid
    for command in ("oracle", "analyze"):
        code, rep = run_cli(capsys, command, '{"type":"fock","n":1}', "--grid-n", grid_n)
        assert code == 0
        assert rep["oracle"]["min_eigenvalue"] >= -1e-12


@pytest.mark.parametrize("grid_n", ["96", "128"])
@pytest.mark.parametrize("spec", ['{"type":"fock","n":1,"rescale":1.2}',
                                  '{"type":"fock","n":0,"rescale":1.5}',
                                  '{"type":"bump","radius":1.0}'])
def test_non_states_keep_their_oracle_witness_on_coarse_grids(capsys, spec, grid_n):
    code, rep = run_cli(capsys, "oracle", spec, "--grid-n", grid_n)
    assert code == 2
    assert rep["oracle"]["min_eigenvalue"] < -1e-3


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.floats(0.01, 0.99), st.integers(48, 128))
def test_fock_mixtures_have_no_oracle_witness(weight, half):
    axis = default_axis(count=2 * half)
    w = mixture_wigner([(weight, fock_state(0, axis)), (1 - weight, fock_state(1, axis))])
    fragment, witnesses = cli._oracle(w, argparse.Namespace())
    assert fragment["oracle"]["min_eigenvalue"] >= -1e-12
    assert witnesses == []


@pytest.mark.parametrize("spec, n_max", [
    ('{"type":"fock","n":2}', 2), ('{"type":"fock","n":5}', 5),
    ('{"type":"mixture","components":[{"weight":0.5,"state":{"type":"fock","n":0}},'
     '{"weight":0.5,"state":{"type":"fock","n":3}}]}', 3)])
def test_fock_states_above_n1_fit_the_default_grid(capsys, spec, n_max):
    code = main(["analyze", spec])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["classification"] == "consistent_with_state"
    assert rep["trace"] == pytest.approx(1.0, abs=1e-12)
    # the turning point sqrt(2n+1) plus the tail margin, in units of sqrt(hbar)
    assert -rep["grid"]["x_axis"]["min"] == pytest.approx(np.sqrt(2 * n_max + 1) + cli.FOCK_MARGIN)


FOCK01 = ('{"type":"mixture","components":[{"weight":0.5,"state":{"type":"fock","n":0}},'
          '{"weight":0.5,"state":{"type":"fock","n":1}}]}')


@pytest.mark.parametrize("spec", ['{"type":"fock","n":1}', '{"type":"fock","n":2}',
                                  '{"type":"fock","n":3}', FOCK01],
                         ids=["n1", "n2", "n3", "mixture01"])
def test_default_fock_axis_widens_on_small_grids(capsys, spec):
    # at 64 points the centred axis of half-width 8 ends at 8 - 0.25, where the
    # tail of Fock 1 is still above FOCK_BOUNDARY_TOL; the default axis widens
    code = main(["analyze", spec, "--grid-n", "64"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rep = json.loads(captured.out)
    assert rep["classification"] == "consistent_with_state"
    assert -rep["grid"]["x_axis"]["min"] > cli.DEFAULT_EXTENT


def test_default_fock_axis_does_not_widen_past_the_momentum_axis(capsys):
    # Fock 0 fits at 64 points as it did; Fock 60 at 256 does not fit inside the
    # momentum axis' margin, and widening its position axis would alias it
    code, rep = run_cli(capsys, "analyze", '{"type":"fock","n":0}', "--grid-n", "64")
    assert code == 0 and rep["grid"]["x_axis"]["min"] == -cli.DEFAULT_EXTENT
    assert_input_error(capsys, ["oracle", '{"type":"fock","n":60}'], "grid too narrow")


@pytest.mark.parametrize("n, count, widened", [(1, 48, False), (1, 50, True), (1, 52, True),
                                               (2, 56, True), (3, 60, False), (3, 62, True)])
def test_small_fock_grids_widen_with_an_aliasing_warning(capsys, n, count, widened):
    # below 64 points the widened axis leaves the momentum axis short enough that its
    # edge columns hold more than ALIASING_TOL of the peak: the report stands with the
    # warning, rather than the "grid too narrow" error at the narrower counts
    argv = ["oracle", f'{{"type":"fock","n":{n}}}', "--grid-n", str(count)]
    if not widened:
        return assert_input_error(capsys, argv, "grid too narrow")
    with pytest.warns(UserWarning, match="possible momentum aliasing"):
        code, rep = run_cli(capsys, *argv)
    assert code == 0 and rep["oracle"]["positive"]


@pytest.mark.parametrize("n, count", [(3, 62), (0, 40)])
def test_aliasing_warning_prints_the_ratio_it_tests(capsys, n, count):
    # the edge columns' amplitude over max |W|: 1.63e-8 and 3.77e-6 here
    with pytest.warns(UserWarning, match="possible momentum aliasing") as caught:
        code, _ = run_cli(capsys, "oracle", f'{{"type":"fock","n":{n}}}', "--grid-n", str(count))
    assert code == 0 and float(str(caught[0].message).split()[-1]) >= ALIASING_TOL


@pytest.mark.parametrize("argv, message", [
    (["klm", '{"type":"fock","n":-1}'], "non-negative integer 'n'"),
    (["klm", '{"type":"fock","n":-1}', "--grid-n", str(2**40)], "non-negative integer 'n'"),
    (["analyze", FOCK01.replace('"n":1', '"n":-1')], "non-negative integer 'n'"),
    (["analyze", '{"type":"fock","n":0}', "--grid-n", "255"], "count must be even"),
    (["hardy", '{"type":"fock","n":0}', "--grid-n", str(2**40 + 1)], "count must be even")],
    ids=["n-1", "n-1-huge-count", "mixture-n-1", "odd", "odd-huge-count"])
def test_no_extent_mends_a_bad_fock_input(capsys, monkeypatch, argv, message):
    # widening the axis cannot help a negative n or an odd count: both are rejected
    # before any axis is built
    def no_axis(*args):
        raise AssertionError("an axis was built")
    monkeypatch.setattr(cli, "default_axis", no_axis)
    assert_input_error(capsys, argv, message)


def test_default_extent_of_n_up_to_1_is_unchanged(capsys):
    for spec in ('{"type":"fock","n":1}', '{"type":"gaussian","mean":[0,0],"cov":[[1,0],[0,1]]}'):
        code, rep = run_cli(capsys, "analyze", spec)
        assert code == 0 and rep["grid"]["x_axis"]["min"] == -cli.DEFAULT_EXTENT


def test_hardy_of_fock2_on_the_default_grid(capsys):
    code = main(["hardy", '{"type":"fock","n":2}'])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    hardy = json.loads(captured.out)["hardy"]
    # a polynomial times a Gaussian decays slower than the Gaussian alone
    assert hardy["verdict"] == "consistent" and hardy["product"] < 1


def test_capacity_command(capsys):
    code, rep = run_cli(capsys, "capacity", '{"M": [[4.0,0],[0,0.1111111111111111]]}')
    assert code == 0
    assert rep["capacity"] == pytest.approx(np.pi / (2.0 / 3.0))
    assert rep["admissible"]
    assert "contained_blob" in rep


def test_capacity_reads_the_ellipsoid_in_balanced_units(capsys):
    # diag(1e7, 1e-7) is the quantum blob of the squeeze x -> x / 10^3.5: its eigenvalues
    # span 1e14, but its balanced form is the identity; so is that of diag(1e-300, 1e300),
    # whose diagonal ratio overflows
    for matrix in ("[[1e7, 0], [0, 1e-7]]", "[[1e-300, 0], [0, 1e300]]"):
        code, rep = run_cli(capsys, "capacity", '{"M": %s}' % matrix)
        assert code == 0 and rep["admissible"] is True
        assert rep["capacity"] == pytest.approx(np.pi, abs=1e-12)
    # a matrix singular in shape is still refused, whatever its units
    singular = '{"M": [[1, 0.9999999999999], [0.9999999999999, 1]]}'
    assert_input_error(capsys, ["capacity", singular],
                       "balanced eigenvalues span more than 1/PD_TOL")
    # symmetry is judged against sqrt(M_ii M_jj), in the matrix's own units: an
    # off-diagonal pair of 5e-11 and 0 next to a diagonal of 1e-11 and 1e-10 is refused
    assert_input_error(capsys, ["capacity", '{"M": [[1e-11, 5e-11], [0, 1e-10]]}'],
                       "matrix is not symmetric")


def test_units_of_action_change_no_verdict_and_no_refusal(capsys):
    # hbar -> k hbar with Sigma -> k Sigma changes only the unit of action: every
    # uncertainty verdict holds, for states, sub-vacuum covariances and the boundary
    # alike; a floor on the pair inequalities' band would pass the sub-vacuum
    # 0.2 hbar I at k = 1e-6, which fails them at hbar = 1
    rng = np.random.default_rng(33)
    sigmas = [0.5 * np.eye(2), 0.2 * np.eye(2), 0.5 * np.eye(4)]
    for seed in range(40):
        ndof = 1 + seed % 2
        S, nu = random_symplectic(seed, ndof), rng.uniform(0.1, 2.0, size=ndof)
        sigmas.append((S * np.concatenate([nu, nu])) @ S.T)

    def verdicts(k):
        reports = [uncertainty_report(k * sigma, k) for sigma in sigmas]
        return [(r.verdict, r.rs_ok, r.psd_ok, r.boundary) for r in reports]

    base = verdicts(1.0)
    assert {v[1] for v in base} == {True, False} and {v[0] for v in base} == {"pass", "fail"}
    for k in (1e-6, 1e3):
        assert verdicts(k) == base
    # an asymmetric Gaussian cov is refused in one line, whatever its units
    for k in (1e-13, 1.0, 1e13):
        spec = {"type": "gaussian", "mean": [0, 0], "cov": [[k, 5 * k], [0, k]]}
        assert_input_error(capsys, ["analyze", json.dumps(spec)],
                           "gaussian cov: matrix is not symmetric")


@pytest.mark.parametrize("n", [0, 1])
def test_sweep_entry_is_the_grid_checked_at_lambda_squared_hbar(capsys, monkeypatch, n):
    # W_lam(z) = lam^2 W(lam z) has covariance Sigma/lam^2, and Sigma/lam^2 >= hbar/2
    # exactly when Sigma >= lam^2 hbar/2: the sweep reads every entry off one
    # covariance and never resamples the grid
    monkeypatch.setattr(cli, "rescale", lambda *args: pytest.fail("the sweep resampled"))
    spec = {"type": "fock", "n": n}
    code, rep = run_cli(capsys, "rescale-sweep", json.dumps(spec), "--lambdas", "0.5:2:0.05")
    assert code == 0 and len(rep["sweep"]) == 31
    w, _ = cli.build_state(spec, 1.0, argparse.Namespace(grid_n=256))
    sigma = cli.covariance_from_grid(w).sigma
    verdicts = set()
    for entry in rep["sweep"]:
        lam = entry["lambda"]
        ref = cli.uncertainty_report(sigma, lam**2)
        assert entry["verdict"] == ref.verdict and entry["hbar"] == 1.0
        assert lam**2 * entry["nu_min"] == pytest.approx(ref.nu_min, abs=1e-12)
        verdicts.add(entry["verdict"])
    assert verdicts == {"pass", "fail"}  # lambda_star, 1 or sqrt(3), is inside the sweep


@pytest.mark.parametrize("lam", [0.95, 1.02, 1.5])
def test_sweep_entry_matches_the_resampled_grid(capsys, lam):
    # the same uncertainty check on the grid `rescale` relabels (below 1 after its exact
    # momentum pass), up to round-off
    code, rep = run_cli(capsys, "rescale-sweep", '{"type":"fock","n":1}',
                        "--lambdas", f"{lam}:{lam}:1")
    assert code == 0 and [e["lambda"] for e in rep["sweep"]] == [lam]
    _, direct = run_cli(capsys, "analyze", json.dumps({"type": "fock", "n": 1, "rescale": lam}))
    assert rep["sweep"][0]["nu_min"] == pytest.approx(direct["uncertainty"]["nu_min"], rel=1e-13)
    assert rep["sweep"][0]["verdict"] == direct["uncertainty"]["verdict"]


def _negative_variance_spec(tmp_path):
    """A unit-trace 128 x 128 manifest on [-8, 8]^2, W = 2 G(0.25 I) - G(2 I):
    Var x = Var p = -1.5, a covariance that is not positive definite."""
    axis = AxisGrid(-8.0, 8.0, 128)
    narrow, wide = (wigner_gaussian([0, 0], s * np.eye(2), axis, axis) for s in (0.25, 2.0))
    save_wigner_manifest(WignerGrid(axis, axis, 2 * narrow.values - wide.values),
                         tmp_path / "negative.json")
    return json.dumps({"type": "grid", "manifest": str(tmp_path / "negative.json")})


@pytest.mark.filterwarnings("ignore:.*may not have converged")
@pytest.mark.parametrize("argv, exit_code", [
    (["analyze"], 2),
    (["rescale-sweep", "--lambdas", "1:2:0.5"], 0),
], ids=["analyze", "rescale-sweep"])
def test_covariance_that_is_not_positive_definite_fails_uncertainty(tmp_path, capsys, argv,
                                                                    exit_code):
    # such a sigma has no symplectic spectrum: nu_min, nu_max and lambda_star are
    # null, and Sigma + i hbar J / 2 is not PSD either
    code, rep = run_cli(capsys, argv[0], _negative_variance_spec(tmp_path), *argv[1:])
    assert code == exit_code
    if argv[0] == "analyze":
        assert rep["covariance"]["sigma"][0][0] == pytest.approx(-1.5, abs=1e-6)
        assert rep["witnesses"][0]["type"] == "quantum_psd_failure"
        entries = [rep["uncertainty"]]
    else:
        entries = rep["sweep"]
        assert rep.get("lambda_star", None) is None
    for entry in entries:
        assert entry["nu_min"] is None and entry["verdict"] == "fail"
        assert entry.get("lambda_star", None) is None and entry.get("nu_max", None) is None


def test_vacuum_short_of_unit_trace_is_consistent(tmp_path, capsys):
    # the moments are read off W/trace: the 256^2 vacuum times 0.9999 keeps nu_min = 1/2,
    # where the raw moments, nu_min = 0.49995, were a quantum_psd_failure
    axis = default_axis()
    vacuum = wigner_gaussian([0, 0], 0.5 * np.eye(2), axis, axis)
    save_wigner_manifest(WignerGrid(axis, axis, 0.9999 * vacuum.values), tmp_path / "short.json")
    code, rep = run_cli(capsys, "analyze",
                        json.dumps({"type": "grid", "manifest": str(tmp_path / "short.json")}))
    assert code == 0 and rep["witnesses"] == []
    assert rep["trace"] == pytest.approx(0.9999, abs=1e-12)
    assert rep["uncertainty"]["nu_min"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("argv", [["analyze"], ["rescale-sweep", "--lambdas", "1:1:1"]],
                         ids=["analyze", "rescale-sweep"])
def test_grid_of_zero_trace_has_no_moments(tmp_path, capsys, argv):
    axis = AxisGrid(-8.0, 8.0, 64)
    save_wigner_manifest(WignerGrid(axis, axis, np.zeros((64, 64))), tmp_path / "zero.json")
    spec = json.dumps({"type": "grid", "manifest": str(tmp_path / "zero.json")})
    assert_input_error(capsys, [argv[0], spec, *argv[1:]], "grid trace 0 is not positive")


def test_grid_sum_within_round_off_of_zero_has_no_moments(tmp_path, capsys):
    # a 64^2 vacuum minus its mean value sums to 5.6e-17, below the sum's round-off
    # n eps sum|W| dA = 2.7e-14: moments divided by it would be noise (psd -9.0e30)
    axis = default_axis(count=64)
    vacuum = wigner_gaussian([0, 0], 0.5 * np.eye(2), axis, axis).values
    save_wigner_manifest(WignerGrid(axis, axis, vacuum - vacuum.mean()), tmp_path / "cancel.json")
    spec = json.dumps({"type": "grid", "manifest": str(tmp_path / "cancel.json")})
    assert_input_error(capsys, ["rescale-sweep", spec, "--lambdas", "1:1:1"],
                       "is not positive beyond round-off")


def test_mass_off_the_grid_names_the_trace(capsys):
    # a Gaussian wider in p than its 8*sqrt(hbar) axes loses mass off the grid: the
    # one error line gives the trace left and its likely cause
    assert_input_error(capsys, ["analyze", '{"type":"gaussian","mean":[0,0],'
                                           '"cov":[[0.01,0],[0,25]]}'],
                       "unit trace for the positivity search, found 0.890397; axes too narrow")


FOCK = [{"type": "fock", "n": n} for n in range(4)]
MIXTURE_01 = {"type": "mixture", "components": [{"weight": 0.5, "state": FOCK[0]},
                                                {"weight": 0.5, "state": FOCK[1]}]}
ORACLE, KLM = ["oracle_negative_eigenvalue"], ["klm_violation", "oracle_negative_eigenvalue"]
ALL_FOUR = ["domination_mu1_above_1", *KLM, "quantum_psd_failure"]
RESCALED_ROWS = {  # name: (spec, lambda, witness types at 256^2, seed 0)
    **{f"fock1-x{lam}": (FOCK[1], lam, ORACLE) for lam in (0.95, 0.99, 1.001, 1.02)},
    **{f"fock1-x{lam}": (FOCK[1], lam, KLM) for lam in (0.8, 1.2)},
    "fock2-x0.95": (FOCK[2], 0.95, ORACLE), "fock3-x1.05": (FOCK[3], 1.05, ORACLE),
    "mixture01-x1.02": (MIXTURE_01, 1.02, ORACLE),
    "vacuum-x1.005": (FOCK[0], 1.005, ALL_FOUR), "vacuum-x1.5": (FOCK[0], 1.5, ALL_FOUR),
    "bump1-x1.1": ({"type": "bump", "radius": 1.0}, 1.1, ALL_FOUR),
    "vacuum-x0.9": (FOCK[0], 0.9, []), "vacuum-x0.5": (FOCK[0], 0.5, []),
    "gaussian-1-0.25-x0.9": ({"type": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 0.25]]},
                             0.9, []),
}


@pytest.mark.parametrize("spec, lam, witnesses", RESCALED_ROWS.values(), ids=RESCALED_ROWS)
def test_rescaled_rows_keep_their_witnesses(capsys, spec, lam, witnesses):
    # W_lam is the built grid relabelled (after the momentum pass below 1 on Fock grids):
    # the trace is kept, the states among these rows get no witness from the oracle's
    # round-off, and a compactly supported bump keeps its flag, so mu_1 scales by lam^2
    code, rep = run_cli(capsys, "analyze", json.dumps({**spec, "rescale": lam}))
    assert code == (2 if witnesses else 0)
    assert sorted({w["type"] for w in rep["witnesses"]}) == witnesses
    _, base = run_cli(capsys, "analyze", json.dumps(spec))
    assert rep["trace"] == pytest.approx(base["trace"], abs=1e-12)
    if not witnesses:
        assert rep["oracle"]["min_eigenvalue"] >= -1e-12
    if spec["type"] == "bump":
        assert rep["domination"]["compact_support"] is True
        assert rep["domination"]["mu1"] == pytest.approx(lam**2 * base["domination"]["mu1"],
                                                         rel=1e-9)


@pytest.mark.parametrize("spec, count, message", [
    ({"type": "fock", "n": 0, "rescale": 0.3}, 256,
     "rescale 0.3: the state does not fit the momentum axis shortened by lambda^2"),
    ({"type": "fock", "n": 0, "rescale": 0.3}, 512, None),
    ({"type": "fock", "n": 0, "rescale": 0.01}, 64, "more grid points lengthen it"),
    ({"type": "gaussian", "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]], "rescale": 0.5}, 256,
     "rescale 0.5 needs lambda >= 0.564 on this grid"),
    ({"type": "bump", "radius": 1.0, "rescale": 0.5}, 256, "needs lambda >= 0.564"),
    ({"type": "narcowich-oconnell", "rescale": 0.99}, 256, "needs lambda >= 1.14"),
], ids=["fock-0.3-256", "fock-0.3-512", "fock-0.01-64", "gaussian-0.5", "bump-0.5", "no-0.99"])
def test_rescale_below_one_refuses_in_one_line(capsys, spec, count, message):
    # a Fock grid whose state leaves the momentum axis shortened by lam^2, and any other
    # grid whose relabelled axes would let alias copies reach the kernel, is refused
    argv = ["analyze", json.dumps(spec), "--grid-n", str(count)]
    if message is None:
        code, rep = run_cli(capsys, *argv)
        assert code == 0 and rep["trace"] == pytest.approx(1.0, abs=1e-9)
        return
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and message in err
    hint = "; or give the Gaussian mean/lambda and cov/lambda^2 with no rescale"
    assert (hint in err) == (spec["type"] == "gaussian")


@pytest.mark.parametrize("argv, message", [
    (["hardy", '{"type":"fock","n":0,"rescale":1.2}'], "invalid state spec:"),
    (["hardy", '{"type":"fock","n":0}', "--rescale", "1.2"], "unrecognized arguments: --rescale"),
], ids=["spec", "flag"])
def test_hardy_rejects_rescale(capsys, argv, message):
    # a rescaled Wigner grid has no wavefunction for the fit to read; no flag sets rescale
    assert_input_error(capsys, argv, message)


def test_hardy_command(capsys):
    code, rep = run_cli(capsys, "hardy", '{"type":"fock","n":0}')
    assert code == 0
    assert rep["hardy"]["a"] == pytest.approx(1.0, rel=0.02)
    assert rep["hardy"]["verdict"] == "boundary"


def test_bad_spec_is_input_error(capsys):
    assert main(["analyze", '{"type":"nope"}']) == 1
    capsys.readouterr()
    assert main(["analyze", '{"no_type": 1}']) == 1
    capsys.readouterr()
    assert main(["analyze", "/does/not/exist.json["]) == 1
    capsys.readouterr()
    assert main(["analyze", '{"type":"fock","n":0,"rescale":-2}']) == 1
    capsys.readouterr()


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", '{"type":"fock","n":0}', "--grid-n", "64", "-o", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["classification"] == "consistent_with_state"


def _vacuum_manifest(tmp_path, capsys, csv=False):
    manifest = tmp_path / "grid.json"
    argv = ["wigner", '{"type":"fock","n":0}', "--grid-n", "64", "-o", str(manifest)]
    if csv:
        argv += ["--csv", str(tmp_path / "grid.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    return manifest


def _analyze_grid(manifest):
    return main(["analyze", json.dumps({"type": "grid", "manifest": str(manifest)})])


def test_manifest_with_inline_null_is_input_error(tmp_path, capsys):
    # numpy reads null as nan, "1.5" as 1.5 and false as 0.0: only a JSON number
    # is a value, 0 included
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    for i, j, entry in [(10, 20, None), (0, 0, False), (20, 20, str(doc["values"][20][20]))]:
        kept, doc["values"][i][j] = doc["values"][i][j], entry
        manifest.write_text(json.dumps(doc))
        assert _analyze_grid(manifest) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid state spec: manifest values must be numbers, "
                                f"got {entry!r}\n")
        doc["values"][i][j] = kept
    doc["values"][0][0] = 0
    manifest.write_text(json.dumps(doc))
    assert _analyze_grid(manifest) == 0


def test_manifest_with_csv_nan_is_input_error(tmp_path, capsys):
    manifest = _vacuum_manifest(tmp_path, capsys, csv=True)
    csv = tmp_path / "grid.csv"
    rows = csv.read_text().splitlines()
    cells = rows[5].split(",")
    cells[7] = "nan"
    rows[5] = ",".join(cells)
    csv.write_text("\n".join(rows) + "\n")
    assert _analyze_grid(manifest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_manifest_with_negative_hbar_is_input_error(tmp_path, capsys):
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    doc["hbar"] = -1.0
    manifest.write_text(json.dumps(doc))
    assert _analyze_grid(manifest) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "hbar must be positive" in err


def test_manifest_with_bool_hbar_is_input_error(tmp_path, capsys):
    # float(True) is 1.0: a bool must not pass for hbar = 1, as in a spec
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    doc["hbar"] = True
    manifest.write_text(json.dumps(doc))
    assert _analyze_grid(manifest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid state spec: manifest hbar must be a number, got True\n"


@pytest.mark.parametrize("depth", [990, 100_000])
@pytest.mark.parametrize("where", ["inline", "file", "stdin", "manifest values"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, monkeypatch, where, depth):
    # json's parser recurses once per level of nesting: about 1000 levels ended
    # in a RecursionError traceback.  Where the interpreter's limit lets 990
    # levels parse, the junk is echoed or numpy rejects the values instead
    deep = "[" * depth + "]" * depth
    spec = '{"type":"fock","n":0,"junk":' + deep + "}"
    if where == "file":
        path = tmp_path / "spec.json"
        path.write_text(spec)
        spec = str(path)
    elif where == "stdin":
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        spec = "-"
    elif where == "manifest values":
        manifest = _vacuum_manifest(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "values": None}).replace("null", deep))
        spec = json.dumps({"type": "grid", "manifest": str(manifest)})
    code = main(["oracle", spec, "--grid-n", "64"])
    captured = capsys.readouterr()
    if code == 0:
        assert depth < 1000 and json.loads(captured.out)["oracle"]["positive"]
        return
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    if depth > 1000:
        assert "nested too deeply" in captured.err


def test_echo_too_deep_to_write_is_input_error(monkeypatch, capsys):
    # from Python 3.12 the C parser has its own, higher recursion limit, while
    # json.dumps with indent encodes in Python (through 3.13) against the
    # interpreter's: a spec can parse and its echo in the report still raise
    # RecursionError.  The Python encoder under a limit tightened around the
    # echo makes that case at a depth any interpreter parses
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    emit = cli._emit

    def emit_near_the_limit(report, args):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            emit(report, args)
        finally:
            sys.setrecursionlimit(limit)

    monkeypatch.setattr(cli, "_emit", emit_near_the_limit)
    deep = "[" * 200 + "]" * 200
    code = main(["oracle", '{"type":"fock","n":0,"junk":' + deep + "}", "--grid-n", "64"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "nested too deeply" in captured.err


@pytest.mark.parametrize("axis, key, value, shown", [
    ("x_axis", "count", 64.9, "axis count must be an integer, got 64.9"),
    ("p_axis", "count", True, "axis count must be an integer, got True"),
    ("x_axis", "count", "64", "axis count must be an integer, got '64'"),
    ("x_axis", "min", -np.inf, "axis needs finite min < max, got -inf"),
    ("p_axis", "max", np.nan, "axis needs finite min < max, got"),
], ids=["fractional count", "bool count", "string count", "infinite min", "nan max"])
def test_manifest_axis_is_checked_at_load(tmp_path, capsys, axis, key, value, shown):
    # a fractional count was truncated, and an infinite min ended in a failed eigensolve
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    doc[axis][key] = value
    manifest.write_text(json.dumps(doc))
    assert _analyze_grid(manifest) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: invalid state spec: {shown}")


def test_manifest_count_may_be_an_integral_float(tmp_path, capsys):
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    doc["x_axis"]["count"] = 64.0
    manifest.write_text(json.dumps(doc))
    assert main(["oracle", json.dumps({"type": "grid", "manifest": str(manifest)})]) == 0
    assert json.loads(capsys.readouterr().out)["oracle"]["positive"]


def test_failed_output_replace_leaves_no_temporary_file(tmp_path, capsys):
    # the report cannot replace a directory: one error line, and no <output>.tmp left
    target = tmp_path / "edge"
    target.mkdir()
    assert main(["wigner", '{"type":"fock","n":0}', "--grid-n", "64", "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["edge"]


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_seed_outside_64_bits_rejected(capsys, value):
    assert_input_error(capsys, ["klm", '{"type":"fock","n":0}', "--seed", value], "--seed:")


def test_largest_seed_runs_without_warnings(capsys):
    assert main(["klm", '{"type":"fock","n":0}', "--seed", str(2**64 - 1)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["klm"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("matrix", ["3", "[]", "[[1]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
                                    "[[1, 0], [0, 1], [0, 0]]", "[1, 2]", "[[1, 0], [0]]"])
def test_capacity_rejects_non_square_or_odd_matrix(capsys, matrix):
    # `williamson`'s shape check names the shape it refuses; numpy names a ragged one
    assert_input_error(capsys, ["capacity", '{"M": %s}' % matrix], "shape")


def test_emit_refuses_non_finite_numbers(capsys):
    args = argparse.Namespace(output=None)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _emit({"value": bad}, args)
    assert capsys.readouterr().out == ""


SMALL = ["--grid-n", "64"]
SUBCOMMANDS = [
    ["analyze", '{"type":"fock","n":0}', *SMALL],
    ["analyze", '{"type":"bump","radius":1.5}', *SMALL],
    ["wigner", '{"type":"fock","n":0,"rescale":1.1}', *SMALL],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0.8:1.2:0.2", *SMALL],
    ["klm", '{"type":"fock","n":0,"rescale":1.5}', *SMALL],
    ["dominate", '{"type":"fock","n":0}', *SMALL],
    ["dominate", '{"type":"bump","radius":1.5}', *SMALL],
    ["oracle", '{"type":"fock","n":0}', *SMALL],
    ["capacity", '{"M": [[2, 0], [0, 1]]}'],
    ["hardy", '{"type":"fock","n":0}', *SMALL],
]


def test_every_report_is_plain_json(monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda report, args: reports.append(report))
    for argv in SUBCOMMANDS:
        assert main(argv) in (0, 2), argv
    assert {r[0] for r in SUBCOMMANDS} == set(_subparsers())
    for report in reports:
        json.dumps(report, allow_nan=False)  # no default hook: numpy types raise
        if "classification" in report:  # analyze runs every stage and decides
            assert report["classification"] in ("consistent_with_state", "proven_not_a_state")
            assert None not in (report["klm"], report["domination"], report["oracle"])
        if "domination" in report:  # analyze and dominate: the fit always has a capacity
            assert isinstance(report["blob"], dict) and report["blob"]["capacity"] > 0


def assert_input_error(capsys, argv, message=""):
    """Exit 1 with nothing on stdout and one `error:` line on stderr."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


MIXTURE_SHAPE = "mixture components must be objects with 'weight' and 'state'"


@pytest.mark.parametrize("spec, message", [
    ({"type": "gaussian", "mean": [0, 0]}, "gaussian spec needs 'cov'"),
    ({"type": "gaussian", "cov": [[1, 0], [0, 1]]}, "gaussian spec needs 'mean'"),
    ({"type": "mixture"}, "mixture spec needs 'components'"),
    ({"type": "grid"}, "grid spec needs 'manifest'"),
    ({"type": "mixture", "components": 5}, MIXTURE_SHAPE),
    ({"type": "mixture", "components": {"weight": 1}}, MIXTURE_SHAPE),
    ({"type": "mixture", "components": [5]}, MIXTURE_SHAPE),
    ({"type": "mixture", "components": ["state"]}, MIXTURE_SHAPE),
    ({"type": "mixture", "components": [{"weight": 1}]}, MIXTURE_SHAPE),
    ({"type": "mixture", "components": [{"state": {"type": "fock", "n": 0}}]}, MIXTURE_SHAPE)],
    ids=["no-cov", "no-mean", "no-components", "no-manifest", "int-components",
         "object-components", "int-component", "string-component", "no-state", "no-weight"])
def test_a_missing_spec_key_is_named_in_words(capsys, spec, message):
    # one line in words, not the bare repr of a KeyError or a TypeError's wording
    assert_input_error(capsys, ["analyze", json.dumps(spec)], message)


@pytest.mark.parametrize("flag", ["--tol-klm", "--tol-oracle", "--tol-p4"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e-6"])
def test_bad_tolerances_rejected(capsys, flag, value):
    # a negative tolerance would turn the vacuum into a bogus hard witness, and
    # any other one could hide a witness: the tolerances are fixed, no flag sets them
    assert_input_error(capsys, ["analyze", '{"type":"fock","n":0}', flag, value],
                       f"unrecognized arguments: {flag} {value}")


def test_analyze_stages_cannot_be_switched_off(capsys):
    assert main(["analyze", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--no-" not in help_text and "--tol-" not in help_text
    for flag in ("--no-klm", "--no-domination", "--no-oracle"):
        assert_input_error(capsys, ["analyze", '{"type":"fock","n":0}', flag],
                           f"unrecognized arguments: {flag}")


GRID = {"--grid-n"}
FLAGS = {  # the flags each command's build and stages read, besides -o
    "analyze": GRID | {"--seed"},
    "klm": GRID | {"--seed"},
    "dominate": GRID,
    "oracle": GRID,
    "wigner": GRID | {"--csv"},
    "rescale-sweep": GRID | {"--lambdas"},
    "capacity": set(),
    "hardy": GRID | {"--seed"},  # read by no stage: the benchmark passes it to every case
}
# every command took these once, with -o; hbar, rescale and the axes' extent now come
# from the spec alone, the KLM search's budget and the domination cap are constants
SHARED_BEFORE = {"--hbar": "1", "--rescale": "1.2", "--grid-n": "64", "--grid-extent": "8",
                 "--seed": "7", "--max-order": "3", "--trials": "5", "--cmax-factor": "2"}
REQUIRED = {"rescale-sweep": ["--lambdas", "1:1:1"]}
REMOVED = [(command, flag) for command, flags in FLAGS.items() for flag in SHARED_BEFORE
           if flag not in flags]


def _subparsers():
    return cli.build_parser()._subparsers._group_actions[0].choices


def test_each_command_takes_only_the_flags_it_reads():
    settable = 0
    for name, parser in _subparsers().items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        settable += len(options)
        assert {s for a in options for s in a.option_strings} == FLAGS[name] | {"-o", "--output"}
    # 27 with --grid-extent, 29 with --trials, 33 with hbar-sweep, 37 with --max-order
    # and --cmax-factor, 84 with nine shared flags
    assert settable == 20


@pytest.mark.parametrize("command, flag", REMOVED, ids=[f"{c} {f}" for c, f in REMOVED])
def test_removed_flags_are_input_errors(capsys, monkeypatch, command, flag):
    # rejected before any spec is loaded: no flag is silently ignored
    monkeypatch.setattr(cli, "_load_spec", lambda source: pytest.fail("spec loaded"))
    spec = '{"M": [[2, 0], [0, 1]]}' if command == "capacity" else '{"type":"fock","n":0}'
    argv = [command, spec, *REQUIRED.get(command, []), flag, SHARED_BEFORE[flag]]
    assert_input_error(capsys, argv, f"unrecognized arguments: {flag} {SHARED_BEFORE[flag]}")


@pytest.mark.parametrize("flag, value, bound", [
    ("--seed", str(-10**29), "must be at least 0"),
    ("--grid-n", str(10**27), f"must be at most {2**63 - 1}"),
    ("--grid-n", str(2**63 + 5), f"must be at most {2**63 - 1}"),
], ids=["seed-below-int64", "grid-n-far-above-int64", "grid-n-just-above-int64"])
def test_integers_outside_int64_name_their_bound(capsys, flag, value, bound):
    # numpy cannot test such an int for finiteness, nor store one just past int64 in an array
    assert_input_error(capsys, ["klm", '{"type":"fock","n":0}', flag, value],
                       f"argument {flag}: {bound}")


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":0}', "--cmax-factor", "0.5"],
    ["analyze", '{"type":"fock","n":0}', "--grid-n", "0"],
    ["analyze", '{"type":"fock","n":0}', "--grid-n", "14"],
    ["analyze", '{"type":"fock","n":0}', "--grid-extent", "inf"],
    ["analyze", '{"type":"fock","n":0}', "--grid-extent", "0"],
    ["hardy", '{"type":"fock","n":0}', "--grid-extent", "nan"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1:inf:1"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "nan:1:0.1"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0:1:0.1"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1.1:0.9:0.1"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0.9:1.1:0"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1e-300:1e300:1e-300"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0.9:1.1"],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1:1001:1"],
    ["analyze", '{"type":"fock","n":0}', "--hbar", "-1"],
    ["analyze", '{"type":"fock","n":0}', "--hbar", "nan"],
    ["analyze", '{"type":"fock","n":0}', "--rescale", "-1"],
    ["analyze", '{"type":"grid","manifest":"missing.json"}', "--rescale", "0"],
], ids=["cmax-below-1", "grid-n-0", "grid-n-14", "extent-inf", "extent-0", "hardy-extent-nan",
        "lambdas-inf", "lambdas-nan", "lambdas-start-0", "lambdas-reversed", "lambdas-step-0",
        "lambdas-count-overflows", "lambdas-two-parts", "lambdas-too-many", "hbar-negative",
        "hbar-nan", "rescale-negative", "rescale-0-missing-manifest"])
def test_bad_numbers_rejected_at_parse_time(capsys, monkeypatch, argv):
    # rejected before any spec is loaded or grid built; hbar, rescale and the axes' extent
    # are read from the spec alone and the domination cap is fixed, so a value for any of
    # those flags is an unrecognized argument
    monkeypatch.setattr(cli, "_load_spec", lambda source: pytest.fail("spec loaded"))
    flag, value = argv[2:4]
    removed = flag in ("--hbar", "--rescale", "--cmax-factor", "--grid-extent")
    assert_input_error(capsys, argv,
                       f"unrecognized arguments: {flag} {value}" if removed else f"argument {flag}:")


def test_a_sweep_takes_at_most_max_lambdas_points(capsys):
    # the count is checked before the list is built
    assert len(cli._lambdas(f"1:{cli.MAX_LAMBDAS}:1")) == cli.MAX_LAMBDAS == 1000
    assert_input_error(capsys, ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1:1001:1"],
                       "argument --lambdas: at most 1000 points, got 1001")


def test_lambdas_end_at_stop():
    # the floor of (stop - start)/step, with a relative slack for the quotient's rounding:
    # 0.8:1.2:0.2 has quotient 1.9999999999999996 and keeps 1.2
    assert cli._lambdas("1:1.04:0.05") == [1.0]
    assert cli._lambdas("0.8:1.2:0.2") == pytest.approx([0.8, 1.0, 1.2])
    assert cli._lambdas("0.9:1.1:0.05") == pytest.approx([0.9, 0.95, 1.0, 1.05, 1.1])


@pytest.mark.parametrize("argv", [
    ["hardy", '{"type":"fock"}'],
    ["hardy", "[1,2]"],
    ["analyze", '{"type":"mixture","components":[{"weight":1,"state":"x"}]}'],
    ["capacity", '{"M": [[1,0],[0,1]], "hbar": -2}'],
    ["capacity", '{"M": [[1,0],[0,1]], "hbar": 0}'],
    ["capacity", '{"M": [[1,0],[0,1]], "hbar": [1]}'],
    ["analyze", '{"type":"fock","n":0,"rescale":[1]}'],
    ["capacity", '{"M": [["4",0],[0,0.111]]}'],
    ["capacity", '{"M": [[4,0],[0,true]]}'],
], ids=["hardy-without-n", "hardy-list", "mixture-state-string", "capacity-hbar-negative",
        "capacity-hbar-zero", "capacity-hbar-list", "rescale-list", "capacity-string",
        "capacity-bool"])
def test_malformed_spec_is_one_line_error(capsys, argv):
    assert_input_error(capsys, argv)


@pytest.mark.parametrize("spec", ['{"type":"gaussian","mean":[0,0],"cov":[[1,0],[0,1]]}',
                                  '{"type":"bump"}'])
def test_odd_grid_size_rejected(capsys, spec):
    assert_input_error(capsys, ["analyze", spec, "--grid-n", "255"], "count must be even")


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":1.7}'],
    ["analyze", '{"type":"fock","n":true}'],
    ["analyze", '{"type":"fock","n":"1"}'],
    ["analyze", '{"type":"mixture","components":[{"weight":0.5,"state":{"type":"fock","n":0.9}},'
                '{"weight":0.5,"state":{"type":"fock","n":1}}]}'],
    ["hardy", '{"type":"fock","n":1.5}'],
    ["hardy", '{"type":"fock","n":NaN}'],
], ids=["fractional", "bool", "string", "mixture-fractional", "hardy-fractional", "hardy-nan"])
def test_fock_n_must_be_an_integer(capsys, argv):
    # int() would have truncated these to a Fock state the report does not name
    assert_input_error(capsys, argv, "integer 'n'")


@pytest.mark.parametrize("spec", [
    '{"type":"fock","n":0,"hbar":true}',
    '{"type":"fock","n":0,"rescale":true}',
    '{"type":"bump","radius":true}',
    '{"type":"mixture","components":[{"weight":true,"state":{"type":"fock","n":0}}]}',
    '{"type":"narcowich-oconnell","alpha":true,"beta":0.5}',
    '{"type":"narcowich-oconnell","alpha":0.5,"beta":true}',
    '{"type":"gaussian","mean":[true,false],"cov":[[1,0],[0,1]]}',
    '{"type":"gaussian","mean":[0,0],"cov":[[1,0],[0,true]]}',
], ids=["hbar", "rescale", "bump-radius", "mixture-weight", "no-alpha", "no-beta",
        "gaussian-mean", "gaussian-cov"])
def test_bool_hbar_or_rescale_rejected(capsys, spec):
    # float(True) is 1.0: the report would name a value the spec does not give
    assert_input_error(capsys, ["analyze", spec], "must be a number, got True")


STRING_NUMBERS = {
    "rescale": {"type": "fock", "n": 0, "rescale": "1.2"},
    "weight": {"type": "mixture",
               "components": [{"weight": "1", "state": {"type": "fock", "n": 0}}]},
    "alpha": {"type": "narcowich-oconnell", "alpha": "0.5", "beta": 0.5},
    "beta": {"type": "narcowich-oconnell", "alpha": 0.5, "beta": "0.5"},
    "radius": {"type": "bump", "radius": "1.5"},
    "spec hbar": {"type": "bump", "radius": 1.5, "hbar": "1"},
    "gaussian mean": {"type": "gaussian", "mean": ["0", 0], "cov": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("case", [*STRING_NUMBERS, "manifest hbar", "axis min"])
def test_string_numbers_rejected(tmp_path, capsys, case):
    # float("1.5") is 1.5: the grid was built and the report echoed the string
    spec = STRING_NUMBERS.get(case)
    if spec is None:
        manifest = _vacuum_manifest(tmp_path, capsys)
        doc = json.loads(manifest.read_text())
        if case == "manifest hbar":
            doc["hbar"] = "1"
        else:
            doc["x_axis"]["min"] = str(doc["x_axis"]["min"])
        manifest.write_text(json.dumps(doc))
        spec = {"type": "grid", "manifest": str(manifest)}
    assert_input_error(capsys, ["analyze", json.dumps(spec), "--grid-n", "64"],
                       "must be a number, got '")


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":0,"hbar":1e300}'],
    ["analyze", '{"type":"gaussian","mean":[0,0],"cov":[[1,0],[0,1]],"rescale":1e300}'],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0.1:1e300:1e299"],
    # a dilation so strong that Sigma/lambda^2 overflows: no report, not a null nu_min
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "1e-200:1e-200:1"],
    ["analyze", '{"type":"narcowich-oconnell","alpha":1e300}'],
    # the first array, 7.3 TiB, cannot be allocated at all, so no memory is touched
    ["wigner", '{"type":"fock","n":0}', "--grid-n", "1000000000000"],
    ["capacity", '{"M": [[1e308, 0], [0, 1e308]]}'],
], ids=["hbar-squared", "rescale-squared", "sweep-lambda-squared", "sweep-lambda-tiny",
        "alpha-squared", "grid-too-large", "capacity-spectrum"])
def test_numbers_out_of_range_are_one_line_errors(capsys, argv):
    # a sweep names the first rescaling parameter out of range, 1e+299 or 1e-200
    assert_input_error(capsys, argv, "rescaling parameter 1e" if argv[0] == "rescale-sweep" else "")


def _python(*argv):
    """Run python with warnings shown (`-W default`) and the package on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, "-W", "default", *argv], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":0,"hbar":1e300}'],
    ["analyze", '{"type":"fock","n":0,"rescale":1e300}'],
], ids=["hbar", "rescale"])
def test_overflow_prints_one_line_and_no_warnings(argv):
    # the overflowing runs warn before they fail; the warnings are dropped
    done = _python("-m", "wigcheck.cli", *argv)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("error: numerical overflow: an input number is too large")
    assert done.stderr.count("\n") == 1


def test_warnings_of_a_successful_command_follow_unchanged():
    done = _python("-m", "wigcheck.cli", "wigner", '{"type":"fock","n":0}', "--grid-n", "40")
    assert done.returncode == 0 and json.loads(done.stdout)["trace"] > 0
    direct = _python("-c", "from wigcheck import default_axis, fock_state, wigner_of_pure; "
                           "wigner_of_pure(fock_state(0, default_axis(count=40)))")
    assert "UserWarning: possible momentum aliasing" in direct.stderr
    assert done.stderr == direct.stderr


def test_explicit_hbar_must_match_the_manifest(tmp_path, capsys):
    manifest = tmp_path / "grid.json"
    assert main(["wigner", '{"type":"fock","n":0,"hbar":2}', "--grid-n", "64",
                 "-o", str(manifest)]) == 0
    spec = {"type": "grid", "manifest": str(manifest)}
    for hbar in (1, 3):
        assert_input_error(capsys, ["analyze", json.dumps({**spec, "hbar": hbar})],
                           "differs from the manifest")
    for extra in ({}, {"hbar": 2}):
        code, rep = run_cli(capsys, "oracle", json.dumps({**spec, **extra}))
        assert code == 0 and rep["hbar"] == 2.0 and rep["input"]["hbar"] == 2.0


def test_fock_n_that_does_not_fit_fails_before_building(capsys):
    # an integer too large for a float, and one whose Hermite rows would not fit in
    # memory; every command reports it as the same spec error
    for n in (10**400, 10**12):
        for command in ("hardy", "analyze"):
            assert_input_error(capsys, [command, f'{{"type":"fock","n":{n}}}'],
                               "error: invalid state spec: grid too narrow")
    code, rep = run_cli(capsys, "hardy", '{"type":"fock","n":1.0}')
    assert code == 0 and rep["input"]["n"] == 1.0


def test_commands_import_neither_scipy_nor_numpy_random():
    script = """
import contextlib, io, sys
from wigcheck.cli import main
runs = [["analyze", '{"type":"fock","n":1,"rescale":1.2}'],
        ["analyze", '{"type":"gaussian","mean":[0,0],"cov":[[0.6,0.1],[0.1,0.5]],"rescale":1.1}'],
        ["capacity", '{"M": [[4,0,0,0],[0,2,0,0],[0,0,0.111,0],[0,0,0,0.3]]}'],
        ["klm", '{"type":"fock","n":0,"rescale":1.5}'],
        ["hardy", '{"type":"fock","n":1}']]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
assert codes == [2, 2, 0, 2, 0], codes
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), "numpy.random" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False"


def test_long_inline_spec_is_not_taken_for_a_path(capsys):
    # longer than a file name may be
    components = [{"weight": 0.1, "state": {"type": "fock", "n": k % 2}} for k in range(10)]
    spec = json.dumps({"type": "mixture", "components": components})
    assert len(spec) > 255
    code, rep = run_cli(capsys, "analyze", spec)
    assert code == 0
    assert rep["input"]["components"] == components


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "benchmark" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_spans_still_find_their_functions():
    # the benchmark's --trace patches these names; a deleted one breaks it
    spans = _benchmark_module("spans")
    for _, module, names in spans.LAYERS:
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_benchmark_command_lines_still_parse(tmp_path):
    # the benchmark's worker appends --seed N -o PATH to every case, hardy's included
    workloads = _benchmark_module("workloads")
    cases = [*workloads.battery_cases(), *workloads.no_cases(),
             *(m.case for m in workloads.manifest_inputs(tmp_path))]
    assert {case.argv[0] for case in cases} == {"analyze", "hardy"}
    for case in cases:
        args = cli.build_parser().parse_args([*case.argv, "--seed", "7", "-o", "out.json"])
        assert (args.seed, args.output) == (7, "out.json")


def _grid_specs(tmp_path):
    axis = default_axis(count=64)
    grid = cli.wigner_gaussian([0, 0], 0.5 * np.eye(2), axis, axis)
    cli.save_wigner_manifest(grid, tmp_path / "csv.json", csv_path=tmp_path / "values.csv")
    cli.save_wigner_manifest(grid, tmp_path / "inline.json")
    return {
        "fock": {"type": "fock", "n": 1},
        "mixture": {"type": "mixture", "components": [
            {"weight": 0.5, "state": {"type": "fock", "n": 0}},
            {"weight": 0.5, "state": {"type": "fock", "n": 1}}]},
        "gaussian": {"type": "gaussian", "mean": [0, 0], "cov": [[0.5, 0], [0, 0.5]]},
        "narcowich-oconnell": {"type": "narcowich-oconnell", "alpha": 0.5, "beta": 0.5},
        "bump": {"type": "bump", "radius": 1.0},
        "csv manifest": {"type": "grid", "manifest": str(tmp_path / "csv.json")},
        "inline manifest": {"type": "grid", "manifest": str(tmp_path / "inline.json")},
    }


@pytest.mark.parametrize("rescale", [None, 1.1])
@pytest.mark.parametrize("kind", ["fock", "mixture", "gaussian", "narcowich-oconnell", "bump",
                                  "csv manifest", "inline manifest"])
def test_every_spec_builds_one_contiguous_real_grid(tmp_path, kind, rescale):
    # a strided real view would keep a complex grid twice its size alive
    args = cli.build_parser().parse_args(["analyze", "{}"])
    spec = _grid_specs(tmp_path)[kind]
    if rescale is not None:
        spec["rescale"] = rescale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rescaling N-O pushes mass off its grid
        w, _ = cli.build_state(spec, 1.0, args)
    assert w.values.dtype == np.float64 and w.values.flags.c_contiguous
    base = w.values
    while base is not None:
        assert not np.iscomplexobj(base)
        base = getattr(base, "base", None)
