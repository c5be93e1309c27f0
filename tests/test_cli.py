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

from wigcheck import (AxisGrid, WignerGrid, cli, default_axis, fock_state, mixture_wigner,
                      save_wigner_manifest, symplectic, wigner_gaussian)
from wigcheck.cli import _emit, main


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


def test_successive_calls_parse_their_own_flags(capsys):
    # one parser serves every call of a process; no flag may leak into the next call
    assert cli.build_parser() is cli.build_parser()
    _, first = run_cli(capsys, "analyze", '{"type":"fock","n":0}', "--trials", "3", "--seed", "3")
    _, second = run_cli(capsys, "analyze", '{"type":"fock","n":0}')
    assert first["klm"]["trials_per_order"] == 3 and first["seed"] == 3
    assert second["klm"]["trials_per_order"] == 50 and second["seed"] == 0


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
    code, rep = run_cli(capsys, "klm", '{"type":"fock","n":0}', "--max-order", "3",
                        "--trials", "20")
    assert code == 0
    assert rep["klm"]["overall"] == "no_violation_found"
    code, rep = run_cli(capsys, "klm", '{"type":"fock","n":0,"rescale":1.5}',
                        "--max-order", "3", "--trials", "50")
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


def test_zero_fit_has_a_null_blob(tmp_path, capsys):
    # clipped at half its peak, the grid reaches its maximum away from the
    # origin; at --cmax-factor 1 that point pins the fit to M = 0, which has
    # no capacity.  The flat top is no state: analyze's oracle proves it
    axis = default_axis(count=64)
    grid = cli.wigner_gaussian([0, 0], 0.5 * np.eye(2), axis, axis)
    np.minimum(grid.values, 0.5 * grid.values.max(), out=grid.values)
    grid.values /= cli.trace(grid)
    cli.save_wigner_manifest(grid, tmp_path / "clipped.json")
    spec = json.dumps({"type": "grid", "manifest": str(tmp_path / "clipped.json")})
    code, dominate = run_cli(capsys, "dominate", spec, "--cmax-factor", "1")
    assert code == 0 and dominate["domination"]["mu1"] == 0.0 and dominate["blob"] is None
    code, analyze = run_cli(capsys, "analyze", spec, "--cmax-factor", "1")
    assert code == 2 and analyze["domination"] == dominate["domination"] and analyze["blob"] is None
    assert [w["type"] for w in analyze["witnesses"]] == ["oracle_negative_eigenvalue"]


@pytest.mark.parametrize("argv", [
    ["analyze", '{"type":"fock","n":0}', "--grid-n", "64"],
    ["capacity", '{"M": [[4,0],[0,0.111]], "hbar": 1.0}'],
], ids=["analyze", "capacity"])
def test_the_symplectic_spectrum_is_computed_at_most_three_times(capsys, monkeypatch, argv):
    # analyze: the uncertainty report, the fit and the blob's `williamson`;
    # capacity: `capacity`, `is_admissible` and the blob's `williamson`
    calls, normal_modes = [], symplectic._normal_modes
    monkeypatch.setattr(symplectic, "_normal_modes", lambda M: calls.append(1) or normal_modes(M))
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
    # an explicit extent is kept as given
    assert_input_error(capsys, ["analyze", spec, "--grid-extent", "8"], "grid too narrow")


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
    # an explicit extent is kept as given
    assert_input_error(capsys, ["analyze", spec, "--grid-n", "64", "--grid-extent", "8"],
                       "grid too narrow")


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
    assert_input_error(capsys, [*argv, "--grid-extent", "8"], "grid too narrow")


@pytest.mark.parametrize("argv, message", [
    (["klm", '{"type":"fock","n":-1}'], "non-negative integer 'n'"),
    (["klm", '{"type":"fock","n":-1}', "--grid-extent", "1e16"], "non-negative integer 'n'"),
    (["klm", '{"type":"fock","n":-1}', "--grid-n", str(2**40)], "non-negative integer 'n'"),
    (["analyze", FOCK01.replace('"n":1', '"n":-1')], "non-negative integer 'n'"),
    (["analyze", '{"type":"fock","n":0}', "--grid-n", "255"], "count must be even"),
    (["analyze", '{"type":"fock","n":0}', "--grid-n", "255", "--grid-extent", "1e16"],
     "count must be even"),
    (["hardy", '{"type":"fock","n":0}', "--grid-n", str(2**40 + 1)], "count must be even")],
    ids=["n-1", "n-1-extent-1e16", "n-1-huge-count", "mixture-n-1", "odd", "odd-extent-1e16",
         "odd-huge-count"])
def test_no_extent_mends_a_bad_fock_input(capsys, monkeypatch, argv, message):
    # widening the axis cannot help a negative n or an odd count (and at extent 1e16,
    # extent + FOCK_STEP == extent): both are rejected before any axis is built
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


def test_hbar_sweep_command(capsys):
    code, rep = run_cli(capsys, "hbar-sweep", '{"type":"fock","n":0}',
                        "--values", "0.5,1.0,1.5")
    assert code == 0
    verdicts = [e["verdict"] for e in rep["sweep"]]
    assert verdicts == ["pass", "pass", "fail"]


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
    (["hbar-sweep", "--values", "0.5,1.0"], 0),
    (["rescale-sweep", "--lambdas", "1:2:0.5"], 0),
], ids=["analyze", "hbar-sweep", "rescale-sweep"])
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
    manifest = _vacuum_manifest(tmp_path, capsys)
    doc = json.loads(manifest.read_text())
    doc["values"][10][20] = None
    manifest.write_text(json.dumps(doc))
    assert _analyze_grid(manifest) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("flag", ["--trials", "--max-order"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_klm_counts_below_one_rejected(capsys, flag, value):
    assert main(["klm", '{"type":"fock","n":0}', flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


@pytest.mark.parametrize("value", ["9", "100"])
def test_max_order_above_the_lattice_rejected(capsys, value):
    # a lattice trial has one point per lattice point, eight of them
    assert_input_error(capsys, ["klm", '{"type":"fock","n":0}', "--max-order", value],
                       "--max-order: must be at most 8, got")


@pytest.mark.parametrize("value", ["-1", str(2**64)])
def test_seed_outside_64_bits_rejected(capsys, value):
    assert_input_error(capsys, ["klm", '{"type":"fock","n":0}', "--seed", value], "--seed:")


def test_largest_seed_runs_without_warnings(capsys):
    assert main(["klm", '{"type":"fock","n":0}', "--seed", str(2**64 - 1), "--trials", "10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["klm"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("matrix", ["3", "[]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
                                    "[[1, 0], [0, 1], [0, 0]]", "[1, 2]"])
def test_capacity_rejects_non_square_or_odd_matrix(capsys, matrix):
    assert main(["capacity", '{"M": %s}' % matrix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_emit_refuses_non_finite_numbers(capsys):
    args = argparse.Namespace(output=None)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _emit({"value": bad}, args)
    assert capsys.readouterr().out == ""


SMALL = ["--grid-n", "64"]
SMALL_KLM = [*SMALL, "--trials", "5", "--max-order", "3"]
SUBCOMMANDS = [
    ["analyze", '{"type":"fock","n":0}', *SMALL_KLM],
    ["analyze", '{"type":"bump","radius":1.5}', *SMALL_KLM],
    ["wigner", '{"type":"fock","n":0,"rescale":1.1}', *SMALL],
    ["rescale-sweep", '{"type":"fock","n":0}', "--lambdas", "0.8:1.2:0.2", *SMALL],
    ["klm", '{"type":"fock","n":0,"rescale":1.5}', *SMALL_KLM],
    ["dominate", '{"type":"fock","n":0}', *SMALL],
    ["dominate", '{"type":"bump","radius":1.5}', *SMALL],
    ["oracle", '{"type":"fock","n":0}', *SMALL],
    ["capacity", '{"M": [[2, 0], [0, 1]]}'],
    ["hbar-sweep", '{"type":"fock","n":0}', "--values", "0.5,1,2", *SMALL],
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


def assert_input_error(capsys, argv, message=""):
    """Exit 1 with nothing on stdout and one `error:` line on stderr."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert message in captured.err


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


GRID = {"--grid-n", "--grid-extent"}
FLAGS = {  # the flags each command's build and stages read, besides -o
    "analyze": GRID | {"--seed", "--max-order", "--trials", "--cmax-factor"},
    "klm": GRID | {"--seed", "--max-order", "--trials"},
    "dominate": GRID | {"--cmax-factor"},
    "oracle": GRID,
    "wigner": GRID | {"--csv"},
    "rescale-sweep": GRID | {"--lambdas"},
    "hbar-sweep": GRID | {"--values"},
    "capacity": set(),
    "hardy": GRID | {"--seed"},  # read by no stage: the benchmark passes it to every case
}
# every command took these once, with -o; hbar and rescale now come from the spec alone
SHARED_BEFORE = {"--hbar": "1", "--rescale": "1.2", "--grid-n": "64", "--grid-extent": "8",
                 "--seed": "7", "--max-order": "3", "--trials": "5", "--cmax-factor": "2"}
REQUIRED = {"rescale-sweep": ["--lambdas", "1:1:1"], "hbar-sweep": ["--values", "1"]}
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
    assert settable == 37  # 84 with nine shared flags


@pytest.mark.parametrize("command, flag", REMOVED, ids=[f"{c} {f}" for c, f in REMOVED])
def test_removed_flags_are_input_errors(capsys, monkeypatch, command, flag):
    # rejected before any spec is loaded: no flag is silently ignored
    monkeypatch.setattr(cli, "_load_spec", lambda source: pytest.fail("spec loaded"))
    spec = '{"M": [[2, 0], [0, 1]]}' if command == "capacity" else '{"type":"fock","n":0}'
    argv = [command, spec, *REQUIRED.get(command, []), flag, SHARED_BEFORE[flag]]
    assert_input_error(capsys, argv, f"unrecognized arguments: {flag} {SHARED_BEFORE[flag]}")


@pytest.mark.parametrize("flag, value, bound", [
    ("--seed", str(-10**29), "must be at least 0"),
    ("--trials", str(10**27), f"must be at most {2**63 - 1}"),
    ("--trials", str(2**63 + 5), f"must be at most {2**63 - 1}"),
], ids=["seed-below-int64", "trials-far-above-int64", "trials-just-above-int64"])
def test_integers_outside_int64_name_their_bound(capsys, flag, value, bound):
    # numpy cannot test such an int for finiteness, and one just past int64 failed in the search
    assert_input_error(capsys, ["klm", '{"type":"fock","n":0}', flag, value],
                       f"argument {flag}: {bound}")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_cmax_factor_rejected(capsys, value):
    assert_input_error(capsys, ["dominate", '{"type":"fock","n":0}', "--grid-n", "64",
                                "--cmax-factor", value], "must be at least 1.0 and finite")


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
    ["hbar-sweep", '{"type":"fock","n":0}', "--values", "0.5,0"],
    ["hbar-sweep", '{"type":"fock","n":0}', "--values", "-1"],
    ["hbar-sweep", '{"type":"fock","n":0}', "--values", "1,nan"],
    ["hbar-sweep", '{"type":"fock","n":0}', "--values", "inf"],
    ["analyze", '{"type":"fock","n":0}', "--hbar", "-1"],
    ["analyze", '{"type":"fock","n":0}', "--hbar", "nan"],
    ["analyze", '{"type":"fock","n":0}', "--rescale", "-1"],
    ["analyze", '{"type":"grid","manifest":"missing.json"}', "--rescale", "0"],
], ids=["cmax-below-1", "grid-n-0", "grid-n-14", "extent-inf", "extent-0", "hardy-extent-nan",
        "lambdas-inf", "lambdas-nan", "lambdas-start-0", "lambdas-reversed", "lambdas-step-0",
        "lambdas-count-overflows", "lambdas-two-parts", "values-zero", "values-negative",
        "values-nan", "values-inf", "hbar-negative", "hbar-nan", "rescale-negative",
        "rescale-0-missing-manifest"])
def test_bad_numbers_rejected_at_parse_time(capsys, monkeypatch, argv):
    # rejected before any spec is loaded or grid built; hbar and rescale are read from the
    # spec alone, so a value for either flag is an unrecognized argument
    monkeypatch.setattr(cli, "_load_spec", lambda source: pytest.fail("spec loaded"))
    flag, value = argv[2:4]
    removed = flag in ("--hbar", "--rescale")
    assert_input_error(capsys, argv,
                       f"unrecognized arguments: {flag} {value}" if removed else f"argument {flag}:")


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
    ["analyze", '{"type":"narcowich-oconnell","alpha":1e300}'],
    # the first array, 7.3 TiB, cannot be allocated at all, so no memory is touched
    ["wigner", '{"type":"fock","n":0}', "--grid-n", "1000000000000"],
    ["capacity", '{"M": [[1e308, 0], [0, 1e308]]}'],
], ids=["hbar-squared", "rescale-squared", "sweep-lambda-squared", "alpha-squared",
        "grid-too-large", "capacity-spectrum"])
def test_numbers_out_of_range_are_one_line_errors(capsys, argv):
    assert_input_error(capsys, argv)


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
    done = _python("-m", "wigcheck.cli", "wigner", '{"type":"fock","n":0,"rescale":0.3}',
                   "--grid-n", "64")
    assert done.returncode == 0 and json.loads(done.stdout)["trace"] > 0
    direct = _python("-c", "from wigcheck import default_axis, fock_state, rescale, "
                           "wigner_of_pure; "
                           "rescale(wigner_of_pure(fock_state(0, default_axis(count=64))), 0.3)")
    assert "UserWarning: rescale mass drift" in direct.stderr
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
