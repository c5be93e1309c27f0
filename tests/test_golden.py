"""Golden reports of every command line in the README "Command line" block,
and the values the README "Library" block states.

Each golden file holds the command line, its exit code and its report.
Keys, strings, booleans, integers and nulls must match exactly; floats
within 1e-12 absolute plus 1e-9 relative, which admits the ~1e-15 moves of
the oracle eigenvalues between BLAS thread counts and nothing of substance.

Regenerate (only when a report is meant to change) with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import ast
import io
import json
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from wigcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
ABS_TOL, REL_TOL = 1e-12, 1e-9


def readme_commands():
    """argv of each `wigcheck` line in the README "Command line" code block."""
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


COMMANDS = readme_commands()


def golden_path(index, argv):
    return GOLDEN / f"{index:02d}-{argv[0]}.json"


def run(argv, capsys):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def assert_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= ABS_TOL + REL_TOL * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[f"{i:02d}-{argv[0]}" for i, argv in enumerate(COMMANDS)])
def test_readme_command_matches_golden(index, capsys):
    argv = COMMANDS[index]
    golden = json.loads(golden_path(index, argv).read_text())
    assert golden["argv"] == argv, "README command changed; regenerate the goldens"
    code, report = run(argv, capsys)
    assert code == golden["exit_code"]
    assert_matches(report, golden["report"])


def test_every_golden_has_a_readme_command():
    expected = {golden_path(i, argv).name for i, argv in enumerate(COMMANDS)}
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


def test_readme_library_block():
    block = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    env, values = {}, {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, env)
        else:
            exec(code, env)
    assert values["wc.check_quantum_psd(sigma, 1.0)"][0] is True
    assert values["min(e[-1] for e in wc.operator_spectrum_oracle(w))"] == pytest.approx(
        -0.405, abs=5e-4)
    assert values["wc.klm_check(w, seed=3).overall"] == "violation_certificate"
    assert values["wc.capacity(np.diag([4.0, 1.0]))"] == pytest.approx(np.pi / 2)


if __name__ == "__main__":
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    GOLDEN.mkdir(exist_ok=True)
    for index, argv in enumerate(COMMANDS):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(argv))
        golden = {"argv": argv, "exit_code": code, "report": json.loads(out.getvalue())}
        text = json.dumps(golden, indent=1)
        golden_path(index, argv).write_text(text + "\n")
        print(f"{golden_path(index, argv).name}: exit {code}", file=sys.stderr)
