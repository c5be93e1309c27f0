"""Golden reports of every command line in the README "Command line" block,
and the values the README "Library" block states.

Each golden file holds the command line, its exit code and its report.
Keys, strings, booleans, integers and nulls must match exactly; floats
within 1e-12 absolute plus 1e-9 relative, which admits the ~1e-15 moves of
the oracle eigenvalues between BLAS thread counts and nothing of substance.

Regenerate (only when a report is meant to change) with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py

which rewrites only the goldens that no longer match, and in them only the
leaves that moved beyond the tolerance, deletes those no README command
produces, and prints each file it wrote or deleted.
"""

import ast
import io
import json
import shlex
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


def golden_path(index, argv, directory=GOLDEN):
    return directory / f"{index:02d}-{argv[0]}.json"


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
    assert values["wc.uncertainty_report(sigma, 1.0).psd_ok"] is True
    assert values["min(e[-1] for e in wc.operator_spectrum_oracle(w))"] == pytest.approx(
        -0.405, abs=5e-4)
    assert values["wc.klm_check(w, seed=3).overall"] == "violation_certificate"
    assert values["wc.capacity(np.diag([4.0, 1.0]))"] == pytest.approx(np.pi / 2)


def keep_matching(got, want):
    """`got` with each leaf that matches `want`'s within the tolerance replaced
    by `want`'s, so that a regenerated golden moves only where the report did."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {key: keep_matching(value, want[key]) if key in want else value
                for key, value in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [keep_matching(g, w) for g, w in zip(got, want)]
    try:
        assert_matches(got, want)
    except AssertionError:
        return got
    return want


def regenerate(commands=COMMANDS, directory=GOLDEN):
    """Rewrite each golden whose argv, exit code or report no longer matches
    its command, delete the goldens no command produces, and print each file
    written or deleted.  A golden that still matches keeps its bits, and a
    rewritten one each leaf that still matches."""
    directory.mkdir(exist_ok=True)
    wanted = set()
    for index, argv in enumerate(commands):
        path = golden_path(index, argv, directory)
        wanted.add(path)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(argv))
        report = json.loads(out.getvalue())
        committed = None
        try:
            golden = json.loads(path.read_text())
            committed = golden["report"]
            assert golden["argv"] == argv and golden["exit_code"] == code
            assert_matches(report, committed)
            continue
        except (OSError, ValueError, TypeError, KeyError, AssertionError):
            pass
        golden = {"argv": argv, "exit_code": code, "report": keep_matching(report, committed)}
        path.write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote {path.name}: exit {code}")
    for path in sorted(set(directory.glob("*.json")) - wanted):
        path.unlink()
        print(f"deleted {path.name}")


def test_regenerate_rewrites_only_stale_goldens(tmp_path, capsys):
    commands = [["capacity", '{"M": [[4,0],[0,0.111]]}'], ["hardy", '{"type":"fock","n":0}']]
    regenerate(commands, tmp_path)
    names = [golden_path(i, argv).name for i, argv in enumerate(commands)]
    assert capsys.readouterr().out.splitlines() == [f"wrote {name}: exit 0" for name in names]
    current, stale = (tmp_path / name for name in names)
    golden = json.loads(stale.read_text())
    golden["report"]["moved"] = True
    # a leaf within the tolerance keeps its committed bytes in a rewritten golden
    nudged = golden["report"]["hardy"]["a"] * (1 + 1e-12)
    assert nudged != golden["report"]["hardy"]["a"]
    golden["report"]["hardy"]["a"] = nudged
    stale.write_text(json.dumps(golden))
    current.write_text(current.read_text().replace("\n", "\n "))  # the same JSON, other bytes
    kept = current.read_bytes()
    (tmp_path / "99-orphan.json").write_text("{}")
    regenerate(commands, tmp_path)
    assert capsys.readouterr().out.splitlines() == [f"wrote {names[1]}: exit 0",
                                                    "deleted 99-orphan.json"]
    assert current.read_bytes() == kept and "moved" not in stale.read_text()
    assert f'"a": {nudged!r},' in stale.read_text()


if __name__ == "__main__":
    regenerate()
