"""The README's examples run and give the results the README states."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from bugshare import cli
from bugshare.audit import Violation
from bugshare.mechanisms import Outcome

README = (Path(__file__).parent.parent / "README.md").read_text()

# ``allocate --mechanism gcsod ... --seed 7`` as printed before the group rule
# was rebuilt on the array kernel: agent 2 loses and waits until the winner's
# own deadline 1, agent 3 wins without paying and waits until 0.625.
GCSOD_SEED_7 = """{
  "mechanism": "gcsod",
  "profile": [
    0.9,
    0.8,
    0.26,
    0.26
  ],
  "seed": 7,
  "times": [
    0.0,
    0.0,
    1.0,
    0.625
  ],
  "payments": [
    0.5,
    0.5,
    0.0,
    0.0
  ],
  "sold": true
}
"""


def _block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _run_quick_start():
    """Each expression statement's value, with its comment and the comment lines next to it."""
    source = _block("Library quick start", "python")
    lines = [""] + source.splitlines() + [""]  # 1-based, padded at both ends
    namespace: dict = {}
    results = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        around = (lines[node.lineno - 1], lines[node.end_lineno], lines[node.end_lineno + 1])
        notes = " ".join(
            text.partition("#")[2].strip()
            for i, text in enumerate(around)
            if text.lstrip().startswith("#") or i == 1
        )
        results.append((value, notes))
    return results


def test_library_quick_start_gives_the_stated_results():
    (outcome, o_notes), (mx, mx_notes), (sp, sp_notes), (bound, b_notes), (report, r_notes) = (
        _run_quick_start()
    )

    assert outcome == Outcome((0.0, 0.0, 0.625, 0.625), (0.5, 0.5, 0.0, 0.0))
    assert repr(outcome) in o_notes

    assert mx == 0.828125
    assert mx_notes.startswith("0.828125,")

    agent, gain, misreport = re.search(
        r"agent (\d+) gains ([\d.]+) by reporting ([\d.]+)", sp_notes
    ).groups()
    assert sp == [Violation((0.9, 0.8, 0.26, 0.26), int(agent), float(misreport), float(gain))]

    assert bound == pytest.approx(float(re.search(r"~([\d.]+)", b_notes).group(1)), abs=0.005)
    stated = [float(x) for x in re.findall(r"~([\d.]+)", r_notes)]
    got = [report.expected_max_delay, report.expected_sum_delay]
    assert got == pytest.approx(stated, abs=0.01)


def test_command_line_examples_exit_as_stated(capsys):
    ran = []
    for line in _block("Command line", "bash").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        if argv[0] in ("simulate", "table"):  # 10^6 samples each
            continue
        stated = re.search(r"exits (\d)", comment)
        assert cli.run(argv) == (int(stated.group(1)) if stated else 0), line
        out = capsys.readouterr().out
        if argv[:3] == ["allocate", "--mechanism", "gcsod"]:
            assert out == GCSOD_SEED_7
        ran.append(argv[0])
    assert ran == ["allocate", "allocate", "audit", "alpha", "lowerbound"]
