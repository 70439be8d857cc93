"""Command-line behavior: outputs, exit codes, and JSON round-trips."""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from bugshare import lowerbound
from bugshare.cli import run

from helpers import table_from_csv


def _run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ allocate


def test_allocate_csod_example(capsys):
    code, out, _ = _run_capture(
        capsys, ["allocate", "--mechanism", "csod", "--profile", "0.9,0.8,0.26,0.26"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["deadline"] == pytest.approx(0.625)
    assert payload["k_star"] == 2
    assert payload["times"] == [0.0, 0.0, 0.625, 0.625]
    assert payload["payments"] == [0.5, 0.5, 0.0, 0.0]
    assert payload["sold"] is True


def test_allocate_csd_requires_deadline(capsys):
    code, _, err = _run_capture(
        capsys, ["allocate", "--mechanism", "csd", "--profile", "0.9,0.8"]
    )
    assert code == 1
    assert err == "error: csd needs a deadline t_c in [0, 1]\n"


def test_allocate_csd_at_a_given_deadline(capsys):
    # the payload records the deadline; the pair at 0.9 and 0.8 meets price 1/1.4
    code, out, err = _run_capture(
        capsys, ["allocate", "--mechanism", "csd", "--t-c", "0.7", "--profile", "0.9,0.8,0.26,0.26"]
    )
    assert (code, err) == (0, "")
    expected = {
        "mechanism": "csd",
        "profile": [0.9, 0.8, 0.26, 0.26],
        "t_c": 0.7,
        "times": [0.0, 0.0, 0.7, 0.7],
        "payments": [0.5, 0.5, 0.0, 0.0],
        "sold": True,
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_allocate_rejects_an_overflowing_profile(capsys):
    # 2 * 1e308 overflows: the rule used to sell nothing and release both at time 0
    code, out, err = _run_capture(
        capsys, ["allocate", "--mechanism", "csod", "--profile", "1e308,1e308"]
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite and non-negative" in err


def test_allocate_gcsod_with_grouping(capsys):
    code, out, _ = _run_capture(
        capsys,
        [
            "allocate",
            "--mechanism",
            "gcsod",
            "--profile",
            "0.9,0.8,0.26,0.26",
            "--grouping",
            "LLRR",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["grouping"] == "LLRR"
    assert payload["payments"] == [0.5, 0.5, 0.0, 0.0]


def test_allocate_gcsod_seed_recorded_and_deterministic(capsys):
    argv = ["allocate", "--mechanism", "gcsod", "--profile", "0.5,0.6,0.7", "--seed", "3"]
    code, out1, _ = _run_capture(capsys, argv)
    _, out2, _ = _run_capture(capsys, argv)
    assert code == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 3


@pytest.mark.parametrize(
    "command, message",
    [
        (
            "simulate --mechanism cs --dist U(0,1) --n 2 --t-c 0.5",
            "t_c only applies to csd, not cs",
        ),
        ("allocate --mechanism cs --profile 0.9,0.8 --t-c 0.5", "t_c only applies to csd, not cs"),
        (
            "allocate --mechanism csod --profile 0.9,0.8 --grouping LR",
            "--grouping only applies to --mechanism gcsod",
        ),
        (
            "allocate --mechanism cs --profile 0.9,0.8 --seed 3",
            "--seed only applies to --mechanism gcsod",
        ),
        (
            "allocate --mechanism gcsod --profile 0.9,0.8 --grouping LR --seed 3",
            "--seed does not apply with --grouping, which fixes the coin flips",
        ),
        (
            "audit --property sp --mechanism gcsod --profile 0.9,0.8 --t-c 0.5",
            "t_c only applies to csd, not gcsod",
        ),
    ],
    ids=[
        "simulate-t-c",
        "allocate-t-c",
        "allocate-grouping",
        "allocate-seed",
        "allocate-grouping-seed",
        "audit-t-c",
    ],
)
def test_options_that_do_not_apply_exit_one(capsys, command, message):
    assert _run_capture(capsys, command.split()) == (1, "", f"error: {message}\n")


# the commands that take --mechanism and --t-c, each with the rest of a valid command line
DEADLINE_COMMANDS = {
    "allocate": "--profile 0.9,0.8",
    "audit": "--property sp --profile 0.9,0.8",
    "simulate": "--dist U(0,1) --n 2 --samples 100",
}


@pytest.mark.parametrize("command", DEADLINE_COMMANDS)
@pytest.mark.parametrize(
    "mechanism, t_c, message",
    [
        ("cs", "--t-c 0.5", "t_c only applies to csd, not cs"),
        ("csod", "--t-c 0.5", "t_c only applies to csd, not csod"),
        ("gcsod", "--t-c 0.5", "t_c only applies to csd, not gcsod"),
        ("csd", "", "csd needs a deadline t_c in [0, 1]"),
    ],
    ids=["cs", "csod", "gcsod", "csd-without-t-c"],
)
def test_every_command_words_a_misplaced_or_missing_deadline_alike(
    capsys, command, mechanism, t_c, message
):
    # the library checks t_c in one place, so every command prints its one line
    argv = f"{command} --mechanism {mechanism} {t_c} {DEADLINE_COMMANDS[command]}".split()
    assert _run_capture(capsys, argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("t_c", ["5e-324", "1e-308", "1e-307"])
def test_audit_sp_at_a_tiny_deadline(capsys, t_c):
    # the grid's largest entry thresholds are no reports of two agents at the
    # first two deadlines; the audit used to refuse its own probes there
    argv = ["audit", "--property", "sp", "--mechanism", "csd", "--t-c", t_c, "--profile", "0.9,0.8"]
    code, out, err = _run_capture(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "profile",
    ["0.9,oops", "0.9,,0.8", "0.9,0.8,"],
    ids=["not-a-number", "empty-field", "trailing-comma"],
)
def test_allocate_rejects_bad_profile(capsys, profile):
    # an empty field is an error, not an agent dropped from the profile
    code, out, err = _run_capture(capsys, ["allocate", "--mechanism", "cs", "--profile", profile])
    assert code == 1 and out == ""
    assert "profile" in err


# --------------------------------------------------------------------- audit


def test_audit_sp_csod_finds_example_two_and_exits_two(capsys):
    code, out, _ = _run_capture(
        capsys,
        ["audit", "--property", "sp", "--mechanism", "csod", "--profile", "0.9,0.8,0.26,0.26"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["property"] == "SP"
    assert not payload["passed"]
    agents = {v["agent"] for v in payload["violations"]}
    assert 1 in agents


def test_audit_sp_rejects_nan_epsilon(capsys):
    # with the default epsilon this audit fails, so a NaN slack must not pass it
    argv = ["audit", "--property", "sp", "--mechanism", "csod", "--profile", "0.9,0.8,0.26,0.26"]
    code, out, err = _run_capture(capsys, [*argv, "--epsilon", "nan"])
    assert code == 1
    assert out == ""
    assert err == "error: epsilon must be non-negative\n"


def test_audit_sp_rejects_infinite_epsilon(capsys):
    argv = ["audit", "--property", "sp", "--mechanism", "csod", "--profile", "0.9,0.8,0.26,0.26"]
    code, out, err = _run_capture(capsys, [*argv, "--epsilon", "inf"])
    assert code == 1
    assert out == ""
    assert err == "error: epsilon must be finite\n"


def test_audit_mono_rejects_a_one_point_sweep(capsys):
    argv = ["audit", "--property", "mono", "--mechanism", "cs", "--profile", "0.9,0.8"]
    code, out, err = _run_capture(capsys, [*argv, "--points", "1"])
    assert code == 1
    assert out == ""
    assert err == "error: points must be at least 2\n"


def test_audit_mono_rejects_a_negative_sweep_size(capsys):
    # numpy used to refuse it in its own words: "Number of samples, -3, must be non-negative."
    # an empty sweep gets the same floor
    argv = ["audit", "--property", "mono", "--mechanism", "cs", "--profile", "0.9,0.8"]
    for points in ("-3", "0"):
        assert _run_capture(capsys, [*argv, "--points", points]) == (
            1,
            "",
            "error: points must be at least 2\n",
        )


def test_audit_sp_rejects_a_grid_without_both_ends(capsys):
    # it used to pass on the 4 entry-threshold probes alone
    argv = ["audit", "--property", "sp", "--mechanism", "cs", "--profile", "0.9,0.8"]
    assert _run_capture(capsys, [*argv, "--points", "0"]) == (
        1,
        "",
        "error: points must be at least 2\n",
    )


def test_audit_sp_cs_passes(capsys):
    code, out, _ = _run_capture(
        capsys,
        ["audit", "--property", "sp", "--mechanism", "cs", "--profile", "0.9,0.8,0.26,0.26"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    # 4 agents x 53 misreports: the 50-point grid plus the entry prices 1/2,
    # 1/3 and 1/4 (1/1 is on the grid); no agent's own value is on the grid
    assert payload["probes"] == 212


def test_audit_bb_csd_flags_budget_break(capsys):
    code, out, _ = _run_capture(
        capsys,
        [
            "audit",
            "--property",
            "bb",
            "--mechanism",
            "csd",
            "--t-c",
            "0.5",
            "--profile",
            "0.9,0.8,0.26,0.26",
        ],
    )
    assert code == 2
    assert not json.loads(out)["passed"]


def test_audit_bb_gcsod_all_groupings_pass(capsys):
    code, out, _ = _run_capture(
        capsys,
        ["audit", "--property", "bb", "--mechanism", "gcsod", "--profile", "0.9,0.3,0.4"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_audit_bb_gcsod_rejects_profiles_past_the_enumeration_cap(capsys):
    profile = ",".join(["0.5"] * 17)
    code, out, err = _run_capture(
        capsys, ["audit", "--property", "bb", "--mechanism", "gcsod", "--profile", profile]
    )
    assert code == 1
    assert out == ""
    assert "exact grouping enumeration capped at n=16; got n=17" in err


def test_audit_mono_cs_passes(capsys):
    code, out, _ = _run_capture(
        capsys,
        ["audit", "--property", "mono", "--mechanism", "cs", "--profile", "0.2,0.6"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_audit_multiple_profiles(capsys):
    code, out, _ = _run_capture(
        capsys,
        [
            "audit",
            "--property",
            "ir",
            "--mechanism",
            "csod",
            "--profile",
            "0.9,0.8",
            "--profile",
            "0.2,0.1",
        ],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize(
    "command",
    [
        "allocate --mechanism gcsod --profile 0.9,0.8 --seed -1",
        "simulate --mechanism cs --dist U(0,1) --n 2 --samples 10 --seed -1",
        "table --samples 10 --H 5 --seed -1",
    ],
    ids=["allocate", "simulate", "table"],
)
def test_negative_seed_exits_one(capsys, command):
    # numpy's own "expected non-negative integer" used to be the message
    assert _run_capture(capsys, command.split()) == (1, "", "error: seed must be at least 0\n")


# --------------------------------------------------------------------- alpha


def test_alpha_table_and_verdict(capsys):
    code, out, _ = _run_capture(capsys, ["alpha", "--kmax", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] == {"1": 1.0, "2": 2.0, "3": 3.0, "4": 3.25}
    assert payload["bound_holds"] is True
    assert payload["bound"] == 4.0


def test_alpha_rejects_bad_kmax(capsys):
    code, _, err = _run_capture(capsys, ["alpha", "--kmax", "0"])
    assert code == 1
    assert "kmax" in err


# ---------------------------------------------------------------- lowerbound


def test_lowerbound_command(capsys):
    code, out, _ = _run_capture(
        capsys,
        ["lowerbound", "--dist", "U(0,1)", "--n", "2", "--H", "40", "--objective", "max"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distribution"] == "U(0,1)"
    assert 0.3 < payload["bound"] < 1.0
    # provenance of the pruned search over the H = 40 truncation LPs
    assert 1 <= payload["lp_solves"] <= 40
    assert 1 <= payload["truncation_point"] <= 40


def test_lowerbound_rejects_bad_distribution(capsys):
    for dist in ("Zipf(2)", "U(0.5,1)"):
        code, _, err = _run_capture(
            capsys, ["lowerbound", "--dist", dist, "--n", "2", "--objective", "sum"]
        )
        assert code == 1
        assert dist in err


def test_lowerbound_rejects_a_nan_sigma(capsys):
    code, out, err = _run_capture(
        capsys, ["lowerbound", "--dist", "N(0.5,nan)", "--n", "2", "--objective", "sum"]
    )
    assert code == 1
    assert out == ""
    assert "sigma must be positive" in err


@pytest.mark.parametrize("objective", ["max", "sum"])
def test_lowerbound_reports_a_solver_refusal_without_traceback(capsys, monkeypatch, objective):
    def refuse(*args, **kwargs):
        return SimpleNamespace(status=2, message="The problem is infeasible.")

    monkeypatch.setattr(lowerbound, "linprog", refuse)
    code, out, err = _run_capture(
        capsys,
        ["lowerbound", "--dist", "U(0,1)", "--n", "1", "--H", "10", "--objective", objective],
    )
    assert code == 1 and out == ""
    assert err == "error: LP solver ended with status 2: The problem is infeasible.\n"
    assert "Traceback" not in err


# ------------------------------------------------------------------ simulate


def test_simulate_command_deterministic(capsys):
    argv = [
        "simulate",
        "--mechanism",
        "cs",
        "--dist",
        "U(0,1)",
        "--n",
        "2",
        "--samples",
        "20000",
        "--seed",
        "7",
    ]
    code, out1, _ = _run_capture(capsys, argv)
    _, out2, _ = _run_capture(capsys, argv)
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 7
    assert payload["samples_used"] == 20000
    assert abs(payload["expected_max_delay"] - 0.75) < 0.02


@pytest.mark.parametrize("n", ["1" + "0" * 400, "1"], ids=["huge-n", "hi-overflows"])
def test_simulate_rejects_a_prior_whose_products_overflow(capsys, n):
    # n * hi overflows, or n itself has no float; neither may leave a traceback
    argv = ["simulate", "--mechanism", "cs", "--dist", "U(0,1e308)", "--n", n, "--samples", "10"]
    code, out, err = _run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


# --------------------------------------------------------------------- table


def test_table_csv_output(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, _, _ = _run_capture(
        capsys,
        [
            "table",
            "--samples",
            "2000",
            "--H",
            "10",
            "--seed",
            "3",
            "--output",
            str(target),
        ],
    )
    assert code == 0
    records = table_from_csv(target.read_text())
    assert len(records) == 72


def test_table_json_format(capsys):
    code, out, _ = _run_capture(
        capsys, ["table", "--samples", "1000", "--H", "5", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 72
    assert {"distribution", "n", "mechanism", "objective", "value", "stderr"} <= set(payload[0])


# -------------------------------------------------------------------- --output


@pytest.mark.parametrize(
    "command, code",
    [
        ("allocate --mechanism csod --profile 0.9,0.8,0.26,0.26", 0),
        ("audit --property sp --mechanism csod --profile 0.9,0.8,0.26,0.26", 2),
        ("alpha --kmax 5", 0),
        ("lowerbound --dist U(0,1) --n 2 --H 10 --objective max", 0),
        ("simulate --mechanism gcsod --dist U(0,1) --n 2 --samples 2000 --seed 7", 0),
        ("table --samples 2000 --H 10 --seed 3", 0),
    ],
    ids=["allocate", "audit", "alpha", "lowerbound", "simulate", "table"],
)
def test_output_file_holds_the_bytes_printed_without_it(capsys, tmp_path, command, code):
    target = tmp_path / "out"
    printed = _run_capture(capsys, command.split())
    written = _run_capture(capsys, [*command.split(), "--output", str(target)])
    assert printed[0] == written[0] == code
    assert written[1:] == ("", "") and printed[2] == ""
    assert target.read_bytes() == printed[1].encode("utf-8")


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_one(capsys, tmp_path, where):
    # open() used to raise FileNotFoundError or IsADirectoryError out of run
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = _run_capture(capsys, ["alpha", "--kmax", "3", "--output", str(target)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_help_describes_the_tool_without_markup(capsys):
    # --help used to print the module docstring, reST double backticks included
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "``" not in out and "Exit codes" in out


# ----------------------------------------------------------------- usage errors


def test_unknown_command_exits_one(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert run(["allocate", "--mechanism", "cs"]) == 1


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "bugshare.cli", "alpha", "--kmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bound_holds"] is True
