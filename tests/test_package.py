"""The public namespace of the package, and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import bugshare

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in bugshare.__all__ if not hasattr(bugshare, name)]
    assert not missing
    assert len(set(bugshare.__all__)) == len(bugshare.__all__)


# Runs in a fresh interpreter, where nothing has imported scipy yet.
_STARTUP_SCRIPT = """
import sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

import bugshare
import bugshare.cli
assert not scipy_modules(), ("import", scipy_modules())

from bugshare import (
    DistributionSpec, SimulationConfig, TypeProfile, check_sp, cs_allocate, estimate,
    gcsod_expected, misreport_grid, sum_delay_lower_bound,
)
profile = TypeProfile((0.9, 0.8, 0.26, 0.26))
cs_allocate(profile)
gcsod_expected(profile)
assert check_sp(cs_allocate, [profile], misreport_grid(4)).passed
uniform = DistributionSpec.parse("U(0,1)")
estimate(SimulationConfig("cs", uniform, n=4, samples=2000, seed=0))
assert not scipy_modules(), ("rules, audit and uniform estimate", scipy_modules())

DistributionSpec.parse("N(0.5,0.2)")
assert "scipy.special" in sys.modules, "normal prior"
assert "scipy.optimize" not in sys.modules, ("normal prior", scipy_modules())

sum_delay_lower_bound(uniform, 2, 10)
assert "scipy.optimize" in sys.modules, "LP bound"
"""


def test_scipy_is_imported_only_by_the_steps_that_need_it():
    # The rules and audits are numpy arithmetic; only the normal prior
    # (scipy.special) and the LP bounds (scipy.sparse, scipy.optimize) load
    # scipy, whose import takes longer than everything else in the package.
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
