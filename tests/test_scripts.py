"""The scripts under ``scripts/`` that no CLI command replaces, run as a
user runs them.

``build_reference.py`` is not run here: its sweep over every connected host
on up to 9 vertices takes about 5 seconds on 2 CPUs, 4.5-6.5 serially.  The
CI workflow reruns it on both Python versions and compares both files it
writes with the shipped fixtures byte for byte, and checks the serial
sweep's certificates, the hosts of least order, then of least canonical
graph6, through ``biclique-lab catalogue --max-h-order 9 --workers 1``,
whose output it pins by SHA-256.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# stdout of ``verify_distance_formula.py --max-order 6``: one summary row per
# order 2..6 and the closing "formula holds on every pair" line
DISTANCE_FORMULA_6_SHA256 = "93826ee9901967a99fca540dddc807c5a860f797e6062d4dc6faba662514ed5d"


def _verify_distance_formula(max_order: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_distance_formula.py"), "--max-order", max_order],
        capture_output=True,
        env=env,
        check=False,
    )


def test_verify_distance_formula_up_to_order_6():
    result = _verify_distance_formula("6")
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DISTANCE_FORMULA_6_SHA256


@pytest.mark.parametrize("max_order", ["1", "9"])
def test_verify_distance_formula_rejects_an_order_outside_generation(max_order):
    # 1 would check nothing, and 9 is past the generated classes
    result = _verify_distance_formula(max_order)
    assert result.returncode == 2 and result.stdout == b""
    assert "--max-order" in result.stderr.decode()
