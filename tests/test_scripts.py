"""The scripts under ``scripts/`` that no CLI command replaces, run as a
user runs them.

``build_reference.py`` is not run here: its sweep over every connected host
on up to 9 vertices takes about 3 minutes on one core.  The CI workflow
reruns it on one Python version and compares both files it writes with the
shipped fixtures byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# stdout of ``verify_distance_formula.py --max-order 6``: one summary row per
# order 2..6 and the closing "formula holds on every pair" line
DISTANCE_FORMULA_6_SHA256 = "93826ee9901967a99fca540dddc807c5a860f797e6062d4dc6faba662514ed5d"


def test_verify_distance_formula_up_to_order_6():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_distance_formula.py"), "--max-order", "6"],
        capture_output=True,
        env=env,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DISTANCE_FORMULA_6_SHA256
