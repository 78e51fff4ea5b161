"""`tools/paired_cells.py` with one checkout on both sides."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_same_checkout_on_both_sides():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "paired_cells.py"), str(ROOT), str(ROOT),
         "--workload", "study-cosine", "--cells", "1", "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ratios = re.findall(r"^round \d+ .*ratio (\d+\.\d+)$", done.stdout, flags=re.M)
    assert len(ratios) == 2 and all(float(r) > 0 for r in ratios)
    assert "change faster in" in done.stdout and "0 failed operations" in done.stdout
