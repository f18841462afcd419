import os
import subprocess
import sys
from pathlib import Path

import msfacedet

ROOT = Path(__file__).parent.parent


def test_diagnose_script_runs_to_its_ap_line():
    env = dict(os.environ, PYTHONPATH=str(Path(msfacedet.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "diagnose.py"), "2", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("train-set AP: ") for line in proc.stdout.splitlines())
