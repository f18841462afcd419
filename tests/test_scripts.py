import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import msfacedet

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize(
    "args,scores",
    [(["2"], "recall@300=0.351 AP=0.0000"), (["2", "7", "0.001", "2"], "recall@50=0.143 AP=0.0000")],
    ids=["held-out", "overfit"],
)
def test_calibrate_script_reports_seeded_scores(args, scores):
    env = dict(os.environ, PYTHONPATH=str(Path(msfacedet.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "calibrate.py"), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert re.fullmatch(rf"seed=7 iters=2 lr=0\.001 train_time=\d+\.\dmin {re.escape(scores)}", last), last
