"""The tests under each OpenBLAS kernel that numpy's DYNAMIC_ARCH build ships.

    python scripts/blas_kernels.py

Runs the tier-1 command of ROADMAP.md,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
(``tests`` and ``benchmark``, the ``testpaths`` of pyproject.toml), from the
repository root once per kernel, forced with ``OPENBLAS_CORETYPE`` (SkylakeX,
Haswell, Sandybridge), with one BLAS thread, and prints each kernel's pass
and fail counts and failed test ids.  Exits 1 when any kernel has a failure
or error.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge")


def main():
    bad = False
    for kernel in KERNELS:
        pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1", PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", lines[-1] if lines else "")}
        failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
        bad |= proc.returncode != 0
        print(f"{kernel}: {counts.get('passed', 0)} passed, {failed} failed (pytest exit {proc.returncode})")
        for line in lines:
            if line.startswith(("FAILED ", "ERROR ")):
                print(f"  {line.split(' - ')[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
