"""The tests under each OpenBLAS kernel that numpy's DYNAMIC_ARCH build
ships, at each of two BLAS thread counts.

    python scripts/blas_kernels.py

Runs the tier-1 command of ROADMAP.md,
``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``
(``tests`` and ``benchmark``, the ``testpaths`` of pyproject.toml), from the
repository root once per pair of kernel, forced with ``OPENBLAS_CORETYPE``
(SkylakeX, Haswell, Sandybridge), and BLAS thread count, set with
``OPENBLAS_NUM_THREADS`` (1 and 2).  Prints the pass and fail counts and the
failed test ids of each pair.  Exits 1 when any run has a failure or error.
"""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge")
THREAD_COUNTS = ("1", "2")


def main():
    bad = False
    pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    for kernel, threads in itertools.product(KERNELS, THREAD_COUNTS):
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|errors?)", lines[-1] if lines else "")}
        failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
        bad |= proc.returncode != 0
        passed = counts.get("passed", 0)
        print(f"{kernel}, {threads} threads: {passed} passed, {failed} failed (pytest exit {proc.returncode})")
        for line in lines:
            if line.startswith(("FAILED ", "ERROR ")):
                print(f"  {line.split(' - ')[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
