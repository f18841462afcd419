"""msfacedet benchmark: one workload, one seed, one line of JSON results.

    python3 benchmark/run.py --workload detect-128 --seed 1 --seconds 20 --trace 0

Run from the repository root; the workloads are listed in BENCHMARK.json.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes three
passes over the same operations (untraced warm-up, traced, untraced),
checks that all three give bit-identical outputs and reports per-layer
metrics from the traced pass.  A human-readable table comes first, the full
report with provenance and sample counts goes to ``.bench_out/``, and the
last line of standard output is the result object.  The exit code is
non-zero when an output check failed.

Timings are reported twice: as measured (``op_ms_*``, ``ops_per_s``) and in
units of a reference probe run between operations (``op_cost_*``,
``ops_per_kref``), which the machine's speed drift does not move; the
latter are the metrics BENCHMARK.json bounds.  ``setup_s`` is likewise in
nominal seconds (see ``workloads.repeat_setup``).  OpenBLAS runs on one
thread.

Detect workloads need trained weights: the first detect run in a checkout
trains them with the repo's own ``train``, in a child process, and keeps
them in ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NO_CONTENTION_NOTE = (
    "single closed-loop caller, no contention: no operation waits on a queue or lock, so a "
    "faster layer saves at most its self-time share on a workload; no wait metrics are reported"
)

# per workload kind, the specific names of the workload-generic, as-measured metrics
ALIASES = {
    "train": {
        "op_ms_p50": "train_iter_ms_p50",
        "op_ms_p90": "train_iter_ms_p90",
        "ops_per_s": "train_iters_per_s",
        "ap": "heldout_ap",
    },
    "detect": {
        "op_ms_p50": "detect_ms_p50",
        "op_ms_p90": "detect_ms_p90",
        "ops_per_s": "detect_images_per_s",
        "ap": "detect_ap",
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_thread_blas():
    """Run OpenBLAS on one thread; must run before numpy is imported.

    On this benchmark's matrix sizes a second BLAS thread barely shortens an
    operation, but it doubles the run-to-run spread of training times on a
    2-CPU machine, so the caller is one thread end to end.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def git_rev() -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    """OpenBLAS version and its effective thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["blas_threads"] = fn()
                    return info
    return info


def provenance(seed: int, workload) -> dict:
    import numpy as np

    import workloads

    return {
        "git_rev": git_rev(),
        "source_sha256": workloads.source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload_seed": seed,
        "derived_seeds": {
            "train_scenes": workloads.derive_seed(seed, workloads.TRAIN_STREAM),
            "heldout_scenes": workloads.derive_seed(seed, workloads.HELDOUT_STREAM),
        },
        "machine": platform.machine(),
    }


def report(args, w, res, elapsed_s: float) -> dict:
    aliases = ALIASES[w.kind]
    metrics = {}
    for name, (value, unit) in res.metrics.items():
        entry = {"value": value, "unit": unit, "samples": res.samples.get(name)}
        if name in aliases:
            entry["alias"] = aliases[name]
        metrics[name] = entry
    return {
        "workload": w.name,
        "why": w.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems[:50],
        "metrics": metrics,
        "provenance": provenance(args.seed, w),
        "info": res.info,
        "notes": [
            NO_CONTENTION_NOTE,
            "tensor.conv2d.gflop and tensor.conv2d.cols_mb are computed from tensor shapes, not measured",
            "per-layer .ms metrics are self time per operation (span minus child spans)",
        ],
        "elapsed_s": elapsed_s,
    }


def print_table(rep: dict):
    print(f"# {rep['workload']} seed={rep['provenance']['workload_seed']} trace={rep['trace']}: {rep['why']}")
    print(f"# {NO_CONTENTION_NOTE}")
    for name, m in rep["metrics"].items():
        label = f"{name} ({m['alias']})" if "alias" in m else name
        n = "" if m["samples"] is None else f"  n={m['samples']}"
        print(f"{label:48s} {m['value']:14.6g} {m['unit']}{n}")
    print(f"# attempted={rep['attempted']} failed={rep['failed']} correct={rep['correct']}")
    for p in rep["problems"]:
        print(f"# problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "msfacedet" / "__init__.py").is_file():
        print(f"error: msfacedet sources not found under {SRC}", file=sys.stderr)
        return 2
    single_thread_blas()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    prefix = out_dir / f"{w.name}-seed{args.seed}-trace{args.trace}"
    t0 = time.perf_counter()
    res = workloads.run(w, args.seed, args.seconds, bool(args.trace), prefix, ROOT / ".bench_build")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in res.metrics:
            res.problems.append(f"metric {m['name']} was not measured")
            continue
        value, unit = res.metrics[m["name"]]
        if unit != m["unit"]:
            res.problems.append(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    rep = report(args, w, res, time.perf_counter() - t0)
    prefix.with_name(prefix.name + ".json").write_text(json.dumps(rep, indent=1) + "\n")
    print_table(rep)
    result = {"correct": res.correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
