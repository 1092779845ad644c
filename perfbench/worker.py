"""Closed loop of whole CLI runs in one process, started by run.py.

Usage: python3 perfbench/worker.py CONFIG.json

The process runs only one workload: one untimed run at the reference seed
(which also warms imports and caches), then timed runs at the workload seed,
each into its own output directory, one after the other until the time is
up.  After each untraced run it times one fresh interpreter importing the
CLI and loading banknote (`setup_s`), so set-up samples spread over the same
window as the runs.  With tracing on, untraced and traced runs alternate so
the overhead is measured on the same machine state.  The result JSON goes to the path the
config names; the parent process checks the outputs.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path
from statistics import median

import spans
from workloads import WORKLOADS

MIN_RUNS = 4
SETUP_SCRIPT = "import curveshap.cli\nfrom curveshap.dataset import load_banknote\nload_banknote()"


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_once(main, argv: list[str], tracer: spans.Tracer | None = None) -> dict:
    """Exit code, wall and CPU seconds, and degenerate-curve warnings of one run."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = tracer.call(spans.ROOT, main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed run, not the end of the benchmark
            traceback.print_exc()
            code = 1
    return {
        "code": code,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": cpu_seconds() - cpu0,
        "degenerate": sum(w.category.__name__ == "DegenerateCurveWarning" for w in caught),
        "traced": tracer is not None,
    }


def setup_seconds() -> float:
    """Wall seconds for a fresh interpreter to import the CLI and load banknote."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_SCRIPT], check=True, timeout=60)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec; ru_maxrss may also hold the parent's size
    at fork time, so it is only the fallback.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def main() -> int:
    cfg = json.loads(Path(sys.argv[1]).read_text())
    from curveshap import cli

    workload = WORKLOADS[cfg["workload"]]
    out = Path(cfg["out"])
    result = {
        "reference": run_once(
            cli.main, workload.argv(Path(cfg["ref_data"]), out / "reference", cfg["ref_seed"])
        ),
        "runs": [],
        "setup_s": [],
        "layers": [],
        "absent": [],
    }
    runs = result["runs"]
    start = time.perf_counter()
    while True:
        argv = workload.argv(Path(cfg["data"]), out / f"run-{len(runs)}", cfg["seed"])
        if cfg["trace"] and len(runs) % 2 == 1:
            tracer = spans.Tracer()
            tracer.install(spans.package_modules())
            try:
                run = run_once(cli.main, argv, tracer)
            finally:
                tracer.uninstall()
            result["layers"].append(spans.aggregate(tracer.spans, tracer.absent, run["degenerate"]))
            result["absent"] = tracer.absent
        else:
            run = run_once(cli.main, argv)
            if not cfg["trace"]:
                result["setup_s"].append(setup_seconds())
        runs.append(run)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_RUNS and elapsed + median(r["wall_s"] for r in runs) > cfg["seconds"]:
            break
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    Path(cfg["result"]).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
