"""curveshap benchmark: whole CLI runs, end to end or traced per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

For each workload this writes the seeded input CSV and starts one worker
process (perfbench/worker.py) that runs the CLI in a closed loop for S
seconds: one client, each run starting when the previous one ends.  The
program is imported from `src/`; the worker's BLAS threads are capped at
nproc through its environment.  Every timed run
is checked: exit code 0, artifacts byte-identical to the first timed run,
AUC outputs against an independent exact computation (perfbench/oracle.py),
and one untimed run at the reference seed against artifacts committed from
the seed commit (perfbench/reference/).

With --trace 0 the end-to-end metrics come from untraced runs; with
--trace 1 untraced and traced runs alternate and the per-layer metrics and
tracing overhead are reported.  Human-readable lines come first; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Full records go to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import checks
import spans
from workloads import WORKLOADS, write_input

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCE_SEED = 0
REFERENCES = BENCH / "reference" / f"seed{REFERENCE_SEED}"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Generous: a run measures `seconds`, plus one reference run and start-up.
WORKER_GRACE_S = 120

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def child_env() -> dict:
    """This process's environment, with src/ importable and BLAS threads ≤ nproc."""
    env = dict(os.environ)
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(nproc, wanted)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spread(values: list[float]) -> dict:
    """Median and quartiles (equal to the median for a single value) with the count."""
    q1, q3 = quantiles(values, n=4)[::2] if len(values) > 1 else (values[0], values[0])
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    """Run one workload in its own worker process and check every timed run."""
    w = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    data = write_input(ROOT, inputs, w, seed)
    cfg = {
        "workload": name, "seed": seed, "data": str(data), "seconds": seconds,
        "trace": trace, "ref_seed": REFERENCE_SEED,
        "ref_data": str(write_input(ROOT, inputs, w, REFERENCE_SEED)),
        "out": str(work / "out"), "result": str(work / "worker.json"),
    }
    (work / "config.json").write_text(json.dumps(cfg, indent=1))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "config.json")],
                   env=env, cwd=ROOT, check=True, timeout=seconds + WORKER_GRACE_S)
    res = json.loads((work / "worker.json").read_text())

    out = work / "out"
    runs = res["runs"]
    first = out / "run-0"
    # A wrong result at either seed means every run of this code is wrong.
    wrong = []
    try:
        if res["reference"]["code"] != 0:
            wrong.append(f"reference-seed run exited {res['reference']['code']}")
        else:
            wrong += checks.against_reference(w, out / "reference", REFERENCES / name)
        if runs[0]["code"] == 0:
            wrong += checks.against_oracle(w, first, data, seed)
    except (OSError, ValueError, IndexError) as exc:  # missing or malformed artifacts
        wrong.append(f"unreadable outputs: {exc}")
    problems = list(wrong)
    failed = 0
    for k, run in enumerate(runs):
        if run["code"] != 0:
            run_problems = [f"run-{k} exited {run['code']}"]
        else:
            run_problems = checks.same_outputs(out / f"run-{k}", first) if k else []
        problems += run_problems
        failed += bool(run_problems or wrong)
        if k and not run_problems:
            shutil.rmtree(out / f"run-{k}", ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]]
    record = {
        "workload": name, "seed": seed, "trace": trace, "env": res["env"],
        "attempted": len(runs), "failed": failed, "failed_frac": failed / len(runs),
        "problems": problems,
        "wall_s": spread([r["wall_s"] for r in untraced]),
        "cpu_s": spread([r["cpu_s"] for r in untraced]),
        "peak_rss_mb": res["peak_rss_mb"],
        "absent": res["absent"],
    }
    if res["setup_s"]:
        record["setup_s"] = spread(res["setup_s"])
    if trace:
        record["layers"] = spans.summarize(
            res["layers"], [r["wall_s"] for r in runs if r["traced"]],
            [r["wall_s"] for r in untraced],
        )
    (work / "record.json").write_text(json.dumps(record, indent=1))
    record["path"] = str(work.relative_to(ROOT))
    return record


def report(record: dict) -> dict:
    """Print a workload's figures by name and return its JSON metrics."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}"
          f"  record {record['path']}/record.json")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in record["env"].items()))
    for key in ("wall_s", "cpu_s", "setup_s"):
        if key in record:
            s = record[key]
            print(f"  {key:<12} {s['median']:.4f} s  (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
                  f"n={s['n']})")
    print(f"  {'peak_rss_mb':<12} {record['peak_rss_mb']:.1f} MB  (n=1 process)")
    print(f"  {'failed_frac':<12} {record['failed_frac']:g}  ({record['failed']} of "
          f"{record['attempted']} runs)")
    for problem in record["problems"][:10]:
        print(f"  CHECK FAILED: {problem}")
    if not record["trace"]:
        return {
            name: {"value": record[name]["median"] if name != "peak_rss_mb" else record[name],
                   "unit": unit}
            for name, unit in END_TO_END
        }
    layers = record["layers"]
    metrics = {}
    for name, unit in spans.PER_LAYER:
        metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
        print(f"  {name:<34} {metrics[name]['value']:.6g} {unit}"
              + ("" if name in layers else "  (absent: hooked function not found)"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be ≥ 0 and --seconds ≥ 1")
    if not (ROOT / "src" / "curveshap" / "cli.py").is_file():
        print(f"perfbench: no curveshap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in report(record).items()})
        result["attempted"] += record["attempted"]
        result["failed"] += record["failed"]
        result["correct"] &= not record["problems"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
