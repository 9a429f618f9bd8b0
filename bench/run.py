"""Benchmark of aspill's run_pipeline on three seeded workloads.

    python3 bench/run.py --workload roll-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

Run from the repository root. The seed generates the workload's input CSV;
the program only sees that file. Each run of aspill.pipeline.run_pipeline
happens in a fresh child process, one after another (a closed loop with one
client), with OPENBLAS/OMP/MKL threads pinned to 1, until --seconds have
passed. With --trace 0 the end-to-end metrics are reported; with --trace 1
each run is followed by a traced run that wraps the public functions of every
module, and the per-layer metrics are reported. Every run's outputs are
checked; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count pipeline runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
import verify
from workloads import WORKLOADS, Workload, write_input

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

RUN_SECONDS = 30
MIN_RUNS = 3
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "ratio", "higher", 0.0001),
)


def spec() -> dict:
    """The BENCHMARK.json this benchmark implements."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"} for name, unit in layers.metric_units().items()
        ],
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def run_child(mode: str, *extra: str) -> dict:
    """Run child.py in a fresh interpreter; its last stdout line, or an error record."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), mode, str(SRC), *extra],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    src_lines = sum(
        1 for path in (SRC / "aspill").rglob("*.py") for line in path.read_text(encoding="utf-8").splitlines() if line.strip()
    )
    return {
        "git_sha": sha,
        "src_lines": src_lines,
        "threads": {var: "1" for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def time_imports() -> list[float]:
    """`import aspill.cli` times in fresh interpreters.

    The first sample also writes the bytecode caches, which users pay once,
    so it is dropped.
    """
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        record = run_child("import")
        if "error" in record:
            raise RuntimeError(record["error"])
        samples.append(record["import_s"])
    return samples[1:]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> tuple[dict, dict]:
    """Run the closed loop for `seconds`, check the outputs, derive the metrics."""
    input_path, out_dir, spans_path = work / "input.csv", work / "out", work / "spans.json"
    write_input(input_path, workload, seed, smoke)
    cfg = workload.run_config(input_path, out_dir)
    jobs = {traced: work / f"job_{int(traced)}.json" for traced in (False, True)}
    for traced, path in jobs.items():
        job = {"config": cfg, "spans": str(spans_path) if traced else None}
        path.write_text(json.dumps(job), encoding="utf-8")
    import_s = [] if trace else time_imports()

    def one_run(traced: bool) -> dict:
        shutil.rmtree(out_dir, ignore_errors=True)
        record = run_child("run", str(jobs[traced]))
        record["traced"] = traced
        if record.get("error") is None:
            record["digest"] = verify.tree_digest(out_dir)
            if traced:
                record["layers"] = layers.aggregate(spans_path)
        return record

    runs: list[dict] = []
    deadline = time.perf_counter() + seconds
    while True:
        runs.append(one_run(False))
        if trace:
            runs.append(one_run(True))
        timed = sum(not r["traced"] for r in runs)
        if timed >= (1 if trace else MIN_RUNS) and time.perf_counter() >= deadline:
            break

    # A run counts only if it finished and wrote the same tree as the last run.
    problems = [r["error"] for r in runs if r.get("error")]
    reference = runs[-1].get("digest")
    for record in runs:
        record["ok"] = "digest" in record and record["digest"] == reference
    if any("digest" in r and not r["ok"] for r in runs):
        problems.append("runs of one input wrote different output trees")
    ok = [r for r in runs if r["ok"]]
    if not ok:
        raise RuntimeError("no run completed: " + "; ".join(problems))
    problems += verify.check(workload, smoke, cfg, out_dir)

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    per_run = verify.operations(manifest)
    # A failed run counts every side as attempted and failed.
    attempted_ops = per_run[0] * len(ok) + len(cfg["sides"]) * (len(runs) - len(ok))
    failed_ops = per_run[1] * len(ok) + len(cfg["sides"]) * (len(runs) - len(ok))

    untraced = [r["run_s"] for r in ok if not r["traced"]]
    if trace:
        traced = [r for r in ok if r["traced"]]
        if not traced or not untraced:
            raise RuntimeError("no traced and untraced pair of runs completed: " + "; ".join(problems))
        metrics = {
            f"{name}.{suffix}": (statistics.median_low if unit == "count" else median)(
                [r["layers"][name][suffix] for r in traced]
            )
            for name in layers.span_names()
            for suffix, unit in layers.FIELDS
        }
        windows = sum(s.get("rolling", {}).get("windows", 0) for s in manifest["sides"].values())
        busy = metrics["rolling.rolling_tables.busy_s"]
        metrics["rolling.ms_per_window"] = 1000.0 * busy / windows if windows else 0.0
        metrics["trace.overhead_s"] = median([r["run_s"] for r in traced]) - median(untraced)
        units = layers.metric_units()
    else:
        metrics = {
            "setup_s": median(import_s),
            "run_s": median(untraced),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
            "ok_share": 1.0 - failed_ops / attempted_ops,
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}

    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "setup_samples": import_s,
        "run_s_samples": untraced,
        "traced_runs": sum(r["traced"] for r in runs),
        "failed_share": failed_ops / attempted_ops,
        "operations": {"attempted": attempted_ops, "failed": failed_ops},
        "problems": problems,
        **machine_info(),
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "aspill" / "pipeline.py").is_file():
        print(f"error: no aspill sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result, info = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke, work)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for problem in info["problems"]:
        print(f"check failed: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_share (gap windows and failed sides)':48s} {info['failed_share']:.6g} ratio")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
