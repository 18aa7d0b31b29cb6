"""wtal benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload kt_default --seed 1 --seconds 35 --trace 0

Run from the repository root. ``--trace 0`` times the pipeline untraced
and prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced pipeline runs and prints the per-layer metrics. The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it records the environment and the artifact digests. See README.md.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3      # synth commands per untraced run
MIN_REPS = 3           # timed runs per untraced run, however short --seconds is

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pipeline_s": "s",
    "train_steps_per_s": "steps/s",
    "infer_videos_per_s": "videos/s",
    "accuracy_fused": "fraction",
    "map_iou0.5": "fraction",
    "map_avg": "fraction",
    "peak_rss_mb": "MiB",
    "stage_success_ratio": "fraction",
}


def _import_wtal() -> float:
    """Put ``src`` on the path and import the package; returns the time taken."""
    if not (ROOT / "src" / "wtal" / "cli.py").is_file():
        sys.exit(f"perfbench: {ROOT / 'src' / 'wtal'} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import wtal.cli  # noqa: F401
    return time.perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    git = None
    if (ROOT / ".git").exists():  # an exported checkout has no history
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                   cwd=ROOT, capture_output=True, text=True, timeout=30)
            if rev.returncode == 0:
                git = {"revision": rev.stdout.strip(), "dirty": bool(dirty.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "git": git, "seed": seed,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _more(done: int, min_done: int, started: float, seconds: float, last_s: float) -> bool:
    """Start another round while one more as long as the last would fit."""
    return done < min_done or time.perf_counter() - started + last_s <= seconds


def measure(wl, seed: int, seconds: float, import_s: float, work: Path) -> tuple[dict, list]:
    """Untraced runs: a full-length run on QUALITY_SEED, then set-up and short runs on ``seed``.

    ``synth`` makes the inputs, so it is timed as set-up: SETUP_SAMPLES
    datasets of ``seed``, the median counted. The short runs then repeat
    train, detect and eval on the first of them, with the reference work
    timed before each command. Their timings are means over the runs,
    scaled by REFERENCE_S over the mean reference time: a short command
    lands in a fast or a slow stretch of the host, a mean over many does not.
    """
    from pipeline import QUALITY_SEED, REFERENCE_S, check_repeats, run_pipeline, run_synth

    started = time.perf_counter()
    quality = run_pipeline(wl, QUALITY_SEED, work / "quality")
    synths = [run_synth(wl, seed, work / f"data{i}") for i in range(SETUP_SAMPLES)]
    reps = []
    if all(r.ok for r in synths):
        timed = wl.timed()
        while not reps or _more(len(reps), MIN_REPS, started, seconds, reps[-1].pipeline_s):
            reps.append(run_pipeline(timed, seed, work / f"rep{len(reps)}", data=work / "data0",
                                     reference=True))
    check_repeats(synths)
    check_repeats(reps)
    good = [r for r in reps if r.ok]
    scores = quality.quality or dict.fromkeys(("accuracy_fused", "map_iou0.5", "map_avg"), 0.0)
    values = {"pipeline_s": 0.0, "train_steps_per_s": 0.0, "infer_videos_per_s": 0.0}
    if good:
        # seconds at the host speed where the reference takes REFERENCE_S
        scale = REFERENCE_S / statistics.fmean(t for r in good for t in r.reference_s)
        steps = 2 * wl.timed_iterations * sum(s.startswith("train") for s in wl.stages)
        values = {
            "pipeline_s": scale * statistics.fmean(r.pipeline_s for r in good),
            "train_steps_per_s": steps / (scale * statistics.fmean(r.train_s for r in good)),
            "infer_videos_per_s":
                wl.test_videos / (scale * statistics.fmean(r.infer_s for r in good)),
        }
    reps = [quality] + synths + reps
    attempted = sum(r.attempted for r in reps)
    values.update({
        "setup_s": import_s + statistics.median(r.stage_s["synth"] for r in synths),
        **scores,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stage_success_ratio": (attempted - sum(len(r.failed) for r in reps)) / attempted,
    })
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}, reps


def measure_traced(wl, seed: int, seconds: float, import_s: float, work: Path,
                   run_id: str) -> tuple[dict, list, object]:
    """Alternate untraced and traced runs on ``seed``; medians of each."""
    from pipeline import check_repeats, run_pipeline
    from tracer import Tracer, installed, layer_metrics, median_metrics, unit_of

    started = time.perf_counter()
    plain, traced, samples, tracer = [], [], [], None
    while not traced or _more(len(traced), 1, started, seconds,
                              plain[-1].pipeline_s + traced[-1].pipeline_s):
        plain.append(run_pipeline(wl, seed, work / f"plain{len(plain)}"))
        tracer = Tracer(run_id)
        with installed(tracer):
            traced.append(run_pipeline(wl, seed, work / f"traced{len(traced)}", tracer))
        if traced[-1].ok:
            samples.append(layer_metrics(tracer, float(wl.detect.get("threshold", 0.2))))
    reps = plain + traced
    check_repeats(reps)
    good_plain = [r.pipeline_s for r in plain if r.ok]
    good_traced = [r.pipeline_s for r in traced if r.ok]
    metrics = median_metrics(samples) if samples else {}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead"] = (statistics.median(good_traced) / statistics.median(good_plain)
                                 - 1.0 if good_plain and good_traced else 0.0)
    if metrics.get("trace.coverage", 0.0) < 0.9:
        print(f"perfbench: WARNING trace.coverage {metrics.get('trace.coverage')} < 0.9 "
              "on a train command", file=sys.stderr)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}, reps, tracer


def main(argv=None, workloads=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = _import_wtal()

    from pipeline import WORKLOADS
    from tracer import Tracer

    workloads = workloads or WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    out = OUT / run_id
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work = out / "work"

    tracer: Tracer | None = None
    if args.trace:
        metrics, reps, tracer = measure_traced(wl, args.seed, args.seconds, import_s, work, run_id)
    else:
        metrics, reps = measure(wl, args.seed, args.seconds, import_s, work)
    shutil.rmtree(work, ignore_errors=True)

    record = {"env": environment(args.seed), "workload": wl.name,
              "runs": [{"seed": r.seed, "stages_s": r.stage_s, "reference_s": r.reference_s,
                        "failed": r.failed,
                        "digests": r.digests, "quality": r.quality} for r in reps]}
    (out / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(out / "trace.jsonl")
    failed = sum(len(r.failed) for r in reps)
    result = {"correct": failed == 0, "attempted": sum(r.attempted for r in reps),
              "failed": failed, "metrics": metrics}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
