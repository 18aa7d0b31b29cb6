"""The benchmark's workloads and one pipeline run through ``wtal.cli.main``.

A pipeline run ("rep") is the user's command sequence, in-process:
``synth`` -> ``train --role source`` (transfer workloads only) ->
``train --role target`` -> ``detect`` -> ``eval``. A timed rep reuses a
dataset made by ``run_synth`` and starts at ``train``. Each stage is timed
on its own; the correctness gate runs after the last stage, outside every
timed span, and hashes each artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from wtal import cli
from wtal.dataset import SyntheticSpec
from wtal.training import CSV_HEADER, load_checkpoint

# Quality is scored on this seed in every run, whatever --seed is: across
# seeds, mAP at these training lengths moves by up to a factor of two
# (plain_long at 600 iterations: 0.15 to 0.36 over seeds 0-3), far wider
# than any useful bound, while on one seed it is exact. 0 is the criterion-5
# and criterion-8 seed.
QUALITY_SEED = 0

STREAMS = ("rgb", "flow")


@dataclass(frozen=True)
class Workload:
    """One set of pipeline inputs; every value is a CLI override string.

    ``train["iterations"]`` is the length of the quality and traced runs;
    ``timed_iterations`` is the length of the short runs that are timed.
    """

    name: str
    synth: dict[str, str]
    train: dict[str, str]
    transfer: bool
    detect: dict[str, str] = field(default_factory=dict)
    timed_iterations: int = 50

    @property
    def iterations(self) -> int:
        return int(self.train["iterations"])

    @property
    def test_videos(self) -> int:
        return int(self.synth.get("target_test", SyntheticSpec().target_test))

    @property
    def stages(self) -> tuple[str, ...]:
        train = ("train_source", "train_target") if self.transfer else ("train_target",)
        return ("synth",) + train + ("detect", "eval")

    def timed(self) -> "Workload":
        """The same inputs with ``timed_iterations`` training iterations."""
        return replace(self, train={**self.train, "iterations": str(self.timed_iterations)})


# Learning rates are ten times the defaults and iteration counts a thirtieth
# of the default 6000, so that seed 0 reaches a non-zero mAP within a few
# seconds. Per-step cost depends on neither, so the timed runs train for
# only ``timed_iterations`` and a measurement averages many of them.
# Workload reasons are in BENCHMARK.json and README.md.
_FAST_SCHEDULE = {"lr_rgb": "0.001", "lr_flow": "0.005"}

WORKLOADS = {
    "kt_default": Workload(
        name="kt_default",
        synth={},
        train={"iterations": "200", **_FAST_SCHEDULE},
        transfer=True,
    ),
    "plain_long": Workload(
        name="plain_long",
        synth={"frames": "[150,250]"},
        train={"iterations": "200", **_FAST_SCHEDULE},
        transfer=False,
        # The default threshold 0.2 yields no proposal on videos this long
        # (softmax weights sum to 1), which makes mAP 0 and useless as a
        # gate. 0.02 is the default scaled by the mean-length ratio 20/200;
        # the traced run still reports the default threshold's outcome.
        detect={"threshold": "0.02"},
    ),
    "infer_many": Workload(
        name="infer_many",
        synth={"target_test": "1000", "target_train": "200", "source_per_class": "1"},
        train={"iterations": "200", **_FAST_SCHEDULE},
        transfer=False,
        timed_iterations=25,
    ),
}


@dataclass
class Rep:
    """Timings, checks and artifact digests of one pipeline run."""

    seed: int
    stage_s: dict[str, float] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    reference_s: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.stage_s)

    @property
    def ok(self) -> bool:
        return not self.failed

    @property
    def pipeline_s(self) -> float:
        """Train start to eval report written; synth makes the inputs."""
        return sum(v for k, v in self.stage_s.items() if k != "synth")

    @property
    def train_s(self) -> float:
        return sum(v for k, v in self.stage_s.items() if k.startswith("train"))

    @property
    def infer_s(self) -> float:
        return self.stage_s["detect"] + self.stage_s["eval"]


def _flags(section: str, values: dict[str, str]) -> list[str]:
    out = []
    for key, value in values.items():
        out += [f"--{section}.{key}", value]
    return out


def stage_argv(wl: Workload, stage: str, seed: int, work: Path, data: Path) -> list[str]:
    data, models = str(data), str(work / "models")
    train = _flags("train", {**wl.train, "seed": str(seed)})
    if stage == "synth":
        return ["synth", "--out", data] + _flags("synth", {**wl.synth, "seed": str(seed)})
    if stage == "train_source":
        return ["train", "--role", "source", "--data", data, "--out", models] + train
    if stage == "train_target":
        if wl.transfer:
            train += ["--source-rgb", f"{models}/source_rgb.ckpt",
                      "--source-flow", f"{models}/source_flow.ckpt"]
        else:
            train += ["--transfer.enabled", "false"]
        return ["train", "--role", "target", "--data", data, "--out", models] + train
    if stage == "detect":
        return ["detect", "--ckpt-rgb", f"{models}/target_rgb.ckpt",
                "--ckpt-flow", f"{models}/target_flow.ckpt", "--data", data,
                "--out", str(work / "detections.json")] + _flags("detect", wl.detect)
    if stage == "eval":
        return ["eval", "--detections", str(work / "detections.json"),
                "--predictions", str(work / "detections.predictions.json"),
                "--data", data, "--out", str(work / "report.json")]
    raise ValueError(f"unknown stage {stage!r}")


# The reference: a fixed piece of work in the shape of the program's hot
# loop (small matrix products, tanh, softmax and a backward pass over one
# 20-frame video), timed before every command of a timed run. The test VM's
# speed swings by 1.6x within seconds and drifts by 20% over minutes, and the
# reference slows with it; timings are reported at the speed where it takes
# REFERENCE_S on average. It is this file's own code, so a change to
# ``wtal`` never moves it.
REFERENCE_S = 0.028  # its mean on the 2-core test VM
_REF_ROUNDS = 800
_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((20, 64))
_REF_W = _REF_RNG.standard_normal((64, 32))
_REF_V = _REF_RNG.standard_normal(32)


def reference_s() -> float:
    """Wall time of one pass of the reference work."""
    t0 = time.perf_counter()
    for _ in range(_REF_ROUNDS):
        h = np.tanh(_REF_X @ _REF_W)
        s = h @ _REF_V
        e = np.exp(s - s.max())
        a = e / e.sum()
        _REF_X.T @ (np.outer(a, _REF_V) * (1.0 - h * h))
    return time.perf_counter() - t0


def run_stage(argv: list[str]) -> bool:
    """One CLI command; its resolved-config line is swallowed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0
    except Exception:  # a stage that raises is counted failed, the run goes on
        traceback.print_exc()
        return False


def run_pipeline(wl: Workload, seed: int, work: Path, tracer=None, data: Path | None = None,
                 reference: bool = False) -> Rep:
    """Run every stage in order, then gate the outputs; stops at a failure.

    With ``data``, the run reuses that dataset of ``seed`` and skips synth.
    With ``reference``, the reference work is timed before each stage.
    ``work`` must not exist yet; callers delete it after the last timed
    command, so no deletion runs between timed commands.
    """
    work.mkdir(parents=True)
    rep = Rep(seed=seed)
    stages = wl.stages if data is None else wl.stages[1:]
    data = work / "data" if data is None else data
    for stage in stages:
        argv = stage_argv(wl, stage, seed, work, data)
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        if reference:
            rep.reference_s.append(reference_s())
        t0 = time.perf_counter()
        with span:
            ok = run_stage(argv)
        rep.stage_s[stage] = time.perf_counter() - t0
        if not ok:
            rep.failed.append(stage)
            break
    if rep.ok:
        try:
            check_outputs(wl, work, data, rep)
        except Exception as exc:  # noqa: BLE001 - a malformed artifact fails the gate
            traceback.print_exc()
            _check(rep, "eval", False, f"outputs unreadable: {exc!r}")
    return rep


def run_synth(wl: Workload, seed: int, data: Path) -> Rep:
    """One ``synth`` command into ``data``, checked and hashed like a run's."""
    rep = Rep(seed=seed)
    t0 = time.perf_counter()
    ok = run_stage(stage_argv(wl, "synth", seed, data.parent, data))
    rep.stage_s["synth"] = time.perf_counter() - t0
    if not ok:
        rep.failed.append("synth")
    else:
        try:
            check_dataset(wl, data, rep)
        except Exception as exc:  # noqa: BLE001 - a malformed artifact fails the gate
            traceback.print_exc()
            _check(rep, "synth", False, f"dataset unreadable: {exc!r}")
    return rep


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + bytes.fromhex(_sha256(path)))
    return h.hexdigest()


def _check(rep: Rep, stage: str, ok: bool, what: str) -> None:
    if not ok:
        print(f"perfbench: {stage} check failed: {what}", flush=True, file=sys.stderr)
        if stage not in rep.failed:
            rep.failed.append(stage)


def _test_split(data: Path) -> tuple[int, dict]:
    manifest = json.loads((data / "manifest.json").read_text())
    return (len(manifest["classes"]),
            {v["id"]: v for v in manifest["videos"] if v["split"] == "test"})


def check_dataset(wl: Workload, data: Path, rep: Rep) -> None:
    _, test = _test_split(data)
    _check(rep, "synth", len(test) == wl.test_videos, "test split size")
    rep.digests["synth:data"] = _tree_sha256(data)


def check_outputs(wl: Workload, work: Path, data: Path, rep: Rep) -> None:
    """The correctness gate; each failed check marks its stage failed."""
    if "synth" in rep.stage_s:
        check_dataset(wl, data, rep)
    n_classes, test = _test_split(data)

    models = work / "models"
    for stage in wl.stages:
        if not stage.startswith("train"):
            continue
        role = stage.split("_")[1]
        for stream in STREAMS:
            ckpt = models / f"{role}_{stream}.ckpt"
            try:
                model, _, iteration = load_checkpoint(ckpt)
                loaded = (iteration == wl.iterations and model.role == role
                          and model.stream.value == stream)
            except Exception as exc:  # noqa: BLE001 - any load failure fails the gate
                loaded = False
                print(f"perfbench: {ckpt.name}: {exc!r}", file=sys.stderr)
            _check(rep, stage, loaded, f"{ckpt.name} does not load back")
            lines = (models / f"{role}_{stream}_loss.csv").read_text().splitlines()
            values = [float(v) for row in lines[1:] for v in row.split(",")[1:]]
            _check(rep, stage, lines[0] == CSV_HEADER and len(lines) == wl.iterations + 1
                   and all(math.isfinite(v) for v in values),
                   f"{role}_{stream}_loss.csv malformed or non-finite")
            rep.digests[f"{stage}:{ckpt.name}"] = _sha256(ckpt)
            rep.digests[f"{stage}:{role}_{stream}_loss.csv"] = _sha256(
                models / f"{role}_{stream}_loss.csv")

    detections = json.loads((work / "detections.json").read_text())
    predictions = json.loads((work / "detections.predictions.json").read_text())
    bad = [d for d in detections if not (
        d["video_id"] in test and isinstance(d["class"], int)
        and 0 <= d["class"] < n_classes and math.isfinite(d["confidence"])
        and 0.0 <= d["t_start"] < d["t_end"]
        <= test[d["video_id"]]["n"] / test[d["video_id"]]["fps"])]
    _check(rep, "detect", not bad, f"{len(bad)} invalid detections, first {bad[:1]}")
    _check(rep, "detect", sorted(p["video_id"] for p in predictions) == sorted(test),
           "predictions do not cover the test split once each")
    for name in ("detections.json", "detections.predictions.json"):
        rep.digests[f"detect:{name}"] = _sha256(work / name)

    report = json.loads((work / "report.json").read_text())
    maps = report["map_per_threshold"] + [report["average_map"]]
    _check(rep, "eval", all(0.0 <= m <= 1.0 for m in maps), f"mAP outside [0, 1]: {maps}")
    correct = sum(int(np.argmax(p["probs_fused"])) in test[p["video_id"]]["labels"]
                  for p in predictions)
    _check(rep, "eval", report["accuracy"]["fused"] == correct / len(test),
           "fused accuracy disagrees with the predictions file")
    for name in ("report.json", "report.csv", "report.svg"):
        rep.digests[f"eval:{name}"] = _sha256(work / name)
    at_half = [m for t, m in zip(report["thresholds"], report["map_per_threshold"])
               if abs(t - 0.5) < 1e-9]
    _check(rep, "eval", len(at_half) == 1, "threshold grid lacks tIoU 0.5")
    rep.quality = {"accuracy_fused": report["accuracy"]["fused"],
                   "map_iou0.5": at_half[0] if at_half else 0.0,
                   "map_avg": report["average_map"]}


def check_repeats(reps: list[Rep]) -> None:
    """Reps on the same seed must leave byte-identical artifacts.

    Digests are keyed ``<stage>:<artifact>``; a mismatch fails that stage.
    """
    first: dict[int, Rep] = {}
    for rep in reps:
        if not rep.ok:
            continue
        ref = first.setdefault(rep.seed, rep)
        for key, digest in rep.digests.items():
            if ref.digests.get(key) != digest:
                _check(rep, key.split(":")[0], False,
                       f"{key} differs from an identical earlier run")
