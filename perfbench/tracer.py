"""Spans around the calls into each ``wtal`` layer, recorded from outside.

Each public function is wrapped at the name its caller looks up: the
package binds most of them with ``from ... import``, so ``training.py``
calls ``wtal.training.attend`` and a wrapper on ``wtal.attention.attend``
alone would record nothing. A span is ``(name, start, end, parent)``; all
spans of one run share the tracer's run id. Spans stay in memory until
``write`` at the end of the run. ``numerics`` is not wrapped: its functions
take well under a microsecond, so a wrapper would mostly time itself.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

from wtal.detection import DetectConfig

DEFAULT_THRESHOLD = DetectConfig().threshold

# (module where the caller looks the name up, attribute, span name)
SPANNED = (
    ("wtal.cli", "generate_synthetic", "dataset.generate"),
    ("wtal.cli", "load_dataset", "dataset.load"),
    ("wtal.dataset", "decode_features", "dataset.decode"),
    ("wtal.training", "attend", "attention.attend"),
    ("wtal.training", "attention_grads", "attention.grads"),
    ("wtal.training", "classify", "classifier.classify"),
    ("wtal.training", "classifier_grads", "classifier.grads"),
    ("wtal.training", "transfer_loss", "transfer.loss"),
    ("wtal.training", "transfer_grads", "transfer.grads"),
    ("wtal.transfer", "median_bandwidth", "transfer.median_bandwidth"),
    ("wtal.transfer", "mmd2", "transfer.mmd2"),
    ("wtal.transfer", "mmd2_grad_u", "transfer.mmd2_grad_u"),
    ("wtal.cli", "train_source", "training.train_source"),
    ("wtal.cli", "train_target", "training.train_target"),
    ("wtal.training", "total_loss", "training.total_loss"),
    ("wtal.training", "sgd_step", "training.sgd_step"),
    ("wtal.training", "forward_video", "training.forward_video"),
    ("wtal.cli", "save_checkpoint", "training.checkpoint_save"),
    ("wtal.cli", "load_checkpoint", "training.checkpoint_load"),
    ("wtal.cli", "detect_split", "detection.detect_split"),
    ("wtal.cli", "predict_split", "detection.predict"),
    ("wtal.detection", "forward_video", "detection.forward"),
    ("wtal.detection", "fused_frame_scores", "detection.frame_scores"),
    ("wtal.detection", "extract_proposals", "detection.extract_proposals"),
    ("wtal.cli", "map_at_iou", "evaluation.map"),
    ("wtal.evaluation", "average_precision", "evaluation.ap"),
    ("wtal.cli", "emit_report", "evaluation.report"),
)
# called once per (detection, ground truth) pair: counted, not spanned
COUNTED = (("wtal.evaluation", "tiou", "evaluation.tiou_calls"),)


class Tracer:
    """In-memory span recorder that patches and later restores ``wtal``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.frame_max: list[float] = []          # per test video, fused
        self.proposals: list[int] = []            # per test video
        self.forwarded: set[int] = set()          # distinct feature matrices
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _observe(self, name: str, args, result) -> None:
        if name == "dataset.decode":
            self.counts["dataset.feature_bytes"] += len(args[0])
        elif name == "attention.attend":
            self.counts["attention.frames"] += args[0].n
        elif name == "detection.forward":
            self.forwarded.add(id(args[1]))
        elif name == "detection.frame_scores":
            self.frame_max.append(float(result.max()))
        elif name == "detection.extract_proposals":
            self.proposals.append(len(result))
        elif name == "evaluation.ap":
            self.counts["evaluation.gt_scans"] += len(args[0]) * len(args[1])

    def _spanned(self, fn, name: str):
        # ``span`` inlined: wrappers run ~100 000 times per traced pipeline
        spans, stack, observe = self.spans, self._stack, self._observe

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent)
                stack.pop()
            observe(name, args, result)
            return result
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, make(original, name))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """A header line, one ``[name, start, end, parent]`` line per span,
        then the per-video detection diagnostics."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "span_fields": ["name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"proposals_per_video": self.proposals,
                                 "max_frame_score_per_video": self.frame_max,
                                 "default_threshold": DEFAULT_THRESHOLD}) + "\n")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration, then put the originals back."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, threshold: float) -> dict[str, float]:
    """Per-layer counts, inclusive times ``*_s`` and self times ``*_self_s``."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_s[i]

    source_fwd = [end - start for name, start, end, parent in spans
                  if name == "training.forward_video"
                  and spans[parent][0] == "training.train_target"]
    steps: list[float] = []
    for i, (name, start, end, _) in enumerate(spans):
        if name.startswith("training.train_"):
            ends = [s[2] for s in spans if s[0] == "training.sgd_step" and s[3] == i]
            steps += [1000.0 * (b - a) for a, b in zip(ends, ends[1:])]
    # share of each train command that layer spans cover, i.e. the sum of
    # the layer self times inside it over its wall time
    coverage = [child_s[i] / (end - start) for i, (name, start, end, _) in enumerate(spans)
                if name == "cli.train"]

    m: dict[str, float] = {
        "dataset.generate_s": total["dataset.generate"],
        "dataset.load_calls": calls["dataset.load"],
        "dataset.load_s": total["dataset.load"],
        "dataset.decode_calls": calls["dataset.decode"],
        "dataset.decode_s": total["dataset.decode"],
        "dataset.feature_bytes": tracer.counts["dataset.feature_bytes"],
        "attention.attend_calls": calls["attention.attend"],
        "attention.attend_s": total["attention.attend"],
        "attention.frames": tracer.counts["attention.frames"],
        "attention.grads_calls": calls["attention.grads"],
        "attention.grads_s": total["attention.grads"],
        "classifier.classify_calls": calls["classifier.classify"],
        "classifier.classify_s": total["classifier.classify"],
        "classifier.grads_calls": calls["classifier.grads"],
        "classifier.grads_s": total["classifier.grads"],
        "transfer.loss_calls": calls["transfer.loss"],
        "transfer.loss_s": total["transfer.loss"],
        "transfer.grads_s": total["transfer.grads"],
        "transfer.median_bandwidth_calls": calls["transfer.median_bandwidth"],
        "transfer.median_bandwidth_s": total["transfer.median_bandwidth"],
        "transfer.mmd2_calls": calls["transfer.mmd2"],
        "transfer.mmd2_s": total["transfer.mmd2"],
        "transfer.mmd2_grad_u_calls": calls["transfer.mmd2_grad_u"],
        "transfer.mmd2_grad_u_s": total["transfer.mmd2_grad_u"],
        "training.total_loss_calls": calls["training.total_loss"],
        "training.total_loss_self_s": self_s["training.total_loss"],
        "training.sgd_step_s": total["training.sgd_step"],
        "training.source_forward_calls": len(source_fwd),
        "training.source_forward_s": sum(source_fwd),
        "training.loop_self_s": self_s["training.train_source"] + self_s["training.train_target"],
        "training.step_ms.p50": _percentile(steps, 0.50),
        "training.step_ms.p99": _percentile(steps, 0.99),
        "training.step_samples": len(steps),
        "training.checkpoint_save_s": total["training.checkpoint_save"],
        "training.checkpoint_load_s": total["training.checkpoint_load"],
        "detection.forward_calls": calls["detection.forward"],
        "detection.useful_forward_ratio":
            len(tracer.forwarded) / calls["detection.forward"] if calls["detection.forward"] else 0.0,
        "detection.frame_scores_s": total["detection.frame_scores"],
        "detection.extract_proposals_s": total["detection.extract_proposals"],
        "detection.proposals": sum(tracer.proposals),
        "detection.max_frame_score.p50": _percentile(tracer.frame_max, 0.50),
        "detection.threshold": threshold,
        "detection.videos_reaching_default_threshold":
            sum(v >= DEFAULT_THRESHOLD for v in tracer.frame_max),
        "detection.predict_s": total["detection.predict"],
        "evaluation.map_s": total["evaluation.map"],
        "evaluation.ap_calls": calls["evaluation.ap"],
        "evaluation.gt_scans": tracer.counts["evaluation.gt_scans"],
        "evaluation.tiou_calls": tracer.counts["evaluation.tiou_calls"],
        "evaluation.match_useful_ratio":
            tracer.counts["evaluation.tiou_calls"] / tracer.counts["evaluation.gt_scans"]
            if tracer.counts["evaluation.gt_scans"] else 0.0,
        "evaluation.report_s": total["evaluation.report"],
        "cli.synth_s": total["cli.synth"],
        "cli.train_s": total["cli.train"],
        "cli.detect_s": total["cli.detect"],
        "cli.eval_s": total["cli.eval"],
        "cli.self_s": sum(self_s[k] for k in self_s if k.startswith("cli.")),
        "trace.coverage": min(coverage) if coverage else 0.0,
    }
    return m


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if ".step_ms." in metric:
        return "ms"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "coverage", "overhead")):
        return "fraction"
    if metric in ("detection.max_frame_score.p50", "detection.threshold"):
        return "score"
    return "count"


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
