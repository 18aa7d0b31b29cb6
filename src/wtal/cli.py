"""Command-line entry point.

Subcommands: synth | train | gradcheck | detect | eval | ablate.

Configuration is a JSON document with sections synth / train / transfer /
kernel / detect; every key has a CLI override flag named --<section>.<key>
(the mapping is one-to-one), and unknown sections or keys are rejected.
Each run prints its fully-resolved configuration to stdout. Artifacts are
written atomically (temp file + rename) and removed if the command fails
partway, so a nonzero exit never leaves partial outputs behind.

Exit codes: 0 ok, 1 runtime error (JSON error object on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import (STREAMS, Stream, SyntheticSpec, generate_synthetic, load_dataset,
                      load_manifest)
from .detection import DetectConfig, detect_split, predict_split
from .errors import ConfigError, InputError, WtalError
from .evaluation import (accuracy_from_predictions, emit_report,
                         ground_truth_instances, instances_from_detections,
                         map_at_iou)
from .training import (TrainConfig, certify_gradients, load_checkpoint,
                       save_checkpoint, train_source, train_target)
from .transfer import KernelConfig, TransferConfig

GRADCHECK_TOLERANCE = 1e-5

_SECTION_CLASSES = {
    "synth": SyntheticSpec,
    "train": TrainConfig,
    "transfer": TransferConfig,
    "kernel": KernelConfig,
    "detect": DetectConfig,
}
# transfer/kernel live in their own sections, not under train
_TRAIN_NESTED = {"transfer", "kernel"}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    synth: SyntheticSpec
    train: TrainConfig
    detect: DetectConfig


def _section_fields(section: str) -> dict[str, dataclasses.Field]:
    cls = _SECTION_CLASSES[section]
    return {f.name: f for f in dataclasses.fields(cls)
            if not (section == "train" and f.name in _TRAIN_NESTED)}


def _default_value(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    return f.default_factory()


def _coerce(section: str, key: str, value, from_cli: bool):
    """Bring a config value to the field's natural type.

    CLI values arrive as strings and are parsed as JSON when possible, so
    booleans/numbers/lists work; bare words fall back to strings.
    """
    if from_cli:
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            pass
    default = _default_value(_section_fields(section)[key])
    where = f"{section}.{key}"
    if isinstance(value, list):
        return tuple(value)
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{where} expects true/false, got {value!r}")
        return value
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} expects an integer, got {value!r}")
        if float(value) != int(value):
            raise ConfigError(f"{where} expects an integer, got {value!r}")
        return int(value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where} expects a number, got {value!r}")
        return float(value)
    return value


def resolve_config(config_path: str | None,
                   overrides: dict[str, str]) -> tuple[RunConfig, dict]:
    """Defaults <- config file <- CLI flags; returns the built config and
    the fully-resolved document for logging."""
    doc = {section: {name: _default_value(f) for name, f in _section_fields(section).items()}
           for section in _SECTION_CLASSES}
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must be a JSON object of sections")
        for section, body in loaded.items():
            if section not in _SECTION_CLASSES:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(body, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, value in body.items():
                if key not in doc[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
                doc[section][key] = _coerce(section, key, value, from_cli=False)
    for dotted, raw in overrides.items():
        section, key = dotted.split(".", 1)
        doc[section][key] = _coerce(section, key, raw, from_cli=True)

    synth = SyntheticSpec(**doc["synth"])
    train = TrainConfig(transfer=TransferConfig(**doc["transfer"]),
                        kernel=KernelConfig(**doc["kernel"]), **doc["train"])
    train.validate()
    detect = DetectConfig(**doc["detect"])
    return RunConfig(synth=synth, train=train, detect=detect), doc


def _log_resolved(command: str, doc: dict) -> None:
    print(json.dumps({"command": command, "config": doc}, sort_keys=True,
                     default=list))


# ---------------------------------------------------------------------------
# atomic artifact writing
# ---------------------------------------------------------------------------


class _Outputs:
    """Tracks files created by one command so failures can remove them;
    as a context manager, it removes them when the block raises."""

    def __init__(self):
        self.created: list[Path] = []

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is not None:
            self.discard_all()

    def write(self, path: Path, fill: Callable[[Path], object]) -> None:
        """``fill(tmp)`` writes a sibling temp file, which then replaces ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (path.name + ".tmp")
        try:
            fill(tmp)
            tmp.replace(path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.created.append(path)

    def discard_all(self) -> None:
        for path in self.created:
            path.unlink(missing_ok=True)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"{what} file is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands: each is handler(args, run_cfg, outputs), with the resolved
# config (None for gradcheck) and the command's _Outputs
# ---------------------------------------------------------------------------


def _cmd_synth(args, run_cfg: RunConfig, _outputs: _Outputs) -> int:
    out = Path(args.out)
    partial = out.parent / (out.name + ".partial")
    if partial.exists():
        shutil.rmtree(partial)
    try:
        generate_synthetic(run_cfg.synth, partial)
        if out.exists():
            shutil.rmtree(out)
        partial.replace(out)
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    return 0


def _cmd_train(args, run_cfg: RunConfig, outputs: _Outputs) -> int:
    cfg = run_cfg.train
    # a target run loads and checks both source models before any stream trains
    sources = dict.fromkeys(STREAMS)
    if args.role == "target" and cfg.transfer.enabled:
        paths = {Stream.RGB: args.source_rgb, Stream.FLOW: args.source_flow}
        if None in paths.values():
            raise ConfigError("transfer is enabled: pass --source-rgb and --source-flow")
        for stream, path in paths.items():
            sources[stream], _, _ = load_checkpoint(path)
            if sources[stream].stream != stream:
                raise ConfigError(f"--source-{stream.value} holds a source model "
                                  f"of the other stream ({sources[stream].stream.value})")
    data = load_dataset(args.data)
    outdir = Path(args.out)
    for stream in STREAMS:
        if args.role == "source":
            model, rows = train_source(data, stream, cfg)
        else:
            model, rows = train_target(data, stream, cfg, sources[stream])
        outputs.write(outdir / f"{args.role}_{stream.value}.ckpt",
                      lambda tmp: save_checkpoint(model, cfg, cfg.iterations, tmp))
        outputs.write(outdir / f"{args.role}_{stream.value}_loss.csv",
                      lambda tmp: tmp.write_text("\n".join(rows) + "\n"))
    return 0


def _cmd_gradcheck(args, *_) -> int:
    errors = certify_gradients(seed=args.seed)
    worst = max(errors.values())
    for name in sorted(errors):
        print(f"{name}: max relative error {errors[name]:.3e}")
    ok = worst < GRADCHECK_TOLERANCE
    print(f"worst: {worst:.3e} ({'ok' if ok else 'FAIL'} at {GRADCHECK_TOLERANCE:.0e})")
    return 0 if ok else 1


def _cmd_detect(args, run_cfg: RunConfig, outputs: _Outputs) -> int:
    model_rgb, _, _ = load_checkpoint(args.ckpt_rgb)
    model_flow, _, _ = load_checkpoint(args.ckpt_flow)
    if model_rgb.stream != Stream.RGB or model_flow.stream != Stream.FLOW:
        raise ConfigError("checkpoints passed to the wrong stream flags")
    n_rgb, n_flow = model_rgb.classifier.n_classes, model_flow.classifier.n_classes
    if n_rgb != n_flow:
        raise ConfigError(f"RGB checkpoint has {n_rgb} classes, flow checkpoint has {n_flow}")
    data = load_dataset(args.data)
    if n_rgb != data.n_classes:
        raise ConfigError(f"checkpoints have {n_rgb} classes, dataset has {data.n_classes}")
    predictions, scores = predict_split(data, args.split, model_rgb, model_flow)
    detections = detect_split(data, args.split, scores, run_cfg.detect)
    out = Path(args.out)
    outputs.write(out, lambda tmp: tmp.write_text(_json_text(detections)))
    outputs.write(_predictions_path(out),
                  lambda tmp: tmp.write_text(_json_text(predictions)))
    return 0


def _predictions_path(detections_path: Path) -> Path:
    return detections_path.parent / (detections_path.stem + ".predictions.json")


def parse_thresholds(text: str) -> tuple[float, ...]:
    """"0.1:0.9:0.1" is an inclusive grid; "0.5,0.75,0.95" a literal list."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError("empty grid")
            count = int(round((stop - start) / step)) + 1
            vals = tuple(round(start + i * step, 10) for i in range(count))
        else:
            vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad threshold spec {text!r}: {exc}") from exc
    if not vals or any(not (0.0 < v <= 1.0) for v in vals):
        raise ConfigError(f"thresholds must lie in (0, 1]: {text!r}")
    return vals


def _cmd_eval(args, _run_cfg: RunConfig, outputs: _Outputs) -> int:
    # scoring needs the annotations only, not the feature files
    manifest = load_manifest(Path(args.data) / "manifest.json")
    detections = _read_json(args.detections, "detections")
    if not isinstance(detections, list):
        raise InputError("detections file must be a JSON array")
    instances = instances_from_detections(detections)
    gt = ground_truth_instances(manifest, args.split)
    thresholds = parse_thresholds(args.thresholds)
    acc = None
    if args.predictions is not None:
        predictions = _read_json(args.predictions, "predictions")
        if not isinstance(predictions, list):
            raise InputError("predictions file must be a JSON array")
        acc = accuracy_from_predictions(predictions, manifest, args.split)
    report = map_at_iou(instances, gt, thresholds, acc)
    emit_report(report, manifest.class_names, Path(args.out), outputs.write)
    return 0


ABLATION_ARMS = (
    # (name, attention enabled, transfer enabled)
    ("baseline", False, False),
    ("sa", True, False),
    ("kt", False, True),
    ("sa_kt", True, True),
)


def run_ablation(data, cfg: TrainConfig, dcfg: DetectConfig,
                 iou_thr: float = 0.5, split: str = "test") -> list[dict]:
    """Train and score the four arms (attention/transfer on/off) once."""
    rows = []
    for name, att_on, kt_on in ABLATION_ARMS:
        arm_cfg = dataclasses.replace(
            cfg, attention_enabled=att_on,
            transfer=dataclasses.replace(cfg.transfer, enabled=kt_on))
        models = {}
        for stream in STREAMS:
            source_model = None
            if kt_on:
                source_model, _ = train_source(data, stream, arm_cfg)
            models[stream], _ = train_target(data, stream, arm_cfg, source_model)
        predictions, scores = predict_split(data, split, models[Stream.RGB],
                                            models[Stream.FLOW])
        detections = detect_split(data, split, scores, dcfg)
        acc = accuracy_from_predictions(predictions, data.manifest, split)
        report = map_at_iou(instances_from_detections(detections),
                            ground_truth_instances(data.manifest, split),
                            (iou_thr,), acc)
        rows.append({"arm": name, "accuracy": acc["fused"],
                     "map": report.map_per_threshold[0]})
    return rows


def _cmd_ablate(args, run_cfg: RunConfig, outputs: _Outputs) -> int:
    data = load_dataset(args.data)
    rows = run_ablation(data, run_cfg.train, run_cfg.detect, args.iou, args.split)
    lines = ["arm,accuracy,mAP@" + repr(args.iou)]
    lines += [f"{r['arm']},{r['accuracy']!r},{r['map']!r}" for r in rows]
    outputs.write(Path(args.out), lambda tmp: tmp.write_text("\n".join(lines) + "\n"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON config file (sections: %s)"
                        % ", ".join(_SECTION_CLASSES))
    for section in _SECTION_CLASSES:
        for name, f in _section_fields(section).items():
            flag = f"--{section}.{name}"
            parser.add_argument(flag, dest=flag[2:], metavar="V", default=None,
                                help=f"override {section}.{name} "
                                     f"(default {_default_value(f)!r})")


def _overrides(args) -> dict[str, str]:
    return {k: v for k, v in vars(args).items() if "." in k and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtal",
        description="Weakly-supervised temporal action localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train source or target models")
    p.add_argument("--role", required=True, choices=("source", "target"))
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for <role>_<stream>.ckpt and loss CSVs")
    p.add_argument("--source-rgb", metavar="CKPT", default=None,
                   help="source checkpoint for transfer (target role)")
    p.add_argument("--source-flow", metavar="CKPT", default=None)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gradcheck",
                       help="certify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("detect", help="extract temporal proposals")
    p.add_argument("--ckpt-rgb", required=True, metavar="CKPT")
    p.add_argument("--ckpt-flow", required=True, metavar="CKPT")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, metavar="detections.json")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, metavar="JSON")
    p.add_argument("--predictions", default=None, metavar="JSON",
                   help="classification records for accuracy (detect emits them)")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--thresholds", default="0.1:0.9:0.1",
                   help="start:stop:step grid or comma list")
    p.add_argument("--out", required=True, metavar="report.json")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate",
                       help="train and score the four attention/transfer arms")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", required=True, metavar="CSV")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run_cfg = None
        if hasattr(args, "config"):     # every command but gradcheck
            run_cfg, doc = resolve_config(args.config, _overrides(args))
            _log_resolved(args.command, doc)
        with _Outputs() as outputs:
            return args.func(args, run_cfg, outputs)
    except (WtalError, OSError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
