"""Command-line entry point.

Subcommands: synth | train | gradcheck | detect | eval | ablate.

Configuration is a JSON document with sections synth / train / transfer /
kernel / detect; every key has a CLI override flag named --<section>.<key>
(the mapping is one-to-one), and unknown sections or keys are rejected.
Every command builds, and so checks, every section, also those it does
not use, and prints the resolved configuration to stdout. Each input file
goes through dataset.read_file, so its errors name it; a --split without
videos fails before any feature, detections or predictions file is read or
any model trains. Artifacts are written atomically (temp file + rename) and
removed if the command fails partway, so a nonzero exit leaves none behind.

``train`` and ``ablate`` fit the two streams side by side, since the RGB and
flow models share nothing until detection fuses them: ``training.run_streams``
runs RGB here and flow in one forked child, and the command writes its files
only after both are back. ``ablate`` reads the scored split of both streams
before it forks; each process then trains and scores every arm, and the
child sends back only the scores. A lone ``detect``, which has not loaded
multiprocessing, runs its two forward passes one after the other. Results
are those of running one stream after the other, bit for bit; an RGB error
is raised before a flow error, and no process outlives the command.

Exit codes: 0 ok, 1 runtime error (JSON error object on stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import (STREAMS, Stream, SyntheticSpec, config_value, field_default,
                      generate_synthetic, is_json, json_text, load_dataset,
                      load_manifest, parse_json, read_file)
from .detection import DetectConfig, detect_split, fuse_passes, predict_split, stream_scores
from .errors import ConfigError, InputError, WtalError
from .evaluation import (accuracy_from_predictions, emit_report,
                         ground_truth_instances, instances_from_detections,
                         map_at_iou)
from .training import (TrainConfig, certify_gradients, chunk_budget, load_checkpoint,
                       run_streams, save_checkpoint, train_source, train_target)
from .transfer import KernelConfig, TransferConfig

GRADCHECK_TOLERANCE = 1e-5
MAX_THRESHOLDS = 1000       # the most thresholds a start:stop:step grid may hold

_SECTION_CLASSES = {
    "synth": SyntheticSpec,
    "train": TrainConfig,
    "transfer": TransferConfig,
    "kernel": KernelConfig,
    "detect": DetectConfig,
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    synth: SyntheticSpec
    train: TrainConfig
    detect: DetectConfig


def _section_fields(section: str) -> dict[str, dataclasses.Field]:
    """The section's fields; train's config-valued fields (transfer, kernel)
    are sections of their own."""
    return {f.name: f for f in dataclasses.fields(_SECTION_CLASSES[section])
            if not dataclasses.is_dataclass(field_default(f))}


def resolve_config(config_path: str | None,
                   overrides: dict[str, str]) -> tuple[RunConfig, dict]:
    """Defaults <- config file <- CLI flags; returns the built config and
    the fully-resolved document for logging."""
    doc = {section: {name: field_default(f) for name, f in _section_fields(section).items()}
           for section in _SECTION_CLASSES}

    def merge_file(data: bytes) -> None:
        loaded = parse_json(data, "config file", ConfigError)
        if not is_json(loaded, dict):
            raise ConfigError("config file must be a JSON object of sections")
        for section, body in loaded.items():
            if section not in _SECTION_CLASSES:
                raise ConfigError(f"unknown config section {section!r}")
            if not is_json(body, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            fields = _section_fields(section)
            for key, value in body.items():
                if key not in fields:
                    raise ConfigError(f"unknown config key {section}.{key}")
                doc[section][key] = config_value(fields[key], value, section)

    if config_path is not None:
        read_file(config_path, merge_file)
    for dotted, raw in overrides.items():
        section, key = dotted.split(".", 1)
        try:    # as JSON, so that booleans, numbers and lists work
            value = json.loads(raw)
        except json.JSONDecodeError:    # a bare word stays a string
            value = raw
        except ValueError as exc:       # an integer too long to convert
            raise ConfigError(f"--{dotted} is not valid JSON: {exc}") from exc
        doc[section][key] = config_value(_section_fields(section)[key], value, section)

    synth = SyntheticSpec(**doc["synth"])
    train = TrainConfig(**doc["train"], transfer=TransferConfig(**doc["transfer"]),
                        kernel=KernelConfig(**doc["kernel"]))
    return RunConfig(synth=synth, train=train, detect=DetectConfig(**doc["detect"])), doc


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


# ---------------------------------------------------------------------------
# subcommands: each is handler(args, run_cfg, outputs), with the resolved
# config (None for gradcheck) and the command's _Outputs
# ---------------------------------------------------------------------------


def _cmd_synth(args, run_cfg: RunConfig, _outputs: _Outputs) -> int:
    out = Path(args.out)
    if out.exists() and not (out / "manifest.json").exists() and any(out.iterdir()):
        raise ConfigError(f"--out {out} holds files but no manifest.json; synth replaces "
                          f"only an empty directory or a previous dataset")
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
    transfer = args.role == "target" and cfg.transfer.enabled
    paths = {Stream.RGB: args.source_rgb, Stream.FLOW: args.source_flow}
    given = [f"--source-{s.value}" for s, path in paths.items() if path is not None]
    if given and not transfer:      # checked before any file is read
        raise ConfigError(f"only a target run with transfer enabled reads {' and '.join(given)}"
                          f"; this run has role {args.role}, transfer.enabled "
                          f"{str(cfg.transfer.enabled).lower()}")
    if transfer:
        if None in paths.values():
            raise ConfigError("transfer is enabled: pass --source-rgb and --source-flow")
        for stream, path in paths.items():
            model = sources[stream] = load_checkpoint(path)[0]
            if (model.role, model.stream) != ("source", stream):
                side = "same" if model.stream == stream else "other"
                raise ConfigError(f"--source-{stream.value} holds a {model.role} model of the "
                                  f"{side} stream ({model.stream.value}); transfer needs a "
                                  f"source {stream.value} model")
    data = load_dataset(args.data)
    outdir = Path(args.out)

    def fit(stream: Stream):
        if args.role == "source":
            return train_source(data, stream, cfg)
        return train_target(data, stream, cfg, sources[stream])

    for stream, (model, rows) in run_streams(fit).items():
        outputs.write(outdir / f"{args.role}_{stream.value}.ckpt",
                      lambda tmp: save_checkpoint(model, tmp))
        outputs.write(outdir / f"{args.role}_{stream.value}_loss.csv",
                      lambda tmp: tmp.write_text("\n".join(rows) + "\n"))
    return 0


def _cmd_gradcheck(args, *_) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
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
    if n_rgb != data.manifest.n_classes:
        raise ConfigError(f"checkpoints have {n_rgb} classes, dataset has "
                          f"{data.manifest.n_classes}")
    predictions, scores = predict_split(data, args.split, model_rgb, model_flow)
    detections = detect_split(data, args.split, scores, run_cfg.detect)
    out = Path(args.out)
    outputs.write(out, lambda tmp: tmp.write_text(json_text(detections)))
    outputs.write(out.parent / (out.stem + ".predictions.json"),
                  lambda tmp: tmp.write_text(json_text(predictions)))
    return 0


def parse_thresholds(text: str) -> tuple[float, ...]:
    """"0.1:0.9:0.1" is an inclusive grid (at most MAX_THRESHOLDS); "0.5,0.75" a list."""
    try:
        if ":" in text:
            start, stop, step = (float(v) for v in text.split(":"))
            if not (0.0 < start <= 1.0 and 0.0 < stop <= 1.0):
                raise ValueError("grid ends must lie in (0, 1]")
            if step <= 0 or stop < start:
                raise ValueError("empty grid")
            count = int(round((stop - start) / step)) + 1
            if count > MAX_THRESHOLDS:
                raise ValueError(f"the grid holds {count} thresholds, more than {MAX_THRESHOLDS}")
            vals = tuple(round(start + i * step, 10) for i in range(count))
        else:
            vals = tuple(float(v) for v in text.split(","))
    except (ValueError, OverflowError) as exc:   # OverflowError: a step so small the count is inf
        raise ConfigError(f"bad threshold spec {text!r}: {exc}") from exc
    if not vals or any(not (0.0 < v <= 1.0) for v in vals):
        raise ConfigError(f"thresholds must lie in (0, 1]: {text!r}")
    return vals


def _cmd_eval(args, _run_cfg: RunConfig, outputs: _Outputs) -> int:
    out = Path(args.out)
    if out.suffix in (".csv", ".svg"):      # the report's sibling of that suffix is out itself
        raise ConfigError(f"--out {out} is where the report's {out.suffix} file goes")
    # scoring needs the annotations only, not the feature files
    manifest = load_manifest(Path(args.data) / "manifest.json")
    manifest.split(args.split)      # a misspelt split fails before any file is read
    instances = read_file(args.detections, lambda data: instances_from_detections(
        parse_json(data, "detections file", InputError), manifest, args.split))
    gt = ground_truth_instances(manifest, args.split)
    thresholds = parse_thresholds(args.thresholds)
    acc = None
    if args.predictions is not None:
        acc = read_file(args.predictions, lambda data: accuracy_from_predictions(
            parse_json(data, "predictions file", InputError), manifest, args.split))
    report = map_at_iou(instances, gt, thresholds, acc)
    emit_report(report, manifest.class_names, out, outputs.write)
    return 0


ABLATION_ARMS = (
    # (name, attention enabled, transfer enabled)
    ("baseline", False, False),
    ("sa", True, False),
    ("kt", False, True),
    ("sa_kt", True, True),
)


def run_ablation(data, arms: Sequence[tuple[str, TrainConfig]], dcfg: DetectConfig,
                 iou_thr: float = 0.5, split: str = "test") -> list[dict]:
    """Score each ``(name, config)`` arm by fused accuracy and mAP at ``iou_thr`` on
    ``split``, read first. In one ``run_streams`` call each stream fits and scores
    every arm in turn, a transfer arm after a source model from its own config."""
    recs = data.manifest.split(split)
    xs = {stream: data.read_split(recs, stream) for stream in STREAMS}

    def fit(stream: Stream):
        models = (train_target(data, stream, cfg, train_source(data, stream, cfg)[0]
                               if cfg.transfer.enabled else None)[0] for _, cfg in arms)
        return [stream_scores(xs[stream], model, chunk_budget(model)) for model in models]

    passes = run_streams(fit)
    rows = []
    for (name, _), rgb, flow in zip(arms, passes[Stream.RGB], passes[Stream.FLOW]):
        predictions, scores = fuse_passes(recs, rgb, flow)
        detections = detect_split(data, split, scores, dcfg)
        acc = accuracy_from_predictions(predictions, data.manifest, split)
        report = map_at_iou(instances_from_detections(detections, data.manifest, split),
                            ground_truth_instances(data.manifest, split),
                            (iou_thr,), acc)
        rows.append({"arm": name, "accuracy": acc["fused"],
                     "map": report.map_per_threshold[0]})
    return rows


def _cmd_ablate(args, run_cfg: RunConfig, outputs: _Outputs) -> int:
    if not (0.0 < args.iou <= 1.0):
        raise ConfigError(f"--iou must lie in (0, 1], got {args.iou!r}")
    data = load_dataset(args.data)
    cfg = run_cfg.train
    arms = [(name, dataclasses.replace(cfg, attention_enabled=att_on,
                                       transfer=dataclasses.replace(cfg.transfer, enabled=kt_on)))
            for name, att_on, kt_on in ABLATION_ARMS]
    rows = run_ablation(data, arms, run_cfg.detect, args.iou, args.split)
    lines = ["arm,accuracy,mAP@" + repr(args.iou)]
    lines += [f"{r['arm']},{r['accuracy']!r},{r['map']!r}" for r in rows]
    outputs.write(Path(args.out), lambda tmp: tmp.write_text("\n".join(lines) + "\n"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _config_flags() -> argparse.ArgumentParser:
    """The --config and --<section>.<key> flags, as a parent parser that
    every command but gradcheck takes."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON config file (sections: %s)"
                        % ", ".join(_SECTION_CLASSES))
    for section in _SECTION_CLASSES:
        for name, f in _section_fields(section).items():
            flag = f"--{section}.{name}"
            parser.add_argument(flag, dest=flag[2:], metavar="V", default=None,
                                help=f"override {section}.{name} "
                                     f"(default {field_default(f)!r})")
    return parser


def _overrides(args) -> dict[str, str]:
    return {k: v for k, v in vars(args).items() if "." in k and v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtal",
        description="Weakly-supervised temporal action localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    config = _config_flags()
    # each command's own flags go on a parent parser of their own, so that
    # they come before the config flags in its usage line

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_synth)
    sub.add_parser("synth", parents=[p, config], help="generate a synthetic dataset")

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--role", required=True, choices=("source", "target"))
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for <role>_<stream>.ckpt and loss CSVs")
    p.add_argument("--source-rgb", metavar="CKPT", default=None,
                   help="source checkpoint for transfer (target role)")
    p.add_argument("--source-flow", metavar="CKPT", default=None)
    p.set_defaults(func=_cmd_train)
    sub.add_parser("train", parents=[p, config], help="train source or target models")

    p = sub.add_parser("gradcheck",
                       help="certify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--ckpt-rgb", required=True, metavar="CKPT")
    p.add_argument("--ckpt-flow", required=True, metavar="CKPT")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, metavar="detections.json")
    p.set_defaults(func=_cmd_detect)
    sub.add_parser("detect", parents=[p, config], help="extract temporal proposals")

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--detections", required=True, metavar="JSON")
    p.add_argument("--predictions", default=None, metavar="JSON",
                   help="classification records for accuracy (detect emits them)")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--thresholds", default="0.1:0.9:0.1",
                   help="start:stop:step grid or comma list")
    p.add_argument("--out", required=True, metavar="report.json")
    p.set_defaults(func=_cmd_eval)
    sub.add_parser("eval", parents=[p, config], help="score detections against ground truth")

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--split", default="test")
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_ablate)
    sub.add_parser("ablate", parents=[p, config],
                   help="train and score the four attention/transfer arms")

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
    except (WtalError, OSError, MemoryError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
