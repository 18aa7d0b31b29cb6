"""End-to-end tests of the command-line interface."""

import json
import math
import multiprocessing
import os
import pickle
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wtal.dataset
import wtal.detection
import wtal.training
from wtal import cli
from wtal.dataset import STREAMS, Stream, load_dataset, load_manifest
from wtal.errors import ConfigError
from wtal.training import (CSV_HEADER, TrainConfig, init_model, load_checkpoint,
                           save_checkpoint, train_source, train_target)

SYNTH_FLAGS = [
    "--synth.n_classes", "2", "--synth.d", "4",
    "--synth.source_per_class", "3", "--synth.target_train", "6",
    "--synth.target_test", "4", "--synth.frames", "[8,12]",
]
TRAIN_FLAGS = [
    "--train.iterations", "20", "--train.batch_size", "4",
    "--train.attention_hidden", "4", "--train.classifier_hidden", "6",
]
# (field, value as JSON text): values of the wrong JSON kind, non-finite
# numbers, and arrays where the field takes none or one of another length
# or element kind
BAD_CONFIG_VALUES = [
    ("synth.d", "Infinity"), ("synth.d", "NaN"), ("synth.d", "1e400"),
    ("train.lr_rgb", "Infinity"), ("train.lr_rgb", "NaN"), ("train.lr_rgb", "1e400"),
    ("synth.seed", '"fast"'), ("transfer.enabled", "7"),
    ("synth.frames", '["a",3]'), ("synth.frames", "[20]"), ("synth.frames", "5"),
    ("synth.action_fraction", '["a",0.2]'), ("synth.shift", '["x"]'),
    ("train.alpha", "[1]"), ("kernel.sigma", "[1]"), ("kernel.sigma", "true"),
    ("kernel.sigma", "Infinity"),
    # integers beyond 64 bits, which numpy cannot take as a size or a seed
    ("train.batch_size", str(10 ** 20)), ("train.attention_hidden", str(10 ** 20)),
    ("synth.d", str(10 ** 20)), ("synth.frames", f"[7,{10 ** 20}]"),
    ("synth.seed", str(2 ** 63)), ("train.iterations", str(-2 ** 63 - 1)),
]


class TestParseThresholds:
    def test_inclusive_grid(self):
        got = cli.parse_thresholds("0.1:0.9:0.1")
        np.testing.assert_allclose(got, np.arange(1, 10) / 10.0, rtol=0, atol=0)

    def test_comma_list(self):
        assert cli.parse_thresholds("0.5,0.75,0.95") == (0.5, 0.75, 0.95)

    def test_single_value(self):
        assert cli.parse_thresholds("0.5") == (0.5,)

    def test_rejects_bad_specs(self):
        for bad in ("abc", "0.9:0.1:0.1", "0.1:0.9:-0.1", "0:0.9:0.1",
                    "0.5,1.5", "2.0", "0.1:inf:0.1", "-inf:0.5:0.1",
                    "0.1:0.9:1e-5", "0.1:0.9:1e-12", "0.1:0.9:5e-324"):
            with pytest.raises(ConfigError):
                cli.parse_thresholds(bad)

    def test_grid_size_is_bounded(self):
        assert len(cli.parse_thresholds("0.001:1:0.001")) == cli.MAX_THRESHOLDS == 1000
        with pytest.raises(ConfigError, match="80001 thresholds, more than 1000"):
            cli.parse_thresholds("0.1:0.9:1e-5")


class TestResolveConfig:
    def test_defaults(self):
        run_cfg, doc = cli.resolve_config(None, {})
        assert run_cfg.synth.n_classes == 8
        assert run_cfg.train.batch_size == 16
        assert run_cfg.detect.threshold == 0.2
        assert set(doc) == {"synth", "train", "transfer", "kernel", "detect"}

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synth": {"seed": 3}, "train": {"alpha": 0.5},
                                    "transfer": {"fc2_enabled": False},
                                    "kernel": {"sigma": 2.0}}))
        run_cfg, _ = cli.resolve_config(str(path), {})
        assert run_cfg.synth.seed == 3
        assert run_cfg.train.alpha == 0.5
        assert run_cfg.train.transfer.fc2_enabled is False
        assert run_cfg.train.kernel.sigma == 2.0

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"synth": {"seed": 3}}))
        run_cfg, doc = cli.resolve_config(str(path), {"synth.seed": "5"})
        assert run_cfg.synth.seed == 5
        assert doc["synth"]["seed"] == 5

    def test_tuple_fields_from_json(self):
        run_cfg, _ = cli.resolve_config(None, {"synth.frames": "[8,12]", "synth.d": "3",
                                               "synth.shift": "[1, 2.5, 0]"})
        assert run_cfg.synth.frames == (8, 12)
        assert run_cfg.synth.shift == (1, 2.5, 0)

    def test_a_number_field_stores_an_integer_as_a_float(self):
        # so --kernel.sigma 2 and --kernel.sigma 2.0 write the same checkpoint
        for spelling in ("2", "2.0"):
            run_cfg, doc = cli.resolve_config(None, {"kernel.sigma": spelling,
                                                     "synth.shift": spelling})
            for value in (run_cfg.train.kernel.sigma, run_cfg.synth.shift,
                          doc["kernel"]["sigma"], doc["synth"]["shift"]):
                assert value == 2.0 and type(value) is float

    def test_bool_and_string_fields(self):
        run_cfg, _ = cli.resolve_config(
            None, {"transfer.enabled": "false", "kernel.sigma": "median",
                   "train.attention_mode": "sigmoid"})
        assert run_cfg.train.transfer.enabled is False
        assert run_cfg.train.kernel.sigma == "median"
        assert run_cfg.train.attention_mode == "sigmoid"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(ConfigError, match="unknown config section"):
            cli.resolve_config(str(path), {})

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.resolve_config(str(path), {})

    @pytest.mark.parametrize("given", ["flag", "file"])
    @pytest.mark.parametrize("field, value", BAD_CONFIG_VALUES)
    def test_type_errors_rejected(self, tmp_path, capsys, field, value, given):
        section, key = field.split(".")
        argv = ["synth", "--out", str(tmp_path / "data")]
        if given == "flag":
            argv += [f"--{field}", value]
        else:
            (tmp_path / "cfg.json").write_text(f'{{"{section}": {{"{key}": {value}}}}}')
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert section in err["message"] and repr(key) in err["message"]
        assert not (tmp_path / "data").exists()

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            cli.resolve_config(None, {"train.momentum": "1.5"})

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON") as exc:
            cli.resolve_config(str(path), {})
        assert str(exc.value).startswith(f"{path}: config file ")

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "config file must be a JSON object of sections"),
        ({"train": 5}, "config section 'train' must be an object"),
    ], ids=["file", "section"])
    def test_non_object_config_rejected(self, tmp_path, doc, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            cli.resolve_config(str(path), {})


def _truncate(blob, rng):
    return blob[:int(rng.integers(0, len(blob)))]


def _non_finite(blob, rng):
    # set one float32's exponent bits: a flip that leaves the value finite
    # is undetectable without a checksum, so every payload case makes NaN/inf
    out = bytearray(blob)
    at = 16 + 4 * int(rng.integers(0, (len(blob) - 16) // 4))
    out[at + 2] |= 0x80
    out[at + 3] |= 0x7F
    return bytes(out)


def _header(field, value):
    """Overwrite one little-endian u32 header field (version, d or n of a
    feature file; a checkpoint keeps its version at the same offset)."""
    offset = {"version": 4, "d": 8, "n": 12}[field]

    def mutate(blob, rng):
        old, = struct.unpack("<I", blob[offset:offset + 4])
        return blob[:offset] + struct.pack("<I", value(old)) + blob[offset + 4:]
    return mutate


def _swap_shape(blob, rng):
    # d and n exchanged: the payload length still matches the header
    return blob[:8] + blob[12:16] + blob[8:12] + blob[16:]


# seeded by case index; each must end in one DataFormatError JSON line
TSRF_CORRUPTIONS = (
    _truncate, _truncate, _truncate,
    lambda blob, rng: blob[:16],
    _non_finite, _non_finite,
    lambda blob, rng: bytes(rng.integers(0, 256, 4, dtype=np.uint8)) + blob[4:],
    _header("version", lambda v: v + 1),
    _header("d", lambda d: d + 1),
    _header("n", lambda n: n + 1),
    lambda blob, rng: _header("n", lambda n: 0)(blob[:16], rng),   # degenerate shape
    _swap_shape,
)


def _ckpt_payload_value(value):
    """Overwrite one random float64 of a checkpoint's payload."""
    def mutate(blob, rng):
        hlen, = struct.unpack("<I", blob[8:12])
        start = 12 + hlen
        at = start + 8 * int(rng.integers(0, (len(blob) - start) // 8))
        return blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    return mutate


def _ckpt_header_flip(blob, rng):
    # the high bit makes any byte of the ASCII header invalid UTF-8; a flip
    # that keeps the JSON valid can only be caught by a checksum
    hlen, = struct.unpack("<I", blob[8:12])
    at = 12 + int(rng.integers(0, hlen))
    return blob[:at] + bytes([blob[at] ^ 0x80]) + blob[at + 1:]


def _ckpt_header_edit(edit):
    """A corruption that edits a checkpoint's JSON header and rewrites its
    length field, so that only the edit is wrong."""
    def mutate(blob, rng):
        hlen, = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        edit(header, rng)
        text = json.dumps(header).encode()
        return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:]
    return mutate


def _retype_field(entry, rng):
    """Give one seeded field of a JSON object a value of another JSON type."""
    key = sorted(entry)[int(rng.integers(len(entry)))]
    pool = [v for v in (None, True, "x", 1.5, [], {}) if type(v) is not type(entry[key])]
    entry[key] = pool[int(rng.integers(len(pool)))]


def _shape_entry(value):
    """Set one seeded entry of one seeded parameter shape to ``value``."""
    def edit(header, rng):
        shape = header["params"][int(rng.integers(len(header["params"])))]["shape"]
        shape[int(rng.integers(len(shape)))] = value
    return edit


# seeded by case index; each must end in one DataFormatError JSON line
TSRC_CORRUPTIONS = (
    _truncate, _truncate, _truncate,
    lambda blob, rng: blob[:12 + struct.unpack("<I", blob[8:12])[0]],   # header only
    lambda blob, rng: bytes(rng.integers(0, 256, 4, dtype=np.uint8)) + blob[4:],
    _header("version", lambda v: v + 1),
    lambda blob, rng: blob[:8] + struct.pack("<I", len(blob)) + blob[12:],
    _ckpt_header_flip,
    _ckpt_payload_value(float("nan")),
    _ckpt_payload_value(float("inf")),
    _ckpt_payload_value(float("-inf")),
    lambda blob, rng: blob + bytes(rng.integers(0, 256, int(rng.integers(1, 17)),
                                                dtype=np.uint8)),
    _ckpt_header_edit(_retype_field), _ckpt_header_edit(_retype_field),
    _ckpt_header_edit(_retype_field),
    _ckpt_header_edit(_shape_entry(-1)), _ckpt_header_edit(_shape_entry(True)),
    _ckpt_header_edit(_shape_entry(1.5)),
    # values out of range in the config the checkpoint was trained with
    _ckpt_header_edit(lambda header, rng: header["config"].update(iterations=0)),
    _ckpt_header_edit(lambda header, rng: header["config"].update(dropout=7.5)),
    _ckpt_header_edit(lambda header, rng: header["config"].update(alpha="x")),
    # values of the wrong JSON kind in that config
    _ckpt_header_edit(lambda header, rng: header["config"].update(iterations=1.5)),
    _ckpt_header_edit(lambda header, rng: header["config"].update(alpha=True)),
    _ckpt_header_edit(lambda header, rng: header["config"].update(batch_size=2.5)),
    _ckpt_header_edit(lambda header, rng: header["config"]["kernel"].update(sigma=True)),
    _ckpt_header_edit(lambda header, rng: header["config"]["transfer"].update(enabled=1)),
    _ckpt_header_edit(lambda header, rng: header["config"].update(batch_size=2 ** 63)),
)


def _json_edit(edit):
    """A corruption that parses a JSON text, edits the document and writes it back."""
    def mutate(text, rng):
        doc = json.loads(text)
        edit(doc, rng)
        return json.dumps(doc)
    return mutate


def _last(key, value):
    """Set ``key`` of the last entry (a manifest's last video) to ``value(old)``."""
    def edit(doc, rng):
        entry = (doc["videos"] if isinstance(doc, dict) else doc)[-1]
        entry[key] = value(entry[key])
    return _json_edit(edit)


def _retype(doc, rng):
    """Give one seeded field of one seeded entry a value of another JSON type."""
    entries = doc["videos"] if isinstance(doc, dict) else doc
    _retype_field(entries[int(rng.integers(len(entries)))], rng)


# seeded by case index; each must end in one JSON error line naming the file:
# DataFormatError for the manifest, InputError for detections and predictions.
# The last detection is test_00000's, of class 0, which that video lacks (it
# has class 1 segments); the last prediction record is test_00003's.
JSON_CORRUPTIONS = {
    "manifest": (
        _last("features", lambda paths: {**paths, "rgb": 7}),
        _last("features", lambda paths: list(paths.values())),
        _last("id", lambda video_id: [video_id]),
        _json_edit(lambda doc, rng: doc.update(classes=list(range(len(doc["classes"]))))),
        _json_edit(lambda doc, rng: doc["videos"][0].update(trimmed="no")),   # a source clip
        _json_edit(lambda doc, rng: doc["videos"][-1].update(id=doc["videos"][0]["id"])),
        _last("split", lambda split: 0),
        _json_edit(_retype), _json_edit(_retype), _json_edit(_retype),
        _truncate, _truncate,
    ),
    "detections": (
        _last("video_id", lambda video_id: [video_id]),
        _last("class", lambda label: 1.5),
        _last("class", lambda label: True),
        _json_edit(_retype), _json_edit(_retype), _truncate,
        # entries that cannot belong to the split
        _last("t_end", lambda t_end: -0.1),                        # reversed
        _json_edit(lambda doc, rng: doc[-1].update({"class": 1, "t_end": 0.0})),   # empty
        _last("video_id", lambda video_id: "source_00_0000"),     # another split's video
        _last("class", lambda label: 7),
    ),
    "predictions": (
        _last("logits_rgb", lambda logits: "ab"),
        _json_edit(_retype), _json_edit(_retype), _truncate,
        _last("probs_fused", lambda probs: []),
        # records that cannot belong to the split
        _last("logits_rgb", lambda logits: logits + [0.0] * 5),
        _last("logits_flow", lambda logits: logits[:1]),
        _last("probs_fused", lambda probs: probs + [0.0] * 3),
        _json_edit(lambda doc, rng: doc.append(dict(doc[-1], video_id="source_00_0000"))),
        _json_edit(lambda doc, rng: doc.append(dict(doc[0]))),    # a video seen before
    ),
}
JSON_CASES = [(what, case) for what, cases in JSON_CORRUPTIONS.items()
              for case in range(len(cases))]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole CLI pipeline once at toy scale."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "data": root / "data",
        "src": root / "models_src",
        "tgt": root / "models_tgt",
        "det": root / "out" / "detections.json",
        "report": root / "out" / "report.json",
    }
    assert cli.main(["synth", "--out", str(paths["data"])] + SYNTH_FLAGS) == 0
    assert cli.main(["train", "--role", "source", "--data", str(paths["data"]),
                     "--out", str(paths["src"])] + TRAIN_FLAGS) == 0
    assert cli.main(["train", "--role", "target", "--data", str(paths["data"]),
                     "--out", str(paths["tgt"]),
                     "--source-rgb", str(paths["src"] / "source_rgb.ckpt"),
                     "--source-flow", str(paths["src"] / "source_flow.ckpt")]
                    + TRAIN_FLAGS) == 0
    assert cli.main(["detect", "--data", str(paths["data"]),
                     "--ckpt-rgb", str(paths["tgt"] / "target_rgb.ckpt"),
                     "--ckpt-flow", str(paths["tgt"] / "target_flow.ckpt"),
                     "--out", str(paths["det"])]) == 0
    assert cli.main(["eval", "--data", str(paths["data"]),
                     "--detections", str(paths["det"]),
                     "--predictions",
                     str(paths["det"].parent / "detections.predictions.json"),
                     "--out", str(paths["report"])]) == 0
    return paths


# 20 frames at the pipeline's 4 attention hidden units: chunks of one or two videos
SMALL_CHUNK_CELLS = 4 * 20


@pytest.fixture
def forward_calls(monkeypatch, tmp_path):
    """A function that lists each forward pass that ``wtal.detection`` has
    run so far, by this process and by the forked flow-stream child alike, as
    (stream, per-video frame counts, the chunk's features), in call order
    within each process, with chunks of at most 20 frames."""
    monkeypatch.setattr(wtal.training, "CHUNK_CELLS", SMALL_CHUNK_CELLS)
    forward = wtal.detection.forward_video

    def record(model, x, counts=None):
        with open(tmp_path / f"forward.{os.getpid()}.log", "ab") as fh:   # one log per process
            pickle.dump((model.stream, tuple(counts or (x.n,)), x.values), fh)
        return forward(model, x, counts)

    def calls():
        out = []
        for log in sorted(tmp_path.glob("forward.*.log")):
            with open(log, "rb") as fh:
                while fh.peek(1):
                    out.append(pickle.load(fh))
        return out

    monkeypatch.setattr(wtal.detection, "forward_video", record)
    return calls


def _assert_forwarded_once(calls, data, split, passes=1):
    """Per stream, the forward passes hold every ``split`` video's frames
    exactly once per pass over the split, in manifest order, and each holds
    at most 20 frames or one longer video."""
    recs = data.manifest.split(split)
    for stream in STREAMS:
        mine = [(counts, values) for s, counts, values in calls if s == stream]
        assert len(mine) > passes
        assert all(sum(counts) <= 20 or len(counts) == 1 for counts, _ in mine)
        assert [n for counts, _ in mine for n in counts] == [rec.n for rec in recs] * passes
        frames = np.hstack([data.features(rec, stream).values for rec in recs])
        np.testing.assert_array_equal(np.hstack([v for _, v in mine]),
                                      np.hstack([frames] * passes))


@pytest.fixture
def reads(monkeypatch, tmp_path):
    """A function that lists the (video id, stream) of each feature file that
    ``Dataset.read_split`` has read so far, in read order, by this process and
    by the forked flow-stream child alike."""
    log = tmp_path / "reads.log"
    read = wtal.dataset.Dataset.read_split

    def record(self, recs, stream):
        with open(log, "a") as fh:
            fh.writelines(f"{rec.video_id} {stream.value}\n" for rec in recs)
        return read(self, recs, stream)

    monkeypatch.setattr(wtal.dataset.Dataset, "read_split", record)
    return lambda: ([tuple(line.split()) for line in log.read_text().splitlines()]
                    if log.exists() else [])


def _train_argv(pipeline, out, role, transfer=True):
    argv = ["train", "--role", role, "--data", str(pipeline["data"]), "--out", str(out)]
    if role == "target" and transfer:
        argv += ["--source-rgb", str(pipeline["src"] / "source_rgb.ckpt"),
                 "--source-flow", str(pipeline["src"] / "source_flow.ckpt")]
    elif role == "target":
        argv += ["--transfer.enabled", "false"]
    return argv + TRAIN_FLAGS


def _python(*args):
    """A fresh interpreter that imports this ``wtal``, its output captured."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])})


def _ablate_argv(data, out, *flags):
    return ["ablate", "--data", str(data), "--out", str(out), "--train.iterations", "10",
            "--train.batch_size", "4", "--train.attention_hidden", "4",
            "--train.classifier_hidden", "6", *flags]


def _one_error(err_text):
    """The single JSON error line a failed command leaves on stderr."""
    lines = err_text.splitlines()
    assert len(lines) == 1, err_text
    return json.loads(lines[0])


def _detect_argv(data, out, ckpts):
    return ["detect", "--data", str(data), "--ckpt-rgb", str(ckpts / "target_rgb.ckpt"),
            "--ckpt-flow", str(ckpts / "target_flow.ckpt"), "--out", str(out)]


def _corrupt_first(data, split, stream=Stream.RGB):
    """Break the magic of the first ``split`` video's file; returns its path."""
    rel = load_manifest(data / "manifest.json").split(split)[0].feature_paths[stream]
    (data / rel).write_bytes(b"XXXX" + (data / rel).read_bytes()[4:])
    return rel


class TestPipeline:
    def test_synth_output_loads(self, pipeline):
        data = load_dataset(pipeline["data"])
        assert data.manifest.n_classes == 2
        assert len(data.manifest.split("source")) == 6
        assert len(data.manifest.split("train")) == 6
        assert len(data.manifest.split("test")) == 4

    def test_train_writes_checkpoints_and_logs(self, pipeline):
        for role, outdir in (("source", pipeline["src"]), ("target", pipeline["tgt"])):
            for stream in ("rgb", "flow"):
                model, cfg, it = load_checkpoint(outdir / f"{role}_{stream}.ckpt")
                assert model.role == role
                assert model.stream == Stream(stream)
                assert it == cfg.iterations == 20
                log = (outdir / f"{role}_{stream}_loss.csv").read_text().splitlines()
                assert log[0] == CSV_HEADER
                assert len(log) == 21

    def test_source_csv_has_inactive_terms(self, pipeline):
        # source training weights the regularizers by zero and disables the
        # transfer loss; the columns still log the raw per-term means
        rows = (pipeline["src"] / "source_rgb_loss.csv").read_text().splitlines()[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")[1:]]
            total, l_class, _, sparsity, fc1, fc2 = vals
            assert total == l_class
            np.testing.assert_allclose(sparsity, 1.0, rtol=0, atol=1e-9)
            assert fc1 == 0.0 and fc2 == 0.0

    def test_detections_schema(self, pipeline):
        dets = json.loads(pipeline["det"].read_text())
        assert isinstance(dets, list)
        for det in dets:
            assert set(det) == {"video_id", "class", "t_start", "t_end", "confidence"}

    def test_json_files_have_the_json_dumps_layout(self, pipeline):
        for path in (pipeline["data"] / "manifest.json", pipeline["det"],
                     pipeline["det"].parent / "detections.predictions.json",
                     pipeline["report"]):
            doc = json.loads(path.read_text())
            expected = json.dumps(doc, indent=1, sort_keys=True) + "\n"
            assert wtal.dataset.json_text(doc) == expected == path.read_text()

    def test_predictions_sidecar(self, pipeline):
        preds = json.loads(
            (pipeline["det"].parent / "detections.predictions.json").read_text())
        assert len(preds) == 4
        assert {p["video_id"] for p in preds} == \
            {f"test_{i:05d}" for i in range(4)}

    def test_report_artifacts(self, pipeline):
        doc = json.loads(pipeline["report"].read_text())
        assert len(doc["thresholds"]) == 9
        assert len(doc["map_per_threshold"]) == 9
        assert doc["accuracy"]["fused"] is not None
        csv_lines = pipeline["report"].with_suffix(".csv").read_text().splitlines()
        assert csv_lines[0].startswith("iou,mAP,")
        svg = pipeline["report"].with_suffix(".svg").read_text()
        assert svg.startswith("<svg ")

    def test_eval_without_predictions_leaves_accuracy_null(self, pipeline, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["eval", "--data", str(pipeline["data"]),
                         "--detections", str(pipeline["det"]),
                         "--thresholds", "0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["accuracy"] == {"rgb": None, "flow": None, "fused": None}

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        data2 = tmp_path / "data2"
        tgt2 = tmp_path / "tgt2"
        det2 = tmp_path / "detections.json"
        assert cli.main(["synth", "--out", str(data2)] + SYNTH_FLAGS) == 0
        assert (data2 / "manifest.json").read_bytes() == \
            (pipeline["data"] / "manifest.json").read_bytes()
        assert cli.main(["train", "--role", "target", "--data", str(data2),
                         "--out", str(tgt2),
                         "--source-rgb", str(pipeline["src"] / "source_rgb.ckpt"),
                         "--source-flow", str(pipeline["src"] / "source_flow.ckpt")]
                        + TRAIN_FLAGS) == 0
        assert (tgt2 / "target_rgb.ckpt").read_bytes() == \
            (pipeline["tgt"] / "target_rgb.ckpt").read_bytes()
        assert cli.main(["detect", "--data", str(data2),
                         "--ckpt-rgb", str(tgt2 / "target_rgb.ckpt"),
                         "--ckpt-flow", str(tgt2 / "target_flow.ckpt"),
                         "--out", str(det2)]) == 0
        assert det2.read_bytes() == pipeline["det"].read_bytes()

    def test_eval_reads_only_the_manifest(self, pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        shutil.rmtree(data / "features")
        out = tmp_path / "report.json"
        assert cli.main(["eval", "--data", str(data),
                         "--detections", str(pipeline["det"]),
                         "--predictions",
                         str(pipeline["det"].parent / "detections.predictions.json"),
                         "--out", str(out)]) == 0
        for suffix in (".json", ".csv", ".svg"):
            assert out.with_suffix(suffix).read_bytes() == \
                pipeline["report"].with_suffix(suffix).read_bytes()

    def test_detect_runs_one_forward_per_video_and_stream(self, pipeline, tmp_path,
                                                          forward_calls):
        det = tmp_path / "detections.json"
        assert cli.main(["detect", "--data", str(pipeline["data"]),
                         "--ckpt-rgb", str(pipeline["tgt"] / "target_rgb.ckpt"),
                         "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                         "--out", str(det)]) == 0
        _assert_forwarded_once(forward_calls(), load_dataset(pipeline["data"]), "test")
        # smaller chunks move the scores by rounding only
        for path in (det, tmp_path / "detections.predictions.json"):
            got = json.loads(path.read_text())
            want = json.loads((pipeline["det"].parent / path.name).read_text())
            assert len(got) == len(want)
            for row, ref in zip(got, want):
                assert row.keys() == ref.keys()
                for key, value in row.items():
                    if isinstance(value, str):
                        assert value == ref[key]
                    else:
                        np.testing.assert_allclose(value, ref[key], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("command, splits", [
        ("source", ("source",)), ("target", ("train", "source")),
        ("target_no_transfer", ("train",)), ("detect", ("test",)), ("eval", ()),
    ])
    def test_each_command_decodes_only_the_splits_it_reads(self, pipeline, tmp_path,
                                                            reads, command, splits):
        out = tmp_path / "out"
        argv = {
            "source": _train_argv(pipeline, out, "source"),
            "target": _train_argv(pipeline, out, "target"),
            "target_no_transfer": _train_argv(pipeline, out, "target", transfer=False),
            "detect": _detect_argv(pipeline["data"], out / "det.json", pipeline["tgt"]),
            "eval": ["eval", "--data", str(pipeline["data"]),
                     "--detections", str(pipeline["det"]), "--out", str(out / "r.json")],
        }[command]
        assert cli.main(argv) == 0
        manifest = load_manifest(pipeline["data"] / "manifest.json")
        # each file of the command's splits once per command, and no other file
        assert sorted(reads()) == sorted((rec.video_id, stream.value) for s in splits
                                         for rec in manifest.split(s) for stream in STREAMS)

    def test_resolved_config_is_logged(self, pipeline, tmp_path, capsys):
        assert cli.main(["synth", "--out", str(tmp_path / "d"),
                         "--synth.seed", "5"] + SYNTH_FLAGS) == 0
        line = capsys.readouterr().out.splitlines()[0]
        doc = json.loads(line)
        assert doc["command"] == "synth"
        assert doc["config"]["synth"]["seed"] == 5
        assert doc["config"]["synth"]["n_classes"] == 2


def _in_place(change):
    """An edit that changes a JSON document in place, then returns it."""
    return lambda doc: (change(doc), doc)[1]


class TestCommandFailures:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"bogus": 1}}))
        rc = cli.main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "bogus" in err["message"]

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        rc = cli.main(["train", "--role", "source",
                       "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "m")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err

    def test_swapped_stream_checkpoints_exit_one(self, pipeline, tmp_path, capsys):
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_rgb.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert not (tmp_path / "d.json").exists()

    def test_class_count_mismatch_exits_one(self, pipeline, tmp_path, capsys):
        cfg = TrainConfig(attention_hidden=4, classifier_hidden=6)
        flow = init_model(4, 3, Stream.FLOW, "target", cfg, np.random.default_rng(0))
        save_checkpoint(flow, tmp_path / "flow3.ckpt")
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(pipeline["tgt"] / "target_rgb.ckpt"),
                       "--ckpt-flow", str(tmp_path / "flow3.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "has 2 classes" in err["message"] and "has 3" in err["message"]
        assert not (tmp_path / "d.json").exists()

    def test_checkpoint_and_dataset_class_counts_must_agree(self, pipeline, tmp_path,
                                                            capsys):
        cfg = TrainConfig(attention_hidden=4, classifier_hidden=6)
        rng = np.random.default_rng(0)
        for stream in (Stream.RGB, Stream.FLOW):
            model = init_model(4, 3, stream, "target", cfg, rng)
            save_checkpoint(model, tmp_path / f"{stream.value}3.ckpt")
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(tmp_path / "rgb3.ckpt"),
                       "--ckpt-flow", str(tmp_path / "flow3.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "have 3 classes" in err["message"] and "has 2" in err["message"]
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("spec", ["0.1:inf:0.1", "-inf:0.5:0.1"])
    def test_eval_rejects_a_grid_with_an_infinite_end(self, pipeline, tmp_path, capsys, spec):
        out = tmp_path / "report.json"
        rc = cli.main(["eval", "--data", str(pipeline["data"]), "--detections",
                       str(pipeline["det"]), f"--thresholds={spec}", "--out", str(out)])
        assert rc == 1
        assert _one_error(capsys.readouterr().err)["error"] == "ConfigError"
        assert list(tmp_path.glob("report*")) == []

    def test_failed_report_write_leaves_no_partial_report(self, pipeline, tmp_path,
                                                          capsys):
        out = tmp_path / "report.json"
        out.with_suffix(".svg").mkdir()
        rc = cli.main(["eval", "--data", str(pipeline["data"]),
                       "--detections", str(pipeline["det"]), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err
        assert not out.exists()
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("suffix", [".csv", ".svg"])
    def test_eval_out_that_a_sibling_report_replaces_exits_one(self, pipeline, tmp_path,
                                                               capsys, suffix):
        # the report's CSV or SVG would overwrite the JSON report; this is
        # found before the detections file, here present or missing, is read
        out = tmp_path / f"r{suffix}"
        for detections in (pipeline["det"], tmp_path / "missing.json"):
            rc = cli.main(["eval", "--data", str(pipeline["data"]),
                           "--detections", str(detections), "--out", str(out)])
            assert rc == 1
            err = _one_error(capsys.readouterr().err)
            assert err["error"] == "ConfigError" and f"--out {out} " in err["message"]
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mutate, message", [
        (lambda h: h.update(stream="depth"), "unknown checkpoint stream 'depth'"),
        (lambda h: h.pop("config"), "'config' must be an object"),
        (lambda h: h.pop("params"), "'params' must be an array"),
        (lambda h: h["config"].update(bogus=1), "bad checkpoint config"),
        (lambda h: h.pop("role"), "'role' must be a string"),
        (lambda h: h.pop("iteration"), "'iteration' must be an integer"),
        (lambda h: h["params"][0].update(name="att_w0"), "checkpoint parameters are"),
        (lambda h: h["params"].reverse(), "checkpoint parameters are"),
        (lambda h: h.update(role="teacher"), "unknown checkpoint role 'teacher'"),
        (lambda h: h.update(attention_mode="mean"),
         "attention_mode is 'mean' but the config gives 'softmax'"),
        # a header and a config that contradict each other
        (lambda h: h["config"].update(attention_mode="sigmoid"),
         "attention_mode is 'softmax' but the config gives 'sigmoid'"),
        (lambda h: h["config"].update(attention_hidden=99, heads=7),
         "must be ((99, 4), (7, 99), (6, 28), (6,), (2, 6), (2,))"),
        (lambda h: h.update(attention_enabled=False),
         "attention_enabled is False but the config gives True"),
        (lambda h: (h.update(iteration=123), h["config"].update(iterations=5)),
         "iteration is 123 but the config gives 5"),
        # att_w2 stored (b, r) instead of (r, b): the sizes still add up
        (lambda h: h["params"][1]["shape"].reverse(),
         "inconsistent checkpoint parameter shapes"),
        # shapes that agree with each other but not with the rule; the payload
        # is sized to match them
        (lambda h: (h["params"][0].update(shape=[4, 0]), h["params"][2].update(shape=[6, 0])),
         "d=0 >= 1 features"),
        (lambda h: (h["params"][4].update(shape=[1, 6]), h["params"][5].update(shape=[1])),
         "1 >= 2 classes"),
        (lambda h: h["params"][5].update(shape=[2, 1]), "(2, 1)) must be"),
        (lambda h: h["params"][0].update(note=1),
         "checkpoint parameter att_w1 has unknown keys ['note']"),
        (lambda h: h.update(note=1, extra=[]), "checkpoint header has unknown keys "
                                               "['extra', 'note']"),
    ], ids=["unknown_stream", "no_config", "no_params", "unknown_config_key",
            "no_role", "no_iteration", "renamed_param", "reordered_params",
            "unknown_role", "unknown_attention_mode", "config_mode", "config_sizes",
            "header_attention_off", "header_iteration", "transposed_shape",
            "zero_feature_width", "one_class_head", "rank_2_fc2_b", "unknown_param_key",
            "unknown_header_key"])
    def test_malformed_checkpoint_header_exits_one(self, pipeline, tmp_path, capsys,
                                                   mutate, message):
        blob = (pipeline["tgt"] / "target_rgb.ckpt").read_bytes()
        hlen, = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        mutate(header)
        text = json.dumps(header).encode()
        payload = blob[12 + hlen:]
        if "params" in header:      # as many values as the edited header declares
            size = 8 * sum(math.prod(spec["shape"]) for spec in header["params"])
            payload = payload[:size].ljust(size, b"\0")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + payload)
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(bad),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataFormatError"
        assert err["message"].startswith(f"{bad}: ") and message in err["message"]
        assert not (tmp_path / "d.json").exists()

    def test_target_transfer_needs_source_checkpoints(self, pipeline, tmp_path, capsys):
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m")] + TRAIN_FLAGS)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "source-rgb" in err["message"]

    @pytest.mark.parametrize("role,flags,named", [
        ("source", ["--source-rgb", "nonexistent.ckpt"], "--source-rgb"),
        ("source", ["--source-flow", "x"], "--source-flow"),
        ("target", ["--transfer.enabled", "false", "--source-rgb", "x", "--source-flow", "y"],
         "--source-rgb and --source-flow"),
    ], ids=["source-rgb", "source-flow", "target-without-transfer"])
    def test_an_unused_source_flag_fails_before_any_file_is_read(self, tmp_path, capsys,
                                                                 role, flags, named):
        # neither the dataset nor the checkpoints exist: the flag check comes first
        rc = cli.main(["train", "--role", role, "--data", str(tmp_path / "missing"),
                       "--out", str(tmp_path / "m"), *flags])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert named in err["message"] and f"role {role}" in err["message"]
        enabled = "false" if role == "target" else "true"
        assert f"transfer.enabled {enabled}" in err["message"]
        assert not (tmp_path / "m").exists()

    def test_wrong_stream_source_discards_earlier_outputs(self, pipeline, tmp_path,
                                                          capsys):
        # the RGB stream trains and writes first; the flow stream then fails
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m"),
                       "--source-rgb", str(pipeline["src"] / "source_rgb.ckpt"),
                       "--source-flow", str(pipeline["src"] / "source_rgb.ckpt")]
                      + TRAIN_FLAGS)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "other stream" in err["message"]
        assert not (tmp_path / "m" / "target_rgb.ckpt").exists()
        assert not (tmp_path / "m" / "target_rgb_loss.csv").exists()

    def test_wrong_stream_source_fails_before_training(self, pipeline, tmp_path,
                                                       capsys, monkeypatch):
        calls = []
        train_target = cli.train_target
        monkeypatch.setattr(cli, "train_target",
                            lambda *a, **k: calls.append(a) or train_target(*a, **k))
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m"),
                       "--source-rgb", str(pipeline["src"] / "source_rgb.ckpt"),
                       "--source-flow", str(pipeline["src"] / "source_rgb.ckpt")]
                      + TRAIN_FLAGS)
        assert rc == 1
        assert calls == []
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "--source-flow" in err["message"]
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("stream", ["rgb", "flow"])
    def test_transfer_source_must_be_a_source_checkpoint(self, pipeline, tmp_path, capsys,
                                                         stream):
        sources = {f"--source-{s}": pipeline["src"] / f"source_{s}.ckpt" for s in ("rgb", "flow")}
        sources[f"--source-{stream}"] = pipeline["tgt"] / f"target_{stream}.ckpt"
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m")]
                      + [str(v) for pair in sources.items() for v in pair] + TRAIN_FLAGS)
        assert rc == 1
        assert _one_error(capsys.readouterr().err) == {
            "error": "ConfigError", "message": f"--source-{stream} holds a target model of "
                                               f"the same stream ({stream}); transfer needs a "
                                               f"source {stream} model"}
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flags, names", [
        (["--train.lr_rgb", "1e300"], "L_class=nan"),
        # the flow stream diverges after the RGB outputs were written
        (["--train.lr_flow", "1e300"], "L_class=nan"),
        # the only update overflows the parameters while the loss was finite
        (["--train.lr_rgb", "1e308", "--train.init_scale", "10", "--train.iterations", "1"],
         "parameters after the update"),
    ], ids=["rgb_loss", "flow_loss", "parameters"])
    def test_divergence_stops_training(self, pipeline, tmp_path, flags, names):
        # a child process, so that numpy's floating-point warnings would reach
        # its stderr as they do on the command line
        run = _python("-m", "wtal.cli",
                      *_train_argv(pipeline, tmp_path / "m", "target", transfer=False), *flags)
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        err = json.loads(lines[0])
        assert err["error"] == "DivergenceError"
        assert re.search(r"iteration \d+: non-finite", err["message"])
        assert names in err["message"]
        assert list((tmp_path / "m").glob("*")) == []

    def test_target_without_transfer_needs_no_sources(self, pipeline, tmp_path):
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m"),
                       "--transfer.enabled", "false"] + TRAIN_FLAGS)
        assert rc == 0
        assert (tmp_path / "m" / "target_rgb.ckpt").exists()

    def test_eval_rejects_non_array_detections(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"detections": []}))
        rc = cli.main(["eval", "--data", str(pipeline["data"]),
                       "--detections", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "InputError"

    @pytest.mark.parametrize("what, edit, error", [
        ("manifest", lambda doc: [doc], "DataFormatError"),
        ("manifest", _in_place(lambda doc: doc.pop("classes")), "DataFormatError"),
        ("manifest", _in_place(lambda doc: doc["videos"][0]["features"].update(xyz="x")),
         "DataFormatError"),
        ("manifest", _in_place(lambda doc: doc["videos"][0]["features"].pop("flow")),
         "DataFormatError"),
        ("predictions", _in_place(lambda doc: doc[0].pop("video_id")), "InputError"),
        ("predictions", _in_place(lambda doc: doc[0].pop("logits_rgb")), "InputError"),
        ("predictions", _in_place(lambda doc: doc[0].pop("logits_flow")), "InputError"),
        ("predictions", _in_place(lambda doc: doc[0].pop("probs_fused")), "InputError"),
        ("predictions", lambda doc: {"predictions": doc}, "InputError"),
        ("detections", _in_place(lambda doc: doc.append(
            {"video_id": "test_00000", "class": 0, "t_start": 0.0, "t_end": 0.2,
             "confidence": math.nan})), "InputError"),
    ], ids=["manifest_is_list", "manifest_without_classes", "unknown_feature_stream",
            "missing_feature_stream", "prediction_without_video_id",
            "prediction_without_logits_rgb", "prediction_without_logits_flow",
            "prediction_without_probs_fused", "predictions_not_array", "nan_confidence"])
    def test_malformed_eval_input_exits_one(self, pipeline, tmp_path, capsys,
                                            what, edit, error):
        sources = {"manifest": pipeline["data"] / "manifest.json",
                   "predictions": pipeline["det"].parent / "detections.predictions.json",
                   "detections": pipeline["det"]}
        copies = {"manifest": tmp_path / "data" / "manifest.json",
                  "predictions": tmp_path / "predictions.json",
                  "detections": tmp_path / "detections.json"}
        copies["manifest"].parent.mkdir()
        for name, source in sources.items():
            doc = json.loads(source.read_text())
            copies[name].write_text(json.dumps(edit(doc) if name == what else doc))
        out = tmp_path / "report.json"
        rc = cli.main(["eval", "--data", str(tmp_path / "data"),
                       "--detections", str(copies["detections"]),
                       "--predictions", str(copies["predictions"]), "--out", str(out)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize("what, error", [
        ("manifest", "DataFormatError"), ("predictions", "InputError"),
        ("detections", "InputError"), ("config", "ConfigError"),
    ])
    def test_non_utf8_input_exits_one(self, pipeline, tmp_path, capsys, what, error):
        data = tmp_path / "data"
        data.mkdir()
        paths = {"manifest": data / "manifest.json",
                 "predictions": tmp_path / "predictions.json",
                 "detections": tmp_path / "detections.json",
                 "config": tmp_path / "config.json"}
        shutil.copy(pipeline["data"] / "manifest.json", paths["manifest"])
        shutil.copy(pipeline["det"].parent / "detections.predictions.json",
                    paths["predictions"])
        shutil.copy(pipeline["det"], paths["detections"])
        paths["config"].write_text("{}")
        blob = bytearray(paths[what].read_bytes())
        blob[10 if what == "manifest" else 0] = 0xff
        paths[what].write_bytes(bytes(blob))
        out = tmp_path / "report.json"
        rc = cli.main(["eval", "--data", str(data), "--detections", str(paths["detections"]),
                       "--predictions", str(paths["predictions"]),
                       "--config", str(paths["config"]), "--out", str(out)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert list(tmp_path.glob("report.*")) == []

    def test_non_finite_feature_fails_detect(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        rec = load_dataset(pipeline["data"]).manifest.split("test")[0]
        path = data / rec.feature_paths[Stream.RGB]
        blob = bytearray(path.read_bytes())
        d, = struct.unpack("<I", blob[8:12])
        frame, column = 2, 1
        offset = 16 + 4 * (frame * d + column)     # header, then frame-major float32
        blob[offset:offset + 4] = struct.pack("<f", math.nan)
        path.write_bytes(bytes(blob))
        det = tmp_path / "detections.json"
        rc = cli.main(["detect", "--data", str(data),
                       "--ckpt-rgb", str(pipeline["tgt"] / "target_rgb.ckpt"),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--out", str(det)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataFormatError"
        assert f"frame {frame}, column {column}" in err["message"]
        assert f"{rec.video_id}/rgb" in err["message"]
        assert list(tmp_path.glob("detections*")) == []

    @pytest.mark.parametrize("case", range(len(TSRF_CORRUPTIONS)))
    def test_corrupt_feature_file_fails_detect(self, pipeline, tmp_path, capsys, case):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        rec = load_dataset(pipeline["data"]).manifest.split("test")[-1]
        rel = rec.feature_paths[Stream.FLOW]
        blob = (data / rel).read_bytes()
        (data / rel).write_bytes(TSRF_CORRUPTIONS[case](blob, np.random.default_rng(case)))
        det = tmp_path / "detections.json"
        rc = cli.main(["detect", "--data", str(data),
                       "--ckpt-rgb", str(pipeline["tgt"] / "target_rgb.ckpt"),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--out", str(det)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataFormatError"
        assert f"{rec.video_id}/flow" in err["message"] and rel in err["message"]
        assert list(tmp_path.glob("detections*")) == []

    @pytest.mark.parametrize("case", range(len(TSRC_CORRUPTIONS)))
    def test_corrupt_checkpoint_fails_detect(self, pipeline, tmp_path, capsys, case):
        blob = (pipeline["tgt"] / "target_rgb.ckpt").read_bytes()
        bad = tmp_path / "target_rgb.ckpt"
        bad.write_bytes(TSRC_CORRUPTIONS[case](blob, np.random.default_rng(case)))
        det = tmp_path / "detections.json"
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(bad),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--out", str(det)])
        assert rc == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DataFormatError"
        assert err["message"].startswith(f"{bad}: ")
        assert list(tmp_path.glob("detections*")) == []

    @pytest.mark.parametrize("what, case", JSON_CASES)
    def test_corrupt_json_input_exits_one(self, pipeline, tmp_path, capsys, what, case):
        data = tmp_path / "data"
        data.mkdir()
        paths = {"manifest": data / "manifest.json",
                 "predictions": tmp_path / "predictions.json",
                 "detections": tmp_path / "detections.json"}
        shutil.copy(pipeline["data"] / "manifest.json", paths["manifest"])
        shutil.copy(pipeline["det"].parent / "detections.predictions.json",
                    paths["predictions"])
        # one valid entry, so that entry-level corruptions have a target
        detections = json.loads(pipeline["det"].read_text()) + [
            {"video_id": "test_00000", "class": 0, "t_start": 0.0, "t_end": 0.2,
             "confidence": 0.5}]
        paths["detections"].write_text(json.dumps(detections, indent=1))
        text = paths[what].read_text()
        paths[what].write_text(JSON_CORRUPTIONS[what][case](text, np.random.default_rng(case)))
        out = tmp_path / "out"
        commands = [["eval", "--data", str(data), "--detections", str(paths["detections"]),
                     "--predictions", str(paths["predictions"]),
                     "--out", str(out / "report.json")]]
        if what == "manifest":
            commands.append(_detect_argv(data, out / "detections.json", pipeline["tgt"]))
        for argv in commands:
            assert cli.main(argv) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])
            assert err["error"] == ("DataFormatError" if what == "manifest" else "InputError")
            assert str(paths[what]) in err["message"]
            assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_frame_count_beyond_a_float_exits_one(self, pipeline, tmp_path, capsys, command):
        # a JSON integer that n / fps cannot convert, and an fps that makes n / fps overflow
        for key, value, what in (("n", 10 ** 400, "n"), ("fps", 1e-310, "n / fps")):
            data = tmp_path / key
            data.mkdir()
            doc = json.loads((pipeline["data"] / "manifest.json").read_text())
            doc["videos"][0][key] = value
            (data / "manifest.json").write_text(json.dumps(doc))
            out = tmp_path / "out"
            argv = {"detect": _detect_argv(data, out / "det.json", pipeline["tgt"]),
                    "eval": ["eval", "--data", str(data), "--detections", str(pipeline["det"]),
                             "--out", str(out / "r.json")]}[command]
            assert cli.main(argv) == 1
            err = _one_error(capsys.readouterr().err)
            assert err == {"error": "InputError", "message": f"{data / 'manifest.json'}: "
                           f"{doc['videos'][0]['id']}: {what} is too large for a float"}
            assert not out.exists()

    @pytest.mark.parametrize("where, error", [
        ("flag", "ConfigError"), ("config", "ConfigError"), ("manifest", "DataFormatError"),
        ("detections", "InputError"), ("predictions", "InputError"),
        ("checkpoint", "DataFormatError")])
    def test_integer_too_long_to_convert_exits_one(self, pipeline, tmp_path, capsys, where,
                                                   error):
        # json.loads raises a plain ValueError on an integer of more than 4,300
        # digits, which a flag value reports as a file does
        huge = "9" * 5000
        message = "Exceeds the limit (4300 digits)"
        data, out = tmp_path / "data", tmp_path / "out"
        shutil.copytree(pipeline["data"], data)
        paths = {"manifest": data / "manifest.json", "detections": tmp_path / "detections.json",
                 "predictions": tmp_path / "predictions.json"}
        shutil.copy(pipeline["det"], paths["detections"])
        shutil.copy(pipeline["det"].parent / "detections.predictions.json", paths["predictions"])
        argv = ["eval", "--data", str(data), "--detections", str(paths["detections"]),
                "--predictions", str(paths["predictions"]), "--out", str(out / "report.json")]
        if where == "flag":
            argv = ["synth", "--out", str(out), "--synth.seed", huge]
        elif where == "config":
            (tmp_path / "cfg.json").write_text(f'{{"train": {{"seed": {huge}}}}}')
            argv = ["synth", "--out", str(out), "--config", str(tmp_path / "cfg.json")]
        elif where == "checkpoint":
            ckpts = tmp_path / "ckpts"
            shutil.copytree(pipeline["tgt"], ckpts)
            blob = (ckpts / "target_rgb.ckpt").read_bytes()
            hlen, = struct.unpack("<I", blob[8:12])
            header = b'{"iteration": ' + huge.encode() + b"}"
            (ckpts / "target_rgb.ckpt").write_bytes(
                blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + hlen:])
            argv = _detect_argv(data, out / "detections.json", ckpts)
        else:
            paths[where].write_text(f"[{huge}]")
        assert cli.main(argv) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == error and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "eval", "ablate"])
    def test_split_without_videos_exits_one(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {
            "detect": _detect_argv(pipeline["data"], out / "det.json", pipeline["tgt"]),
            "eval": ["eval", "--data", str(pipeline["data"]),
                     "--detections", str(pipeline["det"]), "--out", str(out / "r.json")],
            "ablate": ["ablate", "--data", str(pipeline["data"]),
                       "--out", str(out / "ablation.csv")] + TRAIN_FLAGS,
        }[command]
        assert cli.main(argv + ["--split", "tset"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert "'tset'" in err["message"] and "source, test, train" in err["message"]
        assert not out.exists() or list(out.glob("*")) == []

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_a_misspelt_split_fails_before_any_work(self, pipeline, tmp_path, capsys,
                                                   monkeypatch, command):
        # eval would fail on its missing detections file, and ablate would train
        calls = []
        monkeypatch.setattr(cli, "train_source", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "train_target", lambda *args: calls.append(args))
        out = tmp_path / "out"
        argv = {"eval": ["eval", "--data", str(pipeline["data"]), "--detections",
                         str(tmp_path / "missing.json"), "--out", str(out / "r.json")],
                "ablate": _ablate_argv(pipeline["data"], out / "ablation.csv")}[command]
        assert cli.main(argv + ["--split", "tset"]) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == "InputError" and "split 'tset' has no videos" in err["message"]
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("split", ["source", "train"])
    def test_detect_ignores_corrupt_files_outside_the_test_split(self, pipeline, tmp_path,
                                                                 split):
        # a corrupt test file fails detect: test_corrupt_feature_file_fails_detect
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        _corrupt_first(data, split)
        det = tmp_path / "detections.json"
        assert cli.main(_detect_argv(data, det, pipeline["tgt"])) == 0
        assert det.read_bytes() == pipeline["det"].read_bytes()

    @pytest.mark.parametrize("transfer", [False, True])
    def test_target_training_reads_the_source_split_only_with_transfer(
            self, pipeline, tmp_path, capsys, transfer):
        shutil.copytree(pipeline["data"], tmp_path / "data")
        rel = _corrupt_first(tmp_path / "data", "source", Stream.FLOW)
        out = tmp_path / "m"
        rc = cli.main(_train_argv({**pipeline, "data": tmp_path / "data"}, out,
                                  "target", transfer))
        if not transfer:
            assert rc == 0
            return
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataFormatError" and rel in err["message"]
        assert list(out.glob("*")) == []     # the RGB stream's files are removed too

    @pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
    def test_negative_seed_exits_one(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--out", str(out), "--synth.seed", "-1"] + SYNTH_FLAGS,
                "train": _train_argv(pipeline, out, "source") + ["--train.seed", "-1"],
                "gradcheck": ["gradcheck", "--seed", "-1"]}[command]
        assert cli.main(argv) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "seed" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--synth.frames", "[3,2]", "empty frame-count range"),
        ("detect", "--synth.frames", "[3,2]", "empty frame-count range"),
        ("eval", "--synth.d", "0", "feature dimension"),
        ("synth", "--train.iterations", "0", "iterations"),
        ("synth", "--kernel.sigma", "1e-200", "got 1e-200"),
        ("synth", "--synth.fps", "1e-310", "too long for a float"),
        # sizes numpy cannot allocate, each rejected where its product is first known
        *[(command, flag, str(2 ** 62), "more than numpy allocates") for command, flag in [
            ("train", "--train.classifier_hidden"), ("train", "--train.attention_hidden"),
            ("train", "--train.heads"), ("train", "--train.batch_size"),
            ("synth", "--synth.d"), ("synth", "--synth.n_classes")]],
    ], ids=["train", "detect", "eval", "synth", "synth_sigma_squared", "synth_fps",
            "classifier_hidden", "attention_hidden", "heads", "batch_size", "d", "n_classes"])
    def test_every_config_section_is_checked(self, pipeline, tmp_path, capsys, command,
                                             flag, value, message):
        # each command checks every section, also those it does not read
        out = tmp_path / "out"
        argv = {"synth": ["synth", "--out", str(out)],
                "train": _train_argv(pipeline, out, "source"),
                "detect": _detect_argv(pipeline["data"], out / "det.json", pipeline["tgt"]),
                "eval": ["eval", "--data", str(pipeline["data"]),
                         "--detections", str(pipeline["det"]),
                         "--out", str(out / "report.json")]}[command]
        assert cli.main(argv + [flag, value]) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and message in err["message"]
        assert not out.exists()

    def test_a_memory_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def allocate(*_):
            raise MemoryError("Unable to allocate 8.00 EiB for an array")

        monkeypatch.setattr(cli, "generate_synthetic", allocate)
        assert cli.main(["synth", "--out", str(tmp_path / "data")] + SYNTH_FLAGS) == 1
        assert _one_error(capsys.readouterr().err) == {
            "error": "MemoryError", "message": "Unable to allocate 8.00 EiB for an array"}
        assert list(tmp_path.iterdir()) == []

    def test_synth_replaces_an_existing_output_and_a_stale_partial(self, pipeline,
                                                                    tmp_path):
        out = tmp_path / "data"
        for stale in (out, tmp_path / "data.partial"):
            stale.mkdir()
            (stale / "stale.txt").write_text("left over")
        (out / "manifest.json").write_text("{}")    # an earlier dataset
        assert cli.main(["synth", "--out", str(out)] + SYNTH_FLAGS) == 0
        assert not (tmp_path / "data.partial").exists()
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == sorted(
            p.relative_to(pipeline["data"]) for p in pipeline["data"].rglob("*"))
        assert ((out / "manifest.json").read_bytes()
                == (pipeline["data"] / "manifest.json").read_bytes())

    def test_synth_replaces_only_an_empty_directory_or_a_dataset(self, tmp_path, capsys):
        out = tmp_path / "notes"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        assert cli.main(["synth", "--out", str(out)] + SYNTH_FLAGS) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and str(out) in err["message"]
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes"]
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["synth", "--out", str(empty)] + SYNTH_FLAGS) == 0
        assert (empty / "manifest.json").is_file()

    def test_failed_synth_keeps_the_existing_output(self, tmp_path, capsys, monkeypatch):
        def fail_halfway(spec, out_dir):
            (out_dir / "features").mkdir(parents=True)
            raise OSError("disk full")

        monkeypatch.setattr(cli, "generate_synthetic", fail_halfway)
        out = tmp_path / "data"
        out.mkdir()
        (out / "manifest.json").write_text("{}")
        assert cli.main(["synth", "--out", str(out)] + SYNTH_FLAGS) == 1
        assert _one_error(capsys.readouterr().err) == {"error": "OSError",
                                                       "message": "disk full"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("iou", ["2", "0", "-0.5", "nan", "inf"])
    def test_ablate_rejects_iou_outside_the_unit_interval(self, pipeline, tmp_path, capsys,
                                                          monkeypatch, iou):
        calls = []
        monkeypatch.setattr(cli, "train_target",
                            lambda *a, **k: calls.append(a) or train_target(*a, **k))
        out = tmp_path / "ablation.csv"
        assert cli.main(_ablate_argv(pipeline["data"], out, "--iou", iou)) == 1
        err = _one_error(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "--iou" in err["message"]
        assert calls == [] and not out.exists()

    # the required flags of each command that takes the config flags
    CONFIG_COMMANDS = {
        "synth": ["--out", "o"],
        "train": ["--role", "source", "--data", "d", "--out", "o"],
        "detect": ["--ckpt-rgb", "a", "--ckpt-flow", "b", "--data", "d", "--out", "o"],
        "eval": ["--detections", "a", "--data", "d", "--out", "o"],
        "ablate": ["--data", "d", "--out", "o"],
    }

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["train", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
        # every config command lists --config and every --<section>.<key> flag,
        # after its own flags, and rejects a key no section has
        doc = cli.resolve_config(None, {})[1]
        flags = {f"--{section}.{key}" for section, body in doc.items() for key in body}
        capsys.readouterr()
        for command, required in self.CONFIG_COMMANDS.items():
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--config FILE" in out
            assert set(re.findall(r"--\w+\.\w+", out)) == flags, command
            assert all(out.index(flag) < out.index("--config")
                       for flag in required if flag.startswith("--"))
            with pytest.raises(SystemExit) as exc:
                cli.main([command, *required, "--train.nope", "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --train.nope 1" in capsys.readouterr().err


class TestStreamsSideBySide:
    """``train`` and ``ablate`` fit the flow stream in one forked child."""

    @pytest.mark.parametrize("role", ["source", "target"])
    def test_train_matches_streams_fitted_one_after_the_other(self, pipeline, tmp_path,
                                                              role):
        out = tmp_path / "m"
        assert cli.main(_train_argv(pipeline, out, role)) == 0
        cfg = cli.resolve_config(None, dict(zip((f[2:] for f in TRAIN_FLAGS[::2]),
                                                TRAIN_FLAGS[1::2])))[0].train
        data = load_dataset(pipeline["data"])
        for stream in STREAMS:
            if role == "source":
                model, rows = train_source(data, stream, cfg)
            else:
                source, _, _ = load_checkpoint(pipeline["src"] / f"source_{stream.value}.ckpt")
                model, rows = train_target(data, stream, cfg, source)
            save_checkpoint(model, tmp_path / "serial.ckpt")
            name = f"{role}_{stream.value}"
            assert (out / f"{name}.ckpt").read_bytes() == \
                (tmp_path / "serial.ckpt").read_bytes()
            assert (out / f"{name}_loss.csv").read_text() == "\n".join(rows) + "\n"

    @staticmethod
    def _argv(pipeline, out, command, *flags):
        """A target fit without transfer (``train``) or the four arms (``ablate``)."""
        if command == "train":
            return _train_argv(pipeline, out, "target", transfer=False) + list(flags)
        return _ablate_argv(pipeline["data"], out, *flags)

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_rgb_error_stops_the_running_flow_child(self, pipeline, tmp_path, capfd,
                                                    monkeypatch, command):
        fit = cli.train_target

        def slow_flow(data, stream, cfg, source):
            if stream == Stream.FLOW:
                time.sleep(60)      # still fitting when the RGB stream diverges
            return fit(data, stream, cfg, source)

        monkeypatch.setattr(cli, "train_target", slow_flow)
        out = tmp_path / "out"
        started = time.monotonic()
        assert cli.main(self._argv(pipeline, out, command, "--train.lr_rgb", "1e300")) == 1
        assert time.monotonic() - started < 30
        err = _one_error(capfd.readouterr().err)     # both processes' stderr
        assert err["error"] == "DivergenceError"
        assert err["message"].startswith("target rgb training diverged")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_resolved_config_is_printed_once_through_a_pipe(self, pipeline, tmp_path,
                                                            command):
        run = _python("-m", "wtal.cli", *self._argv(pipeline, tmp_path / "out", command))
        assert run.returncode == 0 and run.stderr == "", run.stderr
        lines = run.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["command"] == command

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_killed_child_exits_one(self, pipeline, tmp_path, capfd, monkeypatch, command):
        parent, fit = os.getpid(), cli.train_target

        def killed_in_child(data, stream, cfg, source):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fit(data, stream, cfg, source)

        monkeypatch.setattr(cli, "train_target", killed_in_child)
        out = tmp_path / "out"
        assert cli.main(self._argv(pipeline, out, command)) == 1
        err = _one_error(capfd.readouterr().err)
        assert err["error"] == "ChildProcessError"
        assert f"exited with code {-signal.SIGKILL}" in err["message"]
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_detect_with_a_killed_child_exits_one(self, pipeline, tmp_path, capfd,
                                                  monkeypatch):
        parent, scores = os.getpid(), wtal.detection.chunk_scores

        def killed_in_child(model, x, counts=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return scores(model, x, counts)

        monkeypatch.setattr(wtal.detection, "FORK_MIN_FRAMES", 0)
        monkeypatch.setattr(wtal.detection, "chunk_scores", killed_in_child)
        out = tmp_path / "out" / "detections.json"
        assert cli.main(_detect_argv(pipeline["data"], out, pipeline["tgt"])) == 1
        err = _one_error(capfd.readouterr().err)
        assert err["error"] == "ChildProcessError"
        assert f"exited with code {-signal.SIGKILL}" in err["message"]
        assert not out.parent.exists() or list(out.parent.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_detect_side_by_side_writes_the_same_files(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(wtal.detection, "FORK_MIN_FRAMES", 0)
        out = tmp_path / "detections.json"
        assert cli.main(_detect_argv(pipeline["data"], out, pipeline["tgt"])) == 0
        assert out.read_bytes() == pipeline["det"].read_bytes()
        sidecar = "detections.predictions.json"
        assert (tmp_path / sidecar).read_bytes() == \
            (pipeline["det"].parent / sidecar).read_bytes()

    def test_a_lone_detect_runs_both_passes_in_process(self, pipeline, tmp_path):
        out = tmp_path / "detections.json"
        argv = _detect_argv(pipeline["data"], out, pipeline["tgt"])
        run = _python("-c", "import sys; from wtal import cli, detection; "
                      f"detection.FORK_MIN_FRAMES = 0; rc = cli.main({argv!r}); "
                      "print(rc, 'multiprocessing' in sys.modules)")
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "0 False"
        assert out.read_bytes() == pipeline["det"].read_bytes()

    def test_import_leaves_multiprocessing_unloaded(self):
        for module in ("wtal.cli", "wtal.detection", "wtal.training"):
            run = _python("-c", f"import sys, {module}; print(sorted(m for m in sys.modules "
                          "if m.startswith('multiprocessing')))")
            assert run.returncode == 0 and run.stdout.strip() == "[]", (module, run.stderr)


class TestOutputs:
    def test_failed_write_leaves_no_file(self, tmp_path):
        def fill(tmp):
            tmp.write_text("partial")
            raise OSError("disk full")

        outputs = cli._Outputs()
        with pytest.raises(OSError):
            outputs.write(tmp_path / "out" / "a.json", fill)
        assert list((tmp_path / "out").iterdir()) == []
        assert outputs.created == []


class TestGradcheckCommand:
    def test_passes_and_prints_terms(self, capsys):
        rc = cli.main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("class", "smooth", "sparsity", "fc1", "fc2", "total"):
            assert f"{name}: max relative error" in out
        assert "worst:" in out and "ok" in out


class TestAblateCommand:
    def test_four_arms_reported(self, pipeline, tmp_path):
        out = tmp_path / "ablation.csv"
        assert cli.main(_ablate_argv(pipeline["data"], out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "arm,accuracy,mAP@0.5"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["baseline", "sa", "kt", "sa_kt"]
        for ln in lines[1:]:
            _, acc, m = ln.split(",")
            assert 0.0 <= float(acc) <= 1.0
            assert 0.0 <= float(m) <= 1.0

    def test_one_run_streams_call_fits_every_arm(self, pipeline, tmp_path, monkeypatch):
        # a split of at least FORK_MIN_FRAMES frames, where detect would fork too
        monkeypatch.setattr(wtal.detection, "FORK_MIN_FRAMES", 0)
        calls, run_streams = [], cli.run_streams
        for module in (cli, wtal.detection):
            monkeypatch.setattr(module, "run_streams",
                                lambda work: calls.append(work) or run_streams(work))
        assert cli.main(_ablate_argv(pipeline["data"], tmp_path / "ablation.csv")) == 0
        assert len(calls) == 1

    def test_reads_each_test_file_once_per_stream(self, pipeline, tmp_path, reads):
        assert cli.main(_ablate_argv(pipeline["data"], tmp_path / "ablation.csv")) == 0
        test = load_manifest(pipeline["data"] / "manifest.json").split("test")
        ids = {rec.video_id for rec in test}
        assert sorted(read for read in reads() if read[0] in ids) == \
            sorted((rec.video_id, stream.value) for rec in test for stream in STREAMS)

    @pytest.mark.parametrize("stream", ["rgb", "flow"])
    def test_missing_test_file_fails_before_any_arm_trains(self, pipeline, tmp_path, capsys,
                                                           monkeypatch, stream):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        rel = load_manifest(data / "manifest.json").split("test")[0].feature_paths[Stream(stream)]
        (data / rel).unlink()
        # a call made in a forked child does not reach this process's list
        calls, fit, run_streams = [], cli.train_target, cli.run_streams
        monkeypatch.setattr(cli, "train_target", lambda *args: calls.append(args) or fit(*args))
        monkeypatch.setattr(cli, "run_streams",
                            lambda work: calls.append(work) or run_streams(work))
        out = tmp_path / "ablation.csv"
        assert cli.main(_ablate_argv(data, out)) == 1
        assert rel in _one_error(capsys.readouterr().err)["message"]
        assert calls == [] and not out.exists()

    def test_one_forward_per_test_video_and_stream_per_arm(self, pipeline, tmp_path,
                                                            forward_calls):
        assert cli.main(_ablate_argv(pipeline["data"], tmp_path / "ablation.csv")) == 0
        _assert_forwarded_once(forward_calls(), load_dataset(pipeline["data"]), "test",
                               passes=len(cli.ABLATION_ARMS))


# ---------------------------------------------------------------------------
# command-line fuzzing: each kind of outside input corrupted in turn
# ---------------------------------------------------------------------------

FUZZ_CASES = 50         # seeded cases per kind of input
HUGE_INT = "9" * 5000   # more digits than json.loads converts (4,300)


def _json_paths(doc, path=()):
    """The path of ``doc`` and of every value nested in it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, path + (key,))


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _fuzz_json(text, rng):
    """One seeded corruption of a JSON text, as bytes: the text truncated; one
    byte of invalid UTF-8; a key removed; or at a random place a value of
    another kind, NaN or an infinity, 10**400 or an integer too long to convert."""
    blob = text.encode()
    kind = int(rng.integers(7))
    if kind == 0:
        return blob[:int(rng.integers(len(blob)))]
    if kind == 1:
        at = int(rng.integers(len(blob)))
        return blob[:at] + b"\xff" + blob[at + 1:]
    doc = json.loads(text)
    paths = list(_json_paths(doc))

    def at(path):
        return doc if not path else at(path[:-1])[path[-1]]

    objects = [path for path in paths if isinstance(at(path), dict) and at(path)]
    if kind == 2 and objects:
        obj = at(_pick(rng, objects))
        del obj[_pick(rng, sorted(obj))]
        return json.dumps(doc).encode()
    path = _pick(rng, paths)
    other_kinds = [v for v in (None, True, "x", 1.5, 7, [], {}) if type(v) is not type(at(path))]
    value = _pick(rng, {4: [math.nan, math.inf, -math.inf], 5: [10 ** 400],
                        6: ["<huge>"]}.get(kind, other_kinds))
    if path:
        at(path[:-1])[path[-1]] = value
    else:
        doc = value
    return json.dumps(doc).replace('"<huge>"', HUGE_INT).encode()


def _fuzz_flag(rng):
    """``--<section>.<key>=<value>`` for a seeded config field and a seeded
    value: another kind, NaN or an infinity, a huge integer, a truncated
    array, an empty text or invalid UTF-8 (as Python passes it on, escaped)."""
    fields = [f"{section}.{name}" for section in cli._SECTION_CLASSES
              for name in cli._section_fields(section)]
    values = ["null", "true", '"x"', "x", "1.5", "7", "-7", "[]", "{}", "[1.5, ", "",
              "NaN", "Infinity", "-Infinity", str(10 ** 400), HUGE_INT, "\udcff", '"\udcff"']
    return f"--{_pick(rng, fields)}={_pick(rng, values)}"


def _fuzz_checkpoint_header(blob, rng):
    hlen, = struct.unpack("<I", blob[8:12])
    header = _fuzz_json(blob[12:12 + hlen].decode(), rng)
    return blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + hlen:]


CKPT_PAYLOAD_CORRUPTIONS = (
    _truncate, _ckpt_payload_value(math.nan), _ckpt_payload_value(math.inf),
    _ckpt_payload_value(-math.inf), TSRC_CORRUPTIONS[11],       # trailing bytes
)


def _fuzz_case(what, pipeline, root, rng):
    """Write one seeded corruption of ``what`` under ``root``; returns the
    command line that reads it (detect or eval) and the directory it writes to."""
    data, ckpts, out = pipeline["data"], pipeline["tgt"], root / "out"
    files = {"detections": pipeline["det"],
             "predictions": pipeline["det"].parent / "detections.predictions.json"}
    flags = []
    if what in ("manifest", "feature file"):
        data = root / "data"
        data.mkdir()
        (data / "features").symlink_to(pipeline["data"] / "features")
        text = (pipeline["data"] / "manifest.json").read_text()
        if what == "feature file":      # one test video's file, which detect reads
            doc = json.loads(text)
            paths = _pick(rng, [v for v in doc["videos"] if v["split"] == "test"])["features"]
            stream = _pick(rng, STREAMS).value
            (data / "bad.tsrf").write_bytes(_pick(rng, TSRF_CORRUPTIONS)(
                (pipeline["data"] / paths[stream]).read_bytes(), rng))
            paths[stream] = "bad.tsrf"
            (data / "manifest.json").write_text(json.dumps(doc))
        else:
            (data / "manifest.json").write_bytes(_fuzz_json(text, rng))
    elif what.startswith("checkpoint"):
        ckpts = root / "ckpts"
        ckpts.mkdir()
        stream = _pick(rng, STREAMS)
        for s in STREAMS:
            blob = (pipeline["tgt"] / f"target_{s.value}.ckpt").read_bytes()
            if s == stream:
                corrupt = (_fuzz_checkpoint_header if what == "checkpoint header"
                           else _pick(rng, CKPT_PAYLOAD_CORRUPTIONS))
                blob = corrupt(blob, rng)
            (ckpts / f"target_{s.value}.ckpt").write_bytes(blob)
    elif what == "config file":
        _, doc = cli.resolve_config(None, {})
        (root / "cfg.json").write_bytes(_fuzz_json(json.dumps(doc, default=list), rng))
        flags = ["--config", str(root / "cfg.json")]
    elif what == "flag value":
        flags = [_fuzz_flag(rng)]
    else:
        text = files[what].read_text()
        files[what] = root / f"{what}.json"
        files[what].write_bytes(_fuzz_json(text, rng))
    if what in ("detections", "predictions") or what == "manifest" and rng.integers(2):
        return ["eval", "--data", str(data), "--detections", str(files["detections"]),
                "--predictions", str(files["predictions"]),
                "--out", str(out / "report.json")], out
    return _detect_argv(data, out / "detections.json", ckpts) + flags, out


class TestCommandLineFuzz:
    @pytest.mark.parametrize("what", ["manifest", "config file", "flag value",
                                      "checkpoint header", "checkpoint payload",
                                      "feature file", "detections", "predictions"])
    def test_every_corrupt_input_exits_zero_or_one(self, pipeline, tmp_path, capsys, what):
        # a 1 comes with one JSON error line and leaves no file behind
        if what == "detections":    # entries to corrupt: none reach the default threshold
            det = tmp_path / "detections.json"
            assert cli.main(_detect_argv(pipeline["data"], det, pipeline["tgt"])
                            + ["--detect.threshold=0.02"]) == 0
            assert json.loads(det.read_text()) != []
            pipeline = {**pipeline, "det": det}
        codes = []
        for case in range(FUZZ_CASES):
            root = tmp_path / str(case)
            root.mkdir()
            argv, out = _fuzz_case(what, pipeline, root, np.random.default_rng([22, case]))
            try:
                codes.append(cli.main(argv))
            except BaseException as exc:    # noqa: BLE001 - SystemExit too: a usage error
                pytest.fail(f"{what} case {case}: {argv} raised {exc!r}")
            err = capsys.readouterr().err
            assert "Traceback" not in err, (case, err)
            if codes[-1] == 1:
                assert "error" in _one_error(err), (case, err)
                assert not out.exists() or [p for p in out.rglob("*") if p.is_file()] == []
            else:
                assert codes[-1] == 0 and err == "", (case, argv, err)
        assert codes.count(1) >= FUZZ_CASES // 2, codes
