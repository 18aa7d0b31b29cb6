"""End-to-end tests of the command-line interface."""

import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wtal.detection
from wtal import cli
from wtal.dataset import Stream, load_dataset
from wtal.errors import ConfigError
from wtal.training import (CSV_HEADER, TrainConfig, init_model, load_checkpoint,
                           save_checkpoint)

SYNTH_FLAGS = [
    "--synth.n_classes", "2", "--synth.d", "4",
    "--synth.source_per_class", "3", "--synth.target_train", "6",
    "--synth.target_test", "4", "--synth.frames", "[8,12]",
]
TRAIN_FLAGS = [
    "--train.iterations", "20", "--train.batch_size", "4",
    "--train.attention_hidden", "4", "--train.classifier_hidden", "6",
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
                    "0.5,1.5", "2.0"):
            with pytest.raises(ConfigError):
                cli.parse_thresholds(bad)


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
        run_cfg, _ = cli.resolve_config(None, {"synth.frames": "[8,12]"})
        assert run_cfg.synth.frames == (8, 12)

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

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            cli.resolve_config(None, {"synth.seed": "fast"})
        with pytest.raises(ConfigError, match="true/false"):
            cli.resolve_config(None, {"transfer.enabled": "7"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            cli.resolve_config(None, {"train.momentum": "1.5"})

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli.resolve_config(str(path), {})


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


@pytest.fixture
def forward_calls(monkeypatch):
    """The stream of each model that ``wtal.detection`` runs forward, in call order."""
    calls = []
    forward = wtal.detection.forward_video
    monkeypatch.setattr(wtal.detection, "forward_video",
                        lambda model, x: calls.append(model.stream) or forward(model, x))
    return calls


class TestPipeline:
    def test_synth_output_loads(self, pipeline):
        data = load_dataset(pipeline["data"])
        assert data.n_classes == 2
        assert len(data.split("source")) == 6
        assert len(data.split("train")) == 6
        assert len(data.split("test")) == 4

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
        n_test = len(load_dataset(pipeline["data"]).split("test"))
        assert sorted(forward_calls) == sorted([Stream.RGB, Stream.FLOW] * n_test)
        assert det.read_bytes() == pipeline["det"].read_bytes()
        assert (tmp_path / "detections.predictions.json").read_bytes() == \
            (pipeline["det"].parent / "detections.predictions.json").read_bytes()

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
        save_checkpoint(flow, cfg, 0, tmp_path / "flow3.ckpt")
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
            save_checkpoint(model, cfg, 0, tmp_path / f"{stream.value}3.ckpt")
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(tmp_path / "rgb3.ckpt"),
                       "--ckpt-flow", str(tmp_path / "flow3.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ConfigError"
        assert "have 3 classes" in err["message"] and "has 2" in err["message"]
        assert not (tmp_path / "d.json").exists()

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

    @pytest.mark.parametrize("mutate", [
        lambda h: h.update(stream="depth"),
        lambda h: h.pop("config"),
        lambda h: h.pop("params"),
        lambda h: h["config"].update(bogus=1),
        lambda h: h.pop("role"),
        lambda h: h.pop("iteration"),
        lambda h: h["params"][0].update(name="att_w0"),
        lambda h: h["params"].reverse(),
    ], ids=["unknown_stream", "no_config", "no_params", "unknown_config_key",
            "no_role", "no_iteration", "renamed_param", "reordered_params"])
    def test_malformed_checkpoint_header_exits_one(self, pipeline, tmp_path, capsys,
                                                   mutate):
        blob = (pipeline["tgt"] / "target_rgb.ckpt").read_bytes()
        hlen, = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        mutate(header)
        text = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])
        rc = cli.main(["detect", "--data", str(pipeline["data"]),
                       "--ckpt-rgb", str(bad),
                       "--ckpt-flow", str(pipeline["tgt"] / "target_flow.ckpt"),
                       "--out", str(tmp_path / "d.json")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataFormatError"
        assert not (tmp_path / "d.json").exists()

    def test_target_transfer_needs_source_checkpoints(self, pipeline, tmp_path, capsys):
        rc = cli.main(["train", "--role", "target", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "m")] + TRAIN_FLAGS)
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "source-rgb" in err["message"]

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
        run = subprocess.run(
            [sys.executable, "-m", "wtal.cli", "train", "--role", "target",
             "--data", str(pipeline["data"]), "--out", str(tmp_path / "m"),
             "--transfer.enabled", "false"] + TRAIN_FLAGS + flags,
            capture_output=True, text=True, timeout=120,
            env=os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])})
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
        rec = load_dataset(pipeline["data"]).split("test")[0]
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
        assert list(tmp_path.glob("detections*")) == []

    def test_help_exits_zero(self):
        for argv in (["--help"], ["train", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0


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
        rc = cli.main(["ablate", "--data", str(pipeline["data"]),
                       "--out", str(out),
                       "--train.iterations", "10", "--train.batch_size", "4",
                       "--train.attention_hidden", "4",
                       "--train.classifier_hidden", "6"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "arm,accuracy,mAP@0.5"
        assert [ln.split(",")[0] for ln in lines[1:]] == \
            ["baseline", "sa", "kt", "sa_kt"]
        for ln in lines[1:]:
            _, acc, m = ln.split(",")
            assert 0.0 <= float(acc) <= 1.0
            assert 0.0 <= float(m) <= 1.0

    def test_one_forward_per_test_video_and_stream_per_arm(self, pipeline, tmp_path,
                                                            forward_calls):
        rc = cli.main(["ablate", "--data", str(pipeline["data"]),
                       "--out", str(tmp_path / "ablation.csv"),
                       "--train.iterations", "10", "--train.batch_size", "4",
                       "--train.attention_hidden", "4",
                       "--train.classifier_hidden", "6"])
        assert rc == 0
        n_test = len(load_dataset(pipeline["data"]).split("test"))
        assert sorted(forward_calls) == \
            sorted([Stream.RGB, Stream.FLOW] * n_test * len(cli.ABLATION_ARMS))
