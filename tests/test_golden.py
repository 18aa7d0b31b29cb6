"""Golden digests: the pipeline's files, byte for byte.

One small but complete run through ``cli.main`` must write files whose
SHA-256 digests equal those committed in ``golden_digests.json``. The run is
``synth``; source and target ``train`` with both transfer taps on; ``detect``;
``eval``; ``ablate``; and a sigmoid-mode target ``train`` with two heads (no transfer), so
that the non-default attention paths are pinned too.

A change that moves bits on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and says which files moved and why. The file also records the Python,
numpy and BLAS versions it was made with; a mismatch names them when they
differ here.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from wtal import cli

GOLDEN = Path(__file__).with_name("golden_digests.json")
SYNTH_FLAGS = ["--synth.n_classes", "3", "--synth.d", "5", "--synth.source_per_class", "3",
               "--synth.target_train", "8", "--synth.target_test", "5",
               "--synth.frames", "[8,14]", "--synth.seed", "7"]
TRAIN_FLAGS = ["--train.iterations", "12", "--train.batch_size", "4",
               "--train.attention_hidden", "4", "--train.classifier_hidden", "6"]
DETECT_FLAGS = ["--detect.threshold", "0.02"]     # 12 iterations reach no higher score


def run_pipeline(root: Path) -> None:
    """Every command that writes files, on a tiny dataset under ``root``."""
    data, src, tgt = str(root / "data"), root / "src", root / "tgt"
    sources = ["--source-rgb", str(src / "source_rgb.ckpt"),
               "--source-flow", str(src / "source_flow.ckpt")]
    commands = [
        ["synth", "--out", data, *SYNTH_FLAGS],
        ["train", "--role", "source", "--data", data, "--out", str(src), *TRAIN_FLAGS],
        ["train", "--role", "target", "--data", data, "--out", str(tgt), *sources,
         *TRAIN_FLAGS],
        ["detect", "--data", data, "--ckpt-rgb", str(tgt / "target_rgb.ckpt"),
         "--ckpt-flow", str(tgt / "target_flow.ckpt"), "--out", str(root / "detections.json"),
         *DETECT_FLAGS],
        ["eval", "--data", data, "--detections", str(root / "detections.json"),
         "--predictions", str(root / "detections.predictions.json"),
         "--out", str(root / "report.json")],
        ["ablate", "--data", data, "--out", str(root / "ablation.csv"), *TRAIN_FLAGS,
         *DETECT_FLAGS],
        ["train", "--role", "target", "--data", data, "--out", str(root / "sigmoid"),
         *TRAIN_FLAGS, "--transfer.enabled", "false", "--train.attention_mode", "sigmoid",
         "--train.heads", "2"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv


def digests(root: Path) -> dict[str, str]:
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def versions() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def test_pipeline_files_match_the_golden_digests(tmp_path):
    run_pipeline(tmp_path)
    golden, got = json.loads(GOLDEN.read_text()), digests(tmp_path)
    changed = sorted(name for name in golden["files"].keys() | got.keys()
                     if golden["files"].get(name) != got.get(name))
    differing = {name: f"{golden['versions'].get(name)} in {GOLDEN.name}, {here} here"
                 for name, here in versions().items() if golden["versions"].get(name) != here}
    assert not changed, (f"{len(changed)} files differ from {GOLDEN.name}: {changed}; "
                         f"versions that differ: {differing or 'none'}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        run_pipeline(Path(tmp))
        doc = {"versions": versions(), "files": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['files'])} digests to {GOLDEN}")
