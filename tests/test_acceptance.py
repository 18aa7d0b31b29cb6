"""Acceptance gate: one test per release criterion.

Each test prints (via the conftest summary hook) a single pass/fail line.
The oracles used here live in tests/oracles.py and are independent
re-implementations, not imports from the package under test.
"""

import dataclasses
import time

import numpy as np
import pytest

from wtal import cli
from wtal.attention import (
    AttentionParams,
    attend,
    attention_grads,
    smooth_reg_direct,
    sparsity_reg,
    sparsity_reg_grad,
)
from wtal.dataset import FeatureMatrix, Stream, SyntheticSpec, generate_synthetic, load_dataset
from wtal.detection import DetectConfig
from wtal.evaluation import Instance, average_precision
from wtal.numerics import stable_softmax
from wtal.training import TrainConfig, certify_gradients
from wtal.transfer import TransferConfig, mmd2

import oracles
from _verdicts import record


def _verdict(num, name, ok, detail=""):
    line = record(num, name, ok, detail)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_gradient_certification():
    start = time.monotonic()
    errors = certify_gradients(seed=0, trials=3)
    elapsed = time.monotonic() - start
    worst = max(errors.values())
    ok = worst < 1e-5 and elapsed < 60.0
    _verdict(1, "gradient certification", ok,
             f"worst rel error {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_regularizer_identities():
    rng = np.random.default_rng(20)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 513))
        a = stable_softmax(rng.normal(size=n) * 3.0)
        direct = smooth_reg_direct(a)
        quad = oracles.smooth_reg_quadratic(a)
        worst_rel = max(worst_rel, abs(direct - quad) / max(abs(direct), 1e-300))

    worst_sum_dev = 0.0
    worst_grad_norm = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 12))
        b = int(rng.integers(1, 5))
        x = FeatureMatrix(rng.normal(size=(d, n)))
        p = AttentionParams(rng.normal(size=(b, d)), rng.normal(size=(1, b)))
        out = attend(x, p, mode="softmax")
        worst_sum_dev = max(worst_sum_dev, abs(sparsity_reg(out.a[0]) - 1.0))
        g_w1, g_w2 = attention_grads(x, p, out, g_a=sparsity_reg_grad(out.a))
        worst_grad_norm = max(worst_grad_norm,
                              np.linalg.norm(g_w1), np.linalg.norm(g_w2))

    ok = worst_rel <= 1e-12 and worst_sum_dev <= 1e-9 and worst_grad_norm <= 1e-9
    _verdict(2, "regularizer identities", ok,
             f"quad-vs-direct rel {worst_rel:.2e}, "
             f"|sparsity-1| {worst_sum_dev:.2e}, grad norm {worst_grad_norm:.2e}")


def test_criterion_3_mmd_oracle():
    rng = np.random.default_rng(30)
    worst = 0.0
    identities = True
    for _ in range(100):
        n_t = int(rng.integers(1, 9))
        n_u = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 7))
        t = rng.normal(size=(n_t, dim)) * 2.0
        u = rng.normal(size=(n_u, dim)) * 2.0
        sigma = float(rng.uniform(0.4, 3.0))
        got = mmd2(t, u, sigma)
        worst = max(worst, abs(got - oracles.mmd2_triple_loop(t, u, sigma)))
        identities &= mmd2(t, t.copy(), sigma) == 0.0
        identities &= abs(got - mmd2(u, t, sigma)) <= 1e-14
        identities &= got >= -1e-12
    singleton = mmd2(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]), 1.0)
    singleton_dev = abs(singleton - (2.0 - 2.0 * np.exp(-2.0)))
    ok = worst <= 1e-12 and identities and singleton_dev <= 1e-12
    _verdict(3, "MMD oracle equivalence", ok,
             f"max |diff| {worst:.2e}, singleton dev {singleton_dev:.2e}")


def test_criterion_4_evaluation_oracle():
    rng = np.random.default_rng(40)
    exact = True
    for _ in range(50):
        dets, gts = [], []
        for v in range(int(rng.integers(1, 5))):
            vid = f"v{v}"
            for _ in range(int(rng.integers(0, 4))):
                lo = float(rng.uniform(0, 8))
                gts.append(Instance(vid, 0, lo, lo + float(rng.uniform(0.5, 4))))
            for _ in range(int(rng.integers(0, 6))):
                lo = float(rng.uniform(0, 8))
                dets.append(Instance(vid, 0, lo, lo + float(rng.uniform(0.5, 4)),
                                     float(rng.uniform())))
        for thr in (0.3, 0.5, 0.7):
            got = average_precision(dets, gts, thr)
            want = oracles.ap_by_hand(
                [(d.video_id, d.t_start, d.t_end, d.confidence) for d in dets],
                [(g.video_id, g.t_start, g.t_end) for g in gts], thr)
            exact &= got == want

    tp_first = average_precision(
        [Instance("v", 0, 0.0, 1.0, 0.9), Instance("v", 0, 5.0, 6.0, 0.8)],
        [Instance("v", 0, 0.0, 1.0)], 0.5)
    fp_first = average_precision(
        [Instance("v", 0, 5.0, 6.0, 0.9), Instance("v", 0, 0.0, 1.0, 0.8)],
        [Instance("v", 0, 0.0, 1.0)], 0.5)
    ok = exact and tp_first == 1.0 and fp_first == 0.5
    _verdict(4, "evaluation oracle equivalence", ok,
             f"50 instances exact: {exact}, TP-first {tp_first}, FP-first {fp_first}")


def _probe_accuracy(data):
    """Frame-level ridge linear probe over C+1 classes (background extra).

    Independent separability oracle: if frames are linearly separable this
    scores ~1.0 regardless of anything the trained models do.
    """
    def frames_of(split):
        xs, ys = [], []
        for rec in data.manifest.split(split):
            fl = oracles.frame_labels(rec)
            x = data.features(rec, Stream.RGB).values
            xs.append(x.T)
            ys.append(np.where(fl < 0, data.manifest.n_classes, fl))
        return np.vstack(xs), np.concatenate(ys)

    xtr, ytr = frames_of("train")
    xte, yte = frames_of("test")
    xtr1 = np.hstack([xtr, np.ones((len(xtr), 1))])
    xte1 = np.hstack([xte, np.ones((len(xte), 1))])
    onehot = np.eye(data.manifest.n_classes + 1)[ytr]
    w = np.linalg.solve(xtr1.T @ xtr1 + 1e-3 * np.eye(xtr1.shape[1]),
                        xtr1.T @ onehot)
    return float(np.mean(np.argmax(xte1 @ w, axis=1) == yte))


def test_criterion_5_end_to_end_benchmark(tmp_path):
    start = time.monotonic()
    spec = SyntheticSpec(n_classes=8, d=16, source_per_class=50,
                         target_train=200, target_test=100, seed=0)
    generate_synthetic(spec, tmp_path / "ds")
    data = load_dataset(tmp_path / "ds")

    probe = _probe_accuracy(data)
    assert probe >= 0.99, f"generator not linearly separable: probe {probe:.4f}"

    (row,) = cli.run_ablation(data, [("default", TrainConfig())], DetectConfig())
    acc, map50 = row["accuracy"], row["map"]
    elapsed = time.monotonic() - start
    ok = acc >= 0.90 and map50 >= 0.50 and elapsed < 300.0
    _verdict(5, "end-to-end synthetic benchmark", ok,
             f"probe {probe:.3f}, fused acc {acc:.3f}, mAP@0.5 {map50:.3f}, "
             f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criteria 6 and 7 share one 5-seed study on a shifted low-label scenario
# ---------------------------------------------------------------------------

STUDY_ARMS = ("baseline", "sa", "sa_kt", "fc1only")


def _study_seed(root, seed):
    spec = SyntheticSpec(n_classes=4, d=12, source_per_class=30,
                         target_train=60, target_test=50,
                         separation=4.0, noise=0.8, shift=3.0, seed=seed)
    generate_synthetic(spec, root)
    base = TrainConfig(iterations=1200, seed=seed, label_fraction=0.25)
    no_kt = TransferConfig(enabled=False)      # base transfers through both taps
    arms = [("baseline", dataclasses.replace(base, attention_enabled=False, transfer=no_kt)),
            ("sa", dataclasses.replace(base, transfer=no_kt)),
            ("sa_kt", base),
            ("fc1only", dataclasses.replace(base, transfer=TransferConfig(fc2_enabled=False)))]
    rows = cli.run_ablation(load_dataset(root), arms, DetectConfig())
    return {row["arm"]: (row["accuracy"], row["map"]) for row in rows}


@pytest.fixture(scope="module")
def trend_study(tmp_path_factory):
    """Each arm's median (accuracy, mAP@0.5) over seeds 0-4."""
    per_seed = [_study_seed(tmp_path_factory.mktemp(f"trend{seed}"), seed) for seed in range(5)]
    return {arm: tuple(np.median([scores[arm] for scores in per_seed], axis=0).tolist())
            for arm in STUDY_ARMS}


def test_criterion_6_transfer_trend(trend_study):
    acc_kt = trend_study["sa_kt"][0]
    acc_no_kt = trend_study["sa"][0]
    map_both = trend_study["sa_kt"][1]
    map_fc1 = trend_study["fc1only"][1]
    ok = acc_kt >= acc_no_kt and map_both >= map_fc1
    _verdict(6, "transfer trend", ok,
             f"median acc KT {acc_kt:.3f} >= no-KT {acc_no_kt:.3f}; "
             f"median mAP fc1+fc2 {map_both:.3f} >= fc1-only {map_fc1:.3f}")


def test_criterion_7_ablation_shape(trend_study, tmp_path):
    data_dir = tmp_path / "ds"
    csv_path = tmp_path / "ablation.csv"
    assert cli.main(["synth", "--out", str(data_dir),
                     "--synth.n_classes", "2", "--synth.d", "4",
                     "--synth.source_per_class", "3", "--synth.target_train", "6",
                     "--synth.target_test", "4", "--synth.frames", "[8,12]"]) == 0
    assert cli.main(["ablate", "--data", str(data_dir), "--out", str(csv_path),
                     "--train.iterations", "10", "--train.batch_size", "4",
                     "--train.attention_hidden", "4",
                     "--train.classifier_hidden", "6"]) == 0
    lines = csv_path.read_text().splitlines()
    csv_ok = (lines[0] == "arm,accuracy,mAP@0.5"
              and [ln.split(",")[0] for ln in lines[1:]]
              == ["baseline", "sa", "kt", "sa_kt"])

    m_full = trend_study["sa_kt"][1]
    m_sa = trend_study["sa"][1]
    m_base = trend_study["baseline"][1]
    ok = csv_ok and m_full >= m_sa >= m_base
    _verdict(7, "ablation shape", ok,
             f"four-arm CSV: {csv_ok}; median mAP {m_full:.3f} >= {m_sa:.3f} "
             f">= {m_base:.3f}")


def test_criterion_8_determinism(tmp_path):
    synth_flags = ["--synth.n_classes", "2", "--synth.d", "4",
                   "--synth.source_per_class", "3", "--synth.target_train", "6",
                   "--synth.target_test", "4", "--synth.frames", "[8,12]"]
    train_flags = ["--train.iterations", "15", "--train.batch_size", "4",
                   "--train.attention_hidden", "4",
                   "--train.classifier_hidden", "6"]

    def tree_bytes(root):
        return {p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    runs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        data = root / "data"
        assert cli.main(["synth", "--out", str(data)] + synth_flags) == 0
        assert cli.main(["train", "--role", "source", "--data", str(data),
                         "--out", str(root / "src")] + train_flags) == 0
        assert cli.main(["train", "--role", "target", "--data", str(data),
                         "--out", str(root / "tgt"),
                         "--source-rgb", str(root / "src" / "source_rgb.ckpt"),
                         "--source-flow", str(root / "src" / "source_flow.ckpt")]
                        + train_flags) == 0
        assert cli.main(["detect", "--data", str(data),
                         "--ckpt-rgb", str(root / "tgt" / "target_rgb.ckpt"),
                         "--ckpt-flow", str(root / "tgt" / "target_flow.ckpt"),
                         "--out", str(root / "detections.json")]) == 0
        assert cli.main(["eval", "--data", str(data),
                         "--detections", str(root / "detections.json"),
                         "--predictions", str(root / "detections.predictions.json"),
                         "--thresholds", "0.3,0.5", "--out", str(root / "report.json")]) == 0
        assert cli.main(["ablate", "--data", str(data),
                         "--out", str(root / "ablation.csv"),
                         "--train.iterations", "8", "--train.batch_size", "4",
                         "--train.attention_hidden", "4",
                         "--train.classifier_hidden", "6"]) == 0
        runs.append(tree_bytes(root))

    same_files = set(runs[0]) == set(runs[1])
    diffs = [str(rel) for rel in runs[0] if runs[0][rel] != runs[1].get(rel)]
    repeat_gradcheck = certify_gradients(seed=0) == certify_gradients(seed=0)
    ok = same_files and not diffs and repeat_gradcheck
    _verdict(8, "determinism", ok,
             f"{len(runs[0])} artifacts byte-identical" if ok
             else f"differing artifacts: {diffs[:5]}")
