"""Tests for frame scoring, stream fusion, and proposal extraction."""

import sys

import numpy as np
import pytest

from wtal import detection, training
from wtal.dataset import (STREAMS, Dataset, FeatureMatrix, Manifest, Stream, SyntheticSpec,
                          VideoRecord, encode_features, generate_synthetic, load_dataset)
from wtal.detection import (
    DetectConfig,
    detect_split,
    extract_proposals,
    fused_frame_scores,
    predict_split,
)
from wtal.errors import ConfigError, DataFormatError, InputError, ShapeError
from wtal.training import TrainConfig, forward_video, init_model, train_source

import oracles
from oracles import video_scores


def _model(rng, d=4, n_classes=3, heads=1, mode="softmax"):
    cfg = TrainConfig(attention_hidden=5, classifier_hidden=6, heads=heads,
                      attention_mode=mode)
    return init_model(d, n_classes, Stream.RGB, "target", cfg, rng)


class TestDetectConfig:
    def test_defaults(self):
        cfg = DetectConfig()
        assert cfg.theta == 0.5
        assert cfg.threshold == 0.2

    def test_validation(self):
        with pytest.raises(ConfigError):
            DetectConfig(theta=1.5)
        with pytest.raises(ConfigError):
            DetectConfig(threshold=0.0)
        with pytest.raises(ConfigError):
            DetectConfig(threshold=1.0)


class TestExtractProposals:
    def test_hand_traced_run(self):
        # one class, frames [0.1, 0.5, 0.6, 0.1], threshold 0.2: frames
        # 1..2 pass, giving [1, 3) with mean 0.55
        scores = np.array([[0.1, 0.5, 0.6, 0.1]])
        assert extract_proposals(scores, cfg=DetectConfig()) == [(0, 1, 3, 0.55)]

    def test_all_background_gives_nothing(self):
        assert extract_proposals(np.zeros((3, 10)), DetectConfig()) == []

    def test_everything_above_gives_whole_video(self):
        props = extract_proposals(np.full((1, 6), 0.9), DetectConfig())
        assert len(props) == 1
        assert props[0][:3] == (0, 0, 6)
        np.testing.assert_allclose(props[0][3], 0.9, rtol=0, atol=1e-15)

    def test_boundary_frame_at_threshold_included(self):
        scores = np.array([[0.2, 0.19999]])
        props = extract_proposals(scores, DetectConfig(threshold=0.2))
        assert [p[:3] for p in props] == [(0, 0, 1)]

    def test_multiple_runs_and_classes(self):
        scores = np.array([
            [0.9, 0.0, 0.9, 0.9, 0.0],
            [0.0, 0.9, 0.0, 0.0, 0.9],
        ])
        props = extract_proposals(scores, DetectConfig())
        runs = [p[:3] for p in props]
        assert runs == [(0, 0, 1), (0, 2, 4), (1, 1, 2), (1, 4, 5)]

    def test_runs_are_maximal_and_disjoint(self):
        rng = np.random.default_rng(0)
        cfg = DetectConfig()
        for _ in range(50):
            scores = rng.uniform(size=(2, int(rng.integers(1, 40))))
            for c, props in _group_by_class(extract_proposals(scores, cfg)).items():
                track = scores[c]
                prev_end = -1
                for _, lo, hi, confidence in props:
                    assert lo > prev_end  # disjoint and ordered
                    assert 0 <= lo < hi <= track.size
                    assert np.all(track[lo:hi] >= cfg.threshold)
                    if lo > 0:
                        assert track[lo - 1] < cfg.threshold
                    if hi < track.size:
                        assert track[hi] < cfg.threshold
                    np.testing.assert_allclose(confidence, track[lo:hi].mean(),
                                               rtol=0, atol=1e-15)
                    prev_end = hi

    def test_raising_threshold_shrinks_coverage(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.uniform(size=(1, 30))
            covered = []
            for thr in (0.2, 0.4, 0.6, 0.8):
                props = extract_proposals(scores, DetectConfig(threshold=thr))
                covered.append(sum(hi - lo for _, lo, hi, _ in props))
            assert covered == sorted(covered, reverse=True)

    def test_matches_per_class_oracle(self):
        rng = np.random.default_rng(10)
        for case in range(1200):
            shape = (int(rng.integers(1, 5)), 1 if case % 7 == 0 else int(rng.integers(2, 40)))
            thr = float(rng.uniform(0.05, 0.95))
            scores = rng.uniform(size=shape)
            kind = case % 5
            if kind == 1:                       # every frame above
                scores = rng.uniform(thr, 1.0, size=shape)
            elif kind == 2:                     # no frame above
                scores = rng.uniform(0.0, thr, size=shape) * 0.999
            elif kind == 3:                     # the threshold equals a score
                thr = float(rng.choice(scores.ravel()))
            elif kind == 4:                     # runs touching both ends
                scores[:, [0, -1]] = rng.uniform(thr, 1.0, size=(shape[0], 2))
            cfg = DetectConfig(threshold=thr)
            assert extract_proposals(scores, cfg) == \
                oracles.extract_proposals_per_class(scores, cfg)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            extract_proposals(np.zeros(5), DetectConfig())


def _group_by_class(props):
    out = {}
    for p in props:
        out.setdefault(p[0], []).append(p)
    return out


class TestFrameScores:
    def test_matrix_path_matches_per_frame_scoring(self):
        rng = np.random.default_rng(2)
        for heads in (1, 2):
            model = _model(rng, heads=heads)
            x = FeatureMatrix(rng.normal(size=(4, 7)))
            logits, scores = video_scores(model, x)
            att, cls = forward_video(model, x)
            np.testing.assert_array_equal(logits, cls.logits[0])
            for c in range(3):
                for i in range(7):
                    ref = oracles.frame_class_score(x.values[:, i],
                                                    float(att.frame_weights[i]),
                                                    model.classifier, c, heads)
                    np.testing.assert_allclose(scores[c, i], ref, rtol=0, atol=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(3)
        model = _model(rng)
        x = FeatureMatrix(rng.normal(size=(4, 20)) * 3.0)
        _, scores = video_scores(model, x)
        assert scores.shape == (3, 20)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


class TestFusion:
    def test_theta_mixes_streams(self):
        rng = np.random.default_rng(6)
        m_rgb = _model(rng)
        m_flow = _model(rng)
        x_rgb = FeatureMatrix(rng.normal(size=(4, 9)))
        x_flow = FeatureMatrix(rng.normal(size=(4, 9)))
        _, w_rgb = video_scores(m_rgb, x_rgb)
        _, w_flow = video_scores(m_flow, x_flow)
        fused = fused_frame_scores(w_rgb, w_flow, DetectConfig(theta=0.3))
        np.testing.assert_allclose(fused, 0.3 * w_rgb + 0.7 * w_flow,
                                   rtol=0, atol=1e-15)

    def test_theta_one_is_rgb_only(self):
        rng = np.random.default_rng(7)
        m_rgb, m_flow = _model(rng), _model(rng)
        x_rgb = FeatureMatrix(rng.normal(size=(4, 5)))
        x_flow = FeatureMatrix(rng.normal(size=(4, 5)))
        _, w_rgb = video_scores(m_rgb, x_rgb)
        _, w_flow = video_scores(m_flow, x_flow)
        fused = fused_frame_scores(w_rgb, w_flow, DetectConfig(theta=1.0))
        np.testing.assert_array_equal(fused, w_rgb)

    def test_hand_arithmetic(self):
        # 0.5 * 0.4 + 0.5 * 0.2 = 0.3, checked through the full stack by
        # fusing one stream with itself at theta complementary weights
        rng = np.random.default_rng(8)
        m = _model(rng)
        x = FeatureMatrix(rng.normal(size=(4, 5)))
        _, w = video_scores(m, x)
        fused = fused_frame_scores(w, w, DetectConfig(theta=0.5))
        np.testing.assert_allclose(fused, w, rtol=0, atol=1e-15)

    def test_rejects_frame_count_mismatch(self):
        rng = np.random.default_rng(9)
        m_rgb, m_flow = _model(rng), _model(rng)
        _, w_rgb = video_scores(m_rgb, FeatureMatrix(np.zeros((4, 5))))
        _, w_flow = video_scores(m_flow, FeatureMatrix(np.zeros((4, 6))))
        with pytest.raises(ShapeError):
            fused_frame_scores(w_rgb, w_flow, DetectConfig())


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("det")
    spec = SyntheticSpec(n_classes=2, d=6, source_per_class=8,
                         target_train=8, target_test=5, frames=(10, 14),
                         seed=1)
    generate_synthetic(spec, root)
    data = load_dataset(root)
    cfg = TrainConfig(batch_size=4, iterations=150, attention_hidden=6,
                      classifier_hidden=8)
    m_rgb, _ = train_source(data, Stream.RGB, cfg)
    m_flow, _ = train_source(data, Stream.FLOW, cfg)
    return data, m_rgb, m_flow


class TestSplitOutputs:
    def test_detection_schema(self, trained):
        data, m_rgb, m_flow = trained
        _, scores = predict_split(data, "test", m_rgb, m_flow)
        dets = detect_split(data, "test", scores, DetectConfig())
        test_ids = {rec.video_id for rec in data.manifest.split("test")}
        for det in dets:
            assert set(det) == {"video_id", "class", "t_start", "t_end", "confidence"}
            assert det["video_id"] in test_ids
            assert 0 <= det["class"] < data.manifest.n_classes
            assert 0.0 <= det["t_start"] < det["t_end"]
            assert 0.0 < det["confidence"] <= 1.0

    def test_detection_matches_manual_extraction(self, trained):
        data, m_rgb, m_flow = trained
        cfg = DetectConfig()
        _, scores = predict_split(data, "test", m_rgb, m_flow)
        dets = detect_split(data, "test", scores, cfg)
        rec = data.manifest.split("test")[0]
        _, w_rgb = video_scores(m_rgb, data.features(rec, Stream.RGB))
        _, w_flow = video_scores(m_flow, data.features(rec, Stream.FLOW))
        # the split runs as chunks of videos, video_scores as a chunk of one
        np.testing.assert_allclose(scores[rec.video_id][0], w_rgb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scores[rec.video_id][1], w_flow, rtol=0, atol=1e-12)
        fused = fused_frame_scores(w_rgb, w_flow, cfg)
        manual = [{"video_id": rec.video_id, "class": c, "t_start": lo / rec.fps,
                   "t_end": hi / rec.fps, "confidence": confidence}
                  for c, lo, hi, confidence in extract_proposals(fused, cfg)]
        assert [d for d in dets if d["video_id"] == rec.video_id] == manual

    def test_frame_index_to_seconds(self, tmp_path):
        # frames [300, 302) of a 30 fps video are [10.0, 302 / 30) seconds
        rec = VideoRecord(video_id="v", split="test", n=305, fps=30.0, labels=(0,),
                          trimmed=False, feature_paths={s: "x" for s in STREAMS})
        data = Dataset(tmp_path, Manifest(version=1, class_names=("a", "b"), videos=(rec,)))
        track = np.zeros((2, 305))
        track[0, 300:302] = 0.9
        dets = detect_split(data, "test", {"v": (track, track)}, DetectConfig())
        assert [(d["class"], d["t_start"], d["t_end"]) for d in dets] == [(0, 10.0, 302 / 30.0)]

    def test_prediction_schema_and_fusion(self, trained):
        data, m_rgb, m_flow = trained
        preds, scores = predict_split(data, "test", m_rgb, m_flow)
        assert len(preds) == len(data.manifest.split("test"))
        assert set(scores) == {pred["video_id"] for pred in preds}
        for rec, pred in zip(data.manifest.split("test"), preds):
            z_rgb = np.array(pred["logits_rgb"])
            z_flow = np.array(pred["logits_flow"])
            fused = np.array(pred["probs_fused"])
            np.testing.assert_allclose(fused.sum(), 1.0, rtol=0, atol=1e-9)
            # the logits are read off the same forward pass as the score maps
            for model, stream, z, w in zip((m_rgb, m_flow), (Stream.RGB, Stream.FLOW),
                                           (z_rgb, z_flow), scores[pred["video_id"]]):
                x = data.features(rec, stream)
                np.testing.assert_allclose(z, video_scores(model, x)[0], rtol=0, atol=1e-12)
                assert w.shape == (data.manifest.n_classes, x.n)
            np.testing.assert_allclose(fused, oracles.fuse_streams(z_rgb, z_flow),
                                       rtol=0, atol=1e-12)
            assert z_rgb.shape == z_flow.shape == (data.manifest.n_classes,)


class TestChunkedPrediction:
    """predict_split runs chunks of videos; the oracle runs one video at a time."""

    # the 1,100-frame video is longer than every case's frame budget
    # (training.CHUNK_CELLS // attention_hidden) and makes a chunk of its own;
    # 1-frame videos ride along with their neighbours
    LENGTHS = (1100, 1, 12, 7, 250, 9, 1, 40, 200, 3, 1)

    @staticmethod
    def _dataset(root, rng, d=5, n_classes=3, lengths=LENGTHS):
        videos = []
        for i, n in enumerate(lengths):
            paths = {}
            for stream in STREAMS:
                paths[stream] = f"{stream.value}_{i:02d}.tsrf"
                (root / paths[stream]).write_bytes(
                    encode_features(FeatureMatrix(rng.normal(size=(d, n)))))
            videos.append(VideoRecord(video_id=f"test_{i:02d}", split="test", n=n, fps=25.0,
                                      labels=(int(rng.integers(n_classes)),), trimmed=False,
                                      feature_paths=paths))
        return Dataset(root, Manifest(version=1, class_names=("a", "b", "c"),
                                      videos=tuple(videos)))

    @pytest.mark.parametrize("mode,heads,enabled,hidden_rgb,hidden_flow", [
        ("softmax", 1, True, 64, 64), ("softmax", 2, True, 64, 48),
        ("sigmoid", 1, True, 32, 64), ("sigmoid", 2, True, 64, 64),
        ("softmax", 1, False, 64, 128),
    ])
    def test_matches_one_video_at_a_time(self, tmp_path, monkeypatch, mode, heads, enabled,
                                         hidden_rgb, hidden_flow):
        chunks = self._record_chunks(monkeypatch)
        rng = np.random.default_rng(20)
        data = self._dataset(tmp_path, rng)
        m_rgb, m_flow = self._models(rng, mode, heads, enabled, hidden_rgb, hidden_flow)
        preds, scores = predict_split(data, "test", m_rgb, m_flow)
        # one pass per chunk and stream, within both models' frame budgets
        budget = training.CHUNK_CELLS // max(hidden_rgb, hidden_flow)
        per_stream = {s: [counts for stream, counts in chunks if stream == s] for s in STREAMS}
        assert per_stream[Stream.RGB] == per_stream[Stream.FLOW]
        assert [n for counts in per_stream[Stream.RGB] for n in counts] == list(self.LENGTHS)
        assert all(sum(counts) <= budget or len(counts) == 1 for _, counts in chunks)
        assert all(len(counts) <= training.CHUNK_VIDEOS for _, counts in chunks)
        assert (max(self.LENGTHS),) in per_stream[Stream.RGB] and max(self.LENGTHS) > budget
        self._assert_matches_oracle(data, m_rgb, m_flow, preds, scores)

    @staticmethod
    def _record_chunks(monkeypatch) -> list:
        """(stream, frame counts) of each forward pass this process runs."""
        chunks = []
        forward = detection.forward_video
        monkeypatch.setattr(detection, "forward_video", lambda model, x, counts=None: (
            chunks.append((model.stream, tuple(counts or (x.n,))))
            or forward(model, x, counts)))
        return chunks

    @staticmethod
    def _models(rng, mode="softmax", heads=2, enabled=True, hidden_rgb=64, hidden_flow=48):
        return tuple(
            init_model(5, 3, stream, "target",
                       TrainConfig(attention_hidden=hidden, classifier_hidden=7, heads=heads,
                                   attention_mode=mode, attention_enabled=enabled,
                                   init_scale=2.0), rng)
            for stream, hidden in ((Stream.RGB, hidden_rgb), (Stream.FLOW, hidden_flow)))

    @staticmethod
    def _assert_matches_oracle(data, m_rgb, m_flow, preds, scores):
        ref_preds, ref_scores = oracles.predict_split_per_video(data, "test", m_rgb, m_flow)
        assert [p["video_id"] for p in preds] == [p["video_id"] for p in ref_preds]
        assert list(scores) == list(ref_scores)
        for pred, ref in zip(preds, ref_preds):
            for key in ("logits_rgb", "logits_flow", "probs_fused"):
                np.testing.assert_allclose(pred[key], ref[key], rtol=0, atol=1e-12)
        for video_id, maps in scores.items():
            for w, ref_w in zip(maps, ref_scores[video_id]):
                assert w.shape == ref_w.shape
                np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-12)

    def test_a_process_without_multiprocessing_does_not_fork(self, tmp_path, monkeypatch):
        import multiprocessing
        rng = np.random.default_rng(23)
        data = self._dataset(tmp_path, rng, lengths=self.LENGTHS * 3)   # 4,872 frames
        m_rgb, m_flow = self._models(rng)
        chunks = self._record_chunks(monkeypatch)
        # neither a lone detect nor a process that has loaded multiprocessing
        # (as train does) forks, however large the split
        for loaded in (False, True):
            if loaded:
                monkeypatch.setitem(sys.modules, "multiprocessing", multiprocessing)
            else:
                monkeypatch.delitem(sys.modules, "multiprocessing", raising=False)
            chunks.clear()
            preds, scores = predict_split(data, "test", m_rgb, m_flow)
            # both passes ran here, RGB first, and loaded nothing
            streams = [stream for stream, _ in chunks]
            assert streams == sorted(streams, key=STREAMS.index) and set(streams) == set(STREAMS)
            assert ("multiprocessing" in sys.modules) == loaded
            self._assert_matches_oracle(data, m_rgb, m_flow, preds, scores)

    def test_an_empty_split_predicts_nothing(self, tmp_path):
        rng = np.random.default_rng(24)
        data = self._dataset(tmp_path, rng)
        models = self._models(rng)
        for call in (lambda: predict_split(data, "train", *models),
                     lambda: detect_split(data, "train", {}, DetectConfig())):
            with pytest.raises(InputError, match="split 'train' has no videos"):
                call()

    def test_an_rgb_error_is_reported_before_a_flow_error(self, tmp_path):
        rng = np.random.default_rng(22)
        data = self._dataset(tmp_path, rng)
        early, late = data.manifest.split("test")[1], data.manifest.split("test")[-2]
        (tmp_path / early.feature_paths[Stream.FLOW]).write_bytes(b"TSRF")
        (tmp_path / late.feature_paths[Stream.RGB]).write_bytes(b"TSRF")
        with pytest.raises(DataFormatError, match=f"{late.video_id}/rgb"):
            predict_split(data, "test", *self._models(rng))
