"""Tests for frame scoring, stream fusion, and proposal extraction."""

import dataclasses

import numpy as np
import pytest

from wtal.dataset import FeatureMatrix, Stream, SyntheticSpec, generate_synthetic, load_dataset
from wtal.detection import (
    DetectConfig,
    Proposal,
    detect_split,
    extract_proposals,
    fused_frame_scores,
    predict_split,
    video_scores,
)
from wtal.errors import ConfigError, ShapeError
from wtal.training import Model, TrainConfig, forward_video, init_model, train_source

import oracles


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
        # one class, frames [0.1, 0.5, 0.6, 0.1] at 2 fps, threshold 0.2:
        # frames 1..2 pass, giving [1, 3) -> seconds [0.5, 1.5), mean 0.55
        scores = np.array([[0.1, 0.5, 0.6, 0.1]])
        props = extract_proposals(scores, fps=2.0, cfg=DetectConfig())
        assert props == [Proposal(label=0, t_start=0.5, t_end=1.5,
                                  confidence=0.55, ind_start=1, ind_end=3)]

    def test_all_background_gives_nothing(self):
        assert extract_proposals(np.zeros((3, 10)), 25.0, DetectConfig()) == []

    def test_everything_above_gives_whole_video(self):
        props = extract_proposals(np.full((1, 6), 0.9), 25.0, DetectConfig())
        assert len(props) == 1
        assert (props[0].ind_start, props[0].ind_end) == (0, 6)
        np.testing.assert_allclose(props[0].confidence, 0.9, rtol=0, atol=1e-15)

    def test_frame_index_to_seconds(self):
        track = np.zeros((1, 305))
        track[0, 300:302] = 0.9
        props = extract_proposals(track, fps=30.0, cfg=DetectConfig())
        assert props[0].t_start == 10.0
        assert props[0].t_end == pytest.approx(302 / 30.0)

    def test_boundary_frame_at_threshold_included(self):
        scores = np.array([[0.2, 0.19999]])
        props = extract_proposals(scores, 1.0, DetectConfig(threshold=0.2))
        assert len(props) == 1
        assert (props[0].ind_start, props[0].ind_end) == (0, 1)

    def test_multiple_runs_and_classes(self):
        scores = np.array([
            [0.9, 0.0, 0.9, 0.9, 0.0],
            [0.0, 0.9, 0.0, 0.0, 0.9],
        ])
        props = extract_proposals(scores, 1.0, DetectConfig())
        runs = [(p.label, p.ind_start, p.ind_end) for p in props]
        assert runs == [(0, 0, 1), (0, 2, 4), (1, 1, 2), (1, 4, 5)]

    def test_runs_are_maximal_and_disjoint(self):
        rng = np.random.default_rng(0)
        cfg = DetectConfig()
        for _ in range(50):
            scores = rng.uniform(size=(2, int(rng.integers(1, 40))))
            for c, props in _group_by_class(extract_proposals(scores, 5.0, cfg)).items():
                track = scores[c]
                prev_end = -1
                for p in props:
                    assert p.ind_start > prev_end  # disjoint and ordered
                    assert np.all(track[p.ind_start:p.ind_end] >= cfg.threshold)
                    if p.ind_start > 0:
                        assert track[p.ind_start - 1] < cfg.threshold
                    if p.ind_end < track.size:
                        assert track[p.ind_end] < cfg.threshold
                    np.testing.assert_allclose(
                        p.confidence, track[p.ind_start:p.ind_end].mean(),
                        rtol=0, atol=1e-15)
                    assert 0.0 <= p.t_start < p.t_end <= track.size / 5.0
                    prev_end = p.ind_end

    def test_raising_threshold_shrinks_coverage(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = rng.uniform(size=(1, 30))
            covered = []
            for thr in (0.2, 0.4, 0.6, 0.8):
                props = extract_proposals(scores, 1.0, DetectConfig(threshold=thr))
                covered.append(sum(p.ind_end - p.ind_start for p in props))
            assert covered == sorted(covered, reverse=True)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            extract_proposals(np.zeros(5), 25.0, DetectConfig())
        with pytest.raises(ConfigError):
            extract_proposals(np.zeros((1, 5)), 0.0, DetectConfig())


def _group_by_class(props):
    out = {}
    for p in props:
        out.setdefault(p.label, []).append(p)
    return out


class TestFrameScores:
    def test_matrix_path_matches_per_frame_scoring(self):
        rng = np.random.default_rng(2)
        for heads in (1, 2):
            model = _model(rng, heads=heads)
            x = FeatureMatrix(rng.normal(size=(4, 7)))
            logits, scores = video_scores(model, x)
            att, cls = forward_video(model, x)
            np.testing.assert_array_equal(logits, cls.logits)
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
        test_ids = {rec.video_id for rec in data.split("test")}
        for det in dets:
            assert set(det) == {"video_id", "class", "t_start", "t_end", "confidence"}
            assert det["video_id"] in test_ids
            assert 0 <= det["class"] < data.n_classes
            assert 0.0 <= det["t_start"] < det["t_end"]
            assert 0.0 < det["confidence"] <= 1.0

    def test_detection_matches_manual_extraction(self, trained):
        data, m_rgb, m_flow = trained
        cfg = DetectConfig()
        _, scores = predict_split(data, "test", m_rgb, m_flow)
        dets = detect_split(data, "test", scores, cfg)
        rec = data.split("test")[0]
        _, w_rgb = video_scores(m_rgb, data.features(rec.video_id, Stream.RGB))
        _, w_flow = video_scores(m_flow, data.features(rec.video_id, Stream.FLOW))
        np.testing.assert_array_equal(scores[rec.video_id][0], w_rgb)
        np.testing.assert_array_equal(scores[rec.video_id][1], w_flow)
        fused = fused_frame_scores(w_rgb, w_flow, cfg)
        manual = [{"video_id": rec.video_id, "class": p.label,
                   "t_start": p.t_start, "t_end": p.t_end,
                   "confidence": p.confidence}
                  for p in extract_proposals(fused, rec.fps, cfg)]
        assert [d for d in dets if d["video_id"] == rec.video_id] == manual

    def test_prediction_schema_and_fusion(self, trained):
        data, m_rgb, m_flow = trained
        preds, scores = predict_split(data, "test", m_rgb, m_flow)
        assert len(preds) == len(data.split("test"))
        assert set(scores) == {pred["video_id"] for pred in preds}
        for pred in preds:
            z_rgb = np.array(pred["logits_rgb"])
            z_flow = np.array(pred["logits_flow"])
            fused = np.array(pred["probs_fused"])
            np.testing.assert_allclose(fused.sum(), 1.0, rtol=0, atol=1e-9)
            # the logits are read off the same forward pass as the score maps
            for model, stream, z, w in zip((m_rgb, m_flow), (Stream.RGB, Stream.FLOW),
                                           (z_rgb, z_flow), scores[pred["video_id"]]):
                x = data.features(pred["video_id"], stream)
                np.testing.assert_array_equal(z, forward_video(model, x)[1].logits)
                assert w.shape == (data.n_classes, x.n)
            np.testing.assert_allclose(fused, oracles.fuse_streams(z_rgb, z_flow),
                                       rtol=0, atol=1e-12)
            assert z_rgb.shape == z_flow.shape == (data.n_classes,)
