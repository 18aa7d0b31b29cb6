"""Tests for temporal IoU, average precision, accuracy, and report output."""

import json

import numpy as np
import pytest

from wtal.dataset import Manifest, Segment, Stream, VideoRecord
from wtal.errors import InputError
from wtal.evaluation import (
    Instance,
    accuracy,
    accuracy_from_predictions,
    average_precision,
    emit_report,
    ground_truth_instances,
    instances_from_detections,
    map_at_iou,
    report_to_csv,
    report_to_json,
    report_to_svg,
    tiou,
)

import oracles


def _emit_in_place(report, json_path):
    """Run ``emit_report`` with a writer that fills each final path directly;
    returns the paths in the order written."""
    written = []

    def write(path, fill):
        written.append(path)
        fill(path)

    emit_report(report, ("a", "b"), json_path, write)
    return written


def _det(video_id, lo, hi, conf, label=0):
    return Instance(video_id=video_id, label=label, t_start=lo, t_end=hi,
                    confidence=conf)


def _gt(video_id, lo, hi, label=0):
    return Instance(video_id=video_id, label=label, t_start=lo, t_end=hi)


def _random_ap_instance(rng):
    """A tiny random scoring problem for oracle comparison."""
    dets, gts = [], []
    for v in range(int(rng.integers(1, 5))):
        vid = f"v{v}"
        for _ in range(int(rng.integers(0, 4))):
            lo = float(rng.uniform(0, 8))
            gts.append(_gt(vid, lo, lo + float(rng.uniform(0.5, 4))))
        for _ in range(int(rng.integers(0, 6))):
            lo = float(rng.uniform(0, 8))
            dets.append(_det(vid, lo, lo + float(rng.uniform(0.5, 4)),
                             conf=float(rng.uniform())))
    return dets, gts


class TestTiou:
    def test_identical_intervals(self):
        assert tiou((1.0, 3.0), (1.0, 3.0)) == 1.0

    def test_half_overlap(self):
        # [0,10] vs [5,15]: intersection 5, union 15
        np.testing.assert_allclose(tiou((0.0, 10.0), (5.0, 15.0)), 1.0 / 3.0,
                                   rtol=0, atol=1e-15)

    def test_disjoint_and_touching(self):
        assert tiou((0.0, 1.0), (2.0, 3.0)) == 0.0
        assert tiou((0.0, 1.0), (1.0, 2.0)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = sorted(rng.uniform(0, 10, size=2) + [0.0, 0.1])
            b = sorted(rng.uniform(0, 10, size=2) + [0.0, 0.1])
            assert tiou(tuple(a), tuple(b)) == tiou(tuple(b), tuple(a))

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = (1.0, 1.0 + float(rng.uniform(0.1, 5)))
            b = (float(rng.uniform(0, 4)), 6.0)
            np.testing.assert_allclose(tiou(a, b), oracles.iou_by_hand(a, b),
                                       rtol=0, atol=1e-15)

    def test_rejects_degenerate(self):
        with pytest.raises(InputError):
            tiou((1.0, 1.0), (0.0, 2.0))
        with pytest.raises(InputError):
            tiou((0.0, 2.0), (3.0, 1.0))


class TestAveragePrecision:
    def test_single_matching_detection(self):
        dets = [_det("v", 0.0, 1.0, 0.9)]
        gts = [_gt("v", 0.2, 1.2)]  # IoU = 0.8/1.4 ~ 0.571 >= 0.5
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_true_positive_first(self):
        dets = [_det("v", 0.0, 1.0, 0.9), _det("v", 5.0, 6.0, 0.8)]
        gts = [_gt("v", 0.0, 1.0)]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_false_positive_first_halves_precision(self):
        dets = [_det("v", 5.0, 6.0, 0.9), _det("v", 0.0, 1.0, 0.8)]
        gts = [_gt("v", 0.0, 1.0)]
        assert average_precision(dets, gts, 0.5) == 0.5

    def test_no_detections(self):
        assert average_precision([], [_gt("v", 0.0, 1.0)], 0.5) == 0.0

    def test_no_ground_truth(self):
        assert average_precision([_det("v", 0.0, 1.0, 0.9)], [], 0.5) == 0.0

    def test_each_gt_matched_once(self):
        # two identical detections, one ground truth: second is FP
        dets = [_det("v", 0.0, 1.0, 0.9), _det("v", 0.0, 1.0, 0.8)]
        gts = [_gt("v", 0.0, 1.0)]
        assert average_precision(dets, gts, 0.5) == 1.0

    def test_video_ids_separate_matches(self):
        dets = [_det("a", 0.0, 1.0, 0.9)]
        gts = [_gt("b", 0.0, 1.0)]
        assert average_precision(dets, gts, 0.5) == 0.0

    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dets, gts = _random_ap_instance(rng)
            for thr in (0.3, 0.5, 0.7):
                got = average_precision(dets, gts, thr)
                want = oracles.ap_by_hand(
                    [(d.video_id, d.t_start, d.t_end, d.confidence) for d in dets],
                    [(g.video_id, g.t_start, g.t_end) for g in gts], thr)
                assert got == want

    def test_invariant_under_monotone_confidence_transform(self):
        rng = np.random.default_rng(3)
        dets, gts = _random_ap_instance(rng)
        rescaled = [Instance(d.video_id, d.label, d.t_start, d.t_end,
                             0.1 + 0.5 * d.confidence) for d in dets]
        assert average_precision(dets, gts, 0.5) == \
            average_precision(rescaled, gts, 0.5)

    def test_low_confidence_false_positive_never_helps(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            dets, gts = _random_ap_instance(rng)
            if not gts:
                continue
            base = average_precision(dets, gts, 0.5)
            junk = dets + [_det("nowhere", 90.0, 91.0, 1e-6)]
            assert average_precision(junk, gts, 0.5) <= base + 1e-15


class TestMapAtIou:
    def test_perfect_detections(self):
        gts = [_gt("v", 0.0, 1.0, label=0), _gt("v", 2.0, 3.0, label=1),
               _gt("w", 1.0, 2.0, label=0)]
        dets = [Instance(g.video_id, g.label, g.t_start, g.t_end, 1.0) for g in gts]
        report = map_at_iou(dets, gts, thresholds=(0.1, 0.5, 0.9))
        assert report.map_per_threshold == (1.0, 1.0, 1.0)
        assert report.average_map == 1.0
        assert report.evaluated_classes == (0, 1)

    def test_no_detections_scores_zero(self):
        gts = [_gt("v", 0.0, 1.0)]
        report = map_at_iou([], gts, thresholds=(0.5,))
        assert report.map_per_threshold == (0.0,)

    def test_classes_without_gt_excluded(self):
        gts = [_gt("v", 0.0, 1.0, label=1)]
        dets = [_det("v", 0.0, 1.0, 0.9, label=0),
                _det("v", 0.0, 1.0, 0.9, label=1)]
        report = map_at_iou(dets, gts, thresholds=(0.5,))
        assert report.evaluated_classes == (1,)
        assert report.map_per_threshold == (1.0,)

    def test_map_is_classwise_mean(self):
        gts = [_gt("v", 0.0, 1.0, label=0), _gt("v", 2.0, 3.0, label=1)]
        dets = [_det("v", 0.0, 1.0, 0.9, label=0)]  # class 1 missed
        report = map_at_iou(dets, gts, thresholds=(0.5,))
        assert report.map_per_threshold == (0.5,)

    def test_map_at_lookup(self):
        gts = [_gt("v", 0.0, 1.0)]
        report = map_at_iou([], gts, thresholds=(0.1, 0.5))
        by_threshold = dict(zip(report.thresholds, report.map_per_threshold))
        assert by_threshold[0.5] == 0.0
        assert 0.3 not in by_threshold

    def test_tightening_iou_never_helps(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dets, gts = _random_ap_instance(rng)
            if not gts:
                continue
            report = map_at_iou(dets, gts, thresholds=(0.1, 0.3, 0.5, 0.7, 0.9))
            vals = list(report.map_per_threshold)
            assert vals == sorted(vals, reverse=True)


class TestAccuracy:
    def test_fraction(self):
        predicted = {"a": 0, "b": 1, "c": 0, "d": 2}
        labels = {"a": {0}, "b": {1}, "c": {1}, "d": {2}}
        assert accuracy(predicted, labels) == 0.75

    def test_multi_label_counts_any_hit(self):
        assert accuracy({"a": 1}, {"a": {0, 1}}) == 1.0

    def test_all_and_none(self):
        assert accuracy({"a": 0}, {"a": {0}}) == 1.0
        assert accuracy({"a": 1}, {"a": {0}}) == 0.0

    def test_missing_prediction_rejected(self):
        with pytest.raises(InputError, match="missing"):
            accuracy({}, {"a": {0}})
        with pytest.raises(InputError):
            accuracy({"a": 0}, {})


def _eval_manifest():
    videos = (
        VideoRecord(video_id="t0", split="test", n=50, fps=25.0, labels=(0,),
                    trimmed=False,
                    feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
                    segments=(Segment(0, 0.2, 1.0),)),
        VideoRecord(video_id="t1", split="test", n=50, fps=25.0, labels=(1,),
                    trimmed=False,
                    feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
                    segments=(Segment(1, 0.0, 0.8), Segment(1, 1.2, 1.6))),
    )
    return Manifest(version=1, class_names=("a", "b"), videos=videos)


class TestAdapters:
    def test_ground_truth_flattening(self):
        gts = ground_truth_instances(_eval_manifest(), "test")
        assert len(gts) == 3
        assert gts[0] == Instance("t0", 0, 0.2, 1.0)
        assert {g.label for g in gts} == {0, 1}

    def test_detection_parsing(self):
        dets = instances_from_detections([
            {"video_id": "t0", "class": 1, "t_start": 0.0, "t_end": 1.0,
             "confidence": 0.25},
        ], _eval_manifest(), "test")
        assert dets == [Instance("t0", 1, 0.0, 1.0, 0.25)]

    def test_detection_parsing_rejects_missing_fields(self):
        with pytest.raises(InputError, match="entry 0"):
            instances_from_detections([{"video_id": "t0"}], _eval_manifest(), "test")

    @pytest.mark.parametrize("edit, message", [
        ({"video_id": "s0"}, "video 's0' is not in split 'test'"),
        ({"class": 2}, r"class 2 outside \[0, 2\)"),
        ({"class": -1}, r"class -1 outside \[0, 2\)"),
        ({"t_start": 1.0}, "t_start 1.0 is not before t_end"),
        ({"t_start": 0.9, "t_end": 0.5}, "t_start 0.9 is not before t_end"),
    ], ids=["video_outside_split", "class_too_large", "negative_class", "empty_segment",
            "reversed_segment"])
    def test_detection_parsing_rejects_entries_outside_the_split(self, edit, message):
        good = {"video_id": "t0", "class": 1, "t_start": 0.0, "t_end": 1.0, "confidence": 0.5}
        with pytest.raises(InputError, match=f"detection entry 1: {message}"):
            instances_from_detections([good, dict(good, **edit)], _eval_manifest(), "test")

    def test_accuracy_from_predictions(self):
        preds = [
            {"video_id": "t0", "logits_rgb": [2.0, 0.0], "logits_flow": [0.0, 2.0],
             "probs_fused": [0.6, 0.4]},
            {"video_id": "t1", "logits_rgb": [2.0, 0.0], "logits_flow": [0.0, 2.0],
             "probs_fused": [0.1, 0.9]},
        ]
        acc = accuracy_from_predictions(preds, _eval_manifest(), "test")
        assert acc == {"rgb": 0.5, "flow": 0.5, "fused": 1.0}

    def test_accuracy_requires_full_coverage(self):
        with pytest.raises(InputError, match="missing"):
            accuracy_from_predictions([], _eval_manifest(), "test")

    @pytest.mark.parametrize("edit, message", [
        ({"logits_rgb": [2.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]}, "'logits_rgb' holds 7 scores"),
        ({"logits_flow": [2.0]}, "'logits_flow' holds 1 scores"),
        ({"probs_fused": [0.2] * 5}, "'probs_fused' holds 5 scores"),
        ({"probs_fused": []}, "'probs_fused' holds 0 scores"),
        ({"video_id": "s0"}, "'s0' is repeated or not in split 'test'"),
        ({"video_id": "t0"}, "'t0' is repeated or not in split 'test'"),
    ], ids=["seven_rgb_logits", "one_flow_logit", "five_fused_probs", "no_fused_probs",
            "unknown_video", "repeated_video"])
    def test_accuracy_rejects_records_that_cannot_belong_to_the_split(self, edit, message):
        preds = [{"video_id": video_id, "logits_rgb": [2.0, 0.0], "logits_flow": [0.0, 2.0],
                  "probs_fused": [0.6, 0.4]} for video_id in ("t0", "t1")]
        preds[1].update(edit)
        with pytest.raises(InputError, match=f"prediction record 1: {message}"):
            accuracy_from_predictions(preds, _eval_manifest(), "test")

    @staticmethod
    def _six_videos():
        return Manifest(version=1, class_names=("a", "b"), videos=tuple(
            VideoRecord(video_id=f"t{i}", split="test", n=50, fps=25.0, labels=(i % 2,),
                        trimmed=False, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
                        segments=(Segment(i % 2, 0.2, 1.0),)) for i in range(6)))

    @pytest.mark.parametrize("faults, message", [
        ({1: {"logits_rgb": [float("nan"), 1.0]}, 4: {"video_id": 4}},
         "prediction record 1: 'logits_rgb' must be an array, each a finite number, "
         "got [nan, 1.0]"),
        ({1: {"probs_fused": [0.5]}, 4: {"logits_flow": None}},
         "prediction record 1: 'probs_fused' holds 1 scores for 2 classes"),
        ({1: {"video_id": "t0"}, 4: {"logits_rgb": [True, 1.0]}},
         "prediction record 1: 't0' is repeated or not in split 'test'"),
        ({1: {"logits_flow": [1.0, 2.0, 3.0]}, 4: {"video_id": "t9"}},
         "prediction record 1: 'logits_flow' holds 3 scores for 2 classes"),
    ], ids=["type", "length", "repeated", "length_before_unknown"])
    def test_predictions_name_the_first_faulty_record(self, faults, message):
        preds = [{"video_id": f"t{i}", "logits_rgb": [2.0, 0.0], "logits_flow": [0.0, 2.0],
                  "probs_fused": [0.6, 0.4]} for i in range(6)]
        for i, edit in faults.items():
            preds[i].update(edit)
        with pytest.raises(InputError) as exc:
            accuracy_from_predictions(preds, self._six_videos(), "test")
        assert str(exc.value) == message

    @pytest.mark.parametrize("faults, message", [
        ({1: {"confidence": float("inf")}, 4: {"class": 9}},
         "detection entry 1: 'confidence' must be a finite number, got inf"),
        ({1: {"class": 2}, 4: {"t_start": "0"}}, "detection entry 1: class 2 outside [0, 2)"),
        ({1: {"t_end": 0.1}, 4: {"video_id": "s0"}},
         "detection entry 1: t_start 0.2 is not before t_end"),
    ], ids=["type", "class", "empty_segment"])
    def test_detections_name_the_first_faulty_entry(self, faults, message):
        dets = [{"video_id": f"t{i}", "class": 1, "t_start": 0.2, "t_end": 1.0,
                 "confidence": 0.5} for i in range(6)]
        for i, edit in faults.items():
            dets[i].update(edit)
        with pytest.raises(InputError) as exc:
            instances_from_detections(dets, self._six_videos(), "test")
        assert str(exc.value) == message


class TestReportArtifacts:
    def _report(self):
        gts = [_gt("v", 0.0, 1.0, label=0), _gt("v", 2.0, 3.0, label=1)]
        dets = [_det("v", 0.0, 1.1, 0.9, label=0)]
        return map_at_iou(dets, gts, thresholds=(0.1, 0.5, 0.9),
                          accuracy_by_stream={"rgb": 0.5, "flow": 1.0, "fused": 1.0})

    def test_json_fields(self):
        doc = json.loads(report_to_json(self._report(), ("a", "b")))
        assert set(doc) == {"thresholds", "map_per_threshold", "average_map",
                            "ap_per_class", "accuracy"}
        assert doc["accuracy"] == {"rgb": 0.5, "flow": 1.0, "fused": 1.0}
        assert set(doc["ap_per_class"]) == {"a", "b"}
        assert len(doc["map_per_threshold"]) == 3

    def test_csv_layout(self):
        lines = report_to_csv(self._report(), ("a", "b")).splitlines()
        assert lines[0] == "iou,mAP,a,b"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.1

    def test_svg_is_wellformed_bar_chart(self):
        svg = report_to_svg(self._report())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 1 + 3  # background + one bar per threshold

    def test_emission_is_deterministic(self, tmp_path):
        report = self._report()
        paths1 = _emit_in_place(report, tmp_path / "r1.json")
        paths2 = _emit_in_place(report, tmp_path / "r2.json")
        assert [p.suffix for p in paths1] == [".json", ".csv", ".svg"]
        for p1, p2 in zip(paths1, paths2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_values_survive_json(self, tmp_path):
        report = self._report()
        json_path = _emit_in_place(report, tmp_path / "report.json")[0]
        doc = json.loads(json_path.read_text())
        np.testing.assert_allclose(doc["map_per_threshold"],
                                   report.map_per_threshold, rtol=0, atol=0)
        np.testing.assert_allclose(doc["average_map"], report.average_map,
                                   rtol=0, atol=0)
