"""Tests for the feature container format, manifest i/o, and the
synthetic benchmark generator."""

import dataclasses
import math
import json
import struct

import numpy as np
import pytest

import wtal.dataset
from wtal.dataset import (
    Dataset,
    FeatureMatrix,
    Manifest,
    Segment,
    Stream,
    STREAMS,
    SyntheticSpec,
    VideoRecord,
    check_fields,
    decode_features,
    encode_features,
    generate_synthetic,
    is_json,
    is_json_column,
    json_text,
    load_dataset,
    load_manifest,
    save_manifest,
)
from wtal.errors import ConfigError, DataFormatError, InputError
import wtal.evaluation
from wtal.evaluation import (_DETECTION_FIELDS, _PREDICTION_FIELDS,
                             accuracy_from_predictions, instances_from_detections)

import oracles

TINY_SPEC = SyntheticSpec(
    n_classes=2, d=4, source_per_class=2, target_train=3, target_test=2,
    frames=(8, 12), seed=0,
)


def _make_manifest() -> Manifest:
    videos = (
        VideoRecord(
            video_id="v0", split="source", n=10, fps=25.0, labels=(0,),
            trimmed=True,
            feature_paths={Stream.RGB: "v0.rgb.tsrf", Stream.FLOW: "v0.flow.tsrf"},
            segments=(Segment(0, 0.0, 0.4),),
        ),
        VideoRecord(
            video_id="v1", split="test", n=20, fps=25.0, labels=(1,),
            trimmed=False,
            feature_paths={Stream.RGB: "v1.rgb.tsrf", Stream.FLOW: "v1.flow.tsrf"},
            segments=(Segment(1, 0.2, 0.4), Segment(1, 0.6, 0.8)),
        ),
    )
    return Manifest(version=1, class_names=("a", "b"), videos=videos)


class TestFeatureFormat:
    def test_header_layout(self):
        blob = encode_features(FeatureMatrix(np.zeros((2, 3))))
        assert len(blob) == 16 + 4 * 2 * 3
        assert blob[:4] == b"TSRF"
        assert struct.unpack("<III", blob[4:16]) == (1, 2, 3)
        assert blob[8:12] == bytes([2, 0, 0, 0])

    def test_payload_is_frame_major(self):
        m = FeatureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))  # d=2, n=2
        blob = encode_features(m)
        flat = np.frombuffer(blob, dtype="<f4", offset=16)
        # frame 0 = column 0 contiguous, then frame 1
        np.testing.assert_array_equal(flat, [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_bit_exact_at_float32(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 8))
            n = int(rng.integers(1, 30))
            vals = rng.normal(size=(d, n)).astype(np.float32).astype(np.float64)
            out = decode_features(encode_features(FeatureMatrix(vals)))
            np.testing.assert_array_equal(out.values, vals)

    def test_non_finite_rejected_with_location(self):
        vals = np.zeros((3, 4))
        vals[0, 1] = np.nan
        with pytest.raises(DataFormatError, match="frame 1.*column 0"):
            encode_features(FeatureMatrix(vals))

    def test_decode_rejects_bad_magic(self):
        blob = b"XXXX" + struct.pack("<III", 1, 1, 1) + b"\0" * 4
        with pytest.raises(DataFormatError, match="magic"):
            decode_features(blob)

    def test_decode_rejects_bad_version(self):
        blob = b"TSRF" + struct.pack("<III", 2, 1, 1) + b"\0" * 4
        with pytest.raises(DataFormatError, match="version"):
            decode_features(blob)

    def test_decode_rejects_truncation(self):
        # header claims ten frames, payload carries one
        blob = b"TSRF" + struct.pack("<III", 1, 2, 10) + b"\0" * 8
        with pytest.raises(DataFormatError, match="truncated|expected"):
            decode_features(blob)

    def test_decode_rejects_trailing_bytes(self):
        good = encode_features(FeatureMatrix(np.zeros((1, 1))))
        with pytest.raises(DataFormatError):
            decode_features(good + b"\0")

    def test_decode_rejects_short_blob(self):
        with pytest.raises(DataFormatError):
            decode_features(b"TSRF")

    def test_decode_rejects_degenerate_shape(self):
        blob = b"TSRF" + struct.pack("<III", 1, 0, 5)
        with pytest.raises(DataFormatError):
            decode_features(blob)

    def test_matrix_shape_validation(self):
        with pytest.raises(InputError):
            FeatureMatrix(np.zeros(3))
        with pytest.raises(InputError):
            FeatureMatrix(np.zeros((0, 4)))


JSON_KIND_CASES = [
    (True, bool, True), (True, int, False), (True, float, False), (1, float, True),
    (1.5, int, False), (float("inf"), float, False), (float("nan"), float, False),
    ([1, 2], [int], True), ([1, True], [int], False), ([], [str], True),
    ("x", [str], False), ([[1.5]], [[float]], True), (True, (bool, str), True),
    ("median", (str, float), True), (2, (str, float), True), (True, (str, float), False),
    ([1.0, -2], (float, [float]), True), ([1.0, None], (float, [float]), False),
    # arrays of exact scalars take one pass; anything else each element's rule
    ([1.5, -2.0, 0.0], [float], True), ([1.5, True], [float], False),
    ([1.5, float("nan")], [float], False), ([float("inf"), 1.5], [float], False),
    ([1.5, float("-inf")], [float], False), ([1.5, 10 ** 400], [float], False),
    ([1.5, 10 ** 300], [float], True), ([np.float64(1.5), 2.0], [float], True),
    ([np.float64("nan")], [float], False), ([True, False], [bool], True),
    ([1, 2.0], [int], False), (["a", 1], [str], False), ([["a"]], [str], False),
    ([[1.5], 2.0], [float], False), ([[1.5], [float("nan")]], [[float]], False),
    ([[1, 2], []], [[int]], True), ([1.5], [(str, float)], True),
]


class TestJsonKinds:
    @pytest.mark.parametrize("value, kind, expected", JSON_KIND_CASES)
    def test_kinds(self, value, kind, expected):
        assert is_json(value, kind) is expected

    def test_check_fields_names_where_key_and_kind(self):
        with pytest.raises(InputError, match=r"^entry 3: 'a' must be an array, each an "
                                             r"integer, got \[1, 'x'\]$"):
            check_fields({"a": [1, "x"]}, (("a", [int]),), InputError, "entry 3")
        with pytest.raises(DataFormatError, match=r"^entry 3 is not a JSON object$"):
            check_fields([], (("a", int),), DataFormatError, "entry 3")
        with pytest.raises(InputError, match="'b' must be a string or a finite number, got None"):
            check_fields({"a": 1}, (("a", int), ("b", (str, float))), InputError, "entry 3")


# every value of JSON_KIND_CASES, and values that sit at the edges of the
# column rule's fast passes: floats whose sum overflows, huge integers,
# negative zero, numpy scalars, tuples and empty containers
COLUMN_VALUES = [value for value, _, _ in JSON_KIND_CASES] + [
    0, -3, 1.7e308, -1.7e308, 10 ** 400, -0.0, np.float64(2.5), np.int64(3), None, "",
    {}, {"a": 1}, [], [[]], [1.5, 2], [[1.5, 2.0], [3]], [["a"], [1]], [[True]], (1, 2),
    [(1.5,)]]
# each field kind of a manifest record, a detection and a prediction, and
# the nested and alternative kinds the rule also takes
COLUMN_KINDS = list({repr(kind): kind for _, kind in (
    wtal.dataset._RECORD_FIELDS + _DETECTION_FIELDS + _PREDICTION_FIELDS)}.values()) + [
    list, [list], [[float]], [[int]], (str, float), (float, [float]), [(str, float)]]


class TestJsonColumns:
    @pytest.mark.parametrize("kind", COLUMN_KINDS, ids=repr)
    def test_column_rule_agrees_with_the_value_rule(self, kind):
        columns = [[]] + [[v] for v in COLUMN_VALUES]
        columns += [[a, b] for a in COLUMN_VALUES for b in COLUMN_VALUES]
        columns += [[1.5] * 40 + [v] for v in COLUMN_VALUES]
        for column in columns:
            expected = all(oracles.json_kind_by_hand(v, kind) for v in column)
            assert all(is_json(v, kind) for v in column) is expected, column
            assert is_json_column(column, kind) is expected, column


JSON_DOCUMENTS = [
    [], {}, [[]], {"a": {}}, {"b": [1, [2.5, {"c": None}]], "a": [True, False]},
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 0.1, 1e-7],
    [1.5, 2, True, None, -0.0], [1, 2, 3], {"x": float("nan")}, [np.float64(2.5), 1.0],
    ("tuple", (1.5, 2.5)), ["naïve", "日本", "tab\there", "\x00\x1f\x7f", "quote\"\\"],
    {"ünï": 1, "\n": [0.5]}, "string", 7, 2.5, None, True,
]


class TestJsonText:
    @pytest.mark.parametrize("doc", JSON_DOCUMENTS, ids=range(len(JSON_DOCUMENTS)))
    def test_matches_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=1, sort_keys=True) + "\n"

    def test_raises_type_error_outside_its_documents(self):
        # json.dumps writes the key 1 as "1"; no document here has such a key
        for doc in ({1: "int key"}, [object()], {"a": {2.5}}):
            with pytest.raises(TypeError):
                json_text(doc)


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = _make_manifest()
        path = tmp_path / "manifest.json"
        save_manifest(manifest, path)
        assert load_manifest(path) == manifest

    def test_save_is_deterministic(self, tmp_path):
        manifest = _make_manifest()
        save_manifest(manifest, tmp_path / "a.json")
        save_manifest(manifest, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "manifest.json"
        save_manifest(_make_manifest(), path)
        doc = json.loads(path.read_text())
        doc["version"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="version"):
            load_manifest(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_manifest(path)

    @staticmethod
    def _manifest_doc(tmp_path, n_videos: int) -> dict:
        """The JSON document of a valid manifest of ``n_videos`` test videos."""
        videos = tuple(VideoRecord(
            video_id=f"v{i}", split="test", n=10, fps=25.0, labels=(i % 2,), trimmed=False,
            feature_paths={Stream.RGB: f"v{i}.rgb.tsrf", Stream.FLOW: f"v{i}.flow.tsrf"},
            segments=(Segment(i % 2, 0.0, 0.2), Segment(i % 2, 0.24, 0.4)))
            for i in range(n_videos))
        save_manifest(Manifest(version=1, class_names=("a", "b"), videos=videos),
                      tmp_path / "valid.json")
        return json.loads((tmp_path / "valid.json").read_text())

    @pytest.mark.parametrize("faults, message", [
        ({3: ("n", "x"), 5: ("fps", None)},
         "manifest record 3: 'n' must be an integer, got 'x'"),
        ({3: ("segments", [[0, 0.0]]), 5: ("labels", [True])},
         "manifest record 3: 'segments' must be [label, t_start, t_end] arrays, got [[0, 0.0]]"),
        ({3: ("features", {"rgb": "a"}), 5: ("id", 5)},
         "manifest record 3: 'features' must map ['flow', 'rgb'] to path strings, "
         "got {'rgb': 'a'}"),
        ({2: ("id", "v0"), 6: ("trimmed", 1)}, "duplicate video id 'v0'"),
        ({2: ("id", "v0"), 6: ("n", 0)}, "duplicate video id 'v0'"),
        ({3: ("n", 0), 5: ("split", 1)}, "manifest record 5: 'split' must be a string, got 1"),
        ({3: ("labels", [4]), 5: ("labels", [])}, "v3: label 4 outside [0, 2)"),
        # a segment's own checks name the video that holds it
        ({5: ("segments", [[0, 0.0, 9.0]])}, "v5: segment [0.0, 9.0] outside [0, 0.4]"),
        ({6: ("segments", [[0, 0.0, 0.2], [3, 0.2, 0.3]])}, "v6: segment label 3 outside [0, 2)"),
    ], ids=["types", "segments", "features", "duplicate_then_type", "duplicate_then_value",
            "type_after_value", "values", "segment_bounds", "segment_label"])
    def test_names_the_first_fault_in_record_order(self, tmp_path, faults, message):
        # type faults and duplicates are found record by record, values after them
        doc = self._manifest_doc(tmp_path, 8)
        for i, (key, value) in faults.items():
            doc["videos"][i][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises((DataFormatError, InputError)) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_checks_a_valid_manifest_a_field_at_a_time(self, tmp_path, monkeypatch):
        calls = []
        check = wtal.dataset.check_fields
        monkeypatch.setattr(wtal.dataset, "check_fields",
                            lambda *args: calls.append(args[-1]) or check(*args))
        counts = []
        for n_videos in (7, 700):
            path = tmp_path / f"{n_videos}.json"
            path.write_text(json.dumps(self._manifest_doc(tmp_path, n_videos)))
            calls.clear()
            assert len(load_manifest(path).videos) == n_videos
            counts.append(len(calls))
        assert counts[0] == counts[1], calls

    def test_rejects_trimmed_multi_label(self):
        rec = VideoRecord(
            video_id="v", split="source", n=5, fps=25.0, labels=(0, 1),
            trimmed=True, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
        )
        with pytest.raises(InputError, match="exactly one label"):
            rec.validate(n_classes=2)

    def test_rejects_label_out_of_range(self):
        rec = VideoRecord(
            video_id="v", split="test", n=5, fps=25.0, labels=(4,),
            trimmed=False, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
        )
        with pytest.raises(InputError, match="label 4"):
            rec.validate(n_classes=2)

    @pytest.mark.parametrize("changes, message", [
        (dict(n=0), "need n >= 1 and fps > 0"),
        (dict(fps=0.0), "need n >= 1 and fps > 0"),
        (dict(labels=()), "empty label set"),
        (dict(segments=(Segment(5, 0.0, 0.1),)), "segment label 5"),
    ], ids=["n", "fps", "labels", "segment_label"])
    def test_rejects_bad_record(self, changes, message):
        rec = VideoRecord(video_id="v", split="test", n=5, fps=25.0, labels=(0,),
                          trimmed=False, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"})
        with pytest.raises(InputError, match=message):
            rec._replace(**changes).validate(n_classes=2)

    def test_segment_bounds_checked(self):
        with pytest.raises(InputError):
            Segment(0, -0.1, 0.2).validate(n=10, fps=25.0, n_classes=2)
        with pytest.raises(InputError):
            Segment(0, 0.3, 0.2).validate(n=10, fps=25.0, n_classes=2)
        with pytest.raises(InputError):
            Segment(0, 0.0, 5.0).validate(n=10, fps=25.0, n_classes=2)

    def test_split_selector(self):
        manifest = _make_manifest()
        assert [v.video_id for v in manifest.split("source")] == ["v0"]
        assert [v.video_id for v in manifest.split("test")] == ["v1"]
        with pytest.raises(InputError, match="split 'train' has no videos; "
                                             "the manifest's splits are source, test$"):
            manifest.split("train")


# values a fault writes in place of a key's value, an array element or a
# whole entry: each JSON kind, the non-finite floats, integers beyond a
# float, and integers on both sides of the class and label ranges
FAULT_VALUES = [None, True, "x", 1.5, 7, -1, 0, [], {}, [1.5], ["x"], [[0, 1.5]],
                math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]


def _paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _add_fault(entries, rng, id_key, ids):
    """One seeded fault in one seeded entry: a repeated or foreign id, or a
    value anywhere in the entry (the entry itself included) replaced,
    deleted or, in an array, repeated."""
    i = int(rng.integers(len(entries)))
    if rng.random() < 0.15 and isinstance(entries[i], dict):
        entries[i][id_key] = ids[int(rng.integers(len(ids)))]
        return
    paths = list(_paths(entries[i]))
    path = (i,) + paths[int(rng.integers(len(paths)))]
    parent = entries
    for key in path[:-1]:
        parent = parent[key]
    key, action = path[-1], int(rng.integers(4))
    if action == 0:                             # a missing key, a shorter array
        del parent[key]
    elif action == 1 and isinstance(parent, list):      # a longer array
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = FAULT_VALUES[int(rng.integers(len(FAULT_VALUES)))]


def _arrays():
    """A valid manifest document, detections and predictions for its test split."""
    videos = [{"id": f"v{i}", "split": "train" if i % 4 == 0 else "test", "n": 10 + i,
               "fps": 25.0 if i % 2 else 25, "labels": [i % 3] if i % 5 else [0, 2],
               "trimmed": False, "features": {"rgb": f"v{i}.rgb", "flow": f"v{i}.flow"},
               "segments": [[i % 3, 0.0, 0.2], [i % 3, 0.24, 0.4]][:i % 3]}
              for i in range(12)]
    del videos[5]["segments"]
    doc = {"version": 1, "classes": ["a", "b", "c"], "videos": videos}
    test = [v["id"] for v in videos if v["split"] == "test"]
    detections = [{"video_id": test[i % len(test)], "class": i % 3, "t_start": 0.05 * i,
                   "t_end": 0.05 * i + 0.1 + (i % 2), "confidence": 1 / (i + 1)}
                  for i in range(12)]
    predictions = [{"video_id": v, "logits_rgb": [0.5, -1.0, i], "logits_flow": [1, 2.5, 0.0],
                    "probs_fused": [0.2, 0.3, 0.5]} for i, v in enumerate(test)]
    return {"manifest": doc, "detections": detections, "predictions": predictions}


class TestCheckEntries:
    """``check_entries`` against the per-entry loops of ``oracles`` on seeded
    faults, and the prefix closure its bisection relies on."""

    READERS = {
        "manifest": (wtal.dataset._manifest_from_json, oracles.manifest_by_hand, "id"),
        "detections": (lambda dets, m: instances_from_detections(dets, m, "test"),
                       lambda dets, m: oracles.instances_by_hand(dets, m, "test"), "video_id"),
        "predictions": (lambda preds, m: accuracy_from_predictions(preds, m, "test"),
                        lambda preds, m: oracles.accuracy_by_hand(preds, m, "test"),
                        "video_id"),
    }
    # a fragment of each message the faults must reach
    MESSAGES = {
        "manifest": ["is not a JSON object", "must be an integer", "must be a finite number",
                     "'features' must map", "'segments' must be", "duplicate video id",
                     "outside [0, 3)", "n is too large for a float"],
        "detections": ["is not a JSON object", "must be a string", "must be a finite number",
                       "is not in split", "outside [0, 3)", "is not before t_end"],
        "predictions": ["is not a JSON object", "must be an array, each a finite number",
                        "is repeated or not in split", "holds 2 scores", "holds 4 scores"],
    }

    @staticmethod
    def _outcome(read, *args):
        try:
            return read(*args)
        except (DataFormatError, InputError) as exc:
            return type(exc), str(exc)

    @staticmethod
    def _assert_prefix_closed(entries, table, rules):
        """Each rule, on the prefixes whose entries all have their kinds, holds
        up to some length and on none longer."""
        kinds_hold = [isinstance(e, dict) and all(
            oracles.json_kind_by_hand(e.get(key), kind) for key, kind in table)
            for e in entries] + [False]
        prefixes = [entries[:k] for k in range(kinds_hold.index(False) + 1)]
        for test, _ in rules:
            holds = [test([[e.get(key) for e in prefix] for key, _ in table], prefix)
                     for prefix in prefixes]
            assert holds == sorted(holds, reverse=True), (holds, entries)

    @pytest.mark.parametrize("what", ["manifest", "detections", "predictions"])
    def test_faults_give_the_oracles_error(self, what, monkeypatch):
        calls = []
        check = wtal.dataset.check_entries
        spy = lambda entries, table, rules, *rest: (calls.append((entries, table, rules))
                                                    or check(entries, table, rules, *rest))
        monkeypatch.setattr(wtal.dataset, "check_entries", spy)
        monkeypatch.setattr(wtal.evaluation, "check_entries", spy)
        read, oracle, id_key = self.READERS[what]
        valid = _arrays()
        manifest = wtal.dataset._manifest_from_json(valid["manifest"])
        ids = [v["id"] for v in valid["manifest"]["videos"]] + ["nope"]
        outcomes = []
        for case in range(200):
            rng = np.random.default_rng(case)
            doc = _arrays()[what]
            entries = doc["videos"] if what == "manifest" else doc
            for _ in range(int(rng.integers(2, 4))):
                _add_fault(entries, rng, id_key, ids)
            args = (doc,) if what == "manifest" else (doc, manifest)
            calls.clear()
            outcome = self._outcome(read, *args)
            assert outcome == self._outcome(oracle, *args), case
            outcomes.append(outcome)
            assert len(calls) == 1, case
            self._assert_prefix_closed(*calls[0])
        messages = " ".join(message for outcome in outcomes if isinstance(outcome, tuple)
                            for message in outcome[1:])
        assert [m for m in self.MESSAGES[what] if m not in messages] == []


class TestFrameLabels:
    def test_background_is_minus_one(self):
        rec = VideoRecord(
            video_id="v", split="test", n=10, fps=25.0, labels=(1,),
            trimmed=False, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
            segments=(Segment(1, 0.08, 0.2),),  # frames 2..5
        )
        labels = oracles.frame_labels(rec)
        np.testing.assert_array_equal(labels, [-1, -1, 1, 1, 1, -1, -1, -1, -1, -1])

    def test_requires_segments(self):
        rec = VideoRecord(
            video_id="v", split="train", n=10, fps=25.0, labels=(0,),
            trimmed=False, feature_paths={Stream.RGB: "x", Stream.FLOW: "y"},
        )
        with pytest.raises(ValueError):
            oracles.frame_labels(rec)


class TestSyntheticSpecValidation:
    def test_defaults_are_valid(self):
        SyntheticSpec()

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_classes=1)

    def test_rejects_short_videos(self):
        # untrimmed structure needs room for up to 3 runs plus gaps
        with pytest.raises(ConfigError):
            SyntheticSpec(frames=(4, 12))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(action_fraction=(0.0, 0.2))
        with pytest.raises(ConfigError):
            SyntheticSpec(action_fraction=(0.5, 0.2))

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(separation=0.0)

    @pytest.mark.parametrize("bad, message", [
        (dict(d=0), "feature dimension"),
        (dict(noise=-0.1), "noise"),
        (dict(noise=math.nan), "noise"),
        (dict(separation=math.nan), "separation"),
        (dict(fps=0.0), "fps"),
        (dict(fps=-5.0), "fps"),
        (dict(frames=(12, 8)), "empty frame-count range"),
        (dict(target_test=0), "at least one video"),
        (dict(source_per_class=0), "at least one video"),
        (dict(seed=-1), "seed"),
        (dict(d=3, shift=(1.0, 2.0)), "length d=3"),
    ], ids=["d", "noise", "noise_nan", "separation_nan", "fps_zero", "fps_negative",
            "frames", "target_test", "source_per_class", "seed", "shift"])
    def test_rejects_out_of_range_values(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            SyntheticSpec(**bad)


class TestGenerateSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        for name in ("a", "b"):
            generate_synthetic(TINY_SPEC, tmp_path / name)
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_seed_changes_features(self, tmp_path):
        generate_synthetic(TINY_SPEC, tmp_path / "a")
        generate_synthetic(dataclasses.replace(TINY_SPEC, seed=1), tmp_path / "b")
        a = (tmp_path / "a" / "features" / "source_00_0000.rgb.tsrf").read_bytes()
        b = (tmp_path / "b" / "features" / "source_00_0000.rgb.tsrf").read_bytes()
        assert a != b

    def test_split_sizes(self, tmp_path):
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        assert len(manifest.split("source")) == 4
        assert len(manifest.split("train")) == 3
        assert len(manifest.split("test")) == 2
        assert manifest.n_classes == 2

    def test_source_is_trimmed_target_is_not(self, tmp_path):
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        assert all(v.trimmed for v in manifest.split("source"))
        assert all(not v.trimmed for v in manifest.split("train"))
        assert all(not v.trimmed for v in manifest.split("test"))

    def test_segments_valid_and_disjoint(self, tmp_path):
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        for rec in manifest.videos:
            assert rec.segments
            prev_end = -1.0
            for seg in rec.segments:
                seg.validate(rec.n, rec.fps, manifest.n_classes)
                assert seg.label == rec.labels[0]
                assert seg.t_start >= prev_end
                prev_end = seg.t_end

    def test_run_count_between_one_and_three(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, d=3, source_per_class=1,
                             target_train=40, target_test=1, frames=(15, 25),
                             seed=3)
        manifest = generate_synthetic(spec, tmp_path)
        counts = {len(rec.segments) for rec in manifest.split("train")}
        assert counts <= {1, 2, 3}
        assert len(counts) > 1  # the draw actually varies

    def test_noiseless_structure(self, tmp_path):
        # With no noise and no domain shift the geometry is exact: background
        # frames are zero and every action frame sits on its class mean.
        import dataclasses
        spec = dataclasses.replace(TINY_SPEC, noise=0.0, shift=0.0,
                                   target_train=6, target_test=2)
        generate_synthetic(spec, tmp_path)
        data = load_dataset(tmp_path)
        means = {}
        for stream in STREAMS:
            for rec in data.manifest.split("train") + data.manifest.split("test"):
                mat = data.features(rec, stream)
                labels = oracles.frame_labels(rec)
                for i in range(rec.n):
                    col = mat.values[:, i]
                    if labels[i] < 0:
                        np.testing.assert_array_equal(col, np.zeros(mat.d))
                    else:
                        key = (stream, int(labels[i]))
                        if key in means:
                            np.testing.assert_array_equal(col, means[key])
                        else:
                            assert np.linalg.norm(col) > 0
                            means[key] = col
            # trimmed sources with zero shift reuse the same class means
            for rec in data.manifest.split("source"):
                mat = data.features(rec, stream)
                for i in range(rec.n):
                    np.testing.assert_array_equal(
                        mat.values[:, i], means[(stream, rec.labels[0])])

    def test_scalar_shift_magnitude(self, tmp_path):
        # Source videos are offset from the target class mean by a vector
        # of the requested norm (up to float32 rounding).
        import dataclasses
        spec = dataclasses.replace(TINY_SPEC, noise=0.0, shift=3.0)
        generate_synthetic(spec, tmp_path)
        data = load_dataset(tmp_path)
        target_mean = {}
        for rec in data.manifest.split("train"):
            labels = oracles.frame_labels(rec)
            mat = data.features(rec, Stream.RGB)
            for i in range(rec.n):
                if labels[i] >= 0:
                    target_mean[int(labels[i])] = mat.values[:, i]
        rec = data.manifest.split("source")[0]
        col = data.features(rec, Stream.RGB).values[:, 0]
        delta = col - target_mean[rec.labels[0]]
        np.testing.assert_allclose(np.linalg.norm(delta), 3.0, rtol=1e-6)

    def test_explicit_shift_vector(self, tmp_path):
        import dataclasses
        vec = (1.0, 0.0, -2.0, 0.5)
        spec = dataclasses.replace(TINY_SPEC, noise=0.0, shift=vec)
        generate_synthetic(spec, tmp_path)
        data = load_dataset(tmp_path)
        target_mean = {}
        for rec in data.manifest.split("train"):
            labels = oracles.frame_labels(rec)
            mat = data.features(rec, Stream.RGB)
            for i in range(rec.n):
                if labels[i] >= 0:
                    target_mean[int(labels[i])] = mat.values[:, i]
        rec = data.manifest.split("source")[0]
        col = data.features(rec, Stream.RGB).values[:, 0]
        np.testing.assert_allclose(col - target_mean[rec.labels[0]], vec,
                                   rtol=0, atol=1e-6)

    def test_shift_vector_length_checked(self):
        import dataclasses
        with pytest.raises(ConfigError, match="shift"):
            dataclasses.replace(TINY_SPEC, shift=(1.0, 2.0))


def _per_file_error(root, split, stream):
    """The error that reading ``split``'s ``stream`` files one by one through
    ``Dataset.features`` raises, on a freshly loaded dataset."""
    data = load_dataset(root)
    with pytest.raises(DataFormatError) as exc:
        for rec in data.manifest.split(split):
            data.features(rec, stream)
    return str(exc.value)


class TestLoadDataset:
    def test_load_round_trip(self, tmp_path):
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        data = load_dataset(tmp_path)
        assert data.manifest == manifest
        for stream in STREAMS:
            recs = data.manifest.split("train")
            for rec, mat in zip(recs, data.read_split(recs, stream)):
                assert (mat.d, mat.n) == (TINY_SPEC.d, rec.n)

    def test_load_decodes_no_file_and_each_read_decodes_one(self, tmp_path, monkeypatch):
        # each read_split call reads its split's files in one pass, which
        # on sound files decodes none of them one by one
        generate_synthetic(TINY_SPEC, tmp_path)
        reads, decodes = [], []
        read, decode = Dataset.read_split, wtal.dataset.decode_features
        monkeypatch.setattr(Dataset, "read_split", lambda self, recs, stream: reads.append(
            [(rec.video_id, stream) for rec in recs]) or read(self, recs, stream))
        monkeypatch.setattr(wtal.dataset, "decode_features",
                            lambda blob: decodes.append(len(blob)) or decode(blob))
        data = load_dataset(tmp_path)
        assert reads == []
        recs = data.manifest.split("test")
        for _ in range(2):      # nothing is kept between reads
            assert len(data.read_split(recs, Stream.FLOW)) == TINY_SPEC.target_test
        files = [(rec.video_id, Stream.FLOW) for rec in recs]
        assert reads == [files, files] and decodes == []

    def test_feature_paths_join_the_dataset_root_like_pathlib(self, tmp_path):
        # an absolute path is read as given, a path with ".." climbs out of the root
        rec = generate_synthetic(TINY_SPEC, tmp_path / "ds").videos[0]
        rgb, flow = (tmp_path / "ds" / rec.feature_paths[s] for s in STREAMS)
        rgb.rename(tmp_path / "rgb.tsrf")
        flow.rename(tmp_path / "flow.tsrf")
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        entry = next(v for v in doc["videos"] if v["id"] == rec.video_id)
        entry["features"] = {"rgb": str(tmp_path / "rgb.tsrf"), "flow": "../flow.tsrf"}
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(doc))
        data = load_dataset(tmp_path / "ds")
        rec = data.manifest.videos[0]       # the record that holds the edited paths
        for stream, path in zip(STREAMS, (tmp_path / "rgb.tsrf", tmp_path / "flow.tsrf")):
            np.testing.assert_array_equal(data.features(rec, stream).values,
                                          decode_features(path.read_bytes()).values)

    def test_a_stream_keeps_its_width_across_reads(self, tmp_path):
        # the train split's files set the RGB width; a wider source split,
        # sound on its own, then fails at its first file
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        for rec in manifest.split("source"):
            wide = FeatureMatrix(np.ones((TINY_SPEC.d + 1, rec.n)))
            (tmp_path / rec.feature_paths[Stream.RGB]).write_bytes(encode_features(wide))
        data = load_dataset(tmp_path)
        data.read_split(manifest.split("train"), Stream.RGB)
        with pytest.raises(DataFormatError) as exc:
            data.read_split(manifest.split("source"), Stream.RGB)
        first = manifest.split("source")[0]
        path = tmp_path / first.feature_paths[Stream.RGB]
        assert str(exc.value) == f"{first.video_id}/rgb ({path}): d=5 differs from 4"
        assert len(load_dataset(tmp_path).read_split(manifest.split("source"), Stream.RGB)) == 4

    # Each fault sits in the split's first or last file, then mid-split; the
    # split's one-pass read must fall back to the per-file read's exact error.
    def test_missing_feature_file(self, tmp_path):
        for i in (0, 2):
            root = tmp_path / str(i)
            rec = generate_synthetic(TINY_SPEC, root).videos[i]
            (root / rec.feature_paths[Stream.RGB]).unlink()
            data = load_dataset(root)
            with pytest.raises(DataFormatError, match="missing feature file") as exc:
                data.read_split(data.manifest.split(rec.split), Stream.RGB)
            assert f"{rec.video_id}/rgb" in str(exc.value)
            assert str(root / rec.feature_paths[Stream.RGB]) in str(exc.value)
            assert str(exc.value) == _per_file_error(root, rec.split, Stream.RGB)

    def test_frame_count_mismatch(self, tmp_path):
        for i in (0, 2):
            root = tmp_path / str(i)
            rec = generate_synthetic(TINY_SPEC, root).videos[i]
            victim = root / rec.feature_paths[Stream.RGB]
            victim.write_bytes(encode_features(FeatureMatrix(np.zeros((TINY_SPEC.d, 99)))))
            data = load_dataset(root)
            with pytest.raises(DataFormatError, match="n=99") as exc:
                data.read_split(data.manifest.split(rec.split), Stream.RGB)
            assert str(exc.value) == _per_file_error(root, rec.split, Stream.RGB)

    def test_feature_dim_mismatch(self, tmp_path):
        for i in (-1, 2):
            root = tmp_path / str(i)
            rec = generate_synthetic(TINY_SPEC, root).videos[i]
            victim = root / rec.feature_paths[Stream.FLOW]
            victim.write_bytes(encode_features(FeatureMatrix(np.zeros((TINY_SPEC.d + 1, rec.n)))))
            data = load_dataset(root)
            with pytest.raises(DataFormatError, match="differs") as exc:
                data.read_split(data.manifest.split(rec.split), Stream.FLOW)
            assert str(exc.value) == _per_file_error(root, rec.split, Stream.FLOW)

    def test_corrupt_feature_file(self, tmp_path):
        faults = [      # (the corrupted file from the sound one, the error's words)
            (lambda blob: b"XXXX" + blob[4:], "magic"),
            (lambda blob: blob[:4] + struct.pack("<I", 2) + blob[8:],
             "unsupported feature format version 2"),
            (lambda blob: blob + b"\0", "truncated or oversized payload"),
        ] + [(lambda blob, v=v: blob[:-4] + struct.pack("<f", v),     # the last frame
              "non-finite feature value at frame") for v in (math.nan, math.inf, -math.inf)]
        for k, (corrupt, words) in enumerate(faults):
            for i in (0, 2, 3):     # the source split's first, a middle and its last file
                root = tmp_path / f"{k}-{i}"
                rec = generate_synthetic(TINY_SPEC, root).videos[i]
                victim = root / rec.feature_paths[Stream.FLOW]
                victim.write_bytes(corrupt(victim.read_bytes()))
                data = load_dataset(root)
                with pytest.raises(DataFormatError, match=words) as exc:
                    data.read_split(data.manifest.split(rec.split), Stream.FLOW)
                assert f"{rec.video_id}/flow" in str(exc.value)
                assert str(exc.value) == _per_file_error(root, rec.split, Stream.FLOW)
