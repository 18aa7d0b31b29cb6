"""On-disk dataset contract and synthetic data generation.

A dataset directory holds ``manifest.json`` plus one binary feature file per
(video, stream). Feature files use a fixed little-endian layout::

    bytes 0-3    magic "TSRF"
    bytes 4-7    format version, u32 (currently 1)
    bytes 8-11   d, u32 (feature dimension)
    bytes 12-15  n, u32 (frame count)
    bytes 16-    n*d float32 values, frame-major (frame 0 first)

Values are stored at 32-bit precision and promoted to float64 in memory.
Synthetic generation is driven by numpy's PCG64 generator seeded from the
spec seed, so identical specs produce byte-identical datasets.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from enum import Enum
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii as _json_string
from operator import eq
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, InputError, WtalError

MAGIC = b"TSRF"
FORMAT_VERSION = 1
HEADER_BYTES = 16


class Stream(str, Enum):
    RGB = "rgb"
    FLOW = "flow"


STREAMS = (Stream.RGB, Stream.FLOW)


def check_size(count: int, what: str) -> int:
    """``count``, unless ``what``'s ``count`` float64 values are more than numpy allocates."""
    if count > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{what} would hold {count} float64 values, more than numpy allocates")
    return count


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-frame features for one video stream.

    ``values`` has shape (d, n): one column per frame, float64 in memory.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InputError(f"feature matrix must be d x n with d,n >= 1, got {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


class Segment(NamedTuple):
    """Ground-truth action interval in seconds; end is exclusive."""

    label: int
    t_start: float
    t_end: float


class VideoRecord(NamedTuple):
    """One video's metadata; features live in per-stream files.

    ``feature_paths`` maps each stream to a path relative to the dataset
    root, replacing a per-stream record duplicate. ``segments`` are present
    for evaluation only; training never reads them.
    """

    video_id: str
    split: str
    n: int
    fps: float
    labels: tuple[int, ...]
    trimmed: bool
    feature_paths: Mapping[Stream, str]
    segments: tuple[Segment, ...] | None = None


class Manifest:
    """A dataset's classes and videos: VideoRecords, or a loaded manifest's checked JSON
    records and their ``splits``; ``split`` builds a split's records on its first call for it."""

    def __init__(self, version: int, class_names: Sequence[str], videos: Sequence,
                 splits: Sequence[str] | None = None):
        self.version, self.class_names = version, tuple(class_names)
        self._splits = [rec.split for rec in videos] if splits is None else splits
        self._videos: dict[str, list | tuple] = {}    # by split, a tuple of VideoRecords if built
        for name, rec in zip(self._splits, videos):
            self._videos.setdefault(name, []).append(rec)
        if splits is None:
            self._videos = {name: tuple(recs) for name, recs in self._videos.items()}

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def videos(self) -> tuple[VideoRecord, ...]:
        """Every video, in manifest order."""
        recs = {name: iter(self.split(name)) for name in self._videos}
        return tuple(next(recs[name]) for name in self._splits)

    def __eq__(self, other):
        return isinstance(other, Manifest) and (self.version, self.class_names, self.videos) \
            == (other.version, other.class_names, other.videos)

    def split(self, name: str) -> tuple[VideoRecord, ...]:
        """The split's videos; one without any is a misspelling, whose scores would read 0."""
        recs = self._videos.get(name)
        if recs is None:
            names = ", ".join(sorted(self._videos))
            raise InputError(f"split {name!r} has no videos; " + (
                f"the manifest's splits are {names}" if names else "the manifest lists no videos"))
        if isinstance(recs, list):
            recs = self._videos[name] = tuple(map(_record_from_json, recs))
        return recs


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic two-stream benchmark generator.

    Action frames of class c are drawn from an isotropic Gaussian at a
    class mean; class means (and the background mean at the origin) are
    pairwise separated by at least ``separation``. Trimmed source videos
    are pure action with ``shift`` added to every frame to simulate a
    source/target domain gap. ``shift`` may be an explicit per-dimension
    vector or a scalar magnitude applied along a seed-derived direction.
    """

    n_classes: int = 8
    d: int = 16
    source_per_class: int = 50
    target_train: int = 200
    target_test: int = 100
    frames: tuple[int, int] = (15, 25)
    action_fraction: tuple[float, float] = (0.06, 0.16)
    separation: float = 5.0
    noise: float = 0.4
    shift: float | tuple[float, ...] = field(default=2.0, metadata={"kind": (float, [float])})
    fps: float = 25.0
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.d < 1:
            raise ConfigError("feature dimension must be >= 1")
        if not self.separation > 0:      # written so that NaN fails
            raise ConfigError("class-mean separation must be > 0")
        if not self.noise >= 0:
            raise ConfigError("noise scale must be >= 0")
        if not self.fps > 0:
            raise ConfigError("fps must be > 0")
        lo, hi = self.frames
        if not (1 <= lo <= hi):
            raise ConfigError(f"empty frame-count range {self.frames}")
        if not math.isfinite(hi / self.fps):
            raise ConfigError(f"a {hi}-frame video at fps {self.fps} is too long for a float")
        if lo < 7:
            raise ConfigError("untrimmed videos need at least 7 frames for run placement")
        check_size((self.n_classes + 1) ** 2 * self.d, "the class means' distance tensor")
        check_size(hi * self.d, f"a {hi}-frame video")
        flo, fhi = self.action_fraction
        if not (0 < flo <= fhi < 1):
            raise ConfigError(f"empty action-fraction range {self.action_fraction}")
        if min(self.source_per_class, self.target_train, self.target_test) < 1:
            raise ConfigError("every split needs at least one video")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if isinstance(self.shift, (tuple, list)) and len(self.shift) != self.d:
            raise ConfigError(f"shift vector must have length d={self.d}")


# ---------------------------------------------------------------------------
# binary feature format
# ---------------------------------------------------------------------------


def _check_finite(vals: np.ndarray) -> None:
    """Reject the first non-finite entry of a (d, n) matrix by frame and column."""
    if not np.isfinite(vals).all():
        dim, frame = (int(i) for i in np.argwhere(~np.isfinite(vals))[0])
        raise DataFormatError(f"non-finite feature value at frame {frame}, column {dim}")


def encode_features(m: FeatureMatrix) -> bytes:
    """Serialize a feature matrix to the TSRF byte layout."""
    vals = m.values
    _check_finite(vals)
    header = MAGIC + struct.pack("<III", FORMAT_VERSION, m.d, m.n)
    # frame-major on disk: frame i's d values are contiguous
    payload = np.ascontiguousarray(vals.T, dtype="<f4").tobytes()
    return header + payload


def decode_features(data: bytes) -> FeatureMatrix:
    """Parse the TSRF byte layout back into a float64 feature matrix."""
    if len(data) < HEADER_BYTES:
        raise DataFormatError(f"feature blob shorter than header ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise DataFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, d, n = struct.unpack("<III", data[4:HEADER_BYTES])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported feature format version {version}")
    expected = HEADER_BYTES + 4 * d * n
    if len(data) != expected:
        raise DataFormatError(
            f"truncated or oversized payload: {len(data)} bytes, expected {expected}"
        )
    if d < 1 or n < 1:
        raise DataFormatError(f"header claims degenerate shape d={d}, n={n}")
    stored = np.frombuffer(data, dtype="<f4", offset=HEADER_BYTES).reshape(n, d).T
    _check_finite(stored)   # before widening: casting a signalling NaN warns
    return FeatureMatrix(stored.astype(np.float64))


# ---------------------------------------------------------------------------
# manifest i/o
# ---------------------------------------------------------------------------


def _record_to_json(rec: VideoRecord) -> dict:
    out = {
        "id": rec.video_id,
        "split": rec.split,
        "n": rec.n,
        "fps": rec.fps,
        "labels": sorted(rec.labels),
        "trimmed": rec.trimmed,
        "features": {s.value: rec.feature_paths[s] for s in STREAMS},
    }
    if rec.segments is not None:
        out["segments"] = [[s.label, s.t_start, s.t_end] for s in rec.segments]
    return out


_JSON_TYPES = {str: "a string", int: "an integer", float: "a finite number",
               bool: "true or false", list: "an array", dict: "an object"}
_FLOAT_MAX = sys.float_info.max


def is_json(value, kind) -> bool:
    """Whether ``value`` has JSON kind ``kind``: a type, ``[kind]`` for an
    array of that kind, or a tuple of alternative kinds. An integer is also
    a number (``float``) provided it is finite; true and false are neither."""
    if isinstance(value, bool):
        return kind is bool or isinstance(kind, tuple) and bool in kind
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
    if isinstance(kind, type):
        return isinstance(value, kind)
    if isinstance(kind, list):
        return isinstance(value, list) and is_json_column(value, kind[0])
    return any(is_json(value, k) for k in kind)


def is_json_column(values, kind) -> bool:
    """``all(is_json(v, kind) for v in values)``. A column of exact JSON
    types is checked in C-speed passes over the whole column, an array kind
    through the column of all the arrays' elements; any other column takes
    ``is_json`` value by value."""
    types = set(map(type, values))
    if kind is float and types <= {float, int}:
        # a finite sum of floats has no NaN or infinity among its terms
        return (types <= {float} and math.isfinite(sum(values))
                or all(map(_FLOAT_MAX.__ge__, map(abs, values))))
    if isinstance(kind, list) and types <= {list}:
        return is_json_column(list(chain.from_iterable(values)), kind[0])
    if isinstance(kind, type) and kind is not float and types <= {kind}:
        return True
    return all(map(is_json, values, repeat(kind)))


def _kind_name(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_kind_name, kind))
    return _JSON_TYPES[kind] if isinstance(kind, type) else f"an array, each {_kind_name(kind[0])}"


def check_fields(obj, table, error: type[Exception], where: str) -> None:
    """Raise ``error`` unless ``obj`` is a JSON object whose every ``(key,
    kind)`` in ``table`` passes ``is_json``; the message names ``where``."""
    if not is_json(obj, dict):
        raise error(f"{where} is not a JSON object")
    for key, kind in table:
        if not is_json(obj.get(key), kind):
            raise error(f"{where}: {key!r} must be {_kind_name(kind)}, got {obj.get(key)!r}")


def check_entries(entries, table, rules, error: type[Exception], where: str) -> list[list]:
    """The values of each key of ``table`` across the JSON array ``entries``,
    one list per key, once every entry passes ``check_fields(entry, table,
    ...)`` and every rule holds. A rule is a pair ``(test, message)``:
    ``test(columns, entries)`` says whether it holds on all of them, and
    ``message(at, entry)`` words its breach by one entry. Otherwise raises
    ``error``, for ``entries`` that are not an array or for the first faulty
    entry, at ``f"{where} {i}"``, worded by ``check_fields`` or the first
    rule it breaks. Each rule must hold on every prefix of the entries it
    holds on: the entry is found by bisection."""
    if not is_json(entries, list):
        raise error(f"expected a JSON array of objects, one per {where}")

    def columns(objs, rules=rules) -> list[list] | None:
        """``objs``' columns if each has its kinds and ``rules`` hold, else None."""
        if is_json_column(objs, dict):
            cols = [list(map(dict.get, objs, repeat(key))) for key, _ in table]
            if (all(map(is_json_column, cols, [kind for _, kind in table]))
                    and all(test(cols, objs) for test, _ in rules)):
                return cols
        return None

    valid = columns(entries)
    if valid is not None:
        return valid
    lo, hi = 0, len(entries)        # entries[:lo] pass, entries[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if columns(entries[:mid]) is None else (mid, hi)
    at = f"{where} {lo}"
    check_fields(entries[lo], table, error, at)
    broken = next(j for j in range(len(rules)) if columns(entries[:hi], rules[:j + 1]) is None)
    raise error(rules[broken][1](at, entries[lo]))


def field_default(f: Field):
    """The default value of dataclass field ``f``."""
    return f.default_factory() if f.default is MISSING else f.default


def config_value(f: Field, value, where: str):
    """``value`` for field ``f`` of a config class, which raises ConfigError
    naming ``where`` unless it has the JSON kind of the field's default (or
    ``f.metadata["kind"]``, for a field that takes more) and every integer
    of an integer field fits in 64 bits, brought to the field's type: an
    array becomes a tuple of the default's length and an integer a float
    where the field takes a number. A config-valued field builds its class
    from a nested object, through ``config_from_json``."""
    default = field_default(f)
    if is_dataclass(default):
        return config_from_json(type(default), value, f"{where}.{f.name}")
    kind = f.metadata.get("kind", [type(default[0])] if isinstance(default, tuple)
                          else type(default))
    check_fields({f.name: value}, [(f.name, kind)], ConfigError, where)
    if isinstance(default, tuple) and len(value) != len(default):
        raise ConfigError(f"{where}: {f.name!r} must hold {len(default)} values, got {value!r}")
    ints = value if kind == [int] else [value] if kind is int else ()
    if not all(-2 ** 63 <= v < 2 ** 63 for v in ints):     # numpy's sizes and seeds
        raise ConfigError(f"{where}: {f.name!r} holds an integer outside 64 bits, got {value!r}")
    if is_json(value, list):
        return tuple(value)
    numeric = kind is float or isinstance(kind, tuple) and float in kind
    return float(value) if numeric and is_json(value, float) else value


def config_from_json(cls: type, obj, where: str):
    """A ``cls`` config from a JSON object holding every field and no other
    key, each value through ``config_value``."""
    check_fields(obj, (), ConfigError, where)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return cls(**{f.name: config_value(f, obj.get(f.name), where) for f in fields(cls)})


# each record field's JSON kind; "segments" may be absent
_RECORD_FIELDS = (("id", str), ("split", str), ("n", int), ("fps", float),
                  ("labels", [int]), ("trimmed", bool), ("features", dict))
_MANIFEST_FIELDS = (("version", int), ("classes", [str]), ("videos", list))
_STREAM_KEYS = tuple((s, s.value) for s in STREAMS)
_STREAM_NAMES = {key for _, key in _STREAM_KEYS}


def _features_ok(features) -> bool:
    """Whether each of ``features`` maps exactly the stream names to path strings."""
    return (all(map(eq, map(dict.keys, features), repeat(_STREAM_NAMES)))
            and is_json_column(list(chain.from_iterable(map(dict.values, features))), str))


def _segments_ok(segments) -> bool:
    """Whether each of ``segments`` is an array of [label, t_start, t_end] arrays."""
    if not is_json_column(segments, [list]):
        return False
    flat = list(chain.from_iterable(segments))
    values = list(chain.from_iterable(flat))    # label, t_start, t_end, label, ...
    return (set(map(len, flat)) <= {3} and is_json_column(values[0::3], int)
            and is_json_column(values[1::3] + values[2::3], float))


# each rule on the records beyond their kinds: (test, wording of a breach)
_RECORD_RULES = (
    (lambda columns, objs: _features_ok(columns[-1]),
     lambda at, obj: f"{at}: 'features' must map {sorted(_STREAM_NAMES)} to path strings, "
                     f"got {obj['features']!r}"),
    (lambda columns, objs: _segments_ok([obj["segments"] for obj in objs if "segments" in obj]),
     lambda at, obj: f"{at}: 'segments' must be [label, t_start, t_end] arrays, "
                     f"got {obj['segments']!r}"),
    (lambda columns, objs: len(set(columns[0])) == len(objs),      # the ids
     lambda at, obj: f"duplicate video id {obj['id']!r}"),
)


def _check_values(obj, n_classes: int) -> None:
    """Raise InputError naming the video unless record ``obj``, past check_entries, is in range."""
    vid, n, fps, labels = obj["id"], obj["n"], float(obj["fps"]), obj["labels"]
    if n < 1 or fps <= 0:
        raise InputError(f"{vid}: need n >= 1 and fps > 0")
    if n > _FLOAT_MAX:     # before n / fps converts it
        raise InputError(f"{vid}: n is too large for a float")
    if not math.isfinite(span := n / fps):
        raise InputError(f"{vid}: n / fps is too large for a float")
    if not labels:
        raise InputError(f"{vid}: empty label set")
    for c in labels:
        if not 0 <= c < n_classes:
            raise InputError(f"{vid}: label {c} outside [0, {n_classes})")
    if obj["trimmed"] and len(labels) != 1:
        raise InputError(f"{vid}: trimmed video must carry exactly one label")
    for label, start, end in obj.get("segments", ()):
        if not 0.0 <= float(start) < float(end) <= span + 1e-9:
            raise InputError(f"{vid}: segment [{float(start)}, {float(end)}] outside [0, {span}]")
        if not 0 <= label < n_classes:
            raise InputError(f"{vid}: segment label {label} outside [0, {n_classes})")


def _record_from_json(obj) -> VideoRecord:
    """The VideoRecord of a record object that passes ``check_entries``."""
    paths, segments = obj["features"], obj.get("segments")
    if segments is not None:
        segments = tuple([Segment(c, float(a), float(b)) for c, a, b in segments])
    return VideoRecord(obj["id"], obj["split"], obj["n"], float(obj["fps"]),
                       tuple(obj["labels"]), obj["trimmed"],
                       {s: paths[key] for s, key in _STREAM_KEYS}, segments)


def save_manifest(manifest: Manifest, path: Path) -> None:
    doc = {
        "version": manifest.version,
        "classes": list(manifest.class_names),
        "videos": [_record_to_json(v) for v in manifest.videos],
    }
    path.write_text(json_text(doc))


def _manifest_from_json(doc) -> Manifest:
    check_fields(doc, _MANIFEST_FIELDS, DataFormatError, "manifest")
    if doc["version"] != 1:
        raise DataFormatError(f"unsupported manifest version {doc['version']!r}")
    objs = doc["videos"]
    splits = check_entries(objs, _RECORD_FIELDS, _RECORD_RULES, DataFormatError,
                           "manifest record")[1]
    for obj in objs:        # values once every record has its kinds, in record order
        _check_values(obj, len(doc["classes"]))
    return Manifest(1, doc["classes"], objs, splits)


def parse_json(data: bytes, what: str, error: type[Exception]):
    """The JSON document in the UTF-8 bytes ``data``, which hold ``what``; bad
    UTF-8, bad JSON and an integer too long to convert are all ``error``."""
    try:
        return json.loads(data.decode())
    except ValueError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def read_file(path: Path | str, parse: Callable[[bytes], object]):
    """``parse`` applied to the bytes of file ``path``; every WtalError it raises names the file."""
    try:
        return parse(Path(path).read_bytes())
    except WtalError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def json_text(obj) -> str:
    """``json.dumps(obj, indent=1, sort_keys=True) + "\n"``, byte for byte, for
    a document of string-keyed objects, arrays, strings, numbers, booleans and
    nulls. json.dumps runs its pure-Python encoder whenever it indents; this
    walks the containers the same way, but writes a flat array of finite
    floats with one join."""
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, pad: str) -> str:
    """``obj`` in json.dumps' indent=1 layout; ``pad`` is a newline and the
    indentation of the line ``obj`` starts on."""
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if abs(obj) <= _FLOAT_MAX:
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    inner = pad + " "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= {float} and is_json_column(obj, float):
            items = map(float.__repr__, obj)
        else:
            items = [_json_value(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _json_string(k) + ": " + _json_value(v, inner)
            for k, v in sorted(obj.items())]) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_manifest(path: Path) -> Manifest:
    """Parse and validate ``manifest.json``; every error names the file."""
    return read_file(path, lambda data: _manifest_from_json(
        parse_json(data, "manifest", DataFormatError)))


class Dataset:
    """A manifest over a dataset directory. Nothing is read up front, and of
    the features only each stream's width is kept, so that a later file of
    another width is named: ``read_split`` reads some videos' files of one
    stream in one pass each time it is called, and ``features`` reads,
    decodes and checks one file, so a command reads only what it uses."""

    def __init__(self, root: Path | str, manifest: Manifest):
        self.root = os.fspath(root)     # joined as a str per read, not as a pathlib path
        self.manifest = manifest
        self._dims: dict[Stream, int] = {}      # feature width per stream, seen so far

    def features(self, rec: VideoRecord, stream: Stream) -> FeatureMatrix:
        """Decode one feature file, checking n against the manifest and d
        against the stream's files read before it."""
        fpath = os.path.join(self.root, rec.feature_paths[stream])
        try:
            with open(fpath, "rb") as fh:
                mat = decode_features(fh.read())
            if mat.n != rec.n:
                raise DataFormatError(f"file has n={mat.n}, manifest says {rec.n}")
            if self._dims.setdefault(stream, mat.d) != mat.d:
                raise DataFormatError(f"d={mat.d} differs from {self._dims[stream]}")
        except FileNotFoundError as exc:
            raise DataFormatError(f"{rec.video_id}/{stream.value}: missing feature file "
                                  f"{fpath}") from exc
        except DataFormatError as exc:
            raise DataFormatError(f"{rec.video_id}/{stream.value} ({fpath}): {exc}") from exc
        return mat

    def read_split(self, recs: Sequence[VideoRecord], stream: Stream) -> list[FeatureMatrix]:
        """The ``stream`` matrices of the videos ``recs``, in order, from one
        pass: one read per file into one float32 buffer, then one finiteness
        check and one float64 cast for them all, each matrix a view of the
        cast. If any file fails a check, the files are read again one by one
        through ``features``, which raises the first faulty file's error."""
        try:
            mats = self._one_pass(recs, stream)
        except (OSError, ValueError, MemoryError, struct.error):   # a missing file, a vast n
            mats = None
        return mats if mats is not None else [self.features(rec, stream) for rec in recs]

    def _one_pass(self, recs: Sequence[VideoRecord], stream: Stream) -> list[FeatureMatrix] | None:
        """``read_split``'s pass, or None if a file's header or length is not
        the one ``features`` accepts, or a value is not finite."""
        paths = [os.path.join(self.root, rec.feature_paths[stream]) for rec in recs]
        d = self._dims.get(stream)
        if d is None:       # the first file's header sizes the reads; all are checked
            with open(paths[0], "rb") as fh:
                d = int.from_bytes(fh.read(HEADER_BYTES)[8:12], "little")
            if d < 1:
                return None
        starts = list(accumulate([rec.n for rec in recs], initial=0))
        buf = np.empty((starts[-1], d), dtype="<f4")
        raw, head, tail = memoryview(buf).cast("B"), bytearray(HEADER_BYTES), bytearray(1)
        for path, rec, lo, hi in zip(paths, recs, starts, starts[1:]):
            fd = os.open(path, os.O_RDONLY)
            try:        # one read: the header, the payload in place, and a byte too many
                got = os.readv(fd, [head, raw[4 * d * lo:4 * d * hi], tail])
            finally:
                os.close(fd)
            if (got != HEADER_BYTES + 4 * d * (hi - lo)
                    or head != struct.pack("<4sIII", MAGIC, FORMAT_VERSION, d, rec.n)):
                return None
        if not np.isfinite(buf).all():
            return None
        self._dims[stream] = d
        vals = buf.astype(np.float64)
        return [FeatureMatrix(vals[lo:hi].T) for lo, hi in zip(starts, starts[1:])]


def load_dataset(root: Path | str) -> Dataset:
    """Load and validate a dataset's manifest; feature files are read when used."""
    return Dataset(root, load_manifest(Path(root, "manifest.json")))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def _class_means(rng: np.random.Generator, spec: SyntheticSpec) -> np.ndarray:
    """Class means with pairwise distance >= separation, also to the origin."""
    raw = rng.standard_normal((spec.n_classes, spec.d))
    pts = np.vstack([raw, np.zeros((1, spec.d))])
    diffs = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=-1))
    np.fill_diagonal(dist, np.inf)
    min_dist = float(np.min(dist))
    if min_dist <= 0:
        raise ConfigError("degenerate class-mean draw; change the seed")
    return raw * (spec.separation / min_dist)


def _shift_vector(rng: np.random.Generator, spec: SyntheticSpec) -> np.ndarray:
    if isinstance(spec.shift, (tuple, list)):
        return np.asarray(spec.shift, dtype=np.float64)
    direction = rng.standard_normal(spec.d)
    norm = float(np.linalg.norm(direction))
    return direction * (float(spec.shift) / norm)


@dataclass
class _StreamParams:
    means: np.ndarray       # (C, d) class means
    shift: np.ndarray       # (d,) source-domain offset


def _untrimmed_structure(rng: np.random.Generator, spec: SyntheticSpec,
                         n: int) -> tuple[int, list[tuple[int, int]]]:
    """Pick a class and 1-3 disjoint action runs inside n frames."""
    c = int(rng.integers(spec.n_classes))
    k = int(rng.integers(1, 4))
    frac = float(rng.uniform(*spec.action_fraction))
    total_action = int(round(frac * n))
    total_action = max(total_action, k)
    total_action = min(total_action, n - (k - 1))
    # composition of total_action into k run lengths >= 1
    if k == 1:
        lengths = [total_action]
    else:
        cuts = np.sort(rng.choice(np.arange(1, total_action), size=k - 1, replace=False))
        bounds = np.concatenate([[0], cuts, [total_action]])
        lengths = list(np.diff(bounds).astype(int))
    # gaps: k-1 interior gaps >= 1, leading/trailing >= 0
    slack = n - total_action - (k - 1)
    extra = rng.multinomial(slack, np.full(k + 1, 1.0 / (k + 1)))
    gaps = extra.astype(int)
    gaps[1:k] += 1
    runs = []
    pos = int(gaps[0])
    for j in range(k):
        runs.append((pos, pos + lengths[j]))
        pos += lengths[j] + int(gaps[j + 1])
    return c, runs


def _video_features(rng: np.random.Generator, spec: SyntheticSpec,
                    params: _StreamParams, n: int, c: int,
                    runs: Sequence[tuple[int, int]] | None,
                    shifted: bool) -> FeatureMatrix:
    frames = rng.standard_normal((n, spec.d)) * spec.noise
    if runs is None:
        frames += params.means[c]
        if shifted:
            frames += params.shift
    else:
        for lo, hi in runs:
            frames[lo:hi] += params.means[c]
    # disk precision is float32; keep memory identical to what loads back
    frames32 = frames.astype(np.float32).astype(np.float64)
    return FeatureMatrix(frames32.T)


def generate_synthetic(spec: SyntheticSpec, out_dir: Path | str) -> Manifest:
    """Write a synthetic dataset (source/trimmed + target train/test splits).

    Deterministic for a fixed spec: all randomness flows from
    ``numpy.random.Generator(PCG64(SeedSequence(spec.seed)))`` children in a
    fixed order.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)

    seeds = np.random.SeedSequence(spec.seed).spawn(5)
    mean_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    shift_rng = np.random.Generator(np.random.PCG64(seeds[1]))
    stream_params = {}
    for stream in STREAMS:
        means = _class_means(mean_rng, spec)
        stream_params[stream] = _StreamParams(means, _shift_vector(shift_rng, spec))

    records: list[VideoRecord] = []

    def write_video(video_id: str, split: str, n: int, c: int,
                    runs: list[tuple[int, int]] | None, trimmed: bool,
                    rng: np.random.Generator) -> None:
        paths = {}
        for stream in STREAMS:
            mat = _video_features(rng, spec, stream_params[stream], n, c,
                                  runs, shifted=trimmed)
            rel = f"features/{video_id}.{stream.value}.tsrf"
            (out_dir / rel).write_bytes(encode_features(mat))
            paths[stream] = rel
        if trimmed:
            segments = (Segment(c, 0.0, n / spec.fps),)
        else:
            segments = tuple(Segment(c, lo / spec.fps, hi / spec.fps) for lo, hi in runs)
        records.append(VideoRecord(
            video_id=video_id, split=split, n=n, fps=spec.fps,
            labels=(c,), trimmed=trimmed, feature_paths=paths, segments=segments,
        ))

    source_rng = np.random.Generator(np.random.PCG64(seeds[2]))
    for c in range(spec.n_classes):
        for i in range(spec.source_per_class):
            n = int(source_rng.integers(spec.frames[0], spec.frames[1] + 1))
            write_video(f"source_{c:02d}_{i:04d}", "source", n, c, None, True, source_rng)

    for split, count, rng in (
        ("train", spec.target_train, np.random.Generator(np.random.PCG64(seeds[3]))),
        ("test", spec.target_test, np.random.Generator(np.random.PCG64(seeds[4]))),
    ):
        for i in range(count):
            n = int(rng.integers(spec.frames[0], spec.frames[1] + 1))
            c, runs = _untrimmed_structure(rng, spec, n)
            write_video(f"{split}_{i:05d}", split, n, c, runs, False, rng)

    manifest = Manifest(
        version=1,
        class_names=tuple(f"class_{c:02d}" for c in range(spec.n_classes)),
        videos=tuple(records),
    )
    save_manifest(manifest, out_dir / "manifest.json")
    return manifest
