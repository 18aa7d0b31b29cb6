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
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataFormatError, InputError

MAGIC = b"TSRF"
FORMAT_VERSION = 1
HEADER_BYTES = 16


class Stream(str, Enum):
    RGB = "rgb"
    FLOW = "flow"


STREAMS = (Stream.RGB, Stream.FLOW)


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


@dataclass(frozen=True)
class Segment:
    """Ground-truth action interval in seconds; end is exclusive."""

    label: int
    t_start: float
    t_end: float

    def validate(self, n: int, fps: float, n_classes: int | None = None) -> None:
        if not (0.0 <= self.t_start < self.t_end <= n / fps + 1e-9):
            raise InputError(
                f"segment [{self.t_start}, {self.t_end}] outside [0, {n / fps}]"
            )
        if n_classes is not None and not (0 <= self.label < n_classes):
            raise InputError(f"segment label {self.label} outside [0, {n_classes})")


@dataclass(frozen=True)
class VideoRecord:
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

    def validate(self, n_classes: int) -> None:
        if self.n < 1 or self.fps <= 0:
            raise InputError(f"{self.video_id}: need n >= 1 and fps > 0")
        if not self.labels:
            raise InputError(f"{self.video_id}: empty label set")
        for c in self.labels:
            if not (0 <= c < n_classes):
                raise InputError(f"{self.video_id}: label {c} outside [0, {n_classes})")
        if self.trimmed and len(self.labels) != 1:
            raise InputError(f"{self.video_id}: trimmed video must carry exactly one label")
        if self.segments is not None:
            for seg in self.segments:
                seg.validate(self.n, self.fps, n_classes)


@dataclass(frozen=True)
class Manifest:
    version: int
    class_names: tuple[str, ...]
    videos: tuple[VideoRecord, ...]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def split(self, name: str) -> tuple[VideoRecord, ...]:
        return tuple(v for v in self.videos if v.split == name)


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
    shift: float | tuple[float, ...] = 2.0
    fps: float = 25.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.d < 1:
            raise ConfigError("feature dimension must be >= 1")
        if self.separation <= 0:
            raise ConfigError("class-mean separation must be > 0")
        if self.noise < 0:
            raise ConfigError("noise scale must be >= 0")
        lo, hi = self.frames
        if not (1 <= lo <= hi):
            raise ConfigError(f"empty frame-count range {self.frames}")
        if lo < 7:
            raise ConfigError("untrimmed videos need at least 7 frames for run placement")
        flo, fhi = self.action_fraction
        if not (0 < flo <= fhi < 1):
            raise ConfigError(f"empty action-fraction range {self.action_fraction}")
        if min(self.source_per_class, self.target_train, self.target_test) < 1:
            raise ConfigError("every split needs at least one video")


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
    flat = np.frombuffer(data, dtype="<f4", offset=HEADER_BYTES)
    values = flat.reshape(n, d).T.astype(np.float64)
    _check_finite(values)
    return FeatureMatrix(values)


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


def _record_from_json(obj: dict) -> VideoRecord:
    try:
        segments = None
        if "segments" in obj:
            segments = tuple(Segment(int(c), float(a), float(b)) for c, a, b in obj["segments"])
        feature_paths = {Stream(k): v for k, v in obj["features"].items()}
        if set(feature_paths) != set(STREAMS):
            raise ValueError(f"features name {sorted(s.value for s in feature_paths)}, "
                             f"expected {[s.value for s in STREAMS]}")
        return VideoRecord(
            video_id=obj["id"],
            split=obj["split"],
            n=int(obj["n"]),
            fps=float(obj["fps"]),
            labels=tuple(int(c) for c in obj["labels"]),
            trimmed=bool(obj["trimmed"]),
            feature_paths=feature_paths,
            segments=segments,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"malformed manifest record: {exc}") from exc


def save_manifest(manifest: Manifest, path: Path) -> None:
    doc = {
        "version": manifest.version,
        "classes": list(manifest.class_names),
        "videos": [_record_to_json(v) for v in manifest.videos],
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_manifest(path: Path) -> Manifest:
    try:
        doc = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError("manifest is not a JSON object")
    if doc.get("version") != 1:
        raise DataFormatError(f"unsupported manifest version {doc.get('version')!r}")
    for key in ("classes", "videos"):
        if not isinstance(doc.get(key), list):
            raise DataFormatError(f"manifest {key!r} must be a JSON array")
    manifest = Manifest(
        version=1,
        class_names=tuple(doc["classes"]),
        videos=tuple(_record_from_json(v) for v in doc["videos"]),
    )
    for rec in manifest.videos:
        rec.validate(manifest.n_classes)
    return manifest


class Dataset:
    """A manifest plus all feature matrices, loaded eagerly and immutable."""

    def __init__(self, root: Path, manifest: Manifest,
                 features: Mapping[tuple[str, Stream], FeatureMatrix]):
        self.root = root
        self.manifest = manifest
        self._features = dict(features)

    @property
    def n_classes(self) -> int:
        return self.manifest.n_classes

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.manifest.class_names

    def split(self, name: str) -> tuple[VideoRecord, ...]:
        return self.manifest.split(name)

    def features(self, video_id: str, stream: Stream) -> FeatureMatrix:
        return self._features[(video_id, stream)]

    def feature_dim(self, stream: Stream) -> int:
        for rec in self.manifest.videos:
            return self._features[(rec.video_id, stream)].d
        raise InputError("dataset is empty")

    def iter_split(self, name: str, stream: Stream) -> Iterator[tuple[VideoRecord, FeatureMatrix]]:
        for rec in self.split(name):
            yield rec, self.features(rec.video_id, stream)


def load_dataset(root: Path | str) -> Dataset:
    """Load and validate a dataset directory (manifest + feature files)."""
    root = Path(root)
    manifest = load_manifest(root / "manifest.json")
    features: dict[tuple[str, Stream], FeatureMatrix] = {}
    dims: dict[Stream, int] = {}
    for rec in manifest.videos:
        for stream in STREAMS:
            fpath = root / rec.feature_paths[stream]
            if not fpath.is_file():
                raise DataFormatError(f"{rec.video_id}: missing feature file {fpath}")
            mat = decode_features(fpath.read_bytes())
            if mat.n != rec.n:
                raise DataFormatError(
                    f"{rec.video_id}/{stream.value}: file has n={mat.n}, manifest says {rec.n}"
                )
            if dims.setdefault(stream, mat.d) != mat.d:
                raise DataFormatError(
                    f"{rec.video_id}/{stream.value}: d={mat.d} differs from {dims[stream]}"
                )
            features[(rec.video_id, stream)] = mat
    return Dataset(root, manifest, features)


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
        vec = np.asarray(spec.shift, dtype=np.float64)
        if vec.shape != (spec.d,):
            raise ConfigError(f"shift vector must have length d={spec.d}")
        return vec
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
    spec.validate()
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
