"""Two-stage training: source (trimmed) models, then target (untrimmed)
models with attention regularization and MMD knowledge transfer.

The overall target loss per step is

    L = mean_v [class_loss_v + alpha * R_smooth(a_v) + beta * R_sparsity(a_v)]
        + L_FC1 + L_FC2

with the regularizers averaged over attention heads, and the transfer terms
computed between this step's target activation batch and a sampled batch of
the frozen source model's activations, which are computed before the
first step, one forward pass per chunk of source clips. Source training
minimizes the class loss alone.

Optimization is SGD with momentum: v <- mu v - lr g, p <- p + v, with the
learning rate divided by decay_factor every decay_every iterations.
Training stops with DivergenceError at the first step whose loss terms
or updated parameters are not all finite; numpy's floating-point warnings
stay off stderr during the step, so that error is all a diverging run prints.

Each term carries a weight, and the weights are the only switches: a zero
weight drops the term from both the loss and the gradient. ``loss_weights``
is the one place that turns the transfer settings into weights (FC1 and
FC2 weigh 0 when transfer is off, FC2 also when ``fc2_enabled`` is off);
source training passes the class loss alone, and the gradient certifier
isolates single terms. Each transfer tap with a nonzero weight is one
``transfer_loss`` call, which returns its gradient too.

A step runs the attention forward and backward once per chunk: its
videos side by side in one feature matrix, consecutive videos of the batch
up to CHUNK_CELLS // attention_hidden frames (1,024 at the default 64) and
CHUNK_VIDEOS videos (a default 16-video batch, or four to six 150-250
frame videos). The classifier runs forward and backward once on the stacked
(B, r*d) pooled matrix M under one (B, h) dropout mask, and the transfer
taps read M and its hidden layer.
``chunk_bounds`` is the one grouping rule: the step, the source-activation
cache and detection's ``predict_split`` all chunk with it.

A model's parameters live in one contiguous float64 vector, ``Model.flat``,
in PARAM_KEYS order with the shapes ``param_shapes`` states, which every
``Model`` is checked against; ``AttentionParams`` and ``ClassifierParams``
are views of it. Gradients and the momentum velocity share that layout, so
an SGD step is one vector update and a checkpoint payload is its bytes.

Everything is bit-deterministic given (dataset, config, seed): batches,
dropout masks, and initialization all come from PCG64 generators seeded
from a fixed SeedSequence tree, and gradient accumulation order is fixed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .attention import (MODES, AttentionOutput, AttentionParams, attend,
                        attention_grads, smooth_reg_direct, smooth_reg_grad,
                        sparsity_reg, sparsity_reg_grad, uniform_attention)
from .classifier import (ClassifierOutput, ClassifierParams, class_loss,
                         class_loss_grad_logits, classifier_grads, classify,
                         label_vector)
from .dataset import (Dataset, FeatureMatrix, Stream, VideoRecord, check_fields, check_size,
                      config_from_json, is_json, parse_json, read_file)
from .errors import ConfigError, DataFormatError, DivergenceError, InputError, ShapeError
from .transfer import KernelConfig, TransferConfig, transfer_loss
from .transfer import mmd2_grad_u as transfer_grads  # noqa: F401 - perfbench/tracer.py wraps it

CKPT_MAGIC = b"TSRC"
CKPT_VERSION = 1
PARAM_KEYS = ("att_w1", "att_w2", "fc1_w", "fc1_b", "fc2_w", "fc2_b")
LOSS_TERMS = ("class", "smooth", "sparsity", "fc1", "fc2")
CSV_HEADER = "iter,L,L_class,R_smooth,R_sparsity,L_FC1,L_FC2"
_LOSS_COLUMNS = CSV_HEADER.split(",")[1:]     # the total, then LOSS_TERMS

_STREAM_CODE = {Stream.RGB: 0, Stream.FLOW: 1}
_ROLE_CODE = {"source": 0, "target": 1}
_HEADER_TYPES = {"role": str, "stream": str, "iteration": int, "attention_enabled": bool,
                 "attention_mode": str, "params": list, "config": dict}
_LABEL_SUBSET_CODE = 7
# A chunk closes at CHUNK_CELLS // attention_hidden frames (1,024 at 64) or at
# CHUNK_VIDEOS videos, whichever comes first. Swept against 256 frames and no
# cap (2 cores, perfbench medians): frame budgets of 512, 1,024 and 2,048 made
# plain_long train 1.12-1.17x, 1.24-1.31x and 1.11-1.22x as fast, though 1,024
# frames page-fault. A cap under 16 splits a default batch in two and gives up
# kt_default's 1.03-1.09x; 32 slowed its detect by 5-10%, as the dense (B, N)
# membership products grow with videos x frames.
CHUNK_CELLS = 65536
CHUNK_VIDEOS = 16


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.1
    beta: float = 0.01
    batch_size: int = 16
    momentum: float = 0.9
    lr_rgb: float = 1e-4
    lr_flow: float = 5e-4
    decay_every: int = 5000
    decay_factor: float = 10.0
    dropout: float = 0.8
    iterations: int = 6000
    seed: int = 0
    attention_mode: str = "softmax"
    attention_enabled: bool = True
    attention_hidden: int = 64
    heads: int = 1
    classifier_hidden: int = 128
    init_scale: float = 1.0
    label_fraction: float = 1.0
    transfer: TransferConfig = field(default_factory=TransferConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):     # written so that NaN fails
            raise ConfigError("regularizer weights must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if not (self.lr_rgb > 0 and self.lr_flow > 0):
            raise ConfigError("learning rates must be positive")
        if not (self.decay_every >= 1 and self.decay_factor > 0):
            raise ConfigError("invalid learning-rate schedule")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.attention_mode not in MODES:
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if min(self.attention_hidden, self.heads, self.classifier_hidden) < 1:
            raise ConfigError("layer sizes must be >= 1")
        check_size(self.batch_size * self.classifier_hidden, "a batch's hidden layer")
        if not self.init_scale >= 0:
            raise ConfigError("init_scale must be >= 0")
        if not (0.0 < self.label_fraction <= 1.0):
            raise ConfigError("label_fraction must lie in (0, 1]")

    def lr_for(self, stream: Stream, iteration: int = 0) -> float:
        """The stream's rate, divided by decay_factor every decay_every iterations."""
        lr0 = self.lr_rgb if stream == Stream.RGB else self.lr_flow
        return lr0 * self.decay_factor ** (-(iteration // self.decay_every))


def param_shapes(d: int, n_classes: int, cfg: TrainConfig) -> tuple[tuple[int, ...], ...]:
    """The parameter shapes, in PARAM_KEYS order, of a model over d-dimensional
    features and n_classes classes: the one place that states them."""
    b, r, h = cfg.attention_hidden, cfg.heads, cfg.classifier_hidden
    return (b, d), (r, b), (h, r * d), (h,), (n_classes, h), (n_classes,)


@dataclass
class Model:
    """One stream's trainable state plus the config it was built with.

    ``flat`` holds every parameter, in PARAM_KEYS order with the per-key
    ``shapes``; ``attention`` and ``classifier`` are views of it, so
    updating ``flat`` in place updates them both. ``shapes`` must be
    ``param_shapes`` of ``cfg`` for the d and n_classes that att_w1 and fc2_b
    declare, with d >= 1 and n_classes >= 2.
    """

    flat: np.ndarray
    shapes: tuple[tuple[int, ...], ...]
    stream: Stream
    role: str
    cfg: TrainConfig
    attention: AttentionParams = field(init=False, repr=False)
    classifier: ClassifierParams = field(init=False, repr=False)

    def __post_init__(self):
        d, n_classes = (self.shapes[0] or (0,))[-1], (self.shapes[-1] or (0,))[0]  # () reads as 0
        expected = param_shapes(d, n_classes, self.cfg)
        if d < 1 or n_classes < 2 or self.shapes != expected:
            raise ShapeError(f"parameter shapes {self.shapes} must be {expected}, the config's "
                             f"for d={d} >= 1 features and {n_classes} >= 2 classes")
        views = self.views(self.flat)
        self.attention = AttentionParams(*views[:2])
        self.classifier = ClassifierParams(*views[2:])

    def __reduce__(self):
        # rebuilt from ``flat``, so that the unpickled views share its memory
        return (Model, (self.flat, self.shapes, self.stream, self.role, self.cfg))

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a vector laid out like ``flat``."""
        out, offset = [], 0
        for shape in self.shapes:
            size = math.prod(shape)
            out.append(vec[offset:offset + size].reshape(shape))
            offset += size
        return out


def init_model(d: int, n_classes: int, stream: Stream, role: str, cfg: TrainConfig,
               rng: np.random.Generator) -> Model:
    """Weights ~ N(0, init_scale^2 / fan_in), twice that for FC1 (a ReLU follows); biases 0."""
    shapes = param_shapes(d, n_classes, cfg)
    count = check_size(sum(map(math.prod, shapes)), "the model's parameter vector")
    model = Model(np.zeros(count), shapes, stream, role, cfg)
    s = cfg.init_scale
    for key, view in zip(PARAM_KEYS, model.views(model.flat)):
        if view.ndim == 2:
            fan_in = view.shape[1]
            view[:] = rng.normal(0.0, s * np.sqrt(2.0 / fan_in) if key == "fc1_w"
                                 else s / np.sqrt(fan_in), view.shape)
    return model


def _pool(model: Model, x: FeatureMatrix,
          counts: Sequence[int] | None = None) -> AttentionOutput:
    if model.cfg.attention_enabled:
        return attend(x, model.attention, model.cfg.attention_mode, counts)
    return uniform_attention(x, model.attention.r, counts)


def chunk_bounds(counts: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """Consecutive items grouped greedily into chunks of at most ``budget``
    frames and CHUNK_VIDEOS items, as [start, stop) index pairs; an item
    longer than the budget makes a chunk of its own."""
    bounds, start, total = [], 0, 0
    for i, n in enumerate(counts):
        if i > start and (total + n > budget or i - start >= CHUNK_VIDEOS):
            bounds.append((start, i))
            start, total = i, 0
        total += n
    if counts:
        bounds.append((start, len(counts)))
    return bounds


def chunk_budget(model: Model) -> int:
    """Frames per chunk: CHUNK_CELLS // attention_hidden."""
    return CHUNK_CELLS // model.attention.w1.shape[0]


def stack_videos(xs: Sequence[FeatureMatrix]) -> tuple[FeatureMatrix, list[int]]:
    """The videos' frames side by side in one (d, N) feature matrix, and
    their frame counts."""
    x = xs[0] if len(xs) == 1 else FeatureMatrix(np.concatenate([v.values.T for v in xs]).T)
    return x, [v.n for v in xs]


def forward_video(model: Model, x: FeatureMatrix, counts: Sequence[int] | None = None
                  ) -> tuple[AttentionOutput, ClassifierOutput]:
    """A chunk's forward pass without dropout: attention once over its
    videos' frames (``counts`` splits the columns, default one video), then
    the classifier on the (B, r*d) pooled rows, one row per video."""
    att = _pool(model, x, counts)
    return att, classify(att.m, model.classifier)


def forward_batch(model: Model, xs: Sequence[FeatureMatrix],
                  dropout_mask: np.ndarray | None = None
                  ) -> tuple[list[tuple[FeatureMatrix, AttentionOutput]], np.ndarray,
                             ClassifierOutput]:
    """A training step's forward pass: attention chunk by chunk, then the
    classifier once. Returns each chunk's (features, attention output), the
    stacked (B, r*d) pooled matrix and the classifier output."""
    chunks = []
    for lo, hi in chunk_bounds([x.n for x in xs], chunk_budget(model)):
        x, counts = stack_videos(xs[lo:hi])
        chunks.append((x, _pool(model, x, counts)))
    pooled_m = np.vstack([att.m for _, att in chunks])
    return chunks, pooled_m, classify(pooled_m, model.classifier, dropout_mask)


def loss_weights(cfg: TrainConfig) -> dict[str, float]:
    """The target objective: class + alpha R_smooth + beta R_sparsity + L_FC1 + L_FC2,
    with each transfer term weighted 0 when its tap is switched off."""
    kt = cfg.transfer
    return {"class": 1.0, "smooth": cfg.alpha, "sparsity": cfg.beta,
            "fc1": 1.0 if kt.enabled else 0.0,
            "fc2": 1.0 if kt.enabled and kt.fc2_enabled else 0.0}


def total_loss(batch: Sequence[tuple[FeatureMatrix, np.ndarray]], model: Model,
               dropout_mask: np.ndarray | None = None,
               source_acts: tuple[np.ndarray, np.ndarray] | None = None,
               weights: dict[str, float] | None = None
               ) -> tuple[float, dict[str, float], np.ndarray]:
    """Weighted loss over one batch and its analytic gradient w.r.t. ``model.flat``.

    ``dropout_mask`` is the batch's (B, h) mask matrix, or None for no
    dropout. ``weights`` maps LOSS_TERMS names to weights (absent names
    weigh 0) and defaults to ``loss_weights(model.cfg)``; the returned terms map
    each LOSS_TERMS name, in that order, to its unweighted value.
    ``source_acts`` is the frozen source model's (pooled, hidden) batch;
    without it the transfer terms are dropped.
    """
    if not batch:
        raise InputError("empty batch")
    w = loss_weights(model.cfg) if weights is None else dict.fromkeys(LOSS_TERMS, 0.0) | weights
    unknown = set(w) - set(LOSS_TERMS)
    if unknown:
        raise ConfigError(f"unknown loss terms {sorted(unknown)}")
    n_reg = len(batch) * model.attention.r    # the regularizers average over heads too

    chunks, pooled_m, cls = forward_batch(model, [x for x, _ in batch], dropout_mask)
    labels = np.vstack([y for _, y in batch])
    probs = cls.probs

    terms = dict.fromkeys(LOSS_TERMS, 0.0)
    terms["class"] = float(np.mean(class_loss(probs, labels)))
    terms["smooth"] = sum(smooth_reg_direct(att.a, att.counts) for _, att in chunks) / n_reg
    terms["sparsity"] = sum(sparsity_reg(att.scores) for _, att in chunks) / n_reg

    kt_grads = {}   # tap -> weighted gradient rows, one per video
    if source_acts is not None:
        for tap, source, target in (("fc1", source_acts[0], pooled_m),
                                    ("fc2", source_acts[1], cls.hidden_clean)):
            if w[tap]:
                terms[tap], _, g = transfer_loss(source, target, model.cfg.kernel)
                kt_grads[tap] = w[tap] * g

    total = sum((w[k] * terms[k] for k in LOSS_TERMS if w[k]), 0.0)

    g_logits = w["class"] * (class_loss_grad_logits(probs, labels) / len(batch))
    g_cls, g_m = classifier_grads(pooled_m, model.classifier, cls, g_logits, dropout_mask,
                                  g_hidden_clean=kt_grads.get("fc2"))
    g_m = g_m + kt_grads["fc1"] if "fc1" in kt_grads else g_m
    grad = np.zeros_like(model.flat)
    views = model.views(grad)
    for acc, g in zip(views[2:], g_cls):
        acc += g
    lo = 0
    for x, att in chunks:
        hi = lo + len(att.counts)
        g_a = np.zeros_like(att.a)
        g_scores = None
        if w["smooth"]:
            g_a += w["smooth"] / n_reg * smooth_reg_grad(att.a, att.counts)
        if w["sparsity"]:
            g_sparse = w["sparsity"] / n_reg * sparsity_reg_grad(att.scores)
            if att.mode == "sigmoid":
                g_scores = g_sparse
            else:
                g_a += g_sparse
        for acc, g in zip(views, attention_grads(x, model.attention, att, g_m=g_m[lo:hi],
                                                 g_a=g_a, g_scores=g_scores)):
            acc += g
        lo = hi

    return total, terms, grad


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def sgd_step(model: Model, grad: np.ndarray, velocity: np.ndarray, iteration: int) -> None:
    """v <- mu v - lr g; p <- p + v on the flat vectors, with mu and lr from model.cfg."""
    velocity *= model.cfg.momentum
    velocity -= model.cfg.lr_for(model.stream, iteration) * grad
    model.flat += velocity


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------


def _rng_tree(cfg: TrainConfig, stream: Stream, role: str) -> list[np.random.Generator]:
    ss = np.random.SeedSequence((cfg.seed, _ROLE_CODE[role], _STREAM_CODE[stream]))
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(3)]


def _draw_mask(rng: np.random.Generator, shape: tuple[int, ...],
               rate: float) -> np.ndarray | None:
    """0-or-1/keep entries; a (B, h) mask equals B successive (h,) draws."""
    if rate == 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def labeled_subset(n_videos: int, fraction: float, seed: int) -> np.ndarray:
    """Deterministic index subset carrying labels; shared across streams."""
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((seed, _LABEL_SUBSET_CODE))))
    count = max(1, int(np.ceil(fraction * n_videos)))
    return np.sort(rng.permutation(n_videos)[:count])


def _fit(dataset: Dataset, stream: Stream, role: str, cfg: TrainConfig,
         recs: Sequence[VideoRecord], weights: dict[str, float] | None = None,
         source_model: Model | None = None) -> tuple[Model, list[str]]:
    """The SGD loop of both roles over the videos ``recs``, logging one CSV row per step.

    With a ``source_model``, each step adds the transfer terms against the
    frozen model's activations on a sampled batch of source clips. Those
    activations are fixed, so they are computed up front, chunk by chunk,
    holding one chunk's intermediates at a time.
    """
    init_rng, batch_rng, mask_rng = _rng_tree(cfg, stream, role)
    xs, n_classes = dataset.read_split(recs, stream), dataset.manifest.n_classes
    model = init_model(xs[0].d, n_classes, stream, role, cfg, init_rng)
    if source_model is not None:
        if source_model.shapes != model.shapes:
            raise ConfigError(f"source/target shape mismatch: "
                              f"{source_model.shapes} vs {model.shapes}")
        source_xs = dataset.read_split(dataset.manifest.split("source"), stream)
        h, width = model.classifier.fc1_w.shape
        src_m = np.empty((len(source_xs), width))
        src_hidden = np.empty((len(source_xs), h))
        for lo, hi in chunk_bounds([x.n for x in source_xs], chunk_budget(source_model)):
            att, cls = forward_video(source_model, *stack_videos(source_xs[lo:hi]))
            src_m[lo:hi], src_hidden[lo:hi] = att.m, cls.hidden_clean

    velocity = np.zeros_like(model.flat)
    ys = [label_vector(rec.labels, n_classes) for rec in recs]
    rows = [CSV_HEADER]
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, len(recs), size=cfg.batch_size)
        batch = [(xs[i], ys[i]) for i in idx]
        mask = _draw_mask(mask_rng, (cfg.batch_size, cfg.classifier_hidden), cfg.dropout)
        source_acts = None
        if source_model is not None:
            sidx = batch_rng.integers(0, len(source_xs), size=cfg.batch_size)
            source_acts = (src_m[sidx], src_hidden[sidx])
        with np.errstate(over="ignore", invalid="ignore"):  # the guard reports it
            total, terms, grad = total_loss(batch, model, mask, source_acts, weights)
            sgd_step(model, grad, velocity, it)
        values = (total, *terms.values())
        bad = [f"{name}={v!r}" for name, v in zip(_LOSS_COLUMNS, values) if not math.isfinite(v)]
        if bad or not np.isfinite(model.flat).all():
            raise DivergenceError(f"{role} {stream.value} training diverged at iteration {it}: "
                                  f"non-finite {', '.join(bad) or 'parameters after the update'}")
        rows.append(f"{it}," + ",".join(map(repr, values)))
    return model, rows


def train_source(dataset: Dataset, stream: Stream, cfg: TrainConfig
                 ) -> tuple[Model, list[str]]:
    """Train one stream's source model on the trimmed split, class loss only."""
    recs = dataset.manifest.split("source")
    for rec in recs:
        if not rec.trimmed:
            raise InputError(f"{rec.video_id}: source training needs trimmed videos")
    return _fit(dataset, stream, "source", cfg, recs, weights={"class": 1.0})


def train_target(dataset: Dataset, stream: Stream, cfg: TrainConfig,
                 source_model: Model | None = None) -> tuple[Model, list[str]]:
    """Train one stream's target model on the untrimmed train split's labeled videos."""
    recs = dataset.manifest.split("train")
    if cfg.label_fraction < 1.0:
        recs = [recs[i] for i in labeled_subset(len(recs), cfg.label_fraction, cfg.seed)]
    if not cfg.transfer.enabled:
        source_model = None
    elif source_model is None:
        raise ConfigError("knowledge transfer needs a source model")
    elif source_model.stream != stream:
        raise ConfigError("source model belongs to the other stream")
    return _fit(dataset, stream, "target", cfg, recs, source_model=source_model)


# ---------------------------------------------------------------------------
# both streams at once
# ---------------------------------------------------------------------------


def run_streams(work: Callable[[Stream], object]) -> dict[Stream, object]:
    """``{stream: work(stream)}`` in STREAMS order, the two calls running at once.

    RGB runs in this process and flow in one forked child, which sends back
    its result or the exception it raised. The RGB error is raised first,
    then the flow error; a child that exits without sending anything raises
    ChildProcessError. Whatever happens, the child is stopped and joined
    before this returns. Fork, not spawn: the child starts from the loaded
    dataset and models instead of a fresh import.
    """
    import multiprocessing  # here, not at the top: it adds ~10 ms to every command

    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_in_child, args=(work, Stream.FLOW, writer))
    child.start()       # flushes stdout first, so nothing buffered is printed twice
    writer.close()
    try:
        rgb = work(Stream.RGB)
        try:
            ok, flow = reader.recv()
        except EOFError:
            child.join()
            raise ChildProcessError(f"the flow stream's process exited with code "
                                    f"{child.exitcode} before sending its result") from None
        if not ok:
            raise flow
        return {Stream.RGB: rgb, Stream.FLOW: flow}
    finally:
        reader.close()
        if child.is_alive():
            child.terminate()
        child.join()


def _run_in_child(work: Callable[[Stream], object], stream: Stream, writer) -> None:
    """The forked child's side of ``run_streams``: send ``(True, result)`` or
    ``(False, exception)``. It prints nothing; the parent reports errors."""
    try:
        message = (True, work(stream))
    except BaseException as exc:  # noqa: BLE001 - re-raised by the parent
        message = (False, exc)
    try:
        writer.send(message)
    except BaseException:  # noqa: BLE001 - unsendable or the parent is gone: it sees EOF
        pass


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _header(model: Model) -> dict:
    """The header save_checkpoint writes for ``model`` and the reader checks a file's
    header against: all but the parameter shapes come from the model's config."""
    cfg = model.cfg
    return {"role": model.role, "stream": model.stream.value, "iteration": cfg.iterations,
            "attention_enabled": cfg.attention_enabled, "attention_mode": cfg.attention_mode,
            "params": [{"name": k, "shape": list(s)} for k, s in zip(PARAM_KEYS, model.shapes)],
            "config": asdict(cfg)}


def save_checkpoint(model: Model, path: Path | str) -> None:
    """Write magic + u32 version + u32 header length + JSON header + payload.

    The header is canonical JSON (sorted keys, no whitespace) and the
    payload is ``model.flat`` as raw little-endian float64, which is every
    parameter in header order, so the file is byte-reproducible from the
    same model state.
    """
    blob = json.dumps(_header(model), sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(blob)) + blob
                           + np.ascontiguousarray(model.flat, dtype="<f8").tobytes())


def _header_shapes(header) -> tuple[tuple[int, ...], ...]:
    """Check the header's schema; returns the parameter shapes it declares."""
    check_fields(header, _HEADER_TYPES.items(), DataFormatError, "checkpoint header")
    unknown = sorted(set(header) - set(_HEADER_TYPES))
    if unknown:
        raise DataFormatError(f"checkpoint header has unknown keys {unknown}")
    for key, known in (("role", _ROLE_CODE), ("stream", [s.value for s in Stream])):
        if header[key] not in known:
            raise DataFormatError(f"unknown checkpoint {key} {header[key]!r}")
    specs = header["params"]
    names = [spec.get("name") if is_json(spec, dict) else None for spec in specs]
    if names != list(PARAM_KEYS):
        raise DataFormatError(f"checkpoint parameters are {names}, expected {list(PARAM_KEYS)}")
    for name, spec in zip(names, specs):
        unknown = sorted(set(spec) - {"name", "shape"})
        if unknown:
            raise DataFormatError(f"checkpoint parameter {name} has unknown keys {unknown}")
        shape = spec.get("shape")
        if not (is_json(shape, [int]) and all(n >= 0 for n in shape)):
            raise DataFormatError(f"checkpoint parameter {name} has bad shape {shape!r}")
    return tuple(tuple(spec["shape"]) for spec in specs)


def load_checkpoint(path: Path | str) -> tuple[Model, TrainConfig, int]:
    """Read a checkpoint written by save_checkpoint: the model, its config
    and its iteration count; every error names the file."""
    return read_file(path, _parse_checkpoint)


def _parse_checkpoint(data: bytes) -> tuple[Model, TrainConfig, int]:
    if len(data) < 12 or data[:4] != CKPT_MAGIC:
        raise DataFormatError("not a checkpoint file")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != CKPT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    if 12 + hlen > len(data):
        raise DataFormatError(f"checkpoint header length {hlen} runs past the end of the file")
    header = parse_json(data[12:12 + hlen], "checkpoint header", DataFormatError)
    shapes = _header_shapes(header)
    try:
        cfg = config_from_json(TrainConfig, header["config"], "config")
    except ConfigError as exc:
        raise DataFormatError(f"bad checkpoint config: {exc}") from exc
    offset = 12 + hlen
    sizes = [math.prod(shape) for shape in shapes]
    count = sum(sizes)
    if offset + 8 * count > len(data):
        raise DataFormatError("checkpoint payload truncated")
    if offset + 8 * count != len(data):
        raise DataFormatError("checkpoint has trailing bytes")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset).astype(np.float64)
    finite = np.isfinite(flat)
    if not finite.all():
        first = int(np.argmin(finite))
        name = next(key for key, end in zip(PARAM_KEYS, accumulate(sizes)) if first < end)
        raise DataFormatError(f"checkpoint parameter {name} holds a non-finite value")
    try:
        model = Model(flat=flat, shapes=shapes, stream=Stream(header["stream"]),
                      role=header["role"], cfg=cfg)
    except ShapeError as exc:
        raise DataFormatError(f"inconsistent checkpoint parameter shapes: {exc}") from exc
    expected = _header(model)
    wrong = [f"{k} is {v!r} but the config gives {expected[k]!r}"
             for k, v in header.items() if k in expected and v != expected[k]]
    if wrong:
        raise DataFormatError(f"checkpoint header disagrees with its config: {'; '.join(wrong)}")
    return model, cfg, cfg.iterations


# ---------------------------------------------------------------------------
# gradient certification
# ---------------------------------------------------------------------------


def certify_gradients(seed: int = 0, trials: int = 3) -> dict[str, float]:
    """Max relative error of each analytic loss-term gradient vs central
    finite differences, over random tiny instances."""
    from .numerics import finite_diff_grad, grad_rel_error

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    worst: dict[str, float] = {}
    for trial in range(trials):
        d = int(rng.integers(2, 9))
        b = int(rng.integers(1, 5))
        h = int(rng.integers(1, 5))
        r = int(rng.integers(1, 3))
        n_classes = int(rng.integers(2, 4))
        mode = ("softmax", "sigmoid")[trial % 2]
        cfg = TrainConfig(
            alpha=0.37, beta=0.53, batch_size=2, dropout=0.0, iterations=1,
            attention_mode=mode, attention_hidden=b, heads=r,
            classifier_hidden=h, seed=seed,
            transfer=TransferConfig(enabled=True, fc2_enabled=True),
            kernel=KernelConfig(sigma=1.3),
        )
        model = init_model(d, n_classes, Stream.RGB, "target", cfg, rng)
        batch = []
        for _ in range(2):
            n = int(rng.integers(2, 7))
            x = FeatureMatrix(rng.uniform(-1.0, 1.0, (d, n)))
            y = label_vector([int(rng.integers(n_classes))], n_classes)
            batch.append((x, y))
        mask = (rng.random((len(batch), h)) < 0.5).astype(np.float64) / 0.5
        source_acts = (rng.uniform(-1.0, 1.0, (3, r * d)),
                       rng.uniform(-1.0, 1.0, (3, h)))

        # one term at a time (the others weighted 0), then the full objective
        full = loss_weights(cfg)
        cases = [(name, {name: full[name]}) for name in LOSS_TERMS] + [("total", full)]
        for name, weights in cases:
            _, _, analytic = total_loss(batch, model, mask, source_acts, weights)

            def f(_: np.ndarray) -> float:
                # finite_diff_grad perturbs model.flat in place; the views follow
                return total_loss(batch, model, mask, source_acts, weights)[0]

            numeric = finite_diff_grad(f, model.flat)
            err = grad_rel_error(analytic, numeric)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
