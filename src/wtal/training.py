"""Two-stage training: source (trimmed) models, then target (untrimmed)
models with attention regularization and MMD knowledge transfer.

The overall target loss per step is

    L = mean_v [class_loss_v + alpha * R_smooth(a_v) + beta * R_sparsity(a_v)]
        + L_FC1 + L_FC2

with the regularizers averaged over attention heads, and the transfer terms
computed between this step's target activation batch and a sampled batch of
the frozen source model's activations, which are computed once per source
clip before the first step. Source training minimizes the class loss alone.

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
``transfer_loss`` call and one ``transfer_grads`` call.

A step pools each video on its own (lengths differ), then runs the
classifier forward and backward once on the stacked (B, r*d) pooled matrix
M under one (B, h) dropout mask; the transfer taps read M and its hidden
layer. Only the attention backward runs per video, for all heads at once.

A model's parameters live in one contiguous float64 vector, ``Model.flat``,
laid out in PARAM_KEYS order; the attention and classifier parameters are
reshaped views of it. Gradients and the momentum velocity share that
layout, so an SGD step is one vector update and a checkpoint payload is
the vector's bytes.

Everything is bit-deterministic given (dataset, config, seed): batches,
dropout masks, and initialization all come from PCG64 generators seeded
from a fixed SeedSequence tree, and gradient accumulation order is fixed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .attention import (MODES, AttentionOutput, AttentionParams, attend,
                        attention_grads, smooth_reg_direct, smooth_reg_grad,
                        sparsity_reg, sparsity_reg_grad, uniform_attention)
from .classifier import (ClassifierOutput, ClassifierParams, class_loss,
                         class_loss_grad_logits, classifier_grads, classify,
                         label_vector)
from .dataset import Dataset, FeatureMatrix, Stream
from .errors import ConfigError, DataFormatError, DivergenceError, InputError
from .transfer import KernelConfig, TransferConfig, transfer_grads, transfer_loss

CKPT_MAGIC = b"TSRC"
CKPT_VERSION = 1
PARAM_KEYS = ("att_w1", "att_w2", "fc1_w", "fc1_b", "fc2_w", "fc2_b")
LOSS_TERMS = ("class", "smooth", "sparsity", "fc1", "fc2")
CSV_HEADER = "iter,L,L_class,R_smooth,R_sparsity,L_FC1,L_FC2"
_LOSS_COLUMNS = CSV_HEADER.split(",")[1:]     # the names of LossTerms.values()

_STREAM_CODE = {Stream.RGB: 0, Stream.FLOW: 1}
_ROLE_CODE = {"source": 0, "target": 1}
_HEADER_TYPES = {"role": str, "stream": str, "iteration": int, "attention_enabled": bool,
                 "attention_mode": str, "params": list, "config": dict}
_LABEL_SUBSET_CODE = 7


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

    def validate(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("regularizer weights must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if self.lr_rgb <= 0 or self.lr_flow <= 0:
            raise ConfigError("learning rates must be positive")
        if self.decay_every < 1 or self.decay_factor <= 0:
            raise ConfigError("invalid learning-rate schedule")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout rate must lie in [0, 1)")
        if self.iterations < 1:
            raise ConfigError("iterations must be >= 1")
        if self.attention_mode not in MODES:
            raise ConfigError(f"unknown attention mode {self.attention_mode!r}")
        if min(self.attention_hidden, self.heads, self.classifier_hidden) < 1:
            raise ConfigError("layer sizes must be >= 1")
        if not (0.0 < self.label_fraction <= 1.0):
            raise ConfigError("label_fraction must lie in (0, 1]")

    def lr_for(self, stream: Stream) -> float:
        return self.lr_rgb if stream == Stream.RGB else self.lr_flow


def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def config_from_dict(doc: dict) -> TrainConfig:
    doc = dict(doc)
    transfer = TransferConfig(**doc.pop("transfer"))
    kernel = KernelConfig(**doc.pop("kernel"))
    return TrainConfig(transfer=transfer, kernel=kernel, **doc)


@dataclass
class Model:
    """One stream's trainable state plus the pooling mode it was built with.

    ``flat`` holds every parameter, in PARAM_KEYS order with the per-key
    ``shapes``; ``attention`` and ``classifier`` are views of it, so
    updating ``flat`` in place updates them both.
    """

    flat: np.ndarray
    shapes: tuple[tuple[int, ...], ...]
    stream: Stream
    role: str
    attention_enabled: bool = True
    attention_mode: str = "softmax"
    attention: AttentionParams = field(init=False, repr=False)
    classifier: ClassifierParams = field(init=False, repr=False)

    def __post_init__(self):
        views = self.views(self.flat)
        self.attention = AttentionParams(*views[:2])
        self.classifier = ClassifierParams(*views[2:])

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
    b, r, h = cfg.attention_hidden, cfg.heads, cfg.classifier_hidden
    s = cfg.init_scale
    arrays = [
        rng.normal(0.0, s / np.sqrt(d), (b, d)),
        rng.normal(0.0, s / np.sqrt(b), (r, b)),
        rng.normal(0.0, s * np.sqrt(2.0 / (r * d)), (h, r * d)),
        np.zeros(h),
        rng.normal(0.0, s / np.sqrt(h), (n_classes, h)),
        np.zeros(n_classes),
    ]
    return Model(flat=np.concatenate([a.ravel() for a in arrays]),
                 shapes=tuple(a.shape for a in arrays), stream=stream, role=role,
                 attention_enabled=cfg.attention_enabled,
                 attention_mode=cfg.attention_mode)


def _pool(model: Model, x: FeatureMatrix) -> AttentionOutput:
    if model.attention_enabled:
        return attend(x, model.attention, model.attention_mode)
    return uniform_attention(x, model.attention.r)


def forward_video(model: Model, x: FeatureMatrix,
                  dropout_mask: np.ndarray | None = None
                  ) -> tuple[AttentionOutput, ClassifierOutput]:
    att = _pool(model, x)
    return att, classify(att.m, model.classifier, dropout_mask)


@dataclass(frozen=True)
class LossTerms:
    total: float
    class_term: float
    smooth: float
    sparsity: float
    fc1: float
    fc2: float

    def values(self) -> tuple[float, ...]:
        """The terms in CSV column order."""
        return (self.total, self.class_term, self.smooth, self.sparsity,
                self.fc1, self.fc2)

    def csv_row(self, iteration: int) -> str:
        return f"{iteration}," + ",".join(repr(v) for v in self.values())


def loss_weights(cfg: TrainConfig) -> dict[str, float]:
    """The target objective: class + alpha R_smooth + beta R_sparsity + L_FC1 + L_FC2,
    with each transfer term weighted 0 when its tap is switched off."""
    kt = cfg.transfer
    return {"class": 1.0, "smooth": cfg.alpha, "sparsity": cfg.beta,
            "fc1": 1.0 if kt.enabled else 0.0,
            "fc2": 1.0 if kt.enabled and kt.fc2_enabled else 0.0}


def total_loss(batch: Sequence[tuple[FeatureMatrix, np.ndarray]], model: Model,
               cfg: TrainConfig,
               dropout_mask: np.ndarray | None = None,
               source_acts: tuple[np.ndarray, np.ndarray] | None = None,
               weights: dict[str, float] | None = None
               ) -> tuple[float, LossTerms, np.ndarray]:
    """Weighted loss over one batch and its analytic gradient w.r.t. ``model.flat``.

    ``dropout_mask`` is the batch's (B, h) mask matrix, or None for no
    dropout. ``weights`` maps LOSS_TERMS names to weights (absent names
    weigh 0) and defaults to ``loss_weights(cfg)``; the returned LossTerms
    keep each term's unweighted value. ``source_acts`` is the frozen source
    model's (pooled, hidden) batch; without it the transfer terms are dropped.
    """
    if not batch:
        raise InputError("empty batch")
    w = loss_weights(cfg) if weights is None else dict.fromkeys(LOSS_TERMS, 0.0) | weights
    unknown = set(w) - set(LOSS_TERMS)
    if unknown:
        raise ConfigError(f"unknown loss terms {sorted(unknown)}")
    n_reg = len(batch) * model.attention.r    # the regularizers average over heads too

    pooled = [_pool(model, x) for x, _ in batch]
    pooled_m = np.vstack([att.m for att in pooled])
    labels = np.vstack([y for _, y in batch])
    cls = classify(pooled_m, model.classifier, dropout_mask)
    probs = cls.probs

    class_term = float(np.mean(class_loss(probs, labels)))
    smooth_term = sum(smooth_reg_direct(att.a) for att in pooled) / n_reg
    sparsity_term = sum(sparsity_reg(att.scores) for att in pooled) / n_reg

    kt_terms = {"fc1": 0.0, "fc2": 0.0}
    kt_grads = {}   # tap -> weighted gradient rows, one per video
    if source_acts is not None:
        for tap, source, target in (("fc1", source_acts[0], pooled_m),
                                    ("fc2", source_acts[1], cls.hidden_clean)):
            if w[tap]:
                kt_terms[tap], sigma = transfer_loss(source, target, cfg.kernel)
                kt_grads[tap] = w[tap] * transfer_grads(source, target, sigma)

    values = (class_term, smooth_term, sparsity_term, kt_terms["fc1"], kt_terms["fc2"])
    total = sum((w[k] * v for k, v in zip(LOSS_TERMS, values) if w[k]), 0.0)

    g_logits = w["class"] * (class_loss_grad_logits(probs, labels) / len(batch))
    cg = classifier_grads(pooled_m, model.classifier, cls, g_logits, dropout_mask,
                          g_hidden_clean=kt_grads.get("fc2"))
    g_m = cg.m + kt_grads["fc1"] if "fc1" in kt_grads else cg.m
    grad = np.zeros_like(model.flat)
    views = model.views(grad)
    for acc, g in zip(views[2:], (cg.fc1_w, cg.fc1_b, cg.fc2_w, cg.fc2_b)):
        acc += g
    for (x, _), att, g_m_v in zip(batch, pooled, g_m):
        g_a = np.zeros_like(att.a)
        g_scores = None
        if w["smooth"]:
            g_a += w["smooth"] / n_reg * smooth_reg_grad(att.a)
        if w["sparsity"]:
            g_sparse = w["sparsity"] / n_reg * sparsity_reg_grad(att.scores)
            if att.mode == "sigmoid":
                g_scores = g_sparse
            else:
                g_a += g_sparse
        for acc, g in zip(views, attention_grads(x, model.attention, att, g_m=g_m_v,
                                                 g_a=g_a, g_scores=g_scores)):
            acc += g

    loss_terms = LossTerms(total=total, class_term=class_term,
                           smooth=smooth_term, sparsity=sparsity_term,
                           fc1=kt_terms["fc1"], fc2=kt_terms["fc2"])
    return total, loss_terms, grad


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def learning_rate(lr0: float, iteration: int, cfg: TrainConfig) -> float:
    return lr0 * cfg.decay_factor ** (-(iteration // cfg.decay_every))


def sgd_step(model: Model, grad: np.ndarray, velocity: np.ndarray,
             iteration: int, lr0: float, cfg: TrainConfig) -> None:
    """v <- mu v - lr g; p <- p + v, on the flat parameter and velocity vectors."""
    velocity *= cfg.momentum
    velocity -= learning_rate(lr0, iteration, cfg) * grad
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
         records: list, weights: dict[str, float] | None = None,
         source_model: Model | None = None) -> tuple[Model, list[str]]:
    """The SGD loop of both roles over ``records``, logging one CSV row per step.

    With a ``source_model``, each step adds the transfer terms against the
    frozen model's activations on a sampled batch of source clips. Those
    activations are fixed, so they are computed once per clip up front.
    """
    init_rng, batch_rng, mask_rng = _rng_tree(cfg, stream, role)
    model = init_model(dataset.feature_dim(stream), dataset.n_classes,
                       stream, role, cfg, init_rng)
    if source_model is not None:
        if source_model.shapes != model.shapes:
            raise ConfigError(f"source/target shape mismatch: "
                              f"{source_model.shapes} vs {model.shapes}")
        source_records = list(dataset.iter_split("source", stream))
        if not source_records:
            raise InputError("knowledge transfer needs a source split")
        h, width = model.classifier.fc1_w.shape
        src_m = np.empty((len(source_records), width))
        src_hidden = np.empty((len(source_records), h))
        for i, (_, x) in enumerate(source_records):
            att, cls = forward_video(source_model, x)
            src_m[i], src_hidden[i] = att.m, cls.hidden_clean

    velocity = np.zeros_like(model.flat)
    ys = [label_vector(rec.labels, dataset.n_classes) for rec, _ in records]
    rows = [CSV_HEADER]
    for it in range(cfg.iterations):
        idx = batch_rng.integers(0, len(records), size=cfg.batch_size)
        batch = [(records[i][1], ys[i]) for i in idx]
        mask = _draw_mask(mask_rng, (cfg.batch_size, cfg.classifier_hidden), cfg.dropout)
        source_acts = None
        if source_model is not None:
            sidx = batch_rng.integers(0, len(source_records), size=cfg.batch_size)
            source_acts = (src_m[sidx], src_hidden[sidx])
        with np.errstate(over="ignore", invalid="ignore"):  # the guard reports it
            _, terms, grad = total_loss(batch, model, cfg, mask, source_acts, weights)
            sgd_step(model, grad, velocity, it, cfg.lr_for(stream), cfg)
        bad = [f"{name}={v!r}" for name, v in zip(_LOSS_COLUMNS, terms.values())
               if not math.isfinite(v)]
        if bad or not np.isfinite(model.flat).all():
            raise DivergenceError(f"{role} {stream.value} training diverged at iteration {it}: "
                                  f"non-finite {', '.join(bad) or 'parameters after the update'}")
        rows.append(terms.csv_row(it))
    return model, rows


def train_source(dataset: Dataset, stream: Stream, cfg: TrainConfig
                 ) -> tuple[Model, list[str]]:
    """Train one stream's source model on the trimmed split, class loss only."""
    cfg.validate()
    records = list(dataset.iter_split("source", stream))
    if not records:
        raise InputError("source split is empty")
    for rec, _ in records:
        if not rec.trimmed:
            raise InputError(f"{rec.video_id}: source training needs trimmed videos")
    return _fit(dataset, stream, "source", cfg, records, weights={"class": 1.0})


def train_target(dataset: Dataset, stream: Stream, cfg: TrainConfig,
                 source_model: Model | None = None) -> tuple[Model, list[str]]:
    """Train one stream's target model on the untrimmed train split."""
    cfg.validate()
    records = list(dataset.iter_split("train", stream))
    if not records:
        raise InputError("train split is empty")
    if cfg.label_fraction < 1.0:
        keep = labeled_subset(len(records), cfg.label_fraction, cfg.seed)
        records = [records[i] for i in keep]
    if not cfg.transfer.enabled:
        source_model = None
    elif source_model is None:
        raise ConfigError("knowledge transfer needs a source model")
    elif source_model.stream != stream:
        raise ConfigError("source model belongs to the other stream")
    return _fit(dataset, stream, "target", cfg, records, source_model=source_model)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: Model, cfg: TrainConfig, iteration: int,
                    path: Path | str) -> None:
    """Write magic + u32 version + u32 header length + JSON header + payload.

    The header is canonical JSON (sorted keys, no whitespace) and the
    payload is ``model.flat`` as raw little-endian float64, which is every
    parameter in header order, so the file is byte-reproducible from the
    same model state.
    """
    header = {
        "role": model.role,
        "stream": model.stream.value,
        "iteration": iteration,
        "attention_enabled": model.attention_enabled,
        "attention_mode": model.attention_mode,
        "params": [{"name": k, "shape": list(shape)}
                   for k, shape in zip(PARAM_KEYS, model.shapes)],
        "config": config_to_dict(cfg),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    Path(path).write_bytes(CKPT_MAGIC + struct.pack("<II", CKPT_VERSION, len(blob)) + blob
                           + np.ascontiguousarray(model.flat, dtype="<f8").tobytes())


def _header_shapes(header) -> tuple[tuple[int, ...], ...]:
    """Check the header's schema; returns the parameter shapes it declares."""
    if not isinstance(header, dict):
        raise DataFormatError("checkpoint header is not a JSON object")
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise DataFormatError(f"checkpoint header lacks {key!r}")
        if not isinstance(header[key], kind) or (kind is int and isinstance(header[key], bool)):
            raise DataFormatError(f"checkpoint header {key!r} must be of type {kind.__name__}")
    if header["role"] not in _ROLE_CODE:
        raise DataFormatError(f"unknown checkpoint role {header['role']!r}")
    if header["stream"] not in {s.value for s in Stream}:
        raise DataFormatError(f"unknown checkpoint stream {header['stream']!r}")
    if header["attention_mode"] not in MODES:
        raise DataFormatError(f"unknown attention mode {header['attention_mode']!r}")
    specs = header["params"]
    names = [spec.get("name") if isinstance(spec, dict) else None for spec in specs]
    if names != list(PARAM_KEYS):
        raise DataFormatError(f"checkpoint parameters are {names}, expected {list(PARAM_KEYS)}")
    shapes = tuple(spec.get("shape") for spec in specs)
    for name, shape in zip(names, shapes):
        if not (isinstance(shape, list) and all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
            raise DataFormatError(f"checkpoint parameter {name} has bad shape {shape!r}")
    return tuple(tuple(shape) for shape in shapes)


def load_checkpoint(path: Path | str) -> tuple[Model, TrainConfig, int]:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != CKPT_MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != CKPT_VERSION:
        raise DataFormatError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12:12 + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"corrupt checkpoint header: {exc}") from exc
    shapes = _header_shapes(header)
    try:
        cfg = config_from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad checkpoint config: {exc!r}") from exc
    offset = 12 + hlen
    count = sum(math.prod(shape) for shape in shapes)
    if offset + 8 * count > len(data):
        raise DataFormatError("checkpoint payload truncated")
    if offset + 8 * count != len(data):
        raise DataFormatError("checkpoint has trailing bytes")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=offset).astype(np.float64)
    try:
        model = Model(flat=flat, shapes=shapes, stream=Stream(header["stream"]),
                      role=header["role"], attention_enabled=header["attention_enabled"],
                      attention_mode=header["attention_mode"])
    except ValueError as exc:
        raise DataFormatError(f"inconsistent checkpoint parameter shapes: {exc}") from exc
    return model, cfg, header["iteration"]


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
            _, _, analytic = total_loss(batch, model, cfg, mask, source_acts, weights)

            def f(_: np.ndarray) -> float:
                # finite_diff_grad perturbs model.flat in place; the views follow
                return total_loss(batch, model, cfg, mask, source_acts, weights)[0]

            numeric = finite_diff_grad(f, model.flat)
            err = grad_rel_error(analytic, numeric)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
