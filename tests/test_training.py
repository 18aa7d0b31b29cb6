"""Tests for the loss assembly, optimizer, training loops, checkpoints,
and the finite-difference gradient certifier."""

import dataclasses
import json
import math
import pickle
import struct

import numpy as np
import pytest

from wtal import training
from wtal.classifier import class_loss, label_vector
from wtal.dataset import (
    Dataset,
    FeatureMatrix,
    Stream,
    SyntheticSpec,
    config_from_json,
    generate_synthetic,
    load_dataset,
)
from wtal.errors import ConfigError, DataFormatError, InputError, ShapeError
from wtal.training import (
    CSV_HEADER,
    LOSS_TERMS,
    PARAM_KEYS,
    TrainConfig,
    certify_gradients,
    forward_video,
    init_model,
    labeled_subset,
    load_checkpoint,
    loss_weights,
    save_checkpoint,
    sgd_step,
    total_loss,
    train_source,
    train_target,
)
from wtal.transfer import KernelConfig, TransferConfig

import oracles


TINY_CFG = TrainConfig(batch_size=4, iterations=30, attention_hidden=6,
                       classifier_hidden=8, dropout=0.5)

TINY_SPEC = SyntheticSpec(
    n_classes=2, d=6, source_per_class=10, target_train=20, target_test=4,
    frames=(10, 14), seed=0,
)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate_synthetic(TINY_SPEC, root)
    return load_dataset(root)


def _tiny_model(rng=None, d=3, n_classes=2, **cfg_fields):
    """A model with 2 attention and 3 classifier hidden units, built with
    those sizes and ``cfg_fields`` in its config."""
    rng = rng or np.random.default_rng(0)
    cfg = TrainConfig(attention_hidden=2, classifier_hidden=3, **cfg_fields)
    return init_model(d, n_classes, Stream.RGB, "target", cfg, rng)


def _with_cfg(model, **cfg_fields):
    """``model``'s parameters under a config that differs in ``cfg_fields``."""
    return dataclasses.replace(model, cfg=dataclasses.replace(model.cfg, **cfg_fields))


def _ones_grad(model):
    return np.ones_like(model.flat)


def _edit_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header and rewrite its length
    field, so that only the edit is wrong."""
    blob = path.read_bytes()
    hlen, = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen:])


def _named(model):
    """Each parameter's view of ``model.flat``, keyed by name."""
    return dict(zip(PARAM_KEYS, model.views(model.flat)))


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_round_trip_through_dict(self):
        cfg = TrainConfig(alpha=0.3, attention_mode="sigmoid",
                          transfer=TransferConfig(enabled=True, fc2_enabled=False),
                          kernel=KernelConfig(sigma=2.5))
        doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert config_from_json(TrainConfig, doc, "config") == cfg

    def test_rejects_bad_values(self):
        for bad in (
            dict(alpha=-0.1),
            dict(batch_size=0),
            dict(momentum=1.0),
            dict(lr_rgb=0.0),
            dict(dropout=1.0),
            dict(iterations=0),
            dict(attention_mode="mean"),
            dict(label_fraction=0.0),
            dict(decay_every=0),
            dict(seed=-1),
            dict(attention_hidden=0),
            dict(heads=0),
            dict(classifier_hidden=0),
            dict(alpha=float("nan")),
            dict(lr_flow=float("nan")),
            dict(decay_factor=float("nan")),
            dict(init_scale=-1.0),
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_per_stream_learning_rate(self):
        cfg = TrainConfig(lr_rgb=1e-4, lr_flow=5e-4)
        assert cfg.lr_for(Stream.RGB) == 1e-4
        assert cfg.lr_for(Stream.FLOW) == 5e-4


class TestParameterLayout:
    def _check_views(self, model):
        assert model.flat.dtype == np.float64 and model.flat.ndim == 1
        assert model.flat.flags.c_contiguous and model.flat.flags.writeable
        named = _named(model)
        assert [v.shape for v in named.values()] == list(model.shapes)
        for v in named.values():
            assert np.shares_memory(v, model.flat)
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in named.values()]), model.flat)
        # same address, shape and strides: the named views are those slices
        assert model.attention.w1.__array_interface__ == named["att_w1"].__array_interface__
        assert model.classifier.fc2_b.__array_interface__ == named["fc2_b"].__array_interface__

    def test_init_model_views_share_the_flat_vector(self):
        self._check_views(_tiny_model())

    def test_loaded_views_share_the_flat_vector(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, _, _ = load_checkpoint(path)
        self._check_views(loaded)
        np.testing.assert_array_equal(loaded.flat, model.flat)

    def test_rejects_shapes_of_another_config(self):
        # attention_hidden 5 under a config of 4, every shape consistent otherwise
        shapes = training.param_shapes(3, 2, TrainConfig(attention_hidden=5))
        flat = np.zeros(sum(map(math.prod, shapes)))
        with pytest.raises(ShapeError, match=r"must be \(\(4, 3\), \(1, 4\)"):
            training.Model(flat, shapes, Stream.RGB, "target", TrainConfig(attention_hidden=4))
        assert training.Model(flat, shapes, Stream.RGB, "target",
                              TrainConfig(attention_hidden=5)).attention.w1.shape == (5, 3)

    @pytest.mark.parametrize("d, n_classes", [(0, 2), (3, 1), (3, 0)])
    def test_rejects_no_features_or_fewer_than_two_classes(self, d, n_classes):
        with pytest.raises(ShapeError, match=f"d={d} >= 1 features and {n_classes} >= 2"):
            init_model(d, n_classes, Stream.RGB, "target", TrainConfig(),
                       np.random.default_rng(0))

    def test_init_model_draws_the_param_shapes(self):
        cfg = TrainConfig(attention_hidden=5, heads=2, classifier_hidden=7)
        model = init_model(3, 4, Stream.RGB, "target", cfg, np.random.default_rng(0))
        assert model.shapes == training.param_shapes(3, 4, cfg) == (
            (5, 3), (2, 5), (7, 6), (7,), (4, 7), (4,))

    def test_unpickled_views_follow_the_flat_vector(self):
        model = _tiny_model()
        copy = pickle.loads(pickle.dumps(model))
        self._check_views(copy)
        np.testing.assert_array_equal(copy.flat, model.flat)
        assert (copy.shapes, copy.stream, copy.role, copy.cfg) == (
            model.shapes, model.stream, model.role, model.cfg)
        copy.flat += 1.0
        np.testing.assert_array_equal(copy.attention.w1, model.attention.w1 + 1.0)
        np.testing.assert_array_equal(copy.classifier.fc2_b, model.classifier.fc2_b + 1.0)


class TestOptimizer:
    def test_single_step_without_momentum(self):
        model = _tiny_model(momentum=0.0, lr_rgb=0.1)
        model.flat[:] = 0.0
        sgd_step(model, _ones_grad(model), np.zeros_like(model.flat), 0)
        np.testing.assert_allclose(model.flat, -0.1, rtol=0, atol=1e-15)

    def test_step_moves_the_named_views(self):
        model = _tiny_model(momentum=0.0, lr_rgb=0.1)
        before = model.attention.w1.copy()
        sgd_step(model, _ones_grad(model), np.zeros_like(model.flat), 0)
        np.testing.assert_allclose(model.attention.w1, before - 0.1, rtol=0, atol=1e-15)

    def test_step_takes_the_rate_of_the_model_stream(self):
        model = dataclasses.replace(_tiny_model(momentum=0.0, lr_rgb=0.1, lr_flow=0.5),
                                    stream=Stream.FLOW)
        model.flat[:] = 0.0
        sgd_step(model, _ones_grad(model), np.zeros_like(model.flat), 0)
        np.testing.assert_allclose(model.flat, -0.5, rtol=0, atol=1e-15)

    def test_momentum_accumulates(self):
        model = _tiny_model(momentum=0.9, lr_rgb=0.1)
        model.flat[:] = 0.0
        velocity = np.zeros_like(model.flat)
        sgd_step(model, _ones_grad(model), velocity, 0)
        np.testing.assert_allclose(model.flat, -0.1, rtol=0, atol=1e-15)
        sgd_step(model, _ones_grad(model), velocity, 1)
        # v = 0.9 * (-0.1) - 0.1 = -0.19; p = -0.1 - 0.19 = -0.29
        np.testing.assert_allclose(model.flat, -0.29, rtol=0, atol=1e-15)

    def test_zero_gradient_from_rest_freezes_parameters(self):
        # a zero rate is not a valid config, so the rate cannot be what stops the step
        model = _tiny_model()
        before = model.flat.copy()
        velocity = np.zeros_like(model.flat)
        for it in range(5):
            sgd_step(model, np.zeros_like(model.flat), velocity, it)
        np.testing.assert_array_equal(model.flat, before)
        assert not velocity.any()

    def test_schedule_steps_down(self):
        cfg = TrainConfig(lr_rgb=1e-4, decay_every=5000, decay_factor=10.0)
        assert cfg.lr_for(Stream.RGB, 0) == 1e-4
        assert cfg.lr_for(Stream.RGB, 4999) == 1e-4
        np.testing.assert_allclose(cfg.lr_for(Stream.RGB, 5000), 1e-5, rtol=0, atol=1e-20)
        np.testing.assert_allclose(cfg.lr_for(Stream.RGB, 10000), 1e-6, rtol=0, atol=1e-20)

    def test_step_follows_the_schedule(self):
        model = _tiny_model(momentum=0.0, lr_rgb=0.1, decay_every=2, decay_factor=10.0)
        model.flat[:] = 0.0
        velocity = np.zeros_like(model.flat)
        sgd_step(model, _ones_grad(model), velocity, 2)
        np.testing.assert_allclose(model.flat, -0.01, rtol=0, atol=1e-15)


class TestTotalLoss:
    def _batch(self, rng, model, size=3):
        batch = []
        for _ in range(size):
            n = int(rng.integers(3, 8))
            x = FeatureMatrix(rng.normal(size=(3, n)))
            y = np.zeros(2)
            y[int(rng.integers(2))] = 1.0
            batch.append((x, y))
        return batch

    def test_reduces_to_mean_class_loss(self):
        rng = np.random.default_rng(0)
        model = _tiny_model(rng, alpha=0.0, beta=0.0, transfer=TransferConfig(enabled=False))
        batch = self._batch(rng, model)
        total, terms, _ = total_loss(batch, model)
        expected = np.mean([class_loss(forward_video(model, x)[1].probs[0], y)
                            for x, y in batch])
        np.testing.assert_allclose(total, expected, rtol=0, atol=1e-15)
        assert list(terms) == list(LOSS_TERMS)
        assert terms["fc1"] == 0.0 and terms["fc2"] == 0.0

    def test_matching_activations_zero_transfer_cost(self):
        rng = np.random.default_rng(1)
        model = _tiny_model(rng, kernel=KernelConfig(sigma=1.0))
        batch = self._batch(rng, model)
        # the step's own chunked forward: identical activations, bit for bit
        _, pooled_m, cls = training.forward_batch(model, [x for x, _ in batch])
        acts = (pooled_m, cls.hidden_clean)
        _, terms, _ = total_loss(batch, model, source_acts=acts)
        assert terms["fc1"] == 0.0
        assert terms["fc2"] == 0.0

    def test_weights_scale_regularizers(self):
        rng = np.random.default_rng(2)
        model = _tiny_model(rng)
        batch = self._batch(rng, model)
        off = TransferConfig(enabled=False)
        t1, terms1, _ = total_loss(batch, _with_cfg(model, alpha=0.0, beta=0.0, transfer=off))
        t2, terms2, _ = total_loss(batch, _with_cfg(model, alpha=2.0, beta=0.5, transfer=off))
        assert terms1["smooth"] == terms2["smooth"]  # raw means are weight-free
        np.testing.assert_allclose(
            t2 - t1, 2.0 * terms2["smooth"] + 0.5 * terms2["sparsity"],
            rtol=0, atol=1e-15)

    def test_zero_weight_drops_the_term_from_loss_and_gradient(self):
        rng = np.random.default_rng(5)
        cfg = TrainConfig(attention_hidden=2, classifier_hidden=3, alpha=0.3, beta=0.2,
                          attention_mode="sigmoid", kernel=KernelConfig(sigma=1.0))
        model = init_model(3, 2, Stream.RGB, "target", cfg, rng)
        batch = self._batch(rng, model)
        acts = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        full = loss_weights(cfg)
        t_full, _, g_full = total_loss(batch, model, source_acts=acts)
        for name in LOSS_TERMS:
            t_without, _, g_without = total_loss(batch, model, source_acts=acts,
                                                 weights=full | {name: 0.0})
            t_alone, _, g_alone = total_loss(batch, model, source_acts=acts,
                                             weights={name: full[name]})
            assert t_alone > 0.0 and np.any(g_alone != 0.0), name
            np.testing.assert_allclose(t_full - t_without, t_alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_full - g_without, g_alone, rtol=0, atol=1e-12)
        t_none, _, g_none = total_loss(batch, model, source_acts=acts, weights={})
        assert t_none == 0.0 and not np.any(g_none)

    def test_transfer_switches_are_loss_weights(self):
        rng = np.random.default_rng(6)
        model = _tiny_model(rng, kernel=KernelConfig(sigma=1.0))
        batch = self._batch(rng, model)
        acts = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        off = dataclasses.replace(model.cfg, transfer=TransferConfig(enabled=False))
        fc1_only = dataclasses.replace(model.cfg, transfer=TransferConfig(fc2_enabled=False))
        assert loss_weights(off)["fc1"] == loss_weights(off)["fc2"] == 0.0
        assert loss_weights(fc1_only)["fc1"] == 1.0
        assert loss_weights(fc1_only)["fc2"] == 0.0

        model = dataclasses.replace(model, cfg=off)
        t_with, terms_with, g_with = total_loss(batch, model, source_acts=acts)
        t_without, terms_without, g_without = total_loss(batch, model)
        assert t_with == t_without and terms_with == terms_without
        assert np.array_equal(g_with, g_without)

    def test_one_classifier_pass_per_batch(self, monkeypatch):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(attention_hidden=2, classifier_hidden=3, heads=2,
                          kernel=KernelConfig(sigma=1.0))
        model = init_model(3, 2, Stream.RGB, "target", cfg, rng)
        batch = self._batch(rng, model, size=4)
        mask = training._draw_mask(rng, (4, 3), 0.5)
        acts = (rng.normal(size=(4, 6)), rng.normal(size=(4, 3)))
        reference = total_loss(batch, model, mask, acts)
        calls = []

        def counted(name):
            fn = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("classify", "classifier_grads"):
            monkeypatch.setattr(training, name, counted(name))
        total, _, grad = total_loss(batch, model, mask, acts)
        assert calls == ["classify", "classifier_grads"]
        assert total == reference[0] and np.array_equal(grad, reference[2])

    def test_one_attention_pass_per_chunk(self, monkeypatch):
        # default shapes: 16 videos of 15-25 frames, in greedy chunks of at most
        # CHUNK_CELLS // attention_hidden frames and CHUNK_VIDEOS videos
        rng = np.random.default_rng(8)
        cfg = TrainConfig()
        model = init_model(16, 8, Stream.RGB, "target", cfg, rng)
        batch = [(FeatureMatrix(rng.normal(size=(16, int(rng.integers(15, 26))))),
                  label_vector([int(rng.integers(8))], 8)) for _ in range(16)]
        mask = training._draw_mask(rng, (16, cfg.classifier_hidden), cfg.dropout)
        acts = (rng.normal(size=(16, 16)), rng.normal(size=(16, cfg.classifier_hidden)))
        reference = total_loss(batch, model, mask, acts)
        calls, chunks = [], []

        def counted(name):
            fn = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                if name == "attend":
                    chunks.append(tuple(args[3]))
                return fn(*args, **kwargs)
            return wrapper

        for name in ("attend", "attention_grads"):
            monkeypatch.setattr(training, name, counted(name))
        total, _, grad = total_loss(batch, model, mask, acts)
        budget, cap = training.CHUNK_CELLS // cfg.attention_hidden, training.CHUNK_VIDEOS
        assert calls.count("attend") == calls.count("attention_grads") == len(chunks)
        assert [n for counts in chunks for n in counts] == [x.n for x, _ in batch]
        assert all(sum(counts) <= budget and len(counts) <= cap for counts in chunks)
        # a chunk closes only where the next video would break a limit
        assert all(sum(counts) + after[0] > budget or len(counts) == cap
                   for counts, after in zip(chunks, chunks[1:]))
        assert total == reference[0] and np.array_equal(grad, reference[2])

    def test_rejects_empty_batch_and_unknown_terms(self):
        model = _tiny_model()
        with pytest.raises(InputError):
            total_loss([], model)
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="entropy"):
            total_loss(self._batch(rng, model), model, weights={"class": 1.0, "entropy": 1.0})


class TestChunkedStep:
    """A step runs attention per chunk of videos; the reference runs it per video."""

    LENGTHS = (1, 6, 3, 1, 8, 2, 12, 4)

    @pytest.mark.parametrize("mode,heads,enabled,dropout", [
        ("softmax", 1, True, False), ("sigmoid", 1, True, True), ("softmax", 2, True, True),
        ("sigmoid", 2, True, False), ("softmax", 2, False, True), ("sigmoid", 1, False, False),
    ])
    def test_matches_one_video_at_a_time(self, monkeypatch, mode, heads, enabled, dropout):
        monkeypatch.setattr(training, "CHUNK_CELLS", 4 * 10)   # 10 frames at 4 hidden units
        rng = np.random.default_rng(50)
        cfg = TrainConfig(alpha=0.3, beta=0.2, attention_mode=mode, attention_enabled=enabled,
                          heads=heads, attention_hidden=4, classifier_hidden=5,
                          kernel=KernelConfig(sigma=1.0))
        model = init_model(3, 3, Stream.RGB, "target", cfg, rng)
        batch = [(FeatureMatrix(rng.normal(size=(3, n))), label_vector([int(rng.integers(3))], 3))
                 for n in self.LENGTHS]
        mask = training._draw_mask(rng, (len(batch), 5), 0.5) if dropout else None
        acts = (rng.normal(size=(5, 3 * heads)), rng.normal(size=(5, 5)))
        chunks, _, _ = training.forward_batch(model, [x for x, _ in batch])
        assert [att.counts for _, att in chunks] == [(1, 6, 3), (1, 8), (2,), (12,), (4,)]

        total, terms, grad = total_loss(batch, model, mask, acts)
        ref_total, ref_terms, ref_grad = oracles.total_loss_per_video(batch, model, mask, acts)
        np.testing.assert_allclose(total, ref_total, rtol=0, atol=1e-12)
        np.testing.assert_allclose(list(terms.values()), ref_terms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
        assert np.any(grad[:model.attention.w1.size] != 0.0) == enabled

    def test_a_chunk_closes_at_the_frame_budget_or_the_video_cap(self):
        cap = training.CHUNK_VIDEOS
        assert training.chunk_bounds([], 10) == []
        assert training.chunk_bounds([4, 6, 1, 30, 2], 10) == [(0, 2), (2, 3), (3, 4), (4, 5)]
        # 1-frame videos fit the budget many times over: the cap closes each chunk
        assert training.chunk_bounds([1] * (2 * cap + 1), 10 * cap) == [
            (0, cap), (cap, 2 * cap), (2 * cap, 2 * cap + 1)]


class TestGradientCertification:
    def test_all_terms_certify(self):
        worst = certify_gradients(seed=0, trials=3)
        assert set(worst) == {"class", "smooth", "sparsity", "fc1", "fc2", "total"}
        for name, err in worst.items():
            assert err < 1e-5, f"{name}: {err}"


class TestTrainingLoops:
    def test_source_model_fits_separable_data(self, tiny_data):
        cfg = dataclasses.replace(TINY_CFG, iterations=400)
        model, rows = train_source(tiny_data, Stream.FLOW, cfg)
        assert rows[0] == CSV_HEADER
        assert len(rows) == cfg.iterations + 1
        hits = 0
        records = tiny_data.manifest.split("source")
        for rec in records:
            x = tiny_data.features(rec, Stream.FLOW)
            _, cls = forward_video(model, x)
            hits += int(np.argmax(cls.probs) == rec.labels[0])
        assert hits / len(records) >= 0.99

    def test_rows_follow_the_csv_header(self, tiny_data):
        assert CSV_HEADER == "iter,L,L_class,R_smooth,R_sparsity,L_FC1,L_FC2"
        _, rows = train_source(tiny_data, Stream.RGB, TINY_CFG)
        assert rows[0] == CSV_HEADER and len(rows) == TINY_CFG.iterations + 1
        for it, row in enumerate(rows[1:]):
            fields = row.split(",")
            assert len(fields) == len(CSV_HEADER.split(","))
            assert fields[0] == str(it)
            # the source role's only weight is {"class": 1.0}: L is L_class, bit for bit
            assert fields[1] == fields[2] and fields[5:] == ["0.0", "0.0"]

    def test_class_loss_declines(self, tiny_data):
        cfg = dataclasses.replace(TINY_CFG, iterations=400,
                                  transfer=TransferConfig(enabled=False))
        _, rows = train_target(tiny_data, Stream.FLOW, cfg)
        l_class = np.array([float(r.split(",")[2]) for r in rows[1:]])
        assert l_class[:100].mean() > l_class[-100:].mean()

    def test_training_is_deterministic(self, tiny_data, tmp_path):
        blobs = []
        for run in range(2):
            model, rows = train_source(tiny_data, Stream.RGB, TINY_CFG)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(model, path)
            blobs.append((path.read_bytes(), tuple(rows)))
        assert blobs[0] == blobs[1]

    def test_streams_differ(self, tiny_data):
        m_rgb, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        m_flow, _ = train_source(tiny_data, Stream.FLOW, TINY_CFG)
        assert not np.array_equal(m_rgb.attention.w1, m_flow.attention.w1)

    def test_source_stays_frozen_during_transfer(self, tiny_data):
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        before = src.flat.copy()
        train_target(tiny_data, Stream.RGB, TINY_CFG, source_model=src)
        np.testing.assert_array_equal(src.flat, before)

    def test_transfer_needs_a_source_split(self, tiny_data):
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        manifest = tiny_data.manifest
        targets_only = Dataset(tiny_data.root, dataclasses.replace(
            manifest, videos=tuple(v for v in manifest.videos if v.split != "source")))
        with pytest.raises(InputError, match="split 'source' has no videos"):
            train_target(targets_only, Stream.RGB, TINY_CFG, source_model=src)

    def test_transfer_terms_appear_in_log(self, tiny_data):
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        _, rows = train_target(tiny_data, Stream.RGB, TINY_CFG, source_model=src)
        fc1_vals = [float(r.split(",")[5]) for r in rows[1:]]
        assert max(fc1_vals) > 0.0

    def test_source_model_runs_once_per_source_clip(self, tiny_data, monkeypatch):
        # every clip's frames pass through the source model exactly once, in
        # chunks within the frame budget (or of one longer clip)
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        monkeypatch.setattr(training, "CHUNK_CELLS", 6 * 30)  # 30 frames at 6 hidden units
        calls = []

        def recording_forward(model, x, counts=None):
            if model is src:
                calls.append((tuple(counts or (x.n,)), x.values))
            return forward_video(model, x, counts)

        monkeypatch.setattr(training, "forward_video", recording_forward)
        clips = [x.values for x in tiny_data.read_split(tiny_data.manifest.split("source"),
                                                        Stream.RGB)]
        for iterations in (3, 30):
            calls.clear()
            cfg = dataclasses.replace(TINY_CFG, iterations=iterations)
            train_target(tiny_data, Stream.RGB, cfg, source_model=src)
            assert len(calls) > 1
            assert all(sum(counts) <= 30 or len(counts) == 1 for counts, _ in calls)
            assert [n for counts, _ in calls for n in counts] == [c.shape[1] for c in clips]
            np.testing.assert_array_equal(np.hstack([v for _, v in calls]), np.hstack(clips))

    def test_cached_source_activations_match_per_step_forward(self, tiny_data):
        cfg = dataclasses.replace(TINY_CFG, iterations=12,
                                  transfer=TransferConfig(enabled=True, fc2_enabled=True))
        for stream in (Stream.RGB, Stream.FLOW):
            src, _ = train_source(tiny_data, stream, cfg)
            model, _ = train_target(tiny_data, stream, cfg, source_model=src)
            reference = oracles.transfer_fit_per_step(tiny_data, stream, cfg, src)
            # the cache runs a chunk of clips at once, the reference one clip
            np.testing.assert_allclose(model.flat, reference.flat, rtol=0, atol=1e-12)

    def test_transfer_needs_source_model(self, tiny_data):
        with pytest.raises(ConfigError, match="source model"):
            train_target(tiny_data, Stream.RGB, TINY_CFG)

    def test_transfer_rejects_wrong_stream(self, tiny_data):
        src, _ = train_source(tiny_data, Stream.FLOW, TINY_CFG)
        with pytest.raises(ConfigError, match="stream"):
            train_target(tiny_data, Stream.RGB, TINY_CFG, source_model=src)

    def test_transfer_rejects_incompatible_shapes(self, tiny_data):
        wide = dataclasses.replace(TINY_CFG, classifier_hidden=9)
        src, _ = train_source(tiny_data, Stream.RGB, wide)
        with pytest.raises(ConfigError, match="shape mismatch"):
            train_target(tiny_data, Stream.RGB, TINY_CFG, source_model=src)

    def test_attention_disabled_pools_uniformly(self, tiny_data):
        cfg = dataclasses.replace(TINY_CFG, attention_enabled=False,
                                  iterations=5, transfer=TransferConfig(enabled=False))
        model, _ = train_target(tiny_data, Stream.RGB, cfg)
        rec = tiny_data.manifest.split("train")[0]
        att, _ = forward_video(model, tiny_data.features(rec, Stream.RGB))
        np.testing.assert_array_equal(att.a, np.full((1, rec.n), 1.0 / rec.n))

    def test_mask_matrix_is_successive_row_draws(self):
        for rate in (0.2, 0.5):
            rng_matrix = np.random.Generator(np.random.PCG64(11))
            rng_rows = np.random.Generator(np.random.PCG64(11))
            mask = training._draw_mask(rng_matrix, (16, 9), rate)
            rows = np.vstack([training._draw_mask(rng_rows, (9,), rate) for _ in range(16)])
            assert mask.shape == (16, 9)
            assert np.array_equal(mask, rows)
            assert set(np.unique(mask)) <= {0.0, 1.0 / (1.0 - rate)}
            assert rng_matrix.random() == rng_rows.random()
        assert training._draw_mask(np.random.default_rng(0), (16, 9), 0.0) is None

    def test_label_fraction_subsets_train_split(self):
        idx = labeled_subset(20, 0.25, seed=0)
        assert idx.shape == (5,)
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_array_equal(idx, labeled_subset(20, 0.25, seed=0))
        assert not np.array_equal(idx, labeled_subset(20, 0.25, seed=1))
        assert labeled_subset(10, 0.01, seed=0).shape == (1,)

    def test_label_fraction_reads_only_the_labeled_videos(self, tiny_data, monkeypatch):
        # an unlabeled video's file is never used, so it is never read
        reads, read = [], Dataset.read_split
        monkeypatch.setattr(Dataset, "read_split", lambda self, recs, stream: reads.append(
            [rec.video_id for rec in recs]) or read(self, recs, stream))
        cfg = dataclasses.replace(TINY_CFG, label_fraction=0.25, iterations=2,
                                  transfer=TransferConfig(enabled=False))
        train_target(tiny_data, Stream.RGB, cfg)
        recs = tiny_data.manifest.split("train")
        keep = labeled_subset(len(recs), 0.25, cfg.seed)
        assert reads == [[recs[i].video_id for i in keep]] and len(keep) == 5


class TestCheckpoints:
    def test_round_trip_values(self, tiny_data, tmp_path):
        model, _ = train_source(tiny_data, Stream.FLOW, TINY_CFG)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded, cfg, it = load_checkpoint(path)
        assert it == 30
        assert cfg == loaded.cfg == TINY_CFG
        assert loaded.stream == Stream.FLOW
        assert loaded.role == "source"
        for k, v in _named(model).items():
            np.testing.assert_array_equal(_named(loaded)[k], v)

    # every combination the writer produces must pass the reader's agreement
    # check, attention off with mode sigmoid included
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_save_load_save_is_byte_identical(self, tiny_data, tmp_path, enabled, mode, heads):
        cfg = dataclasses.replace(TINY_CFG, attention_enabled=enabled, attention_mode=mode,
                                  heads=heads)
        model, _ = train_source(tiny_data, Stream.RGB, cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded, loaded_cfg, it = load_checkpoint(p1)
        assert (loaded_cfg, it) == (cfg, cfg.iterations)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        model = _tiny_model(attention_enabled=False, attention_mode="sigmoid")
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        assert blob[:4] == b"TSRC"
        version, hlen = struct.unpack("<II", blob[4:12])
        assert version == 1
        header = json.loads(blob[12:12 + hlen])
        assert [p["name"] for p in header["params"]] == list(PARAM_KEYS)
        # the fields beside the config are copies of its values
        assert (header["iteration"], header["attention_enabled"], header["attention_mode"]) == (
            6000, False, "sigmoid")
        assert header["config"] == dataclasses.asdict(model.cfg)

    @pytest.mark.parametrize("edit, fields", [
        (lambda h: h["config"].update(attention_mode="sigmoid"),
         ["checkpoint header disagrees with its config",
          "attention_mode is 'softmax' but the config gives 'sigmoid'"]),
        # shapes of 2 attention units and 1 head under a config of 99 and 7:
        # the model's shape rule rejects them
        (lambda h: h["config"].update(attention_hidden=99, heads=7),
         ["inconsistent checkpoint parameter shapes",
          "must be ((99, 3), (7, 99), (3, 21), (3,), (2, 3), (2,))"]),
        (lambda h: h.update(attention_enabled=False),
         ["checkpoint header disagrees with its config",
          "attention_enabled is False but the config gives True"]),
        (lambda h: (h.update(iteration=123), h["config"].update(iterations=5)),
         ["checkpoint header disagrees with its config",
          "iteration is 123 but the config gives 5"]),
    ], ids=["config_mode", "config_sizes", "header_attention_off", "header_iteration"])
    def test_rejects_a_header_that_disagrees_with_its_config(self, tmp_path, edit, fields):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_tiny_model(), path)
        _edit_header(path, edit)
        with pytest.raises(DataFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: {fields[0]}")
        for field in fields[1:]:
            assert field in str(exc.value)

    def test_rejects_an_fc1_width_other_than_heads_times_d(self, tmp_path):
        # W1 (2, 4) and w2 (1, 2) pool 1 head of 4 features; FC1 (3, 5) takes 5
        path = tmp_path / "m.ckpt"
        save_checkpoint(_tiny_model(d=4), path)
        _edit_header(path, lambda header: header["params"][2].update(shape=[3, 5]))
        path.write_bytes(path.read_bytes() + bytes(8 * 3))
        with pytest.raises(DataFormatError) as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: inconsistent checkpoint parameter shapes")
        assert "(3, 5), (3,), (2, 3), (2,)) must be ((2, 4), (1, 2), (3, 4)," in str(exc.value)

    def test_rejects_corruption(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(DataFormatError):
            load_checkpoint(bad)
        bad.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(bad)
        bad.write_bytes(blob + b"\0" * 8)
        with pytest.raises(DataFormatError, match="trailing"):
            load_checkpoint(bad)
        bad.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(bad)


    @pytest.mark.parametrize("field, value", [("iterations", 0), ("dropout", 7.5),
                                              ("alpha", "x"), ("lr_rgb", float("nan"))])
    def test_rejects_out_of_range_config(self, tmp_path, field, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(_tiny_model(), path)
        _edit_header(path, lambda header: header["config"].update({field: value}))
        with pytest.raises(DataFormatError, match="bad checkpoint config") as exc:
            load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_rejects_non_finite_parameters(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        payload = len(blob) - 8 * model.flat.size
        n_w1 = model.attention.w1.size
        for value, index, name in ((float("nan"), 0, "att_w1"),
                                   (float("inf"), n_w1, "att_w2"),
                                   (float("-inf"), model.flat.size - 1, "fc2_b")):
            at = payload + 8 * index
            path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8:])
            with pytest.raises(DataFormatError) as exc:
                load_checkpoint(path)
            assert str(exc.value).startswith(f"{path}: ")
            assert f"parameter {name} holds a non-finite value" in str(exc.value)


class TestErrors:
    def test_source_training_requires_trimmed_videos(self, tmp_path):
        # checked before any file is read, so the missing files go unnoticed
        manifest = generate_synthetic(TINY_SPEC, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["videos"][3]["trimmed"] = False
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        for rec in manifest.split("source"):
            for stream in (Stream.RGB, Stream.FLOW):
                (tmp_path / rec.feature_paths[stream]).unlink()
        with pytest.raises(InputError, match=f"{doc['videos'][3]['id']}: source training "
                                             f"needs trimmed videos"):
            train_source(load_dataset(tmp_path), Stream.RGB, TINY_CFG)

    def test_empty_splits_rejected(self, tmp_path):
        generate_synthetic(TINY_SPEC, tmp_path)
        import json
        mpath = tmp_path / "manifest.json"
        doc = json.loads(mpath.read_text())
        doc["videos"] = [r for r in doc["videos"] if r["split"] == "test"]
        mpath.write_text(json.dumps(doc))
        data = load_dataset(tmp_path)
        with pytest.raises(InputError):
            train_source(data, Stream.RGB, TINY_CFG)
        cfg = dataclasses.replace(TINY_CFG, transfer=TransferConfig(enabled=False))
        with pytest.raises(InputError):
            train_target(data, Stream.RGB, cfg)
