"""Tests for the loss assembly, optimizer, training loops, checkpoints,
and the finite-difference gradient certifier."""

import dataclasses

import numpy as np
import pytest

from wtal import training
from wtal.classifier import class_loss
from wtal.dataset import (
    FeatureMatrix,
    Stream,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
)
from wtal.errors import ConfigError, DataFormatError, InputError
from wtal.training import (
    CSV_HEADER,
    LOSS_TERMS,
    PARAM_KEYS,
    TrainConfig,
    certify_gradients,
    config_from_dict,
    config_to_dict,
    forward_video,
    init_model,
    labeled_subset,
    learning_rate,
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


def _tiny_model(rng=None, d=3, n_classes=2):
    rng = rng or np.random.default_rng(0)
    cfg = TrainConfig(attention_hidden=2, classifier_hidden=3)
    return init_model(d, n_classes, Stream.RGB, "target", cfg, rng)


def _ones_grad(model):
    return np.ones_like(model.flat)


def _named(model):
    """Each parameter's view of ``model.flat``, keyed by name."""
    return dict(zip(PARAM_KEYS, model.views(model.flat)))


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_round_trip_through_dict(self):
        cfg = TrainConfig(alpha=0.3, attention_mode="sigmoid",
                          transfer=TransferConfig(enabled=True, fc2_enabled=False),
                          kernel=KernelConfig(sigma=2.5))
        assert config_from_dict(config_to_dict(cfg)) == cfg

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
        ):
            with pytest.raises(ConfigError):
                TrainConfig(**bad).validate()

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
        save_checkpoint(model, TrainConfig(), 0, path)
        loaded, _, _ = load_checkpoint(path)
        self._check_views(loaded)
        np.testing.assert_array_equal(loaded.flat, model.flat)


class TestOptimizer:
    def test_single_step_without_momentum(self):
        model = _tiny_model()
        model.flat[:] = 0.0
        cfg = TrainConfig(momentum=0.0)
        sgd_step(model, _ones_grad(model), np.zeros_like(model.flat), 0, 0.1, cfg)
        np.testing.assert_allclose(model.flat, -0.1, rtol=0, atol=1e-15)

    def test_step_moves_the_named_views(self):
        model = _tiny_model()
        before = model.attention.w1.copy()
        sgd_step(model, _ones_grad(model), np.zeros_like(model.flat), 0, 0.1,
                 TrainConfig(momentum=0.0))
        np.testing.assert_allclose(model.attention.w1, before - 0.1, rtol=0, atol=1e-15)

    def test_momentum_accumulates(self):
        model = _tiny_model()
        model.flat[:] = 0.0
        cfg = TrainConfig(momentum=0.9)
        velocity = np.zeros_like(model.flat)
        sgd_step(model, _ones_grad(model), velocity, 0, 0.1, cfg)
        np.testing.assert_allclose(model.flat, -0.1, rtol=0, atol=1e-15)
        sgd_step(model, _ones_grad(model), velocity, 1, 0.1, cfg)
        # v = 0.9 * (-0.1) - 0.1 = -0.19; p = -0.1 - 0.19 = -0.29
        np.testing.assert_allclose(model.flat, -0.29, rtol=0, atol=1e-15)

    def test_zero_learning_rate_freezes_parameters(self):
        model = _tiny_model()
        before = model.flat.copy()
        velocity = np.zeros_like(model.flat)
        for it in range(5):
            sgd_step(model, _ones_grad(model), velocity, it, 0.0, TrainConfig())
        np.testing.assert_array_equal(model.flat, before)

    def test_schedule_steps_down(self):
        cfg = TrainConfig(decay_every=5000, decay_factor=10.0)
        assert learning_rate(1e-4, 0, cfg) == 1e-4
        assert learning_rate(1e-4, 4999, cfg) == 1e-4
        np.testing.assert_allclose(learning_rate(1e-4, 5000, cfg), 1e-5,
                                   rtol=0, atol=1e-20)
        np.testing.assert_allclose(learning_rate(1e-4, 10000, cfg), 1e-6,
                                   rtol=0, atol=1e-20)


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
        model = _tiny_model(rng)
        batch = self._batch(rng, model)
        cfg = TrainConfig(alpha=0.0, beta=0.0, transfer=TransferConfig(enabled=False))
        total, terms, _ = total_loss(batch, model, cfg)
        expected = np.mean([class_loss(forward_video(model, x)[1].probs, y)
                            for x, y in batch])
        np.testing.assert_allclose(total, expected, rtol=0, atol=1e-15)
        assert terms.fc1 == 0.0 and terms.fc2 == 0.0

    def test_matching_activations_zero_transfer_cost(self):
        rng = np.random.default_rng(1)
        model = _tiny_model(rng)
        batch = self._batch(rng, model)
        fwd = [forward_video(model, x) for x, _ in batch]
        acts = (np.vstack([att.m for att, _ in fwd]),
                np.vstack([cls.hidden_clean for _, cls in fwd]))
        cfg = TrainConfig(kernel=KernelConfig(sigma=1.0))
        _, terms, _ = total_loss(batch, model, cfg, source_acts=acts)
        assert terms.fc1 == 0.0
        assert terms.fc2 == 0.0

    def test_weights_scale_regularizers(self):
        rng = np.random.default_rng(2)
        model = _tiny_model(rng)
        batch = self._batch(rng, model)
        cfg1 = TrainConfig(alpha=0.0, beta=0.0, transfer=TransferConfig(enabled=False))
        cfg2 = TrainConfig(alpha=2.0, beta=0.5, transfer=TransferConfig(enabled=False))
        t1, terms1, _ = total_loss(batch, model, cfg1)
        t2, terms2, _ = total_loss(batch, model, cfg2)
        assert terms1.smooth == terms2.smooth  # raw means are weight-free
        np.testing.assert_allclose(
            t2 - t1, 2.0 * terms2.smooth + 0.5 * terms2.sparsity,
            rtol=0, atol=1e-15)

    def test_zero_weight_drops_the_term_from_loss_and_gradient(self):
        rng = np.random.default_rng(5)
        cfg = TrainConfig(attention_hidden=2, classifier_hidden=3, alpha=0.3, beta=0.2,
                          attention_mode="sigmoid", kernel=KernelConfig(sigma=1.0))
        model = init_model(3, 2, Stream.RGB, "target", cfg, rng)
        batch = self._batch(rng, model)
        acts = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        full = loss_weights(cfg)
        t_full, _, g_full = total_loss(batch, model, cfg, source_acts=acts)
        for name in LOSS_TERMS:
            t_without, _, g_without = total_loss(batch, model, cfg, source_acts=acts,
                                                 weights=full | {name: 0.0})
            t_alone, _, g_alone = total_loss(batch, model, cfg, source_acts=acts,
                                             weights={name: full[name]})
            assert t_alone > 0.0 and np.any(g_alone != 0.0), name
            np.testing.assert_allclose(t_full - t_without, t_alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(g_full - g_without, g_alone, rtol=0, atol=1e-12)
        t_none, _, g_none = total_loss(batch, model, cfg, source_acts=acts, weights={})
        assert t_none == 0.0 and not np.any(g_none)

    def test_transfer_switches_are_loss_weights(self):
        rng = np.random.default_rng(6)
        model = _tiny_model(rng)
        batch = self._batch(rng, model)
        acts = (rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        base = TrainConfig(kernel=KernelConfig(sigma=1.0))
        off = dataclasses.replace(base, transfer=TransferConfig(enabled=False))
        fc1_only = dataclasses.replace(base, transfer=TransferConfig(fc2_enabled=False))
        assert loss_weights(off)["fc1"] == loss_weights(off)["fc2"] == 0.0
        assert loss_weights(fc1_only)["fc1"] == 1.0
        assert loss_weights(fc1_only)["fc2"] == 0.0

        t_with, terms_with, g_with = total_loss(batch, model, off, source_acts=acts)
        t_without, terms_without, g_without = total_loss(batch, model, off)
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
        reference = total_loss(batch, model, cfg, mask, acts)
        calls = []

        def counted(name):
            fn = getattr(training, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("classify", "classifier_grads"):
            monkeypatch.setattr(training, name, counted(name))
        total, _, grad = total_loss(batch, model, cfg, mask, acts)
        assert calls == ["classify", "classifier_grads"]
        assert total == reference[0] and np.array_equal(grad, reference[2])

    def test_rejects_empty_batch_and_unknown_terms(self):
        model = _tiny_model()
        with pytest.raises(InputError):
            total_loss([], model, TrainConfig())
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="entropy"):
            total_loss(self._batch(rng, model), model, TrainConfig(),
                       weights={"class": 1.0, "entropy": 1.0})

    def test_csv_row_layout(self):
        assert CSV_HEADER == "iter,L,L_class,R_smooth,R_sparsity,L_FC1,L_FC2"
        rng = np.random.default_rng(4)
        model = _tiny_model(rng)
        _, terms, _ = total_loss(self._batch(rng, model), model, TrainConfig())
        row = terms.csv_row(7)
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "7"
        assert float(fields[1]) == terms.total


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
        records = tiny_data.split("source")
        for rec in records:
            x = tiny_data.features(rec.video_id, Stream.FLOW)
            _, cls = forward_video(model, x)
            hits += int(np.argmax(cls.probs) == rec.labels[0])
        assert hits / len(records) >= 0.99

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
            save_checkpoint(model, TINY_CFG, TINY_CFG.iterations, path)
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

    def test_transfer_terms_appear_in_log(self, tiny_data):
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        _, rows = train_target(tiny_data, Stream.RGB, TINY_CFG, source_model=src)
        fc1_vals = [float(r.split(",")[5]) for r in rows[1:]]
        assert max(fc1_vals) > 0.0

    def test_source_model_runs_once_per_source_clip(self, tiny_data, monkeypatch):
        src, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        calls = []

        def counting_forward(model, x, dropout_mask=None):
            calls.append(model is src)
            return forward_video(model, x, dropout_mask)

        monkeypatch.setattr(training, "forward_video", counting_forward)
        for iterations in (3, 30):
            calls.clear()
            cfg = dataclasses.replace(TINY_CFG, iterations=iterations)
            train_target(tiny_data, Stream.RGB, cfg, source_model=src)
            assert sum(calls) == len(tiny_data.split("source"))

    def test_cached_source_activations_match_per_step_forward(self, tiny_data):
        cfg = dataclasses.replace(TINY_CFG, iterations=12,
                                  transfer=TransferConfig(enabled=True, fc2_enabled=True))
        for stream in (Stream.RGB, Stream.FLOW):
            src, _ = train_source(tiny_data, stream, cfg)
            model, _ = train_target(tiny_data, stream, cfg, source_model=src)
            reference = oracles.transfer_fit_per_step(tiny_data, stream, cfg, src)
            assert np.array_equal(model.flat, reference.flat)

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
        rec = tiny_data.split("train")[0]
        att, _ = forward_video(model, tiny_data.features(rec.video_id, Stream.RGB))
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


class TestCheckpoints:
    def test_round_trip_values(self, tiny_data, tmp_path):
        model, _ = train_source(tiny_data, Stream.FLOW, TINY_CFG)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, TINY_CFG, 30, path)
        loaded, cfg, it = load_checkpoint(path)
        assert it == 30
        assert cfg == TINY_CFG
        assert loaded.stream == Stream.FLOW
        assert loaded.role == "source"
        for k, v in _named(model).items():
            np.testing.assert_array_equal(_named(loaded)[k], v)

    def test_save_load_save_is_byte_identical(self, tiny_data, tmp_path):
        model, _ = train_source(tiny_data, Stream.RGB, TINY_CFG)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, TINY_CFG, 1, p1)
        loaded, cfg, it = load_checkpoint(p1)
        save_checkpoint(loaded, cfg, it, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, TrainConfig(), 0, path)
        blob = path.read_bytes()
        assert blob[:4] == b"TSRC"
        import struct
        version, hlen = struct.unpack("<II", blob[4:12])
        assert version == 1
        import json
        header = json.loads(blob[12:12 + hlen])
        assert [p["name"] for p in header["params"]] == list(PARAM_KEYS)

    def test_rejects_corruption(self, tmp_path):
        model = _tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, TrainConfig(), 0, path)
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
        import struct
        bad.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(bad)


class TestErrors:
    def test_source_training_requires_trimmed_videos(self, tmp_path):
        generate_synthetic(TINY_SPEC, tmp_path)
        import json
        mpath = tmp_path / "manifest.json"
        doc = json.loads(mpath.read_text())
        for rec in doc["videos"]:
            if rec["split"] == "source":
                rec["trimmed"] = False
                rec.pop("segments", None)
        mpath.write_text(json.dumps(doc))
        data = load_dataset(tmp_path)
        with pytest.raises(InputError, match="trimmed"):
            train_source(data, Stream.RGB, TINY_CFG)

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
