import numpy as np
import pytest

from rml_lab.data import feature_stats, make_blobs, split, standardize
from rml_lab.model import accuracy, init_model, init_optimizer
from rml_lab.noise import corruption_mask, inject_symmetric
from rml_lab.numerics import RngStream
from rml_lab.rml import RegroupParams, refresh_cache
from dataclasses import asdict

from rml_lab import model as model_ops
from rml_lab import rml, trainer
from rml_lab.trainer import (
    MetricsRow,
    RunConfig,
    separate,
    train_ce,
    train_rml,
    train_rml_semi,
    write_metrics_csv,
)


def rows_equal(a, b):
    """Metrics-row list equality with nan == nan."""
    np.testing.assert_equal([asdict(r) for r in a], [asdict(r) for r in b])


def _noisy_split(seed=0, classes=5, per_class=120, dim=4, separation=5.0, rate=0.4):
    ds = make_blobs(classes, per_class, dim, separation, RngStream(seed, 1))
    if rate:
        ds = inject_symmetric(ds, rate, RngStream(seed, 2))
    train, test = split(ds, 0.2, RngStream(seed, 3))
    mean, std = feature_stats(train.features)
    return standardize(train, mean, std), standardize(test, mean, std)


def _fresh_models(train, seed=0, arch="linear", hidden=16):
    student = init_model(arch, train.dim, train.num_classes, RngStream(seed, 4),
                         hidden=hidden)
    teacher = student.copy()
    return student, teacher


class TestTrainCe:
    def test_clean_blobs_sanity_floor(self):
        train, test = _noisy_split(seed=1, rate=0.0)
        model, _ = _fresh_models(train, seed=1)
        opt = init_optimizer(model, 0.5, 100)
        config = RunConfig(mode="ce", total_epochs=100, batch_size=64, seed=1)
        model, rows = train_ce(train, model, opt, config, test)
        assert rows[-1].test_accuracy >= 0.99

    def test_zero_epochs_leaves_model_unchanged(self):
        train, _ = _noisy_split(seed=2)
        model, _ = _fresh_models(train, seed=2)
        before = [p.copy() for p in model.params]
        opt = init_optimizer(model, 0.5, 10)
        config = RunConfig(mode="ce", total_epochs=0, batch_size=32, seed=2)
        model, rows = train_ce(train, model, opt, config)
        assert rows == []
        for a, b in zip(model.params, before):
            np.testing.assert_array_equal(a, b)

    def test_same_seed_identical_metrics(self):
        train, test = _noisy_split(seed=3)
        outputs = []
        for _ in range(2):
            model, _ = _fresh_models(train, seed=3)
            opt = init_optimizer(model, 0.3, 10)
            config = RunConfig(mode="ce", total_epochs=10, batch_size=32, seed=3)
            _, rows = train_ce(train, model, opt, config, test)
            outputs.append(rows)
        rows_equal(outputs[0], outputs[1])


class TestTrainRml:
    def test_degenerate_regroup_matches_ce(self):
        # Classes of 3: two candidates can never fill six groups, so every
        # estimate falls back to the sample's own loss and weights are 1.
        train, test = _noisy_split(seed=4, per_class=4, rate=0.3)
        config = RunConfig(mode="rml", total_epochs=8, batch_size=16,
                           warmup_epochs=1, seed=4,
                           regroup=RegroupParams(n=6, k=20))
        student, teacher = _fresh_models(train, seed=4)
        opt = init_optimizer(student, 0.3, 8)
        student, _, _ = train_rml(train, student, teacher, opt, config, test)

        ce_model, _ = _fresh_models(train, seed=4)
        ce_opt = init_optimizer(ce_model, 0.3, 8)
        ce_config = RunConfig(mode="ce", total_epochs=8, batch_size=16, seed=4)
        ce_model, _ = train_ce(train, ce_model, ce_opt, ce_config, test)
        for a, b in zip(student.params, ce_model.params):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_lambda_zero_teacher_tracks_student(self):
        train, _ = _noisy_split(seed=5, per_class=40)
        config = RunConfig(mode="rml", total_epochs=4, batch_size=32,
                           warmup_epochs=1, ema_lambda=0.0, seed=5,
                           regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=5)
        opt = init_optimizer(student, 0.3, 4)
        student, teacher, _ = train_rml(train, student, teacher, opt, config)
        for a, b in zip(student.params, teacher.params):
            np.testing.assert_array_equal(a, b)

    def test_noisy_losses_separate(self):
        # Smoke-scale version of the loss-separation effect.
        train, test = _noisy_split(seed=6, per_class=100)
        config = RunConfig(mode="rml", total_epochs=30, batch_size=64,
                           warmup_epochs=3, seed=6,
                           regroup=RegroupParams(n=6, k=10))
        student, teacher = _fresh_models(train, seed=6)
        opt = init_optimizer(student, 0.3, 30)
        _, _, rows = train_rml(train, student, teacher, opt, config, test)
        assert rows[-1].noisy_mean_loss > rows[-1].clean_mean_loss

    def test_same_seed_identical_metrics(self):
        train, test = _noisy_split(seed=7, per_class=40)
        outputs = []
        for _ in range(2):
            student, teacher = _fresh_models(train, seed=7)
            opt = init_optimizer(student, 0.3, 6)
            config = RunConfig(mode="rml", total_epochs=6, batch_size=32,
                               warmup_epochs=2, seed=7,
                               regroup=RegroupParams(n=2, k=3))
            _, _, rows = train_rml(train, student, teacher, opt, config, test)
            outputs.append(rows)
        rows_equal(outputs[0], outputs[1])


class TestSeparate:
    def test_perfect_agreement_all_labeled(self):
        train, _ = _noisy_split(seed=8, rate=0.0)
        model, _ = _fresh_models(train, seed=8)
        opt = init_optimizer(model, 0.5, 80)
        config = RunConfig(mode="ce", total_epochs=80, batch_size=64, seed=8)
        model, _ = train_ce(train, model, opt, config)
        if accuracy(model, train) == 1.0:
            labeled, unlabeled = separate(train, model_ops.forward(model, train.features), model)
            assert labeled.size == train.n_samples and unlabeled.size == 0

    def test_disagreement_all_unlabeled(self):
        train, _ = _noisy_split(seed=9, rate=0.0)
        student, _ = _fresh_models(train, seed=9)
        # A teacher predicting shifted classes never agrees with the student.
        teacher = student.copy()
        teacher.params[-1] = np.roll(teacher.params[-1], 1) + 1e3
        labeled, unlabeled = separate(train, model_ops.forward(student, train.features),
                                       teacher)
        assert (np.sort(np.concatenate([labeled, unlabeled]))
                == np.arange(train.n_samples)).all()

    def test_partition_property(self):
        train, _ = _noisy_split(seed=10)
        student, teacher = _fresh_models(train, seed=10)
        labeled, unlabeled = separate(train, model_ops.forward(student, train.features),
                                       teacher)
        merged = np.sort(np.concatenate([labeled, unlabeled]))
        np.testing.assert_array_equal(merged, np.arange(train.n_samples))
        assert np.intersect1d(labeled, unlabeled).size == 0

    def test_labeled_purity_after_rml(self):
        # Few optimizer steps at desk scale: a fast teacher (low lambda)
        # keeps the agreement criterion meaningful.
        train, test = _noisy_split(seed=11, per_class=100)
        config = RunConfig(mode="rml", total_epochs=30, batch_size=64,
                           warmup_epochs=3, ema_lambda=0.98, seed=11,
                           regroup=RegroupParams(n=6, k=10))
        student, teacher = _fresh_models(train, seed=11)
        opt = init_optimizer(student, 0.3, 30)
        student, teacher, _ = train_rml(train, student, teacher, opt, config, test)
        labeled, _ = separate(train, model_ops.forward(student, train.features), teacher)
        assert labeled.size > 0
        mask = corruption_mask(train)
        overall_clean = 1.0 - mask.mean()
        labeled_clean = 1.0 - mask[labeled].mean()
        assert labeled_clean > overall_clean


class TestTrainRmlSemi:
    def test_all_common_matches_train_rml(self):
        train, test = _noisy_split(seed=12, per_class=40)
        kwargs = dict(total_epochs=6, batch_size=32, warmup_epochs=2, seed=12,
                      regroup=RegroupParams(n=2, k=3))
        a_student, a_teacher = _fresh_models(train, seed=12)
        a_opt = init_optimizer(a_student, 0.3, 6)
        _, _, a_rows = train_rml(train, a_student, a_teacher, a_opt,
                                 RunConfig(mode="rml", **kwargs), test)
        b_student, b_teacher = _fresh_models(train, seed=12)
        b_opt = init_optimizer(b_student, 0.3, 6)
        _, _, b_rows = train_rml_semi(train, b_student, b_teacher, b_opt,
                                      RunConfig(mode="rml_semi", common_epochs=6, **kwargs),
                                      test)
        rows_equal(a_rows, b_rows)

    def test_semi_phase_records_labeled_fraction(self):
        train, test = _noisy_split(seed=13, per_class=60)
        config = RunConfig(mode="rml_semi", total_epochs=10, common_epochs=6,
                           batch_size=32, warmup_epochs=2, seed=13,
                           regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=13)
        opt = init_optimizer(student, 0.3, 10)
        _, _, rows = train_rml_semi(train, student, teacher, opt, config, test)
        common = [r.labeled_fraction for r in rows[:6]]
        semi = [r.labeled_fraction for r in rows[6:]]
        assert all(np.isnan(v) for v in common)
        assert all(0.0 <= v <= 1.0 for v in semi)

    def test_semi_steps_use_dataset_rows_and_teacher_labels(self, monkeypatch):
        # Every semi-phase step trains on unmodified rows of the dataset (no
        # blends): labeled rows keep their observed label, and rows from the
        # unlabeled pool carry the teacher's argmax at the time of the step.
        train, test = _noisy_split(seed=13, per_class=60)
        config = RunConfig(mode="rml_semi", total_epochs=10, common_epochs=6,
                           batch_size=32, warmup_epochs=2, seed=13,
                           regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=13)
        opt = init_optimizer(student, 0.3, 10)
        row_index = {row.tobytes(): i for i, row in enumerate(train.features)}
        split_now = {}
        seen = {"labeled": 0, "unlabeled": 0}
        real_separate, real_loss_and_grad = trainer.separate, model_ops.loss_and_grad

        def spy_separate(dataset, student_probs, t):
            split_now["labeled"], split_now["unlabeled"] = real_separate(dataset,
                                                                         student_probs, t)
            return split_now["labeled"], split_now["unlabeled"]

        def spy_loss_and_grad(model, features, labels, weights=None):
            if split_now and split_now["labeled"].size:
                idx = np.array([row_index.get(row.tobytes(), -1) for row in features])
                assert (idx >= 0).all(), "semi step trained on a row not in the dataset"
                pooled = np.isin(idx, split_now["unlabeled"])
                assert np.isin(idx[~pooled], split_now["labeled"]).all()
                np.testing.assert_array_equal(labels[~pooled],
                                              train.observed_labels[idx[~pooled]])
                guess = model_ops.forward(teacher, features[pooled]).argmax(axis=1)
                np.testing.assert_array_equal(labels[pooled], guess)
                seen["labeled"] += int((~pooled).sum())
                seen["unlabeled"] += int(pooled.sum())
            return real_loss_and_grad(model, features, labels, weights)

        monkeypatch.setattr(trainer, "separate", spy_separate)
        monkeypatch.setattr(model_ops, "loss_and_grad", spy_loss_and_grad)
        train_rml_semi(train, student, teacher, opt, config, test)
        assert seen["labeled"] > 0 and seen["unlabeled"] > 0

    def test_same_seed_identical_metrics(self):
        train, test = _noisy_split(seed=14, per_class=40)
        outputs = []
        for _ in range(2):
            student, teacher = _fresh_models(train, seed=14)
            opt = init_optimizer(student, 0.3, 8)
            config = RunConfig(mode="rml_semi", total_epochs=8, common_epochs=4,
                               batch_size=32, warmup_epochs=2, seed=14,
                               regroup=RegroupParams(n=2, k=3))
            _, _, rows = train_rml_semi(train, student, teacher, opt, config, test)
            outputs.append(rows)
        rows_equal(outputs[0], outputs[1])


def _spy_refreshes(monkeypatch):
    """Record the number of every cache refresh made by the training loop."""
    made = []
    real = rml.refresh_cache

    def spy(index, dataset, model, params, rng):
        made.append(index)
        return real(index, dataset, model, params, rng)

    monkeypatch.setattr(rml, "refresh_cache", spy)
    return made


class TestRefreshSchedule:
    def test_rml_refreshes_after_every_epoch_from_warmup(self, monkeypatch):
        made = _spy_refreshes(monkeypatch)
        train, test = _noisy_split(seed=15, per_class=30)
        config = RunConfig(mode="rml", total_epochs=6, batch_size=32, warmup_epochs=2,
                           seed=15, regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=15)
        train_rml(train, student, teacher, init_optimizer(student, 0.3, 6), config, test)
        assert made == [0, 1, 2, 3, 4]

    def test_semi_phase_makes_no_refresh(self, monkeypatch):
        made = _spy_refreshes(monkeypatch)
        train, test = _noisy_split(seed=15, per_class=30)
        config = RunConfig(mode="rml_semi", total_epochs=10, common_epochs=6,
                           batch_size=32, warmup_epochs=2, seed=15,
                           regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=15)
        _, _, rows = train_rml_semi(train, student, teacher,
                                    init_optimizer(student, 0.3, 10), config, test)
        assert all(r.labeled_fraction > 0 for r in rows[6:])
        assert made == [0, 1, 2, 3]

    def test_empty_split_trains_weighted_from_current_losses(self, monkeypatch):
        # separate labels nothing in semi epochs 7 and 8: those epochs train
        # weighted, from a cache refreshed on the current model and keyed as
        # the end-of-epoch refresh after epoch - 1 would have been.
        made = _spy_refreshes(monkeypatch)
        train, test = _noisy_split(seed=16, per_class=30)
        config = RunConfig(mode="rml_semi", total_epochs=10, common_epochs=6,
                           batch_size=32, warmup_epochs=2, seed=16,
                           regroup=RegroupParams(n=2, k=3))
        real_separate, real_epoch = trainer.separate, trainer._epoch
        weighted = {}

        def forced_separate(dataset, student_probs, t):
            forced_separate.calls += 1
            labeled, unlabeled = real_separate(dataset, student_probs, t)
            if forced_separate.calls in (2, 3):   # epochs 7 and 8
                return labeled[:0], np.arange(dataset.n_samples)
            return labeled, unlabeled

        forced_separate.calls = 0

        def spy_epoch(dataset, model, teacher, opt, cfg, epoch, rows, cache=None, pool=None):
            if epoch >= config.common_epochs and cache is not None:
                assert pool is None
                np.testing.assert_array_equal(rows, np.arange(dataset.n_samples))
                plain = model_ops.per_sample_ce(model_ops.forward(model, dataset.features),
                                                dataset.observed_labels)
                np.testing.assert_array_equal(cache.loss, plain)
                index = made[-1]
                expected = refresh_cache(index, dataset, model, config.regroup,
                                         RngStream(16, trainer.STREAM_REFRESH))
                np.testing.assert_array_equal(cache.loss_rml, expected.loss_rml)
                weighted[epoch] = index
            return real_epoch(dataset, model, teacher, opt, cfg, epoch, rows, cache, pool)

        monkeypatch.setattr(trainer, "separate", forced_separate)
        monkeypatch.setattr(trainer, "_epoch", spy_epoch)
        student, teacher = _fresh_models(train, seed=16)
        _, _, rows = train_rml_semi(train, student, teacher,
                                    init_optimizer(student, 0.3, 10), config, test)
        assert weighted == {7: 7 - 2, 8: 8 - 2}
        assert [r.labeled_fraction for r in rows[7:9]] == [0.0, 0.0]
        assert made == [0, 1, 2, 3, 5, 6]


class TestSingleForward:
    def test_one_forward_per_step_and_one_training_set_forward_per_epoch(self, monkeypatch):
        # Every SGD step forwards its batch once, inside loss_and_grad; after
        # each epoch the model is forwarded once over the training set (by
        # the refresh or for the metrics) and once over the test set.
        train, test = _noisy_split(seed=17, per_class=30)
        config = RunConfig(mode="rml", total_epochs=6, batch_size=32, warmup_epochs=2,
                           seed=17, regroup=RegroupParams(n=2, k=3))
        events = []
        real_forward, real_loss_and_grad = model_ops.forward, model_ops.loss_and_grad
        real_step = model_ops.sgd_step

        def spy_forward(model, features):
            events.append(("forward", len(features)))
            return real_forward(model, features)

        def spy_loss_and_grad(*args):
            events.append(("loss_and_grad", 0))
            return real_loss_and_grad(*args)

        def spy_step(model, opt, grads, epoch):
            events.append(("step", epoch))
            return real_step(model, opt, grads, epoch)

        monkeypatch.setattr(model_ops, "forward", spy_forward)
        monkeypatch.setattr(model_ops, "loss_and_grad", spy_loss_and_grad)
        monkeypatch.setattr(model_ops, "sgd_step", spy_step)
        student, teacher = _fresh_models(train, seed=17)
        train_rml(train, student, teacher, init_optimizer(student, 0.3, 6), config, test)

        steps = [value for kind, value in events if kind == "step"]
        assert [kind for kind, _ in events].count("loss_and_grad") == len(steps)
        forwarded = np.zeros(config.total_epochs, dtype=int)
        epoch, since_step = None, 0
        for kind, value in events:
            if kind == "step":
                assert value != epoch or since_step == 0, \
                    f"forward between two SGD steps of epoch {epoch}"
                epoch, since_step = value, 0
            elif kind == "forward":
                assert epoch is not None, "forward before the first SGD step"
                forwarded[epoch] += value
                since_step += value
        assert forwarded.tolist() == [train.n_samples + test.n_samples] * config.total_epochs

    def test_semi_forwards_the_student_over_the_training_set_once_per_epoch(self,
                                                                            monkeypatch):
        # The agreement split at the start of a semi epoch reads the previous
        # epoch's post-epoch forward instead of forwarding the student again.
        train, test = _noisy_split(seed=17, per_class=30)
        config = RunConfig(mode="rml_semi", total_epochs=8, common_epochs=4,
                           batch_size=32, warmup_epochs=2, seed=17,
                           regroup=RegroupParams(n=2, k=3))
        student, teacher = _fresh_models(train, seed=17)
        forwarded = np.zeros(config.total_epochs, dtype=int)
        last_step = {"epoch": None}
        real_forward, real_step = model_ops.forward, model_ops.sgd_step

        def spy_forward(model, features):
            if model is student and len(features) == train.n_samples:
                assert last_step["epoch"] is not None, "forward before the first SGD step"
                forwarded[last_step["epoch"]] += 1
            return real_forward(model, features)

        def spy_step(model, opt, grads, epoch):
            last_step["epoch"] = epoch
            return real_step(model, opt, grads, epoch)

        monkeypatch.setattr(model_ops, "forward", spy_forward)
        monkeypatch.setattr(model_ops, "sgd_step", spy_step)
        _, _, rows = train_rml_semi(train, student, teacher,
                                    init_optimizer(student, 0.3, 8), config, test)
        assert all(r.labeled_fraction > 0 for r in rows[4:])
        assert forwarded.tolist() == [1] * config.total_epochs


class TestModeGuard:
    @pytest.mark.parametrize("entry, mode", [("train_ce", "rml"), ("train_rml", "ce"),
                                             ("train_rml", "rml_semi"),
                                             ("train_rml_semi", "rml")])
    def test_entry_point_rejects_other_mode(self, entry, mode):
        train, _ = _noisy_split(seed=17, per_class=10)
        student, teacher = _fresh_models(train, seed=17)
        opt = init_optimizer(student, 0.3, 2)
        config = RunConfig(mode=mode, total_epochs=2, warmup_epochs=1)
        args = (student, opt) if entry == "train_ce" else (student, teacher, opt)
        with pytest.raises(ValueError, match="config.mode"):
            getattr(trainer, entry)(train, *args, config)


class TestRunConfigValidation:
    def test_warmup_required_for_rml(self):
        with pytest.raises(ValueError):
            RunConfig(mode="rml", warmup_epochs=0)

    def test_common_epochs_bounded(self):
        with pytest.raises(ValueError):
            RunConfig(mode="rml_semi", total_epochs=10, common_epochs=11)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="divide")


class TestMetricsCsv:
    def test_reruns_byte_identical(self, tmp_path):
        rows = [MetricsRow(0, 0.5, 0.9, 0.1, 1.2, 0.01, 0.002, float("nan"))]
        write_metrics_csv(rows, tmp_path / "a.csv")
        write_metrics_csv(rows, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header.startswith("epoch,train_loss,test_accuracy")
