import json
from dataclasses import asdict

import numpy as np
import pytest

from rml_lab import cli
from rml_lab.cli import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    ModelSpec,
    OptimizerSpec,
    build_dataset,
    cmd_ablate,
    cmd_inject,
    cmd_train,
    cmd_verify,
    load_config,
    main,
)
from rml_lab.trainer import RunConfig


def base_config(**overrides):
    payload = {
        "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 40,
                    "dim": 3, "separation": 6.0},
        "noise": {"kind": "symmetric", "rate": 0.3},
        "model": {"arch": "linear"},
        "optimizer": {"lr_init": 0.3},
        "run": {"mode": "rml", "total_epochs": 6, "batch_size": 32,
                "warmup_epochs": 2, "seed": 5,
                "regroup": {"n": 2, "k": 3}},
        "test_fraction": 0.2,
        "output_dir": "runs/test",
    }
    payload.update(overrides)
    return payload


class TestConfigParsing:
    def test_round_trip_lossless(self):
        config = ExperimentConfig.from_dict(base_config())
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again.to_dict() == config.to_dict()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config.typo"):
            ExperimentConfig.from_dict(base_config(typo=1))

    def test_unknown_regroup_key(self):
        payload = base_config()
        payload["run"]["regroup"]["epsilon"] = 2
        with pytest.raises(ConfigError, match="run.regroup.epsilon"):
            ExperimentConfig.from_dict(payload)

    def test_unknown_dataset_key(self):
        payload = base_config()
        payload["dataset"]["classes"] = 3
        with pytest.raises(ConfigError, match="dataset.classes"):
            ExperimentConfig.from_dict(payload)

    def test_missing_required_field(self):
        payload = base_config()
        del payload["run"]["mode"]
        with pytest.raises(ConfigError, match="run.mode"):
            ExperimentConfig.from_dict(payload)

    def test_missing_section_named_before_sections_parse(self):
        payload = base_config()
        del payload["run"]
        with pytest.raises(ConfigError, match=r"missing required key config\.run$"):
            ExperimentConfig.from_dict(payload)

    @pytest.mark.parametrize("key, value, path", [
        ("model", {"arch": "cnn"}, "model"),
        ("test_fraction", 1.0, "config"),
        ("run", {"mode": "rml", "regroup": {"n": 3}}, "run.regroup"),
        ("optimizer", {"lr_init": -0.1}, "optimizer"),
        ("optimizer", {"lr_min": 5.0}, "optimizer"),
        ("optimizer", {"weight_decay": -1.0}, "optimizer"),
        ("optimizer", {"momentum": 1.0}, "optimizer"),
        ("run", {"mode": "rml", "regroup": {"epsilon_bias": -3.0}}, "run.regroup"),
    ])
    def test_dataclass_check_names_section(self, key, value, path):
        with pytest.raises(ConfigError, match=rf"^{path}: "):
            ExperimentConfig.from_dict(base_config(**{key: value}))

    @pytest.mark.parametrize("dataset", [
        {"kind": "blobs", "num_classes": 4, "per_class": 30, "dim": 3, "separation": 5.5},
        {"kind": "moons", "per_class": 30, "noise_stdev": 0.3},
        {"kind": "idx", "images": "img.idx", "labels": "lab.idx"},
        {"kind": "container", "path": "data.rmld"},
    ])
    def test_every_field_non_default_round_trips(self, dataset):
        payload = {
            "dataset": dataset,
            "noise": {"kind": "pairflip", "rate": 0.25, "rng_stream": 7},
            "model": {"arch": "linear", "hidden": 9},
            "optimizer": {"lr_init": 0.2, "lr_min": 0.001, "momentum": 0.5,
                          "weight_decay": 0.0},
            "run": {"mode": "rml_semi", "total_epochs": 9, "batch_size": 16,
                    "warmup_epochs": 2, "common_epochs": 5, "ema_lambda": 0.9,
                    "seed": 4,
                    "regroup": {"n": 4, "k": 5, "epsilon_bias": 0.5,
                                "use_processed_loss": False, "estimator": "mean"}},
            "test_fraction": 0.3,
            "output_dir": "runs/all",
        }
        defaults = {
            "dataset": asdict(DatasetSpec(dataset["kind"])),
            "noise": {"kind": None, "rate": None, "rng_stream": 2},   # no default kind or rate
            "model": asdict(ModelSpec()),
            "optimizer": asdict(OptimizerSpec()),
            "run": asdict(RunConfig()),
            "test_fraction": 0.2,
            "output_dir": "runs/out",
        }

        def leaves(section, prefix=""):
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield f"{prefix}{key}", value

        default_leaves = dict(leaves(defaults))
        for path, value in leaves(payload):
            if path != "dataset.kind":
                assert value != default_leaves[path], path
        config = ExperimentConfig.from_dict(payload)
        assert config.run.regroup.estimator == "mean"
        assert config.optimizer.momentum == 0.5 and config.noise.rng_stream == 7
        # to_dict echoes every field, so a field the payload lacks fails here.
        assert config.to_dict() == payload
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("section, key, value", [
        ("run", "total_epochs", "2"),
        ("run", "total_epochs", True),
        ("run", "batch_size", 8.5),
        ("optimizer", "lr_init", "0.1"),
        ("dataset", "per_class", 2.5),
    ])
    def test_value_of_wrong_type_named(self, section, key, value):
        payload = base_config()
        payload[section][key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be "):
            ExperimentConfig.from_dict(payload)

    def test_int_fits_float_and_none_fits_optional_int(self):
        payload = base_config()
        payload["optimizer"]["lr_init"] = 1
        payload["run"]["common_epochs"] = None
        config = ExperimentConfig.from_dict(payload)
        assert config.optimizer.lr_init == 1
        assert config.run.common_epochs == config.run.total_epochs

    @pytest.mark.parametrize("key", ["run", "dataset", "noise"])
    def test_section_not_an_object_named(self, key):
        with pytest.raises(ConfigError, match=rf"^{key} must be a JSON object"):
            ExperimentConfig.from_dict(base_config(**{key: 5}))

    def test_noise_section_optional(self):
        payload = base_config()
        del payload["noise"]
        config = ExperimentConfig.from_dict(payload)
        assert config.noise is None

    def test_invalid_noise_rate(self):
        payload = base_config()
        payload["noise"]["rate"] = 1.5
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(payload)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        config = load_config(path)
        assert config.run.mode == "rml"
        assert config.run.regroup.n == 2


class TestCmdInject:
    def test_zero_rate_all_false_mask(self, tmp_path):
        payload = base_config()
        payload["noise"] = {"kind": "symmetric", "rate": 0.0}
        config = ExperimentConfig.from_dict(payload)
        report = cmd_inject(config, seed=1, out_dir=tmp_path)
        assert report["realized_rate"] == 0.0
        mask_lines = (tmp_path / "mask.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",0") for line in mask_lines)

    def test_rerun_byte_identical(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        cmd_inject(config, seed=2, out_dir=tmp_path / "a")
        cmd_inject(config, seed=2, out_dir=tmp_path / "b")
        for name in ("dataset.rmld", "mask.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_injected_container_reloads(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        report = cmd_inject(config, seed=3, out_dir=tmp_path)
        from rml_lab.data import load_dataset

        ds = load_dataset(report["dataset"])
        assert ds.true_labels is not None
        realized = (ds.observed_labels != ds.true_labels).mean()
        assert realized == pytest.approx(report["realized_rate"])


class TestCmdTrain:
    def test_ce_on_clean_blobs(self, tmp_path):
        payload = base_config()
        del payload["noise"]
        payload["run"] = {"mode": "ce", "total_epochs": 60, "batch_size": 32, "seed": 0}
        payload["optimizer"] = {"lr_init": 0.5}
        config = ExperimentConfig.from_dict(payload)
        summary = cmd_train(config, seed=0, out_dir=tmp_path)
        assert summary["final_test_accuracy"] >= 0.99
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "student.ckpt").exists()

    def test_rml_writes_teacher_checkpoint(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        cmd_train(config, seed=1, out_dir=tmp_path)
        assert (tmp_path / "teacher.ckpt").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "rml"

    def test_summary_records_host(self, tmp_path):
        # The kernel facts a run's bytes depend on; metrics.csv stays as it
        # was (tests/test_golden.py pins its bytes).
        summary = cmd_train(ExperimentConfig.from_dict(base_config()), seed=1, out_dir=tmp_path)
        host = json.loads((tmp_path / "summary.json").read_text())["host"]
        assert host == summary["host"]
        assert sorted(host) == ["numpy", "openblas_core", "simd_baseline", "simd_dispatch"]
        assert host["numpy"] == np.__version__
        assert isinstance(host["openblas_core"], str) and host["openblas_core"]
        for targets in (host["simd_baseline"], host["simd_dispatch"]):
            assert isinstance(targets, list) and all(isinstance(t, str) for t in targets)

    def test_metrics_byte_identical_across_reruns(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        cmd_train(config, seed=2, out_dir=tmp_path / "a")
        cmd_train(config, seed=2, out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "metrics.csv").read_bytes()
                == (tmp_path / "b" / "metrics.csv").read_bytes())

    def test_distinct_modes_distinct_metrics(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        cmd_train(config, seed=3, out_dir=tmp_path / "rml")
        payload = base_config()
        payload["run"]["mode"] = "ce"
        ce_config = ExperimentConfig.from_dict(payload)
        cmd_train(ce_config, seed=3, out_dir=tmp_path / "ce")
        assert ((tmp_path / "rml" / "metrics.csv").read_bytes()
                != (tmp_path / "ce" / "metrics.csv").read_bytes())


class TestCmdVerify:
    def test_prop1_suite_passes(self):
        report = cmd_verify("prop1", seed=0, trials=300)
        assert report["pass"]
        assert report["reports"][0]["check"] == "prop1"

    def test_mom_suite_passes(self):
        report = cmd_verify("mom", seed=0)
        assert report["pass"]

    @pytest.mark.parametrize("suite", ["prop1", "prop2"])
    def test_zero_trials_rejected(self, suite):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            cmd_verify(suite, seed=0, trials=0)

    @pytest.mark.parametrize("suite,trials,message", [
        ("mom", 0, "trials must be >= 1"), ("cor1", -5, "trials must be >= 1"),
        ("all", 0, "trials must be >= 1"), ("mom", 10, "'mom' takes no trials"),
        ("cor1", 10, "'cor1' takes no trials"),
    ])
    def test_bad_trials_rejected_before_any_check(self, suite, trials, message, monkeypatch):
        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("check_prop1", "check_prop2", "check_mom_robustness"):
            monkeypatch.setattr(cli.verify, name, no_check)
        monkeypatch.setattr(cli, "_cor1_report", no_check)
        with pytest.raises(ValueError, match=message):
            cmd_verify(suite, seed=0, trials=trials)

    def test_all_aggregates(self):
        report = cmd_verify("all", seed=0, trials=500)
        checks = [r["check"] for r in report["reports"]]
        assert checks == ["prop1", "prop2", "mom", "cor1"]
        assert report["pass"] == all(r["pass"] for r in report["reports"])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="'bogus'"):
            cmd_verify("bogus", seed=0)


class TestCmdAblate:
    def test_variants_reported(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        means = cmd_ablate(config, seeds=[5], out_dir=tmp_path)
        assert set(means) == {"full", "no_processing", "no_median"}
        lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,test_accuracy"
        assert len(lines) == 1 + 3 + 3   # header, per-seed rows, mean rows

    def test_deterministic_per_seed(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        a = cmd_ablate(config, seeds=[7], out_dir=tmp_path / "a")
        b = cmd_ablate(config, seeds=[7], out_dir=tmp_path / "b")
        assert a == b

    def test_no_seeds_rejected_before_output(self, tmp_path):
        config = ExperimentConfig.from_dict(base_config())
        with pytest.raises(ValueError, match="at least one seed"):
            cmd_ablate(config, seeds=[], out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestMainEntry:
    def test_train_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        payload = base_config(output_dir=str(tmp_path / "out"))
        path.write_text(json.dumps(payload))
        assert main(["train", "--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "rml"

    def test_inject_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(output_dir=str(tmp_path / "out"))))
        assert main(["inject", "--config", str(path), "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        direct = cmd_inject(load_config(path), seed=3, out_dir=tmp_path / "direct")
        assert out["realized_rate"] == direct["realized_rate"]
        assert (tmp_path / "out" / "dataset.rmld").exists()

    def test_inject_without_noise_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        payload = base_config()
        del payload["noise"]
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["inject", "--config", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_inject_too_many_classes_writes_nothing(self, tmp_path, capsys):
        # The container holds one label byte per sample: 300 classes fail
        # before --out is created.
        path = tmp_path / "config.json"
        payload = base_config(dataset={"kind": "blobs", "num_classes": 300,
                                       "per_class": 2, "dim": 3, "separation": 6.0})
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["inject", "--config", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["message"] == "inject: label bytes support at most 256 classes, got 300"
        assert not out.exists()

    def test_bad_optimizer_fails_before_data_is_read(self, tmp_path, capsys):
        # The container does not exist: the optimizer error comes first.
        path = tmp_path / "config.json"
        payload = base_config(dataset={"kind": "container", "path": str(tmp_path / "none")},
                              optimizer={"lr_init": 0.1, "lr_min": 5.0})
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        assert error["message"].startswith("optimizer: OptimizerState: lr_min")
        assert not out.exists()

    def test_ablate_exit_zero(self, tmp_path, capsys):
        # ablate has no --seed: its seeds count up from run.seed.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(output_dir=str(tmp_path / "out"))))
        assert main(["ablate", "--config", str(path), "--seeds", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"full", "no_processing", "no_median"}
        lines = (tmp_path / "out" / "ablation.csv").read_text().splitlines()
        assert {line.split(",")[1] for line in lines[1:]} == {"5", "6", "mean"}

    def test_ablate_zero_seeds_fails_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        out = tmp_path / "out"
        assert main(["ablate", "--config", str(path), "--seeds", "0", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not out.exists()

    def test_missing_config_is_machine_readable_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"

    def test_verify_exit_code_and_report_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["verify", "--suite", "prop1", "--trials", "200",
                     "--out", str(out_file)])
        assert code == 0
        assert json.loads(out_file.read_text())["pass"]
        capsys.readouterr()

    def test_verify_mom_zero_trials_fails(self, capsys):
        assert main(["verify", "--suite", "mom", "--trials", "0"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(bogus=1)))
        assert main(["train", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestBuildDataset:
    def test_idx_kind(self, tmp_path):
        from rml_lab.data import write_idx_images, write_idx_labels

        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "img.idx",
                         rng.integers(0, 256, (12, 3, 3), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", rng.integers(0, 3, 12, dtype=np.uint8))
        spec = ExperimentConfig.from_dict(base_config(
            dataset={"kind": "idx", "images": str(tmp_path / "img.idx"),
                     "labels": str(tmp_path / "lab.idx")},
        )).dataset
        ds = build_dataset(spec, seed=0)
        assert ds.n_samples == 12 and ds.dim == 9
