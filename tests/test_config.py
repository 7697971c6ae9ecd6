import json
import math
from dataclasses import replace

import pytest

from segadapt.config import (
    CONFIG_VERSION,
    RunConfig,
    TrainSettings,
    TTDASettings,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from segadapt.data import DomainConfig, default_source_domain, generate_dataset
from segadapt.errors import FormatError, ValidationError
from segadapt.model import ModelConfig


class TestDefaults:
    def test_default_validates(self):
        cfg = default_config().validate()
        assert cfg.version == CONFIG_VERSION
        assert cfg.train.method == "sam_da_dec"
        assert cfg.adapter.prompt_dim == 128

    def test_dict_round_trip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = default_config()
        path = tmp_path / "run.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_empty_document_gives_defaults(self):
        assert config_from_dict({}) == default_config()


class TestOverrides:
    def test_section_override(self):
        cfg = config_from_dict({"train": {"method": "lora", "epochs": 7}})
        assert cfg.train.method == "lora"
        assert cfg.train.epochs == 7
        # untouched fields keep defaults
        assert cfg.train.batch_size == default_config().train.batch_size

    def test_nested_data_override(self):
        cfg = config_from_dict({"data": {"source": {"seed": 555}, "sizes": {"source_train": 30}}})
        assert cfg.data.source.seed == 555
        assert cfg.data.sizes.source_train == 30
        assert cfg.data.target == default_config().data.target

    def test_lora_targets_list_becomes_tuple(self):
        cfg = config_from_dict({"lora": {"targets": ["query"]}})
        assert cfg.lora.targets == ("query",)

    def test_model_override_is_validated(self):
        with pytest.raises(ValidationError):
            config_from_dict({"model": {"patch_size": 5}})


class TestStrictness:
    def test_unknown_section(self):
        with pytest.raises(ValidationError, match="unknown config sections"):
            config_from_dict({"optimizer": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ValidationError, match="unknown TrainSettings keys"):
            config_from_dict({"train": {"learning_rate": 0.1}})

    def test_unknown_data_key(self):
        with pytest.raises(ValidationError, match="unknown data keys"):
            config_from_dict({"data": {"domains": {}}})

    def test_section_must_be_object(self):
        with pytest.raises(ValidationError, match="must be an object"):
            config_from_dict({"train": [1, 2]})

    def test_document_must_be_object(self):
        with pytest.raises(ValidationError):
            config_from_dict([1, 2])

    def test_bad_version(self):
        with pytest.raises(ValidationError, match="version"):
            config_from_dict({"version": 99})


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="not JSON at offset 1"):
            load_config(path)


class TestSettingValidation:
    @pytest.mark.parametrize(
        "patch",
        [
            {"train": {"method": "prompt_tuning"}},
            {"train": {"lr": 0.0}},
            {"train": {"epochs": 0}},
            {"train": {"batch_size": 0}},
            {"train": {"weight_decay": -0.1}},
            {"ttda": {"iterations": 0}},
            {"ttda": {"lr": -1.0}},
            {"ttda": {"lambda_entropy": -0.5}},
            {"ttda": {"positive_offset": 5, "negative_min_offset": 5}},
            {"ttda": {"positive_offset": 0}},
            {"loss": {"confidence_fraction": 0.0}},
            {"loss": {"confidence_fraction": 1.5}},
        ],
    )
    def test_invalid_settings_rejected(self, patch):
        with pytest.raises(ValidationError):
            config_from_dict(patch)

    @pytest.mark.parametrize(
        "patch",
        [
            {"train": {"epochs": 2.5}},
            {"train": {"epochs": "3"}},
            {"train": {"lr": float("nan")}},
            {"train": {"lr": float("inf")}},
            {"train": {"batch_size": True}},
            {"ttda": {"lambda_entropy": False}},
            {"lora": {"targets": "query"}},
            {"data": {"source": {"blob_radius": "5,14"}}},
            {"data": {"source": {"num_blobs": [1, 2, 3]}}},
        ],
    )
    def test_wrongly_typed_values_rejected(self, patch):
        with pytest.raises(ValidationError, match="must be"):
            config_from_dict(patch)

    @pytest.mark.parametrize(
        "doc",
        [
            # Zero sizes used to reach a `%` or a division before any check.
            {"model": {"enc_heads": 0}},
            {"model": {"dec_heads": 0}},
            {"model": {"patch_size": 0}},
            {"model": {"enc_dim": 0}},
            {"model": {"dec_dim": 0}},
            {"model": {"enc_dim": -4}},
            # Negative seeds used to escape later from np.random.SeedSequence.
            {"model": {"seed": -1}},
            {"data": {"source": {"seed": -1}}},
            {"data": {"target": {"seed": -1}}},
            {"train": {"seed": -1}},
            {"ttda": {"seed": -1}},
        ],
    )
    def test_bad_sizes_and_seeds_rejected_on_load(self, doc, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_config(path)

    def test_int_accepted_where_float_expected(self):
        cfg = config_from_dict({"train": {"lr": 1}, "lora": {"alpha": 8}})
        assert cfg.train.lr == 1
        assert cfg.lora.alpha == 8

    def test_saved_config_is_plain_json(self, tmp_path):
        path = tmp_path / "run.json"
        save_config(path, default_config())
        doc = json.loads(path.read_text())
        assert doc["version"] == CONFIG_VERSION
        assert isinstance(doc["data"]["source"]["fg_intensity"], list)

    def test_path_valued_init_from_serializes(self, tmp_path):
        # init_from is typed str but Path objects arrive from callers routinely.
        cfg = default_config()
        cfg = replace(cfg, train=replace(cfg.train, init_from=tmp_path / "base.sdck"))
        doc = config_to_dict(cfg)
        json.dumps(doc)
        assert doc["train"]["init_from"] == str(tmp_path / "base.sdck")


class TestSeedRule:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    @pytest.mark.parametrize(
        "settings",
        [ModelConfig(), default_source_domain(), TrainSettings(), TTDASettings()],
        ids=["model", "domain", "train", "ttda"],
    )
    def test_every_seeded_setting_refuses_what_check_seed_refuses(self, settings, seed):
        with pytest.raises(ValidationError, match="seed must be an int >= 0"):
            replace(settings, seed=seed)

    def test_generate_dataset_refuses_a_fractional_domain_seed(self, tmp_path):
        with pytest.raises(ValidationError, match="'source' seed"):
            generate_dataset(tmp_path, source=DomainConfig(name="source", seed=1.5))


# One bad value per config class, and every LossConfig rule: (the section's
# path in the document, field, value).  The empty path is RunConfig itself.
BAD_VALUES = [
    (("model",), "patch_size", 3),
    (("adapter",), "init_scale", 0.0),
    (("lora",), "rank", 0),
    (("loss",), "dice_weight", -1.0),
    (("loss",), "ce_weight", -0.5),
    (("loss",), "iou_weight", -1.0),
    (("loss",), "dice_smooth", -1.0),
    (("loss",), "focal_gamma", -1.0),
    (("loss",), "confidence_fraction", 0.0),
    (("loss",), "confidence_fraction", 1.5),
    (("loss",), "temperature", 0.0),
    (("loss",), "temperature", -0.1),
    (("data", "source"), "gamma", 0.0),
    (("data", "target"), "noise_sigma", -0.1),
    (("data", "sizes"), "target_test", 25),
    (("train",), "lr", 0.0),
    (("ttda",), "iterations", 0),
    ((), "version", 2),
    # Every float rule refuses NaN and +-inf, and LoRA's alpha is > 0.
    (("loss",), "temperature", math.nan),
    (("loss",), "dice_weight", math.nan),
    (("loss",), "dice_smooth", math.inf),
    (("loss",), "focal_gamma", math.inf),
    (("loss",), "confidence_fraction", math.nan),
    (("train",), "lr", math.nan),
    (("train",), "lr", math.inf),
    (("train",), "weight_decay", math.nan),
    (("ttda",), "lr", math.nan),
    (("ttda",), "lambda_entropy", math.nan),
    (("ttda",), "lambda_contrastive", math.inf),
    (("adapter",), "init_scale", math.nan),
    (("adapter",), "init_scale", math.inf),
    (("lora",), "alpha", math.nan),
    (("lora",), "alpha", 0.0),
    (("lora",), "alpha", -1.0),
    (("lora",), "alpha", -2.0),
    (("data", "source"), "gamma", math.inf),
    (("data", "target"), "noise_sigma", -math.inf),
    (("data", "target"), "speckle_sigma", math.nan),
]


def _section(path):
    section = default_config()
    for name in path:
        section = getattr(section, name)
    return section


def _document(path, key, value):
    doc = {key: value}
    for name in reversed(path):
        doc = {name: doc}
    return doc


class TestBuiltConfigIsValid:
    @pytest.mark.parametrize(
        "path, key, value", BAD_VALUES, ids=[".".join((*p, f"{k}={v}")) for p, k, v in BAD_VALUES]
    )
    def test_bad_value_refused_however_the_config_is_built(self, path, key, value):
        section = _section(path)
        required = {"name": section.name} if isinstance(section, DomainConfig) else {}
        with pytest.raises(ValidationError):
            type(section)(**required, **{key: value})
        with pytest.raises(ValidationError):
            replace(section, **{key: value})
        with pytest.raises(ValidationError):
            config_from_dict(_document(path, key, value))


class TestFrozen:
    def test_run_config_immutable(self):
        cfg = default_config()
        with pytest.raises(AttributeError):
            cfg.version = 2

    def test_validate_returns_self(self):
        cfg = default_config()
        assert cfg.validate() is cfg
