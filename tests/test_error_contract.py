"""Mutated and truncated inputs end in the documented error classes.

errors.py documents the contract: bad input raises ValidationError,
FormatError, DimensionError or ContractError (CLI exit 1) or IntegrityError
(exit 2); anything else is a bug.  Each loader here gets valid bytes with a
few random edits -- byte replacements, insertions, deletions, a truncation --
and the JSON loaders also get valid documents with one value replaced or
removed.  The two writers of parameter values, ``restore`` and
``initialize``, get wrong names, shapes, seeds and init kinds; a refused
call must leave the registry as it was.  Examples are bounded so the module
stays fast.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segadapt.adapter import METHODS, AdapterConfig, LoraConfig
from segadapt.checkpoint import dump_bytes, load_bytes, restore
from segadapt.cli import main
from segadapt.config import config_to_dict, default_config, load_config
from segadapt.data import (
    MANIFEST_NAME,
    SplitSizes,
    default_source_domain,
    generate_dataset,
    generate_sample,
    load_manifest,
    load_split,
    sample_from_bytes,
    sample_to_bytes,
)
from segadapt.engine import attach_method, load_model, save_checkpoint
from segadapt.errors import (
    ContractError,
    DimensionError,
    FormatError,
    IntegrityError,
    ValidationError,
)
from segadapt.model import ModelConfig, SegmentationModel
from segadapt.params import Init, ParameterRegistry

DOCUMENTED = (ValidationError, FormatError, DimensionError, ContractError, IntegrityError)
FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@st.composite
def byte_edits(draw, valid: bytes) -> bytes:
    """``valid`` with one to four byte edits, then possibly truncated."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "replace" and data:
            data[i] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[i : i + draw(st.integers(1, 8))]
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return bytes(data)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def value_edit(draw, doc):
    """A deep copy of ``doc`` with one nested value replaced or removed."""
    doc = json.loads(json.dumps(doc))
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        parent[key] = draw(JSON_VALUES)
    else:
        del parent[key]
    return doc


def _json_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode()


def _only_documented(call, *args) -> None:
    try:
        call(*args)
    except DOCUMENTED:
        pass


# -- config ---------------------------------------------------------------------

CONFIG_DOC = config_to_dict(default_config())


@FUZZ
@given(data=st.data())
def test_load_config_raises_only_documented_errors(tmp_path, data):
    raw = data.draw(st.one_of(byte_edits(_json_bytes(CONFIG_DOC)), value_edit(CONFIG_DOC).map(_json_bytes)))
    path = tmp_path / "run.json"
    path.write_bytes(raw)
    _only_documented(load_config, path)


# -- SDCK and SDIM ------------------------------------------------------------------


def _small_checkpoint() -> bytes:
    reg = ParameterRegistry()
    reg.add("a.weight", (3, 4), Init.lecun())
    reg.add("a.bias", (4,), Init.zeros())
    reg.add("gate", (), Init.zeros())
    reg.initialize(0)
    return dump_bytes(reg)


@FUZZ
@given(data=st.data())
def test_load_bytes_raises_only_documented_errors(data):
    _only_documented(load_bytes, data.draw(byte_edits(_small_checkpoint())))


def _small_sample() -> bytes:
    return sample_to_bytes(generate_sample(default_source_domain(), volume_seed=0, slice_index=3))


@FUZZ
@given(data=st.data())
def test_sample_from_bytes_raises_only_documented_errors(data):
    _only_documented(sample_from_bytes, data.draw(byte_edits(_small_sample())))


# -- checkpoint plus sidecar ---------------------------------------------------------

TINY_MODEL = ModelConfig(
    image_size=16, patch_size=4, enc_dim=16, enc_depth=2, enc_heads=2,
    dec_dim=16, dec_depth=2, dec_heads=2, mlp_ratio=2,
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """Each method's checkpoint of a tiny model: (SDCK bytes, sidecar bytes)."""
    root = tmp_path_factory.mktemp("checkpoints")
    out = {}
    for method in METHODS:
        model = SegmentationModel(TINY_MODEL)
        adapter_cfg, lora_cfg = attach_method(
            model, method, AdapterConfig(prompt_dim=32, key_dim=8, value_dim=8), LoraConfig(rank=2)
        )
        path = root / f"{method}.sdck"
        save_checkpoint(path, dump_bytes(model.registry), method, TINY_MODEL, adapter_cfg, lora_cfg, 0)
        out[method] = (path.read_bytes(), (root / f"{method}.sdck.meta.json").read_bytes())
    return out


@pytest.mark.parametrize("edited", ["checkpoint", "sidecar"])
@FUZZ
@given(data=st.data())
def test_load_model_raises_only_documented_errors_or_holds_the_checkpoint(tmp_path, checkpoints, edited, data):
    weights, sidecar = checkpoints[data.draw(st.sampled_from(METHODS))]
    if edited == "checkpoint":
        weights = data.draw(byte_edits(weights))
    else:
        sidecar = data.draw(byte_edits(sidecar))
    path = tmp_path / "model.sdck"
    path.write_bytes(weights)
    (tmp_path / "model.sdck.meta.json").write_bytes(sidecar)
    try:
        model, _ = load_model(path)
    except DOCUMENTED:
        return
    # Every value came from the checkpoint: none is left undrawn.
    assert dump_bytes(model.registry) == weights


# -- the two writers of parameter values -----------------------------------------------


def _writer_registry(extra_kind: str | None) -> ParameterRegistry:
    reg = ParameterRegistry()
    reg.add("a.weight", (3, 4), Init.lecun())
    reg.add("a.bias", (4,), Init.zeros())
    reg.add("gate", (), Init.zeros())
    reg.add("mix", (2, 2), Init.identity())
    reg.initialize(0)
    if extra_kind is not None:  # declared after the draw: its kind may be one initialize refuses
        reg.add("z.extra", (2, 3), Init(extra_kind))
    reg.set_trainable(lambda name: name != "a.bias")
    return reg


def _state(reg):
    return reg.names(), [p.trainable for p in reg.parameters()], [p.tensor.data for p in reg.parameters()]


@st.composite
def bad_values(draw, reg):
    """The registry's values, shifted, with one to three edits: a name
    dropped or unknown, a value of another shape or dtype."""
    values = {name: value + 1.0 for name, value in load_bytes(dump_bytes(reg)).items()}
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(values) or ["gate"]))
        kind = draw(st.sampled_from(("drop", "unknown", "reshape", "dtype")))
        if kind == "unknown":
            values[draw(st.sampled_from(("b.weight", "a", "zz")))] = np.zeros((2,), dtype=np.float32)
        elif name in values and kind == "drop":
            del values[name]
        elif name in values and kind == "reshape":
            shape = draw(st.sampled_from(((), (0,), (1,), (4, 3), (1, 3, 4), (2, 2, 1))))
            values[name] = np.zeros(shape, dtype=np.float32)
        elif name in values:
            values[name] = values[name].astype(draw(st.sampled_from((np.float64, np.float16, np.int32))))
    return values


def _writes_in_place_or_refuses(reg, call, *args, **kwargs) -> None:
    """``call`` raises nothing but a documented error, after which every
    value is as it was; either way no parameter is renamed, retrained or
    given another array."""
    before, (names, trainable, arrays) = dump_bytes(reg), _state(reg)
    try:
        call(*args, **kwargs)
    except DOCUMENTED:
        assert dump_bytes(reg) == before
    after_names, after_trainable, after_arrays = _state(reg)
    assert after_names == names and after_trainable == trainable
    assert all(a is b for a, b in zip(after_arrays, arrays))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_restore_refuses_with_a_documented_error_and_changes_nothing(data):
    reg = _writer_registry(None)
    values = data.draw(bad_values(reg))
    _writes_in_place_or_refuses(reg, restore, reg, values, strict=data.draw(st.booleans()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_initialize_refuses_with_a_documented_error_and_changes_nothing(data):
    reg = _writer_registry(data.draw(st.sampled_from((None, "zeros", "uniform", "identity", ""))))
    seed = data.draw(st.one_of(st.integers(0, 2**64), st.sampled_from((-1, 1.5, True, "0", None, np.int64(3)))))
    only = data.draw(st.none() | st.lists(st.sampled_from((*reg.names(), "a", "nope.weight")), max_size=4))
    _writes_in_place_or_refuses(reg, reg.initialize, seed, only=only)


# -- manifest -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract") / "data"
    generate_dataset(root, sizes=SplitSizes(10, 10, 10, 10, 10))
    return root


def _load_every_split(root):
    manifest = load_manifest(root)
    for split in manifest["splits"]:
        load_split(root, manifest, split)


@FUZZ
@given(data=st.data())
def test_load_manifest_and_split_raise_only_documented_errors(dataset, data):
    doc = json.loads((dataset / MANIFEST_NAME).read_bytes())
    raw = data.draw(st.one_of(byte_edits(_json_bytes(doc)), value_edit(doc).map(_json_bytes)))
    root = dataset.parent / "mutated"
    if not root.exists():
        shutil.copytree(dataset, root)
    (root / MANIFEST_NAME).write_bytes(raw)
    _only_documented(_load_every_split, root)


# -- command line -----------------------------------------------------------------------


def _exits_cleanly(argv, capsys) -> None:
    code = main(argv)  # an undocumented exception escapes here as a test error
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "Traceback" not in err and err.startswith(("error:", "integrity error:"))


@FUZZ
@given(data=st.data())
def test_cli_rejects_a_mutated_config_with_exit_one_or_two(tmp_path, capsys, data):
    # The dataset directory is empty, so a config that still loads fails on
    # the missing manifest: every run ends in an error, never in training.
    raw = data.draw(st.one_of(byte_edits(_json_bytes(CONFIG_DOC)), value_edit(CONFIG_DOC).map(_json_bytes)))
    path = tmp_path / "run.json"
    path.write_bytes(raw)
    _exits_cleanly(["train", "--config", str(path), "--data", str(tmp_path), "--out", str(tmp_path / "o")], capsys)


@FUZZ
@given(data=st.data())
def test_cli_rejects_a_mutated_manifest_with_exit_one_or_two(dataset, tmp_path, capsys, data):
    # The checkpoint is missing, so a manifest that still loads fails there.
    doc = json.loads((dataset / MANIFEST_NAME).read_bytes())
    raw = data.draw(st.one_of(byte_edits(_json_bytes(doc)), value_edit(doc).map(_json_bytes)))
    root = dataset.parent / "cli"
    if not root.exists():
        shutil.copytree(dataset, root)
    (root / MANIFEST_NAME).write_bytes(raw)
    argv = ["eval", "--checkpoint", str(tmp_path / "absent.sdck"), "--data", str(root), "--domain", "source"]
    _exits_cleanly(argv, capsys)


# -- report fragments -------------------------------------------------------------------

REPORT_FRAGMENTS = {
    "train.json": {
        "kind": "train", "method": "sam_da_dec", "seed": 0, "trainable_params": 10, "total_params": 100,
    },
    "eval.json": {
        "kind": "eval", "method": "sam_da_dec", "seed": 0, "domain": "target", "split": "test",
        "count": 2, "per_image": [0.5, 0.75], "mean": 0.625, "std": 0.125,
    },
    "ttda.json": {
        "kind": "ttda", "method": "sam_da_dec", "seed": 0, "split": "target_test", "count": 2,
        "per_sample": [
            {"volume_id": 0, "slice_index": 0, "iou_before": 0.5, "iou_after": 0.5},
            {"volume_id": 0, "slice_index": 1, "iou_before": 0.25, "iou_after": 0.5},
        ],
        "mean_iou_before": 0.375, "mean_iou_after": 0.5, "entropy_improved_fraction": 1.0,
    },
}


def _write_run(run, replaced=None, raw=b""):
    run.mkdir(exist_ok=True)
    for name, doc in REPORT_FRAGMENTS.items():
        (run / name).write_bytes(raw if name == replaced else _json_bytes(doc))


def test_cli_report_accepts_the_unedited_fragments(tmp_path, capsys):
    _write_run(tmp_path)
    assert main(["report", "--run", str(tmp_path)]) == 0
    assert "IoU 0.3750 -> 0.5000 over 2 samples" in capsys.readouterr().out


def _drop(key):
    return lambda doc: doc.pop(key)


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize(
    "name, edit, key",
    [
        ("eval.json", _drop("mean"), "mean"),
        ("eval.json", _set("per_image", ["0.5", "high"]), "per_image"),
        ("train.json", _drop("trainable_params"), "trainable_params"),
        ("ttda.json", lambda doc: doc["per_sample"].__setitem__(1, 0.5), "per_sample"),
    ],
    ids=["eval-without-mean", "non-numeric-per-image", "train-without-trainable-params", "ttda-sample-not-object"],
)
def test_cli_report_rejects_a_malformed_fragment_naming_path_and_key(tmp_path, capsys, name, edit, key):
    doc = json.loads(json.dumps(REPORT_FRAGMENTS[name]))
    edit(doc)
    _write_run(tmp_path, name, _json_bytes(doc))
    assert main(["report", "--run", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(tmp_path / name) in err and repr(key) in err


def test_cli_report_keeps_a_mean_that_does_not_reproduce_an_integrity_error(tmp_path, capsys):
    _write_run(tmp_path, "eval.json", _json_bytes({**REPORT_FRAGMENTS["eval.json"], "mean": 0.6}))
    assert main(["report", "--run", str(tmp_path)]) == 2
    assert "does not reproduce" in capsys.readouterr().err


@FUZZ
@given(data=st.data())
def test_cli_report_on_a_mutated_fragment_exits_cleanly(tmp_path, capsys, data):
    name = data.draw(st.sampled_from(sorted(REPORT_FRAGMENTS)))
    doc = REPORT_FRAGMENTS[name]
    _write_run(tmp_path, name, data.draw(st.one_of(byte_edits(_json_bytes(doc)), value_edit(doc).map(_json_bytes))))
    code = main(["report", "--run", str(tmp_path)])  # an undocumented exception escapes as a test error
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
