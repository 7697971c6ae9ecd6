"""Refused mutators leave the model as it was.

``attach_method`` wires a method onto a model and ``adamw_step`` updates its
trainable parameters.  Each gets bounded invalid inputs here: unknown
methods, missing or out-of-range configs, bad seeds and second attachments
for the one; missing gradients and gradients of the wrong shape or dtype,
before or after a valid step, for the other.  A call may succeed; a call
that raises must raise one of the documented error classes and leave the
checkpoint bytes, the parameter names, trainability, the hooks and the LoRA
deltas unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt.adapter import METHODS, AdapterConfig, LoraConfig
from segadapt.checkpoint import dump_bytes
from segadapt.engine import attach_method
from segadapt.errors import ContractError, DimensionError, FormatError, IntegrityError, ValidationError
from segadapt.model import ModelConfig, SegmentationModel
from segadapt.params import AdamWState, adamw_step

DOCUMENTED = (ValidationError, FormatError, DimensionError, ContractError, IntegrityError)
BOUNDED = settings(max_examples=200, deadline=None, derandomize=True)

TINY_MODEL = ModelConfig(
    image_size=16, patch_size=4, enc_dim=16, enc_depth=2, enc_heads=2,
    dec_dim=16, dec_depth=2, dec_heads=2, mlp_ratio=2,
)
SEEDS = st.sampled_from((0, 2**32, -1, 1.5, True, "0", None))
ADAPTERS = st.none() | st.builds(
    AdapterConfig,
    prompt_dim=st.just(8),
    key_dim=st.just(4),
    value_dim=st.just(4),
    encoder_adapted_blocks=st.none() | st.integers(0, TINY_MODEL.enc_depth + 1),
)
LORAS = st.none() | st.builds(
    LoraConfig,
    rank=st.integers(1, TINY_MODEL.enc_dim + 2),
    targets=st.sampled_from((("query",), ("value", "out"), ("query", "key", "value", "out"))),
)


def _state(model):
    reg = model.registry
    return (
        dump_bytes(reg),
        reg.names(),
        [p.trainable for p in reg.parameters()],
        model.dense_hook,
        model.encoder_hook,
        {name: tuple(map(id, delta)) for name, delta in model.lora_deltas.items()},
    )


def _refuses_unchanged(model, call, *args, **kwargs) -> bool:
    """Run ``call``; if it raises, the error is documented and the model is
    as it was.  Returns whether it raised."""
    before = _state(model)
    try:
        call(*args, **kwargs)
    except DOCUMENTED:
        after = _state(model)
        assert after[:3] == before[:3]
        assert after[3] is before[3] and after[4] is before[4]
        assert after[5] == before[5]
        return True
    return False


@BOUNDED
@given(data=st.data())
def test_attach_method_refuses_with_a_documented_error_and_changes_nothing(data):
    model = SegmentationModel(TINY_MODEL)
    # A method already attached makes a second attachment of its kind invalid.
    first = data.draw(st.none() | st.sampled_from(METHODS))
    if first is not None:
        attach_method(model, first, AdapterConfig(prompt_dim=8, key_dim=4, value_dim=4), LoraConfig(rank=2))
    method = data.draw(st.sampled_from((*METHODS, "prompt_tuning", "")))
    _refuses_unchanged(
        model, attach_method, model, method, data.draw(ADAPTERS), data.draw(LORAS), seed=data.draw(SEEDS)
    )


@st.composite
def bad_grads(draw, model):
    """A gradient of the right shape for each trainable parameter, then one
    to three edits: a gradient dropped, reshaped or of another dtype."""
    reg = model.registry
    grads = {p.name: np.ones(p.tensor.shape, dtype=reg.dtype) for p in reg.trainable_parameters()}
    names = sorted(grads)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(names))
        kind = draw(st.sampled_from(("drop", "reshape", "dtype")))
        if kind == "drop":
            grads[name] = None
        elif kind == "reshape":
            grads[name] = np.ones(draw(st.sampled_from(((), (1,), (3, 5), (2, 2, 2)))), dtype=reg.dtype)
        else:
            grads[name] = np.ones(reg.get(name).shape, dtype=draw(st.sampled_from((np.float64, np.float16))))
    return grads


def _set_grads(model, grads) -> None:
    for name, grad in grads.items():
        model.registry.get(name).grad = grad


@BOUNDED
@given(data=st.data())
def test_adamw_step_refuses_with_a_documented_error_and_changes_nothing(data):
    model = SegmentationModel(TINY_MODEL)
    attach_method(
        model, data.draw(st.sampled_from(METHODS)),
        AdapterConfig(prompt_dim=8, key_dim=4, value_dim=4), LoraConfig(rank=2),
    )
    state = AdamWState(lr=1e-2, weight_decay=data.draw(st.sampled_from((0.0, 0.1))))
    if data.draw(st.booleans()):  # state already bound by a valid step
        reg = model.registry
        _set_grads(model, {p.name: np.ones(p.tensor.shape, dtype=reg.dtype) for p in reg.trainable_parameters()})
        adamw_step(reg, state)
    _set_grads(model, data.draw(bad_grads(model)))
    step = state.step
    assert _refuses_unchanged(model, adamw_step, model.registry, state)
    assert state.step == step
