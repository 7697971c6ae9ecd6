"""Every fused tape node against the chain of separate nodes it replaces.

``attention``, ``linear`` and the five loss nodes must give the chain's value
and every leaf's gradient byte for byte, on random float32 inputs mixed with
+-0.0, saturated logits and constant maps, under random ``requires_grad``
masks; refused inputs must be refused with the chain's error and message.
Each loss node also passes a float64 finite-difference check.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from chains import (
    chain_attention,
    chain_confident_entropy_loss,
    chain_cross_entropy_loss,
    chain_dice_loss,
    chain_focal_loss,
    chain_linear,
    chain_proximity_loss,
    chain_slice_contrastive_loss,
    chain_supervised_loss,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segadapt import Init, ParameterRegistry, Tensor, backward, finite_diff_check
from segadapt.errors import DimensionError, ValidationError
from segadapt.losses import (
    LossConfig,
    confident_entropy_loss,
    cross_entropy_loss,
    dice_loss,
    focal_loss,
    proximity_loss,
    slice_contrastive_loss,
    supervised_loss,
    weighted_sum,
)
from segadapt.tensor import attention, linear

FUSED = SimpleNamespace(
    attention=attention,
    linear=linear,
    dice=dice_loss,
    cross_entropy=cross_entropy_loss,
    focal=focal_loss,
    entropy=confident_entropy_loss,
    contrastive=slice_contrastive_loss,
    proximity=proximity_loss,
    supervised=supervised_loss,
)
CHAIN = SimpleNamespace(
    attention=chain_attention,
    linear=chain_linear,
    dice=chain_dice_loss,
    cross_entropy=chain_cross_entropy_loss,
    focal=chain_focal_loss,
    entropy=chain_confident_entropy_loss,
    contrastive=chain_slice_contrastive_loss,
    proximity=chain_proximity_loss,
    supervised=chain_supervised_loss,
)

SIGNED_ZEROS = [0.0, -0.0]
SATURATED = SIGNED_ZEROS + [40.0, -40.0, 47.5, -88.0, 100.0]
EXAMPLES = settings(max_examples=40, deadline=None)


def arrays(shape, bound, specials=SIGNED_ZEROS):
    """float32 arrays: random values within +-bound mixed with ``specials``,
    or one such value everywhere (a constant map)."""
    value = st.one_of(st.floats(-bound, bound, width=32), st.sampled_from(specials))
    return st.one_of(
        hnp.arrays(np.float32, shape, elements=value),
        value.map(lambda v: np.full(shape, v, dtype=np.float32)),
    )


MAPS = st.tuples(st.integers(1, 6), st.integers(1, 6))
LOGITS = MAPS.flatmap(lambda shape: arrays(shape, 100.0, SATURATED))


def references(dim):
    """Embeddings: an all-zero draw becomes all ones, so that few draws are
    refused for a zero norm (``test_refusals_match_the_chain`` has those)."""
    return arrays((dim,), 10.0).map(lambda r: r if r.any() else r + 1)


def targets(shape):
    """Binary masks, as training and the pseudo-label use, or soft ones."""
    hard = hnp.arrays(np.float32, shape, elements=st.sampled_from([0.0, 1.0]))
    return st.one_of(hard, hnp.arrays(np.float32, shape, elements=st.floats(0, 1, width=32)))


def _run(ops, build, leaves):
    """Value dtype and bytes of ``build(ops, tensors)`` and every leaf's .grad
    bytes after a backward pass, or the refusal's type and message."""
    tensors = {name: Tensor(data, requires_grad=grad) for name, (data, grad) in leaves.items()}
    try:
        out = build(ops, tensors)
    except (ValidationError, DimensionError) as exc:
        return type(exc), str(exc)
    if out.requires_grad:
        backward(out * 0.7 if out.data.ndim == 0 else (out * out).sum())
    grads = {n: None if t.grad is None else t.grad.tobytes() for n, t in tensors.items()}
    return out.data.dtype, np.asarray(out.data).tobytes(), grads


def assert_fused_equals_chain(build, leaves):
    assert _run(FUSED, build, leaves) == _run(CHAIN, build, leaves)


class TestLossNodes:
    @EXAMPLES
    @given(st.data(), st.sampled_from([0.0, 1.0, 0.25]), st.booleans())
    def test_dice(self, data, smooth, grad):
        z = data.draw(LOGITS)
        t = data.draw(targets(z.shape))
        assert_fused_equals_chain(lambda ops, v: ops.dice(v["z"], t, smooth), {"z": (z, grad)})

    @EXAMPLES
    @given(st.data(), st.booleans())
    def test_cross_entropy(self, data, grad):
        z = data.draw(LOGITS)
        t = data.draw(targets(z.shape))
        assert_fused_equals_chain(lambda ops, v: ops.cross_entropy(v["z"], t), {"z": (z, grad)})

    @EXAMPLES
    @given(st.data(), st.sampled_from([0.0, 1.0, 1.5, 2.0]), st.booleans())
    def test_focal(self, data, gamma, grad):
        z = data.draw(LOGITS)
        t = data.draw(targets(z.shape))
        assert_fused_equals_chain(lambda ops, v: ops.focal(v["z"], t, gamma), {"z": (z, grad)})

    @EXAMPLES
    @given(LOGITS, st.sampled_from([0.01, 0.5, 0.7, 1.0]), st.booleans())
    def test_confident_entropy(self, z, fraction, grad):
        assert_fused_equals_chain(lambda ops, v: ops.entropy(v["z"], fraction), {"z": (z, grad)})

    @EXAMPLES
    @given(st.data(), st.integers(1, 32), st.integers(1, 8), st.sampled_from([0.1, 1.0]), st.booleans())
    def test_slice_contrastive(self, data, dim, count, temperature, grad):
        anchor = data.draw(references(dim))
        refs = [data.draw(references(dim)) for _ in range(count + 1)]
        as_tensor = data.draw(st.booleans())  # references may come as detached tensors
        positive, *negatives = [Tensor(r) if as_tensor else r for r in refs]

        def build(ops, v):
            return ops.contrastive(v["anchor"], positive, negatives, temperature)

        assert_fused_equals_chain(build, {"anchor": (anchor, grad)})

    @pytest.mark.parametrize("temperature", [0.01, 0.02])
    def test_slice_contrastive_in_the_log_clamp(self, temperature):
        # Every reference points away from the anchor, so the sum of the
        # exponentials falls below LOG_CLAMP and only the positive's flow
        # reaches the anchor: none reaches its third coordinate.
        anchor = np.array([1.0, 2.0, -0.0, 0.5], np.float32)
        away = np.array([0.0, 0.0, 0.5, 0.0], np.float32)
        positive, *negatives = -anchor, away - anchor, 2 * away - 3 * anchor

        def build(ops, v):
            return ops.contrastive(v["anchor"], positive, negatives, temperature)

        assert_fused_equals_chain(build, {"anchor": (anchor, True)})

    @EXAMPLES
    @given(st.data(), st.integers(1, 6), st.integers(2, 5), st.lists(st.booleans(), min_size=2, max_size=2))
    def test_ttda_objective(self, data, dim, count, mask):
        # TTDA's weighted sum: entropy and proximity share the logits, and
        # the contrastive anchor is the mean of the dense embedding.
        z = data.draw(LOGITS)
        snapshot = data.draw(arrays(z.shape, 100.0, SATURATED))
        dense = data.draw(arrays((3, dim), 10.0))
        refs = [data.draw(references(dim)) for _ in range(count)]
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.1, 1.0]), min_size=3, max_size=3))

        def build(ops, v):
            terms = [
                (weights[0], ops.entropy(v["z"], 0.7)),
                (weights[1], ops.proximity(v["z"], snapshot, gamma=2.0, smooth=1.0)),
                (weights[2], ops.contrastive(v["dense"].mean(axis=0), refs[0], refs[1:], 0.1)),
            ]
            return weighted_sum(terms) or Tensor(np.float32(0.0))

        assert_fused_equals_chain(build, {"z": (z, mask[0]), "dense": (dense, mask[1])})

    @EXAMPLES
    @given(st.data(), st.lists(st.booleans(), min_size=2, max_size=2))
    def test_supervised(self, data, mask):
        z = data.draw(LOGITS)
        t = data.draw(targets(z.shape))
        iou = data.draw(arrays((), 2.0))
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=3, max_size=3))
        cfg = LossConfig(*weights)
        parts = []

        def build(ops, v):
            total, named = ops.supervised(v["z"], v["iou"], t, cfg)
            parts.append(named)
            return total

        assert_fused_equals_chain(build, {"z": (z, mask[0]), "iou": (iou, mask[1])})
        assert parts[0] == parts[1]


def _refused_calls():
    z, ones = Tensor(np.zeros((2, 3), np.float32)), np.ones(4, np.float32)
    anchor = Tensor(ones)
    return [
        ("dice", lambda ops: ops.dice(z, np.zeros((3, 2)))),
        ("cross_entropy", lambda ops: ops.cross_entropy(z, np.zeros(6))),
        ("focal", lambda ops: ops.focal(z, np.zeros((2, 3)), gamma=-1.0)),
        ("focal_shape", lambda ops: ops.focal(z, np.zeros((2, 2)))),
        ("entropy_low", lambda ops: ops.entropy(z, 0.0)),
        ("entropy_high", lambda ops: ops.entropy(z, 1.5)),
        ("temperature", lambda ops: ops.contrastive(anchor, ones, [ones], temperature=0.0)),
        ("no_negatives", lambda ops: ops.contrastive(anchor, ones, [])),
        ("anchor_rank", lambda ops: ops.contrastive(Tensor(np.ones((2, 2))), ones, [ones])),
        ("anchor_zero", lambda ops: ops.contrastive(Tensor(np.zeros(4)), ones, [ones])),
        ("positive_zero", lambda ops: ops.contrastive(anchor, np.zeros(4), [ones])),
        ("negative_zero", lambda ops: ops.contrastive(anchor, ones, [ones, Tensor(np.zeros(4))])),
        ("negative_shape", lambda ops: ops.contrastive(anchor, ones, [ones, np.ones(3)])),
    ]


REFUSED_CALLS = _refused_calls()


@pytest.mark.parametrize("name, call", REFUSED_CALLS, ids=[n for n, _ in REFUSED_CALLS])
def test_refusals_match_the_chain(name, call):
    refusals = []
    for ops in (FUSED, CHAIN):
        with pytest.raises((ValidationError, DimensionError)) as info:
            call(ops)
        refusals.append((info.type, str(info.value)))
    assert refusals[0] == refusals[1]


class TestAttentionAndLinear:
    @EXAMPLES
    @given(st.data(), st.sampled_from([1, 2, 4]), st.integers(1, 5), st.integers(1, 5))
    def test_attention(self, data, heads, n_q, n_k):
        shapes = {"q": (n_q, 4), "k": (n_k, 4), "v": (n_k, 8)}
        leaves = {n: (data.draw(arrays(s, 10.0)), data.draw(st.booleans())) for n, s in shapes.items()}

        def build(ops, v):
            return ops.attention(v["q"], v["k"], v["v"], heads, 0.5)

        assert_fused_equals_chain(build, leaves)

    @EXAMPLES
    @given(st.data(), st.booleans(), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
    def test_linear(self, data, with_delta, n, k, d):
        shapes = {"x": (n, k), "w": (k, d), "b": (d,), "delta": (n, d)}
        leaves = {n: (data.draw(arrays(s, 10.0)), data.draw(st.booleans())) for n, s in shapes.items()}

        def build(ops, v):
            return ops.linear(v["x"], v["w"], v["b"], v["delta"] if with_delta else None)

        assert_fused_equals_chain(build, leaves)


GRADCHECKS = {
    "dice": lambda z, t: dice_loss(z, t, smooth=1.0),
    "cross_entropy": cross_entropy_loss,
    "focal": lambda z, t: focal_loss(z, t, gamma=2.0),
    "focal_gamma_zero": lambda z, t: focal_loss(z, t, gamma=0.0),
    "entropy": lambda z, t: confident_entropy_loss(z, 0.7),
    "entropy_all": lambda z, t: confident_entropy_loss(z, 1.0),
}


@pytest.mark.parametrize("name", list(GRADCHECKS))
def test_loss_node_gradcheck(name):
    reg = ParameterRegistry(dtype=np.float64)
    reg.add("z", (4, 5), Init.normal(2.0))
    reg.initialize(seed=31)
    t = (np.random.default_rng(32).random((4, 5)) > 0.5).astype(np.float64)
    loss = GRADCHECKS[name]
    assert finite_diff_check(lambda: loss(reg.get("z"), t), reg, coords_per_param=20) <= 1e-6


def test_contrastive_node_gradcheck():
    rng = np.random.default_rng(33)
    positive, negatives = rng.normal(size=6), [rng.normal(size=6) for _ in range(3)]
    reg = ParameterRegistry(dtype=np.float64)
    reg.add("anchor", (6,), Init.normal(1.0))
    reg.initialize(seed=34)

    def f():
        return slice_contrastive_loss(reg.get("anchor"), positive, negatives, temperature=0.5)

    assert finite_diff_check(f, reg, coords_per_param=6) <= 1e-6


@pytest.mark.parametrize("grad", [False, True])
def test_the_proximity_sum_keeps_two_nodes_and_an_add(grad):
    # focal + dice stays a sum of two nodes, so the three flows into the
    # logits (entropy's, focal's, dice's) meet in the tape's own order.
    z = Tensor(np.zeros((2, 2), np.float32), requires_grad=grad)
    out = proximity_loss(z, np.ones((2, 2)))
    assert len(out._parents) == (2 if grad else 0)
    assert all(p._parents == (z,) for p in out._parents)
