"""The lean tape: work that no trainable leaf feeds costs nothing in backward.

``tensor._node`` records a node only when a parent is on the tape, and each
gradient closure computes only the gradients its parents need.  Random
small float64 graphs, with random ``requires_grad`` masks on their leaves,
check both halves of that:

- every trainable leaf's gradient equals, bit for bit, its gradient from
  the same graph with every leaf trainable, and a leaf that does not train
  gets none;
- a gradient closure runs for exactly the nodes that a trainable leaf
  feeds.

The graphs mix single matrices ``[n, k]`` with stacks of them ``[B, n, k]``
(``B`` of 1 or 2, a stack of one being the case ``_unbroadcast`` reshapes),
products of a stack with a shared ``[k, k]`` weight, and attention over a
stack's own keys or one shared set.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segadapt import tensor
from segadapt.tensor import Tensor, backward

N, K = 3, 4  # rows per matrix, width of every row

# The leaves a graph starts from, by kind: a matrix, a stack of matrices, a
# [K, K] weight, a [K] vector.
LEAF_KINDS = ("matrix", "stack", "weight", "vector")


@st.composite
def graphs(draw):
    """(B, leaf kinds, ops, value seed).  An op is (name, operand indices,
    heads): indices into the list of values, the leaves and then each op's
    output in turn, and the head count of an attention."""
    batch = draw(st.sampled_from((1, 2)))
    kinds = list(LEAF_KINDS) + draw(st.lists(st.sampled_from(LEAF_KINDS), max_size=4))
    ops = []

    def of(*wanted):
        return [i for i, kind in enumerate(kinds) if kind in wanted]

    def pick(*wanted):
        return draw(st.sampled_from(of(*wanted)))

    for _ in range(draw(st.integers(1, 10))):
        heads = None
        name = draw(st.sampled_from(
            ("add", "sub", "mul", "matmul", "linear", "layer_norm", "gelu", "sigmoid", "softmax",
             "neg", "stack", "attention", "weight_product")
        ))
        if name in ("add", "sub", "mul"):
            a, b = pick("matrix", "stack"), pick("matrix", "stack")
            out, operands = ("stack" if "stack" in (kinds[a], kinds[b]) else "matrix"), (a, b)
        elif name == "matmul":
            a = pick("matrix", "stack")
            out, operands = kinds[a], (a, pick("weight"))
        elif name == "linear":
            a = pick("matrix", "stack")
            delta = draw(st.sampled_from([(), *((i,) for i in of(kinds[a]))]))
            out, operands = kinds[a], (a, pick("weight"), pick("vector"), *delta)
        elif name == "layer_norm":
            a = pick("matrix", "stack")
            out, operands = kinds[a], (a, pick("vector"), pick("vector"))
        elif name in ("gelu", "sigmoid", "softmax", "neg"):
            a = pick("matrix", "stack")
            out, operands = kinds[a], (a,)
        elif name == "stack":
            out, operands = "stack", tuple(pick("matrix") for _ in range(batch))
        elif name == "attention":
            q = pick("matrix", "stack")
            own = kinds[q] == "stack" and draw(st.booleans())  # else one set for every image
            kv = "stack" if own else "matrix"
            out, operands, heads = kinds[q], (q, pick(kv), pick(kv)), draw(st.sampled_from((1, 2)))
        else:
            out, operands = "weight", (pick("weight"), pick("weight"))
        ops.append((name, operands, heads))
        kinds.append(out)
    n_leaves = len(kinds) - len(ops)
    return batch, kinds[:n_leaves], ops, draw(st.integers(0, 2**32 - 1))


SHAPES = {  # by kind, for a stack of B
    "matrix": lambda b: (N, K), "stack": lambda b: (b, N, K), "weight": lambda b: (K, K), "vector": lambda b: (K,),
}


def _apply(name, args, heads):
    if name == "attention":
        return tensor.attention(*args, heads, 0.5)
    if name == "stack":
        return tensor.stack(args)
    return {
        "add": tensor.add, "sub": tensor.sub, "mul": tensor.mul, "matmul": tensor.matmul, "linear": tensor.linear,
        "weight_product": tensor.matmul, "layer_norm": tensor.layer_norm, "gelu": tensor.gelu,
        "sigmoid": tensor.sigmoid, "softmax": tensor.softmax, "neg": tensor.neg,
    }[name](*args)


def _run(graph, trainable):
    """Build the graph over leaves that train where ``trainable`` says, run
    backward on a weighted sum of every op's output, and return the leaves
    and the indices of the ops whose gradient closure ran."""
    batch, kinds, ops, seed = graph
    rng = np.random.default_rng(seed)
    values = [
        Tensor(rng.uniform(-1, 1, SHAPES[kind](batch)), requires_grad=train)
        for kind, train in zip(kinds, trainable)
    ]
    ran = []
    loss = None
    for index, (name, operands, heads) in enumerate(ops):
        out = _apply(name, [values[i] for i in operands], heads)
        if out._grad_fn is not None:
            out._grad_fn = lambda g, closure=out._grad_fn, index=index: ran.append(index) or closure(g)
        values.append(out)
        weights = Tensor(rng.uniform(-1, 1, out.shape))  # a constant: trains in neither run
        term = tensor.reduce_sum(out * weights)
        loss = term if loss is None else loss + term
    backward(loss)
    return values[: len(kinds)], ran


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), data=st.data())
def test_lean_tape_gradients_equal_the_full_tape_and_skip_untrained_work(graph, data):
    _, kinds, ops, _ = graph
    trainable = data.draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    lean, ran = _run(graph, trainable)
    full, _ = _run(graph, [True] * len(kinds))

    def grad_bytes(leaf):
        return None if leaf.grad is None else leaf.grad.tobytes()

    # A leaf that no op reads gets no gradient in either run.
    assert [grad_bytes(leaf) for leaf in lean] == [
        grad_bytes(whole) if train else None for whole, train in zip(full, trainable)
    ]

    # An op is fed by a trainable leaf exactly when one of its operands is.
    fed = list(trainable)
    for _, operands, _ in ops:
        fed.append(any(fed[i] for i in operands))
    assert sorted(ran) == [i for i, feeds in enumerate(fed[len(kinds):]) if feeds]
