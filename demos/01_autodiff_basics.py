"""Tour of the tensor library: build a graph, differentiate it, check it, fit with AdamW."""

import numpy as np

from segadapt import (
    AdamWState,
    Init,
    ParameterRegistry,
    Tensor,
    adamw_step,
    backward,
    finite_diff_check,
    linear,
    matmul,
)

# forward arithmetic looks like numpy
x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
y = (x * x).sum()  # sum of squares
backward(y)
print("d(sum x^2)/dx =\n", x.grad)  # should be 2x

# gradients accumulate across backward calls until cleared
backward((x * x).sum())
print("after a second backward:\n", x.grad)  # now 4x

# the registry owns named parameters; gradcheck compares every registered
# gradient against central finite differences in float64
reg = ParameterRegistry(dtype=np.float64)
reg.add("w", (3, 2), Init.lecun())
reg.add("b", (2,), Init.zeros())
reg.initialize(seed=0)

data = np.random.default_rng(1).normal(size=(5, 3))


def objective():
    h = linear(Tensor(data), reg.get("w"), reg.get("b"))  # data @ w + b as one tape node
    return (h * h).sum()


err = finite_diff_check(objective, reg)
print(f"gradcheck: max rel err {err:.2e}")

# a tiny least-squares fit with the same optimizer the training loop uses
target = np.random.default_rng(2).normal(size=(5, 2))
opt = AdamWState(lr=0.05)
for step in range(200):
    pred = matmul(Tensor(data), reg.get("w"))
    loss = ((pred - Tensor(target)) * (pred - Tensor(target))).sum() * (1.0 / target.size)
    backward(loss)
    reg.fill_missing_grads()
    adamw_step(reg, opt)
    if step % 50 == 0:
        print(f"step {step:3d}  mse {float(loss.data):.5f}")
print(f"final mse {float(loss.data):.5f}")
