"""Reverse-mode autodiff core over numpy arrays.

Differentiable operations executed under an active :class:`Tape` append a
backward closure to it, in execution order.  ``backward(loss)`` replays the
closures in exact reverse execution order, which is a valid reverse
topological order of the recorded graph.  Tensors outside a tape context run
pure numpy forward math with no recording overhead.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

Scalar = Union[int, float]

_TAPE_STACK: list["Tape"] = []


def active_tape() -> Optional["Tape"]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of executed differentiable operations.

    One tape is meant to live for one training step: enter, build the loss,
    call :func:`backward`, leave.  Backward consumes the records.
    """

    def __init__(self) -> None:
        self._records: list = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        popped = _TAPE_STACK.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a tape that is not innermost")
        return False

    def record(self, backward_fn) -> None:
        self._records.append(backward_fn)

    def __len__(self) -> int:
        return len(self._records)


class Tensor:
    """A numpy array plus gradient bookkeeping.

    ``data`` is float32 or float64; training uses float32, gradient checks
    build float64 tensors.  ``grad`` stays ``None`` until backward reaches
    this tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, dtype=None) -> None:
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tape: Optional[Tape] = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub_from(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def sum(self) -> "Tensor":
        return tsum(self)

    def mean(self) -> "Tensor":
        return tmean(self)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __getitem__(self, idx) -> "Tensor":
        return getitem(self, idx)


def _finalize(out: Tensor, inputs: Sequence[Tensor], grad_fn) -> Tensor:
    """Attach `out` to the active tape when any input is differentiable.

    ``grad_fn(g)`` receives the gradient of `out`; the tape calls it only
    when backward reached `out`.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._tape = tape

        def backward_fn():
            if out.grad is not None:
                grad_fn(out.grad)

        tape.record(backward_fn)
    return out


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss: Tensor) -> None:
    """Populate gradients of everything that produced the scalar `loss`."""
    if loss.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise ValueError("backward target was not produced under an active Tape")
    loss.grad = np.ones_like(loss.data)
    for fn in reversed(tape._records):
        fn()
    tape._records.clear()


def _operand(a: Tensor, other) -> Tensor:
    """The second operand of a binary op as a Tensor: a tensor of `a`'s shape,
    or a python scalar as a 0-d constant of `a`'s dtype."""
    if isinstance(other, Tensor):
        if other.shape != a.shape:
            raise ValueError(f"shape mismatch in elementwise op: {a.shape} vs {other.shape}")
        return other
    if isinstance(other, (int, float, np.floating, np.integer)):
        return Tensor(np.asarray(float(other), dtype=a.dtype))
    raise TypeError(f"unsupported operand type {type(other)!r}")


def add(a: Tensor, other) -> Tensor:
    b = _operand(a, other)

    def grad_fn(g):
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return _finalize(Tensor(a.data + b.data), (a, b), grad_fn)


def sub(a: Tensor, other) -> Tensor:
    b = _operand(a, other)

    def grad_fn(g):
        accumulate_grad(a, g)
        if b.requires_grad:
            accumulate_grad(b, -g)

    return _finalize(Tensor(a.data - b.data), (a, b), grad_fn)


def sub_from(s: Scalar, a: Tensor) -> Tensor:
    """s - a for a python scalar s."""
    return _finalize(Tensor(float(s) - a.data), (a,), lambda g: accumulate_grad(a, -g))


def mul(a: Tensor, other) -> Tensor:
    b = _operand(a, other)

    def grad_fn(g):
        if a.requires_grad:
            accumulate_grad(a, g * b.data)
        if b.requires_grad:
            accumulate_grad(b, g * a.data)

    return _finalize(Tensor(a.data * b.data), (a, b), grad_fn)


def div(a: Tensor, other) -> Tensor:
    b = _operand(a, other)
    if b is not other:
        # By a scalar: multiply by its reciprocal, taken in double precision.
        return mul(a, 1.0 / float(other))

    def grad_fn(g):
        accumulate_grad(a, g / b.data)
        accumulate_grad(b, -g * a.data / (b.data * b.data))

    return _finalize(Tensor(a.data / b.data), (a, b), grad_fn)


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(dtype=a.data.dtype).reshape(()))
    return _finalize(
        out, (a,), lambda g: accumulate_grad(a, np.full_like(a.data, g.reshape(())))
    )


def tmean(a: Tensor) -> Tensor:
    n = a.size
    out = Tensor(a.data.mean(dtype=a.data.dtype).reshape(()))
    return _finalize(
        out, (a,), lambda g: accumulate_grad(a, np.full_like(a.data, g.reshape(()) / n))
    )


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape).copy())
    return _finalize(out, (a,), lambda g: accumulate_grad(a, g.reshape(a.shape)))


def getitem(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing; backward scatters into a zero grid."""

    def grad_fn(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        accumulate_grad(a, full)

    return _finalize(Tensor(np.ascontiguousarray(a.data[idx])), (a,), grad_fn)
