"""Convolution and pooling primitives (im2col/col2im based).

The forward lowers each convolution to one large matrix multiply — the
standard im2col trick — which is the only way to get competitive
throughput from numpy.  The backward reuses the saved column matrix for
the weight gradient and scatter-adds the column gradient back into the
(padded) input with a small loop over kernel offsets.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.autograd.function import Function
from repro.autograd.tensor import Tensor, as_tensor
from repro.errors import ShapeError

__all__ = ["as_pair", "avg_pool2d", "conv2d", "max_pool2d"]

IntPair = int | tuple[int, int]


def as_pair(value: IntPair, name: str) -> tuple[int, int]:
    """Normalise an int-or-pair geometry argument to a 2-tuple of ints."""
    if isinstance(value, int):
        return (value, value)
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ShapeError(f"{name} must be an int or 2-tuple, got {value!r}")
    return pair


# Internal alias kept for the call sites below.
_pair = as_pair


def _out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output size {out} for input {size}, kernel {kernel}, "
            f"stride {stride}, padding {padding}"
        )
    return out


def _pad_spatial(x: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)


def _strided_windows(
    x: np.ndarray, kh: int, kw: int, sh: int, sw: int
) -> np.ndarray:
    """View of shape (N, C, OH, OW, kh, kw) over a padded NCHW array."""
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    return windows[:, :, ::sh, ::sw]


def _scatter_windows(
    grad_windows: np.ndarray,
    in_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
) -> np.ndarray:
    """col2im: scatter-add window gradients back into the input layout.

    ``grad_windows`` has shape (N, C, kh, kw, OH, OW).  Overlapping windows
    (stride < kernel) accumulate correctly because each kernel offset is
    added separately.
    """
    n, c, h, w = in_shape
    oh, ow = grad_windows.shape[-2:]
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=grad_windows.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += grad_windows[
                :, :, i, j
            ]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


def _col2im(
    grad_cols: np.ndarray,
    in_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    ph: int,
    pw: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Input gradient from the position-major patch-matrix gradient.

    ``grad_cols`` is ``(N*OH*OW, C*kh*kw)``, laid out like the forward's
    column matrix.  Scatter-adds in channels-last layout, whose rows are
    contiguous in both operands, one kernel offset at a time in the same
    ``(ki, kj)`` order as :func:`_scatter_windows` — so every element
    sums the same terms in the same order — then lays the result out
    exactly as :func:`_scatter_windows` returns it (NCHW, a view into
    the padded buffer when padded): bit-identical, with no 6-D
    transpose of the column gradient first.
    """
    n, c, h, w = in_shape
    grad6 = grad_cols.reshape(n, oh, ow, c, kh, kw)
    channels_last = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=grad_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            channels_last[
                :, i : i + sh * oh : sh, j : j + sw * ow : sw
            ] += grad6[:, :, :, :, i, j]
    padded = np.ascontiguousarray(channels_last.transpose(0, 3, 1, 2))
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + h, pw : pw + w]


class _Conv2d(Function):
    """2-D cross-correlation (the deep-learning "convolution").

    Supports grouped convolution: with G groups the input channels split
    into G blocks of C/G, the O filters into G blocks of O/G, and block g
    of the output sees only block g of the input (``groups == C`` is the
    depthwise convolution of the MobileNet family).  ``groups == 1`` runs
    the plain single-GEMM path; grouped shapes use one batched einsum.
    """

    def forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None,
        stride: tuple[int, int],
        padding: tuple[int, int],
        groups: int = 1,
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"conv2d expects NCHW input, got {x.ndim}-D")
        if weight.ndim != 4:
            raise ShapeError(f"conv2d expects OIHW weight, got {weight.ndim}-D")
        if groups < 1:
            raise ShapeError(f"groups must be >= 1, got {groups}")
        if x.shape[1] != weight.shape[1] * groups:
            raise ShapeError(
                f"input channels {x.shape[1]} != weight in-channels "
                f"{weight.shape[1]} x groups {groups}"
            )
        if weight.shape[0] % groups:
            raise ShapeError(
                f"out-channels {weight.shape[0]} not divisible by groups {groups}"
            )
        n, c, h, w = x.shape
        out_channels, _, kh, kw = weight.shape
        sh, sw = stride
        ph, pw = padding
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)

        padded = _pad_spatial(x, ph, pw)
        windows = _strided_windows(padded, kh, kw, sh, sw)
        if groups == 1:
            # (N, C, OH, OW, kh, kw) -> (N*OH*OW, C*kh*kw)
            cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
                n * oh * ow, c * kh * kw
            )
            w_mat = weight.reshape(out_channels, -1)
            out = cols @ w_mat.T
        else:
            cg = c // groups
            og = out_channels // groups
            # (N, C, OH, OW, kh, kw) -> (P, G, Cg*kh*kw), channel blocks
            # stay contiguous because C = G*Cg in group order.
            cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
                n * oh * ow, groups, cg * kh * kw
            )
            w_mat = weight.reshape(groups, og, cg * kh * kw)
            out = np.einsum("pgk,gok->pgo", cols, w_mat).reshape(
                n * oh * ow, out_channels
            )
        if bias is not None:
            out += bias
        out = out.reshape(n, oh, ow, out_channels).transpose(0, 3, 1, 2)

        self.has_bias = bias is not None
        self.stride, self.padding = stride, padding
        self.groups = groups
        self.in_shape = x.shape
        self.weight_shape = weight.shape
        self.save_for_backward(cols, w_mat)
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray | None, ...]:
        cols, w_mat = self.saved
        n, _, oh, ow = grad_out.shape
        out_channels, _, kh, kw = self.weight_shape
        c = self.in_shape[1]
        sh, sw = self.stride
        ph, pw = self.padding
        groups = self.groups

        grad_mat = np.ascontiguousarray(grad_out.transpose(0, 2, 3, 1)).reshape(
            n * oh * ow, out_channels
        )
        if groups == 1:
            grad_weight = (grad_mat.T @ cols).reshape(self.weight_shape)
            grad_cols = grad_mat @ w_mat
        else:
            og = out_channels // groups
            grad3 = grad_mat.reshape(n * oh * ow, groups, og)
            grad_weight = np.einsum("pgo,pgk->gok", grad3, cols).reshape(
                self.weight_shape
            )
            grad_cols = np.einsum("pgo,gok->pgk", grad3, w_mat).reshape(
                n * oh * ow, c * kh * kw
            )
        grad_x = _col2im(grad_cols, self.in_shape, kh, kw, sh, sw, ph, pw, oh, ow)
        if self.has_bias:
            grad_bias = grad_mat.sum(axis=0)
            return grad_x, grad_weight, grad_bias
        return grad_x, grad_weight


class _MaxPool2d(Function):
    def forward(
        self,
        x: np.ndarray,
        kernel: tuple[int, int],
        stride: tuple[int, int],
        padding: tuple[int, int],
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"max_pool2d expects NCHW input, got {x.ndim}-D")
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        n, c, h, w = x.shape
        oh = _out_size(h, kh, sh, ph)
        ow = _out_size(w, kw, sw, pw)
        padded = _pad_spatial(x, ph, pw, fill=-np.inf)
        windows = _strided_windows(padded, kh, kw, sh, sw)
        flat = np.ascontiguousarray(windows).reshape(n, c, oh, ow, kh * kw)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]

        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        self.save_for_backward(argmax)
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        (argmax,) = self.saved
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, oh, ow = grad_out.shape
        flat = np.zeros((n, c, oh, ow, kh * kw), dtype=grad_out.dtype)
        np.put_along_axis(flat, argmax[..., None], grad_out[..., None], axis=-1)
        grad_windows = flat.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 4, 5, 2, 3)
        grad_x = _scatter_windows(
            np.ascontiguousarray(grad_windows), self.in_shape, kh, kw, sh, sw, ph, pw
        )
        return (grad_x,)


class _AvgPool2d(Function):
    def forward(
        self,
        x: np.ndarray,
        kernel: tuple[int, int],
        stride: tuple[int, int],
        padding: tuple[int, int],
    ) -> np.ndarray:
        if x.ndim != 4:
            raise ShapeError(f"avg_pool2d expects NCHW input, got {x.ndim}-D")
        kh, kw = kernel
        sh, sw = stride
        ph, pw = padding
        n, c, h, w = x.shape
        _out_size(h, kh, sh, ph)
        _out_size(w, kw, sw, pw)
        padded = _pad_spatial(x, ph, pw)
        windows = _strided_windows(padded, kh, kw, sh, sw)
        out = windows.mean(axis=(-2, -1))

        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.in_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray]:
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.padding
        n, c, oh, ow = grad_out.shape
        share = grad_out / float(kh * kw)
        grad_windows = np.broadcast_to(
            share[:, :, None, None, :, :], (n, c, kh, kw, oh, ow)
        )
        grad_x = _scatter_windows(
            np.ascontiguousarray(grad_windows), self.in_shape, kh, kw, sh, sw, ph, pw
        )
        return (grad_x,)


def conv2d(
    x: Any,
    weight: Any,
    bias: Any = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution over an NCHW tensor with an OIHW weight.

    ``groups > 1`` runs a grouped convolution (weight in-channels are
    per-group: shape ``(O, C/groups, kh, kw)``); ``groups == C`` is the
    depthwise convolution.
    """
    stride = _pair(stride, "stride")
    padding = _pair(padding, "padding")
    if bias is None:
        return _Conv2d.apply(
            as_tensor(x), as_tensor(weight), None, stride, padding, int(groups)
        )
    return _Conv2d.apply(
        as_tensor(x), as_tensor(weight), as_tensor(bias), stride, padding, int(groups)
    )


def max_pool2d(
    x: Any, kernel: IntPair, stride: IntPair | None = None, padding: IntPair = 0
) -> Tensor:
    """Max pooling; ``stride`` defaults to the kernel size."""
    kernel = _pair(kernel, "kernel")
    stride = kernel if stride is None else _pair(stride, "stride")
    padding = _pair(padding, "padding")
    return _MaxPool2d.apply(as_tensor(x), kernel, stride, padding)


def avg_pool2d(
    x: Any, kernel: IntPair, stride: IntPair | None = None, padding: IntPair = 0
) -> Tensor:
    """Average pooling; ``stride`` defaults to the kernel size.

    Padding zeros are included in the divisor (PyTorch's
    ``count_include_pad=True`` default).
    """
    kernel = _pair(kernel, "kernel")
    stride = kernel if stride is None else _pair(stride, "stride")
    padding = _pair(padding, "padding")
    return _AvgPool2d.apply(as_tensor(x), kernel, stride, padding)
