"""Layer library: convolution, batch norm, pooling, upsampling, concat, dense.

Every functional op records a single tape node with an analytic backward
rule. Convolution is cross-correlation (no kernel flip) over zero-padded
input; weights are OIHW. conv2d has two lowerings, chosen by shape alone.

Taps, for stride-1 convs with a kernel larger than 1x1 on input planes of
at least TAP_MIN_PLANE = 16x16 pixels (kn2row: Vasudevan, Anderson & Gregg,
arXiv:1704.04428). The input is padded once into a channel-major buffer
`xp` of shape (c, n*hp*wp + (kh-1)*wp + kw-1). Tap (i, j) of every output
pixel then sits at a fixed column offset i*wp + j, so the forward pass is
one (oc, c) @ (c, n*hp*wp) GEMM per tap on a contiguous slice of `xp`,
summed; the columns whose window crosses a padded image's edge are junk and
are cropped. Backward puts the upstream gradient on the same grid, zero in
the junk columns, and runs two GEMMs per tap: one for the tap's weight
gradient and one whose result is added into the input gradient at the
tap's offset. No 9x-inflated im2col matrix is built. The taps split each
output's reduction over (c, kh, kw) into kh*kw partial sums, so results
differ from im2col's in the last bits. On a 2-vCPU host with 2 OpenBLAS
threads, a (4,16,64x64)->8 3x3 conv took 2.0 ms forward and 5.0 ms backward
on taps, against 8.5 ms and 10.3 ms on im2col.
Below 16x16 the junk columns cost more than im2col saves: (2,256,8x8)->256
took 3.5 ms forward and 8.5 ms backward on taps, against 1.9 and 3.7 ms.

im2col, for every other conv: stride 2, 1x1, the 7x7 stem and 3x3 on 8x8
and 4x4 planes. Its rows are output pixels and its columns run in
(c, kh, kw) order, so the weight matrix is the OIHW tensor reshaped in
place. For 3x3 kernels the gather pads the input once into a channels-last
buffer and fills the (n, oh, ow, c, kh, kw) matrix with nine strided slice
copies, each running over channels. Other kernels copy a transposed
sliding-window view: on the 3-channel 7x7 stem (float32, 2 vCPU) the
window copy took 0.75 ms at (4,3,64x64) and 1.3 ms at (2,3,128x128),
against 2.6 and 10 ms for 49 slice copies. Both gathers build the same
matrix. col2im, for every kernel, adds the kh*kw slices back into a zeroed
channels-last buffer, row-major over (kh, kw), and transposes to NCHW once.

Backward on either lowering skips the input-gradient GEMMs (and col2im) when
the input needs no gradient. In a model only the stem's input, the image
batch, is such a tensor: the full stem (2,3,128x128)->64 took 3.2 ms
backward without them, against 14.1 ms with them.

What the tape keeps. Each node holds its inputs and its output, and its
gradient rule recomputes whatever else it needs from them instead of
keeping a second copy (recomputation in backward: Chen et al.,
arXiv:1604.06174):
- conv2d: nothing more. Backward rebuilds `xp` and the per-tap weights, or
  `cols`, with the forward's own code, one extra gather per conv.
- batch_norm: two per-channel vectors, the mean it subtracted (in eval
  mode a snapshot of the running mean) and 1/std. Backward recomputes
  `xhat` with the forward's subtraction and product, so it has the
  forward's bytes. With relu=True the ReLU runs in place on the output,
  which is the node's one activation, and the rule takes its mask from
  `out > 0` (In-Place Activated BatchNorm: Rota Bulo, Porzi & Kontschieder,
  arXiv:1712.02616). The model fuses every BN that a ReLU follows: the
  stem's, `bn1` and `bn2` of each bottleneck and both of each decoder stage.
- maxpool2d: the index of each window's maximum.
- upsample_nearest, concat_channels, global_avg_pool: nothing more.
One training-mode desk forward at N=4, 64x64 keeps 12.1 MB on the tape
(30.4 MB when batch norm kept `xhat`, each ReLU its mask and conv2d its
lowering), and one full-preset forward at N=2, 128x128 keeps 261 MB (519 MB),
parameters not counted. Recomputing is sound because no recorded array is
written in place before backward (see `tensor.backward`).
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError
from .tensor import Tensor, add, matmul, record

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
# stride-1 convs on input planes of at least this many pixels (16x16) run one
# GEMM per kernel tap; smaller planes and strided convs go through im2col
TAP_MIN_PLANE = 256


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ---------------------------------------------------------------------------
# functional ops


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of NCHW input with OIHW weights."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d needs rank-4 input and weight, got {x.shape}, {weight.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"invalid stride/padding: {stride}, {padding}")
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape} kernel {kh}x{kw}")
    if bias is not None and bias.shape != (oc,):
        raise ShapeError(f"conv2d bias must have shape ({oc},), got {bias.shape}")

    b = bias.data if bias is not None else None
    if stride == 1 and kh * kw > 1 and h * w >= TAP_MIN_PLANE:
        out, backprop = _tap_conv(x.data, weight.data, b, padding)
    else:
        out, backprop = _im2col_conv(x.data, weight.data, b, (oh, ow), stride, padding)

    def grad_fn(g):
        # the input gradient is skipped when nothing reads it (the image batch)
        gx, gw = backprop(g, x.requires_grad)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return record("conv2d", inputs, out, grad_fn)


def _im2col_conv(x, weight, b, osize, stride, padding):
    """Forward output and (gx, gw) rule of one conv as three GEMMs on `cols`.

    The rule takes the upstream gradient and whether gx is needed; without
    it, the gx GEMM and col2im are skipped and gx is None.
    """
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    oh, ow = osize
    wmat = weight.reshape(oc, -1)
    flat = _image_to_cols(x, (kh, kw), osize, stride, padding) @ wmat.T
    if b is not None:
        flat += b
    out = np.ascontiguousarray(flat.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))

    def backprop(g, need_gx):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, oc)
        # `cols` is rebuilt from x by the same gather rather than kept on the tape
        gw = (g2.T @ _image_to_cols(x, (kh, kw), osize, stride, padding)).reshape(weight.shape)
        if not need_gx:
            return None, gw
        gx = _cols_to_image(g2 @ wmat, x.shape, (kh, kw), osize, stride, padding)
        return gx, gw

    return out, backprop


def _tap_conv(x, weight, b, padding):
    """Forward output and (gx, gw) rule of a stride-1 conv as one GEMM per tap.

    `xp` holds the padded images channel-major, flattened to (c, n*hp*wp)
    plus a zero tail, so that tap (i, j) of output column q reads column
    q + i*wp + j: each tap is one GEMM on a contiguous slice of `xp`. Output
    columns whose window runs off a padded image are junk and are cropped.
    The rule's contract is the one of `_im2col_conv`.
    """
    n, c, h, w = x.shape
    oc, _, kh, kw = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = hp - kh + 1, wp - kw + 1
    m = n * hp * wp
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]

    def operands():
        # built in the forward pass and rebuilt in backward, never kept
        xp = np.zeros((c, m + offsets[-1]), dtype=x.dtype)
        xp[:, :m].reshape(c, n, hp, wp)[:, :, padding:padding + h, padding:padding + w] = \
            x.transpose(1, 0, 2, 3)
        taps = np.ascontiguousarray(weight.transpose(2, 3, 0, 1)).reshape(kh * kw, oc, c)
        return xp, taps

    xp, taps = operands()
    acc = taps[0] @ xp[:, :m]
    tmp = np.empty_like(acc)
    for t in range(1, kh * kw):
        acc += np.matmul(taps[t], xp[:, offsets[t]:offsets[t] + m], out=tmp)
    out = np.ascontiguousarray(acc.reshape(oc, n, hp, wp)[:, :, :oh, :ow].transpose(1, 0, 2, 3))
    if b is not None:
        out += b.reshape(1, oc, 1, 1)

    def backprop(g, need_gx):
        xp, taps = operands()
        # g and gx on xp's grid, channels-last: zero in the junk rows of `gq`
        gq = np.zeros((m, oc), dtype=g.dtype)
        gq.reshape(n, hp, wp, oc)[:, :oh, :ow] = g.transpose(0, 2, 3, 1)
        gtaps = np.empty((kh * kw, c, oc), dtype=g.dtype)
        gxq = np.zeros((xp.shape[1], c), dtype=g.dtype) if need_gx else None
        tmp = np.empty((m, c), dtype=g.dtype)
        for t, off in enumerate(offsets):
            np.matmul(xp[:, off:off + m], gq, out=gtaps[t])
            if need_gx:
                gxq[off:off + m] += np.matmul(gq, taps[t], out=tmp)
        gw = np.ascontiguousarray(gtaps.reshape(kh, kw, c, oc).transpose(3, 2, 0, 1))
        if not need_gx:
            return None, gw
        gx = gxq[:m].reshape(n, hp, wp, c)[:, padding:padding + h, padding:padding + w]
        return np.ascontiguousarray(gx.transpose(0, 3, 1, 2)), gw

    return out, backprop


def _image_to_cols(x, ksize, osize, stride, padding):
    """im2col: [n*oh*ow, c*kh*kw] patch rows, columns in (c, kh, kw) order."""
    n, c, h, w = x.shape
    kh, kw = ksize
    oh, ow = osize
    if (kh, kw) == (3, 3):
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
        cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[..., i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
        return cols.reshape(n * oh * ow, c * kh * kw)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)


def _cols_to_image(gcols, x_shape, ksize, osize, stride, padding):
    """col2im: sum each patch-row gradient back onto its input pixels, NCHW out."""
    n, c, h, w = x_shape
    kh, kw = ksize
    oh, ow = osize
    gc = gcols.reshape(n, oh, ow, c, kh, kw)
    gxp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += gc[..., i, j]
    return np.ascontiguousarray(
        gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = BN_MOMENTUM, eps: float = BN_EPS,
               update_running: bool = True, relu: bool = False) -> Tensor:
    """Per-channel normalization, optionally followed by a ReLU in the same node.

    Train mode normalizes by batch statistics and (optionally) updates the
    running estimates in place; eval mode is a fixed affine map of the input.
    With relu=True the ReLU runs in place on the output, and the gradient
    rule takes its mask from `out > 0`. The rule recomputes `xhat` from the
    input with the forward's own ops, so the node keeps only per-channel
    vectors besides its input and output.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm needs rank-4 input, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm params must have shape ({c},)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError(f"batch_norm running stats must have shape ({c},)")
    chan = (1, c, 1, 1)

    if training:
        m = n * h * w
        if m < 2:
            raise ContractError("batch_norm train mode needs at least 2 values per channel")
        shift = x.data.mean(axis=(0, 2, 3))
        xhat = x.data - shift.reshape(chan)
        var = _centred_var(xhat)
        invstd = 1.0 / np.sqrt(var + eps)
        xhat *= invstd.reshape(chan)
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * shift
            running_var *= 1.0 - momentum
            running_var += momentum * var * (m / (m - 1.0))
    else:
        # a snapshot: a later train-mode call updates running_mean in place
        shift = running_mean.copy()
        invstd = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - shift.reshape(chan)) * invstd.reshape(chan)

    out = gamma.data.reshape(chan) * xhat + beta.data.reshape(chan)
    if relu:
        np.maximum(out, 0, out=out)

    def grad_fn(g):
        if relu:
            g = g * (out > 0)
        xhat = (x.data - shift.reshape(chan)) * invstd.reshape(chan)
        gbeta = g.sum(axis=(0, 2, 3))
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        if training:
            m = n * h * w
            gxhat = g * gamma.data.reshape(chan)
            gx = (invstd.reshape(chan) / m) * (
                m * gxhat
                - gxhat.sum(axis=(0, 2, 3), keepdims=True)
                - xhat * (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
            )
        else:
            gx = g * (gamma.data * invstd).reshape(chan)
        return gx, ggamma, gbeta

    return record("batch_norm", (x, gamma, beta), out, grad_fn)


def _centred_var(xc):
    """Per-channel variance of an NCHW array already centred by its mean.

    np.var's own steps after its subtraction (square, sum, divide by an intp
    count), so the result has `x.var(axis=(0, 2, 3))`'s bytes.
    """
    var = np.square(xc).sum(axis=(0, 2, 3))
    return np.true_divide(var, np.intp(xc.size // xc.shape[1]), out=var, casting="unsafe")


def maxpool2d(x: Tensor, kernel: int, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    """Per-window maximum; ties route gradient to the first (row-major) index."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d needs rank-4 input, got {x.shape}")
    if stride is None:
        stride = kernel
    if kernel < 1 or stride < 1 or padding < 0 or padding >= kernel:
        raise ContractError(f"invalid pool kernel/stride/padding: {kernel}, {stride}, {padding}")
    n, c, h, w = x.shape
    if h < kernel or w < kernel:
        raise ShapeError(f"pool window {kernel} larger than input {h}x{w}")
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    oh = conv_out_size(h, kernel, stride, padding)
    ow = conv_out_size(w, kernel, stride, padding)
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])
    hp, wp = h + 2 * padding, w + 2 * padding

    def grad_fn(g):
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        rows = np.arange(oh)[None, None, :, None] * stride + arg // kernel
        cols = np.arange(ow)[None, None, None, :] * stride + arg % kernel
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(gxp, (ni, ci, rows, cols), g)
        if padding:
            return (np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w]),)
        return (gxp,)

    return record("maxpool2d", (x,), out, grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [N,C,H,W] -> [N,C,1,1]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool needs rank-4 input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def grad_fn(g):
        return (np.ascontiguousarray(np.broadcast_to(g / (h * w), x.shape)),)

    return record("global_avg_pool", (x,), out, grad_fn)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel into a factor x factor block."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest needs rank-4 input, got {x.shape}")
    if int(factor) != factor or factor < 1:
        raise ContractError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def grad_fn(g):
        # strided adds, row by row, then the row sums: 10-15x faster than a
        # reshape-sum, and for factor 2 ((g00+g01)+(g10+g11)) the one pairing
        # that reproduces its rounding bit for bit
        rows = (reduce(np.add, (g[:, :, i::factor, j::factor] for j in range(factor)))
                for i in range(factor))
        return (reduce(np.add, rows),)

    return record("upsample_nearest", (x,), out, grad_fn)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Channel concatenation of two NCHW tensors with equal N, H, W."""
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"concat_channels needs rank-4 inputs, got {a.shape}, {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels batch/spatial mismatch: {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def grad_fn(g):
        return (np.ascontiguousarray(g[:, :ca]), np.ascontiguousarray(g[:, ca:]))

    return record("concat_channels", (a, b), out, grad_fn)


def dense(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map x @ W + b for [N,K] input and [K,M] weight."""
    y = matmul(x, weight)
    if bias is None:
        return y
    if bias.ndim != 1 or bias.shape[0] != weight.shape[1]:
        raise ShapeError(f"dense bias must have shape ({weight.shape[1]},), got {bias.shape}")
    return add(y, bias)


# ---------------------------------------------------------------------------
# parameter-holding layers


class Module:
    """Minimal parameter container; children are discovered from attributes."""

    _buffers: tuple[str, ...] = ()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            yield from _walk_params(value, prefix + name)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for bname in self._buffers:
            yield prefix + bname, getattr(self, bname)
        for name, value in vars(self).items():
            yield from _walk_buffers(value, prefix + name)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _walk_params(value, path):
    if isinstance(value, Tensor):
        yield path, value
    elif isinstance(value, Module):
        yield from value.named_parameters(path + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk_params(item, f"{path}.{i}")


def _walk_buffers(value, path):
    if isinstance(value, Module):
        yield from value.named_buffers(path + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk_buffers(item, f"{path}.{i}")


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, dtype=np.float32):
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(np.zeros((out_channels, in_channels, kernel, kernel), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Module):
    _buffers = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = BN_EPS, momentum: float = BN_MOMENTUM,
                 dtype=np.float32):
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool = False,
                 update_running: Optional[bool] = None, relu: bool = False) -> Tensor:
        update = training if update_running is None else update_running
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=training, momentum=self.momentum, eps=self.eps,
                          update_running=update, relu=relu)


class Dense(Module):
    def __init__(self, in_features: int, out_features: int, dtype=np.float32):
        self.weight = Tensor(np.zeros((in_features, out_features), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)
