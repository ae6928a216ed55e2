"""Independent oracle implementations used to check the real code.

Value oracles are deliberately naive (nested loops, python ints) and share
no code with the package. The gradient oracle is central finite differences
on float64 tensors. Exact-equality comparisons against BLAS-backed code use
integer-valued float64 inputs, where every intermediate sum is exact in
binary64 so reassociation cannot change the result.
"""

import gzip
import struct
import types

import numpy as np

from segforge.tensor import Tensor, backward, no_grad

FD_H = 1e-5
REL_TOL = 1e-4
REL_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# value oracles


def naive_conv2d(x, w, b=None, stride=1, padding=0):
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    assert ic == c
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for oi in range(oc):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (xp[ni, ci, yi * stride + ky, xi * stride + kx]
                                        * w[oi, ci, ky, kx])
                    if b is not None:
                        acc += b[oi]
                    out[ni, oi, yi, xi] = acc
    return out


def naive_conv2d_input_grad(g, w, x_shape, stride=1, padding=0):
    """Gradient of sum(naive_conv2d(x, w) * g) with respect to x."""
    n, c, h, wd = x_shape
    _, _, kh, kw = w.shape
    gxp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding), dtype=g.dtype)
    for ni, oi, yi, xi in np.ndindex(*g.shape):
        gxp[ni, :, yi * stride:yi * stride + kh, xi * stride:xi * stride + kw] += \
            g[ni, oi, yi, xi] * w[oi]
    return gxp[:, :, padding:padding + h, padding:padding + wd]


def naive_maxpool2d(x, kernel, stride, padding=0):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    best = -np.inf
                    for ky in range(kernel):
                        for kx in range(kernel):
                            v = xp[ni, ci, yi * stride + ky, xi * stride + kx]
                            if v > best:
                                best = v
                    out[ni, ci, yi, xi] = best
    return out


def naive_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=a.dtype)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


# ---------------------------------------------------------------------------
# im2col reference: the NCHW window-copy lowering conv2d used for every kernel
# before 3x3 kernels got their own gather. The package must reproduce it bit
# for bit: the same `cols` into the same GEMMs, gradients summed in the same
# order.


def window_im2col(x, ksize, osize, stride, padding):
    n, c, h, w = x.shape
    kh, kw = ksize
    oh, ow = osize
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)


def nchw_cols_to_image(gcols, x_shape, ksize, osize, stride, padding):
    n, c, h, w = x_shape
    kh, kw = ksize
    oh, ow = osize
    gc = gcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gc[:, :, :, :, i, j]
    return np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w])


def reference_conv2d(x, w, b, stride, padding, g):
    """conv2d on the reference lowering: (out, gx, gw, gb) for upstream gradient g."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    cols = window_im2col(x, (kh, kw), (oh, ow), stride, padding)
    wmat = w.reshape(oc, -1)
    flat = cols @ wmat.T
    if b is not None:
        flat += b
    out = np.ascontiguousarray(flat.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, oc)
    gw = (g2.T @ cols).reshape(w.shape)
    gb = g.sum(axis=(0, 2, 3)) if b is not None else None
    gx = nchw_cols_to_image(g2 @ wmat, x.shape, (kh, kw), (oh, ow), stride, padding)
    return out, gx, gw, gb


# ---------------------------------------------------------------------------
# metric oracles (pure python int counting)


def _flat_ints(arr):
    return [int(v) for v in np.asarray(arr).reshape(-1)]


def oracle_dice(pred, target, cls):
    p = _flat_ints(pred)
    t = _flat_ints(target)
    inter = sum(1 for a, b in zip(p, t) if a == cls and b == cls)
    psum = sum(1 for a in p if a == cls)
    tsum = sum(1 for b in t if b == cls)
    if psum + tsum == 0:
        return 1.0
    return 2.0 * inter / (psum + tsum)


def oracle_iou(pred, target, cls):
    p = _flat_ints(pred)
    t = _flat_ints(target)
    inter = sum(1 for a, b in zip(p, t) if a == cls and b == cls)
    union = sum(1 for a, b in zip(p, t) if a == cls or b == cls)
    if union == 0:
        return 1.0
    return inter / union


def oracle_mean_iou(pred, target, num_classes):
    scores = []
    p = _flat_ints(pred)
    t = _flat_ints(target)
    for cls in range(num_classes):
        inter = sum(1 for a, b in zip(p, t) if a == cls and b == cls)
        union = sum(1 for a, b in zip(p, t) if a == cls or b == cls)
        if union:
            scores.append(inter / union)
    return sum(scores) / len(scores)


def oracle_accuracy(pred, target):
    p = _flat_ints(pred)
    t = _flat_ints(target)
    return sum(1 for a, b in zip(p, t) if a == b) / len(p)


# ---------------------------------------------------------------------------
# optimizer reference: the whole-array Adam update that Adam.step replaced


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t of Adam on whole arrays, in place: the formula the chunked update keeps.

    A missing gradient counts as zeros. Returns nothing; params, m and v move.
    """
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name] if grads[name] is not None else np.zeros_like(p)
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * np.square(g)
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        p -= lr * mhat / (np.sqrt(vhat) + eps)


# ---------------------------------------------------------------------------
# NIfTI reference: the whole-blob reader that the streaming read_nifti replaced


def reference_read_nifti(path):
    """A well-formed single-file NIfTI-1 volume, decoded from the whole file at once.

    No validation: the file's bytes (gunzipped for .gz) are read in one call
    and the payload is taken with frombuffer, then converted to native byte
    order and scaled by scl_slope/scl_inter when the slope is nonzero.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        blob = fh.read()
    bo = "<" if struct.unpack_from("<i", blob, 0)[0] == 348 else ">"
    nx, ny, nz = struct.unpack_from(bo + "8h", blob, 40)[1:4]
    (datatype,) = struct.unpack_from(bo + "h", blob, 70)
    vox_offset, slope, inter = struct.unpack_from(bo + "3f", blob, 108)
    dtype = np.dtype({2: "u1", 4: "i2", 16: "f4", 512: "u2"}[datatype])
    raw = np.frombuffer(blob, dtype=dtype.newbyteorder(bo), count=nx * ny * nz,
                        offset=int(vox_offset))
    vol = raw.reshape(nz, ny, nx).astype(dtype)
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        vol = vol.astype(np.float32) * np.float32(slope) + np.float32(inter)
    return vol


# ---------------------------------------------------------------------------
# tape memory


def root_array(a):
    """The ndarray that owns a view's memory (the array itself if it owns it)."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def closure_arrays(fn):
    """Every ndarray a function's closure cells reach, through nested
    functions, tensors, tuples and lists."""
    seen, stack, found = set(), [fn], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, Tensor):
            stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType) and obj.__closure__:
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:   # a variable the function has not bound yet
                    pass
    return found


def tape_bytes(nodes, params=()):
    """Bytes of the distinct arrays a list of tape nodes keeps alive.

    Counts each node's inputs, output and every array its gradient rule's
    closure reaches, once per owning base array, leaving out the arrays of
    `params`.
    """
    skip = {id(root_array(p.data)) for p in params}
    roots = {}
    for node in nodes:
        arrays = [t.data for t in node.inputs] + [node.output.data]
        for a in arrays + closure_arrays(node.grad_fn):
            r = root_array(a)
            if id(r) not in skip:
                roots[id(r)] = r
    return sum(r.nbytes for r in roots.values())


# ---------------------------------------------------------------------------
# gradient oracle


def max_rel_err(analytic, numeric, floor=REL_FLOOR):
    """Worst relative disagreement, ignoring elements tiny on both sides."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > floor
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - numeric)[mask] / scale[mask]).max())


def central_diff(make_loss, tensor, h=FD_H):
    """Numeric gradient of a scalar-producing closure w.r.t. one tensor."""
    numeric = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    nflat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = make_loss().item()
            flat[i] = orig - h
            lm = make_loss().item()
            flat[i] = orig
            nflat[i] = (lp - lm) / (2.0 * h)
    return numeric


def grad_check(make_loss, tensors, h=FD_H, floor=REL_FLOOR):
    """Worst relative error between tape gradients and finite differences."""
    for t in tensors:
        t.grad = None
    loss = make_loss()
    backward(loss)
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = central_diff(make_loss, t, h)
        worst = max(worst, max_rel_err(analytic, numeric, floor))
    return worst


def he_init_module(module, seed, bias_scale=0.1):
    """Condition a Module for finite-difference checks.

    He-scaled conv/dense weights keep batch statistics away from the tiny
    variances that inflate FD truncation error; everything else gets small
    random values so no gradient path is identically zero.
    """
    rng = np.random.default_rng(seed)
    params = []
    for name, p in module.named_parameters():
        if name.endswith("weight") and p.ndim == 4:
            fan_in = p.shape[1] * p.shape[2] * p.shape[3]
            p.data = rng.normal(0.0, np.sqrt(2.0 / fan_in), p.shape)
        elif name.endswith("weight") and p.ndim == 2:
            p.data = rng.normal(0.0, np.sqrt(2.0 / p.shape[0]), p.shape)
        elif name.endswith("gamma"):
            # batch-norm scales near 1 keep activations O(1); scales near 0
            # shrink every preactivation into the FD noise floor
            p.data = rng.uniform(0.5, 1.5, p.shape)
        else:
            p.data = rng.normal(0.0, bias_scale, p.shape)
        p.requires_grad = True
        params.append(p)
    return params


def screened_bottleneck_instances(count, max_candidates=40):
    """Well-conditioned `(block, x, params)` triples for bottleneck FD checks.

    Candidates are screened on forward quantities only: every relu input
    must clear its kink by 2e-4 (probes can move a preactivation well past
    the raw step size), and every batch-norm channel needs input variance
    >= 0.02 (FD truncation error grows like 1/sigma^3 through the
    normalizer). Gradients play no part in the selection, so the screen
    cannot hide a wrong gradient formula.
    """
    from segforge.model import Bottleneck
    from segforge.tensor import Tensor, add, relu

    out = []
    for seed in range(max_candidates):
        if len(out) == count:
            break
        block = Bottleneck(8, 2, stride=1 + seed % 2, reduction=2)
        params = he_init_module(block, seed)
        x = Tensor(np.random.default_rng(seed + 300).normal(0, 1, (2, 8, 6, 6)),
                   requires_grad=True)
        with no_grad():
            c1 = block.conv1(x)
            a = block.bn1(c1, True, update_running=False)
            c2 = block.conv2(relu(a))
            b = block.bn2(c2, True, update_running=False)
            c3 = block.conv3(relu(b))
            variances = [c.data.var(axis=(0, 2, 3)).min() for c in (c1, c2, c3)]
            if block.down_conv is not None:
                dc = block.down_conv(x)
                variances.append(dc.data.var(axis=(0, 2, 3)).min())
                shortcut = block.down_bn(dc, True, update_running=False)
            else:
                shortcut = x
            gated = block.se(block.bn3(c3, True, update_running=False))
            pre = add(gated, shortcut)
            margin = min(float(np.abs(t.data).min()) for t in (a, b, pre))
        if margin >= 2e-4 and min(variances) >= 0.02:
            out.append((block, x, params))
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} well-conditioned bottleneck instances "
                           f"among {max_candidates} candidate seeds")
    return out
