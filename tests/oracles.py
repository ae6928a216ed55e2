"""Independent oracle implementations used to check the real code.

Value oracles are deliberately naive (nested loops, python ints) and share
no code with the package. The gradient oracle is central finite differences
on float64 tensors. Exact-equality comparisons against BLAS-backed code use
integer-valued float64 inputs, where every intermediate sum is exact in
binary64 so reassociation cannot change the result.
"""

import gzip
import io
import json
import os
import struct
import types

import numpy as np

from segforge.tensor import Tensor, backward, no_grad

FD_H = 1e-5
BN_EPS = 1e-5   # batch norm's epsilon, written out rather than imported from the package
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


def reference_eval_conv_bn(conv, bn, x, training, relu=False):
    """Eval-mode conv -> batch norm -> ReLU in float64, the BN left unfolded.

    Takes `segforge.model.conv_bn`'s arguments so a test can swap it in: the
    conv on the reference lowering, then (y - mu) / sqrt(var + eps) * gamma
    + beta per channel, then max(y, 0) when relu is set.
    """
    assert not training
    w = conv.weight.data.astype(np.float64)
    xd = x.data.astype(np.float64)
    n, _, h, wd = xd.shape
    oc, _, kh, kw = w.shape
    oh = (h + 2 * conv.padding - kh) // conv.stride + 1
    ow = (wd + 2 * conv.padding - kw) // conv.stride + 1
    cols = window_im2col(xd, (kh, kw), (oh, ow), conv.stride, conv.padding)
    y = (cols @ w.reshape(oc, -1).T).reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    if conv.bias is not None:
        y = y + conv.bias.data.astype(np.float64).reshape(1, oc, 1, 1)

    def chan(a):
        return np.asarray(a, dtype=np.float64).reshape(1, oc, 1, 1)

    y = (y - chan(bn.running_mean)) / np.sqrt(chan(bn.running_var) + BN_EPS)
    y = y * chan(bn.gamma.data) + chan(bn.beta.data)
    return Tensor(np.maximum(y, 0.0) if relu else y)


def reference_batch_norm(x, gamma, beta, running_mean, running_var, g, relu=False):
    """Train-mode batch norm on arrays, one fresh array per step: (out, gx, ggamma, gbeta).

    The formula batch_norm had before its rule wrote into reused buffers, for
    upstream gradient g; the running stats are updated in place as the
    package does. The package must reproduce every byte.
    """
    chan = (1, x.shape[1], 1, 1)
    m = x.size // x.shape[1]
    mu = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    running_mean *= 1.0 - 0.1
    running_mean += 0.1 * mu
    running_var *= 1.0 - 0.1
    running_var += 0.1 * var * (m / (m - 1.0))
    xhat = (x - mu.reshape(chan)) * invstd.reshape(chan)
    out = gamma.reshape(chan) * xhat + beta.reshape(chan)
    if relu:
        out = np.maximum(out, 0)
        g = g * (out > 0)
    gbeta = g.sum(axis=(0, 2, 3))
    ggamma = (g * xhat).sum(axis=(0, 2, 3))
    gxhat = g * gamma.reshape(chan)
    gx = (invstd.reshape(chan) / m) * (
        m * gxhat
        - gxhat.sum(axis=(0, 2, 3), keepdims=True)
        - xhat * (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    )
    return out, gx, ggamma, gbeta


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
# writer references: the copying writers that the streaming ones replaced.
# Each builds the whole file in memory (a tobytes() copy of every array, then
# one join) and returns its bytes; none validates its input.


def reference_checkpoint_bytes(config, arrays, epoch=0, best=None, optimizer_step=0):
    """A checkpoint of `arrays` (stored name -> array, in file order)."""
    codes = {"float32": (0, "<f4"), "float64": (1, "<f8"), "uint8": (2, "u1"),
             "int64": (3, "<i8")}
    meta = {"epoch": int(epoch), "best": best, "optimizer_step": int(optimizer_step)}
    config_doc = json.dumps(config, sort_keys=True).encode("utf-8")
    meta_doc = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [b"SEGCKPT1", struct.pack("<I", 1),
             struct.pack("<I", len(config_doc)), config_doc,
             struct.pack("<I", len(meta_doc)), meta_doc,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        code, dtype = codes[arr.dtype.name]
        data = np.ascontiguousarray(arr, dtype=dtype)
        nbytes = name.encode("utf-8")
        parts += [struct.pack("<I", len(nbytes)), nbytes,
                  struct.pack("<BB", code, data.ndim),
                  struct.pack(f"<{data.ndim}I", *data.shape) if data.ndim else b"",
                  data.tobytes()]
    return b"".join(parts)


def reference_svol_bytes(array):
    """An svol file of `array`, stored as float32, uint8 or int16 by its dtype's kind."""
    arr = np.ascontiguousarray(array)
    code = {"f": 0, "u": 1, "i": 2}[arr.dtype.kind]
    arr = arr.astype({0: "<f4", 1: "u1", 2: "<i2"}[code], copy=False)
    return (b"SVOL0001" + struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
            + struct.pack("<B", code) + arr.tobytes())


def reference_nifti_bytes(volume, spacing=None, gz_path=None):
    """A NIfTI-1 file of a [D, H, W] volume, gzipped at level 1 when `gz_path` names it."""
    codes = {np.dtype("u1"): 2, np.dtype("i2"): 4, np.dtype("f4"): 16, np.dtype("u2"): 512}
    arr = np.ascontiguousarray(volume)
    if arr.dtype not in codes:
        arr = arr.astype("f4")
    base = np.dtype(arr.dtype.name)
    arr = arr.astype(base.newbyteorder("<"), copy=False)
    nz, ny, nx = arr.shape
    sd, sh, sw = spacing if spacing is not None else (1.0, 1.0, 1.0)
    hdr = bytearray(348)
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, codes[base])
    struct.pack_into("<h", hdr, 72, base.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, sw, sh, sd, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, 352.0)
    hdr[344:348] = b"n+1\x00"
    payload = bytes(hdr) + b"\x00\x00\x00\x00" + arr.tobytes()
    if gz_path is None:
        return payload
    buf = io.BytesIO()
    with gzip.GzipFile(os.fspath(gz_path), mode="wb", fileobj=buf, mtime=0,
                       compresslevel=1) as gz:
        gz.write(payload)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# slicing reference: the per-slice loop that the stacked extract_slices replaced


def normalize_modality(volume):
    """Z-score over nonzero (brain) voxels in float64; background zeros stay +0.0.

    A volume without a nonzero voxel is copied as it is, signed zeros kept;
    the std is floored at 1e-8.
    """
    vol = np.asarray(volume, dtype=np.float32)
    mask = vol != 0
    vals = vol[mask]
    if not vals.size:
        return vol.copy()
    out = np.zeros(vol.shape, dtype=np.float32)
    mu = vals.mean(dtype=np.float64)
    sigma = max(float(vals.std(dtype=np.float64)), 1e-8)
    out[mask] = ((vals - mu) / sigma).astype(np.float32)
    return out


def reference_extract_slices(sample, crop, min_foreground_fraction):
    """A case's kept axial slices as stacked (images [S,3,H,W], labels [S,H,W]).

    Each modality is z-scored over its whole volume's nonzero voxels
    (`normalize_modality`) and center-cropped; then one slice at a time is
    kept when its label foreground fraction reaches the threshold, and the
    kept slices are stacked.
    """
    d, h, w = sample.label.shape
    ch, cw = crop
    oh, ow = (h - ch) // 2, (w - cw) // 2
    normed = [normalize_modality(sample.modalities[name])[:, oh:oh + ch, ow:ow + cw]
              for name in ("t1ce", "t2", "flair")]
    labels = sample.label[:, oh:oh + ch, ow:ow + cw]
    images, kept = [], []
    for z in range(d):
        if int(np.count_nonzero(labels[z])) / (ch * cw) < min_foreground_fraction:
            continue
        images.append(np.stack([vol[z] for vol in normed]))
        kept.append(labels[z])
    if not kept:
        return np.zeros((0, 3, ch, cw), dtype=np.float32), np.zeros((0, ch, cw), dtype=np.uint8)
    return np.stack(images), np.stack(kept)


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
            a = block.bn1(c1, update_running=False)
            c2 = block.conv2(relu(a))
            b = block.bn2(c2, update_running=False)
            c3 = block.conv3(relu(b))
            variances = [c.data.var(axis=(0, 2, 3)).min() for c in (c1, c2, c3)]
            if block.down_conv is not None:
                dc = block.down_conv(x)
                variances.append(dc.data.var(axis=(0, 2, 3)).min())
                shortcut = block.down_bn(dc, update_running=False)
            else:
                shortcut = x
            gated = block.se(block.bn3(c3, update_running=False))
            pre = add(gated, shortcut)
            margin = min(float(np.abs(t.data).min()) for t in (a, b, pre))
        if margin >= 2e-4 and min(variances) >= 0.02:
            out.append((block, x, params))
    if len(out) < count:
        raise RuntimeError(f"only {len(out)} well-conditioned bottleneck instances "
                           f"among {max_candidates} candidate seeds")
    return out
