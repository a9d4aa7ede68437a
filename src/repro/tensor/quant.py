"""Symmetric group-wise linear quantization (Section 3.2).

KTransformers stores expert weights in Int8 or Int4 using symmetric
group-wise quantization: elements are split into groups of 32 along the
input dimension, each group shares one scale factor, and scales are stored
separately so the payload stays 64-byte aligned.  Int4 values are packed two
per byte and unpacked with SIMD intrinsics; here the packing is reproduced
bit-exactly with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuantizationError
from .dtypes import INT4, INT8, QUANT_GROUP_SIZE, DType


def _qmax(bits: int) -> int:
    """Largest magnitude representable by a signed ``bits``-bit integer."""
    return (1 << (bits - 1)) - 1


@dataclass
class QuantizedTensor:
    """A group-wise quantized matrix.

    ``payload`` is int8 and stores either Int8 values directly or two packed
    Int4 nibbles per byte.  ``scales`` has one float16 entry per group, with
    groups running along the last axis of the original tensor.
    """

    payload: np.ndarray
    scales: np.ndarray
    shape: tuple[int, ...]
    dtype: DType
    group_size: int

    def nbytes(self) -> int:
        return int(self.payload.nbytes + self.scales.nbytes)


def quantize(
    weights: np.ndarray,
    dtype: DType = INT8,
    group_size: int = QUANT_GROUP_SIZE,
) -> QuantizedTensor:
    """Quantize ``weights`` group-wise along the last axis.

    The last axis length must be a multiple of ``group_size`` (the tile
    layout guarantees this by padding to 64-byte rows first).
    """
    if dtype not in (INT8, INT4):
        raise QuantizationError(f"cannot quantize to {dtype.name}")
    if group_size <= 0:
        raise QuantizationError(f"group_size must be positive, got {group_size}")
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim == 0:
        raise QuantizationError("cannot quantize a scalar")
    last = w.shape[-1]
    if last % group_size != 0:
        raise QuantizationError(
            f"last axis ({last}) is not a multiple of group size {group_size}"
        )

    grouped = w.reshape(*w.shape[:-1], last // group_size, group_size)
    qmax = _qmax(dtype.bits)
    absmax = np.abs(grouped).max(axis=-1)
    scales = (absmax / qmax).astype(np.float32)
    # Avoid dividing by zero for all-zero groups; their values quantize to 0.
    safe_scales = np.where(scales == 0.0, 1.0, scales)
    q = np.rint(grouped / safe_scales[..., None]).astype(np.int32)
    q = np.clip(q, -qmax, qmax).astype(np.int8)
    q = q.reshape(w.shape)

    if dtype is INT4:
        payload = pack_int4(q)
    else:
        payload = q
    return QuantizedTensor(
        payload=payload,
        scales=scales.astype(np.float16),
        shape=w.shape,
        dtype=dtype,
        group_size=group_size,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct a float32 tensor from a :class:`QuantizedTensor`."""
    if qt.dtype is INT4:
        q = unpack_int4(qt.payload, qt.shape)
    else:
        q = qt.payload
    last = qt.shape[-1]
    grouped = q.astype(np.float32).reshape(
        *qt.shape[:-1], last // qt.group_size, qt.group_size
    )
    scales = qt.scales.astype(np.float32)[..., None]
    return (grouped * scales).reshape(qt.shape)


def pack_int4(values: np.ndarray) -> np.ndarray:
    """Pack signed int4 values (range [-7, 7]) two per byte, low nibble first.

    The last axis must be even.  Values are stored as offset-binary nibbles
    (value + 8) so that unpacking needs no sign-extension branches, matching
    the SIMD-friendly format described in the paper.
    """
    v = np.asarray(values, dtype=np.int8)
    if v.shape[-1] % 2 != 0:
        raise QuantizationError("int4 packing requires an even last axis")
    if v.min(initial=0) < -8 or v.max(initial=0) > 7:
        raise QuantizationError("int4 values out of range [-8, 7]")
    offset = (v.astype(np.int16) + 8).astype(np.uint8)
    lo = offset[..., 0::2]
    hi = offset[..., 1::2]
    return (lo | (hi << 4)).astype(np.uint8).view(np.int8)


def unpack_int4(packed: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`pack_int4`."""
    p = np.asarray(packed).view(np.uint8)
    lo = (p & 0x0F).astype(np.int16) - 8
    hi = (p >> 4).astype(np.int16) - 8
    out = np.empty(p.shape[:-1] + (p.shape[-1] * 2,), dtype=np.int8)
    out[..., 0::2] = lo.astype(np.int8)
    out[..., 1::2] = hi.astype(np.int8)
    if out.shape != shape:
        out = out.reshape(shape)
    return out


def quantization_error_bound(qt: QuantizedTensor) -> float:
    """Worst-case absolute reconstruction error.

    Two sources: half a quantization step (scale / 2), plus the FP16
    rounding of the stored scale, which perturbs a full-magnitude value by
    at most ``qmax * scale * 2^-11`` (FP16 has a 10-bit mantissa).
    """
    if qt.scales.size == 0:
        return 0.0
    scale = float(qt.scales.astype(np.float32).max())
    fp16_rel = 2.0 ** -11
    return scale * (0.5 + _qmax(qt.dtype.bits) * fp16_rel)
