"""Tensor substrate: dtypes, tile geometry, quantization, AMX layouts."""

from .dtypes import BF16, FP16, FP32, INT4, INT8, QUANT_GROUP_SIZE, DType, dtype
from .layout import PackedWeights, pack_matrix, pad_activations, unpack_matrix
from .quant import (
    QuantizedTensor,
    dequantize,
    pack_int4,
    quantization_error_bound,
    quantize,
    unpack_int4,
)
from .tiles import (
    CACHE_LINE_BYTES,
    TILE_ROW_BYTES,
    TILE_ROWS,
    padded_cols,
    padded_rows,
    tile_bytes,
    tile_cols,
    tile_grid,
    tiles_in_matrix,
)

__all__ = [
    "BF16", "FP16", "FP32", "INT4", "INT8", "QUANT_GROUP_SIZE", "DType", "dtype",
    "PackedWeights", "pack_matrix", "pad_activations", "unpack_matrix",
    "QuantizedTensor", "dequantize", "pack_int4", "quantization_error_bound",
    "quantize", "unpack_int4",
    "CACHE_LINE_BYTES", "TILE_ROW_BYTES", "TILE_ROWS",
    "padded_cols", "padded_rows", "tile_bytes", "tile_cols", "tile_grid",
    "tiles_in_matrix",
]
