"""Per-expert mixed-precision storage (an extension the paper points to).

Section 7 notes that fine-grained precision selection (EdgeMoE's static
per-expert choice, HOBBIT/MPTQS's dynamic variants) is orthogonal to
KTransformers and "can be incorporated into its framework".  This module
implements the static variant:

1. :func:`expert_sensitivity` scores each expert by how much group-wise
   quantization actually perturbs its weights (Frobenius error energy),
   optionally weighted by profiled popularity;
2. :func:`assign_expert_precision` spends a DRAM/bandwidth budget by giving
   the most sensitive experts higher precision, greedily upgrading from the
   cheapest dtype;
3. :func:`apply_mixed_precision` rebuilds a functional MoE block's experts
   with their assigned storage dtypes (weights shared, packing redone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigError
from ..tensor.dtypes import BF16, INT4, INT8, DType
from ..tensor.layout import pack_matrix, unpack_matrix

if TYPE_CHECKING:   # model imports moe at package level
    from ..model.moe_layer import MoEBlock

# Upgrade ladder: everything starts at Int4; budget buys upgrades.
PRECISION_LADDER: tuple[DType, ...] = (INT4, INT8, BF16)


def expert_sensitivity(
    block: MoEBlock,
    probe_dtype: DType = INT4,
    popularity: np.ndarray | None = None,
) -> np.ndarray:
    """Quantization-error energy of each routed expert.

    For every expert, quantize its three projections to ``probe_dtype`` and
    measure the relative Frobenius reconstruction error; multiply by the
    expert's activation popularity if provided (a rarely-used expert can
    afford to be sloppy).
    """
    n = block.n_experts
    if popularity is not None:
        popularity = np.asarray(popularity, dtype=np.float64)
        if popularity.shape != (n,):
            raise ConfigError(
                f"popularity shape {popularity.shape} != ({n},)"
            )
    scores = np.zeros(n, dtype=np.float64)
    for i, expert in enumerate(block.experts):
        err = 0.0
        ref = 0.0
        for w in (expert.w_gate, expert.w_up, expert.w_down):
            packed = pack_matrix(w, probe_dtype)
            back = unpack_matrix(packed)
            err += float(((back - w) ** 2).sum())
            ref += float((w ** 2).sum())
        rel = err / ref if ref > 0 else 0.0
        scores[i] = rel * (popularity[i] if popularity is not None else 1.0)
    return scores


@dataclass
class PrecisionAssignment:
    """Per-expert dtype choice plus its memory footprint."""

    dtypes: list[DType]
    total_bytes: float
    budget_bytes: float

    def histogram(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for dt in self.dtypes:
            out[dt.name] = out.get(dt.name, 0) + 1
        return out


def assign_expert_precision(
    sensitivity: np.ndarray,
    weights_per_expert: float,
    budget_bytes: float,
) -> PrecisionAssignment:
    """Greedy precision assignment under a byte budget.

    ``weights_per_expert`` is the expert's parameter count (elements).  All
    experts start at Int4; remaining budget upgrades the most sensitive
    experts to Int8, then BF16.
    """
    sensitivity = np.asarray(sensitivity, dtype=np.float64)
    n = sensitivity.size
    if n == 0:
        raise ConfigError("need at least one expert")
    if weights_per_expert <= 0:
        raise ConfigError("weights_per_expert must be positive")

    cost = {dt: weights_per_expert * dt.bytes_per_element
            for dt in PRECISION_LADDER}
    base_cost = cost[PRECISION_LADDER[0]]
    if budget_bytes < base_cost * n:
        raise ConfigError(
            f"budget {budget_bytes:.0f} B cannot hold {n} experts even at "
            f"{PRECISION_LADDER[0].name}"
        )

    dtypes = [PRECISION_LADDER[0]] * n
    spent = base_cost * n
    order = np.argsort(-sensitivity)  # most sensitive first
    for target in PRECISION_LADDER[1:]:
        for idx in order:
            i = int(idx)
            current = dtypes[i]
            if PRECISION_LADDER.index(current) + 1 != PRECISION_LADDER.index(target):
                continue
            upgrade = cost[target] - cost[current]
            if spent + upgrade <= budget_bytes:
                dtypes[i] = target
                spent += upgrade
    return PrecisionAssignment(dtypes=dtypes, total_bytes=spent,
                               budget_bytes=budget_bytes)


def apply_mixed_precision(block: MoEBlock,
                          assignment: PrecisionAssignment) -> MoEBlock:
    """New MoE block whose experts use their assigned storage dtypes.

    Raw weights are shared with the original block; only the packed
    representations differ, so the swap is cheap and reversible.
    """
    from ..model.modules import Module
    from ..model.moe_layer import ExpertModule, ModuleList, MoEBlock

    if len(assignment.dtypes) != block.n_experts:
        raise ConfigError(
            f"{len(assignment.dtypes)} dtypes for {block.n_experts} experts"
        )
    new = MoEBlock.__new__(MoEBlock)
    Module.__init__(new)
    new.hidden = block.hidden
    new.intermediate = block.intermediate
    new.router_config = block.router_config
    new.kernel = block.kernel
    new.gate = block.gate
    new.shared_experts = block.shared_experts
    experts = []
    for expert, dt in zip(block.experts, assignment.dtypes):
        e = ExpertModule.__new__(ExpertModule)
        Module.__init__(e)
        e.hidden = expert.hidden
        e.intermediate = expert.intermediate
        e.weight_dtype = dt
        e.w_gate = expert.w_gate
        e.w_up = expert.w_up
        e.w_down = expert.w_down
        e._packed = None
        experts.append(e)
    new.experts = ModuleList(experts)
    new._fused = None
    return new


def bandwidth_savings(assignment: PrecisionAssignment,
                      baseline: DType = BF16) -> float:
    """Fraction of decode weight traffic saved vs a uniform baseline dtype."""
    n = len(assignment.dtypes)
    base = n * baseline.bytes_per_element
    mixed = sum(dt.bytes_per_element for dt in assignment.dtypes)
    return 1.0 - mixed / base
