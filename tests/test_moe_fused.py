"""Tests for expert FFNs and the fused MoE operator."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import AMXKernel, AVX512Kernel, HybridKernel
from repro.moe import (
    FusedMoE,
    RouterConfig,
    expert_forward,
    fuse_expert,
    make_expert,
    moe_forward_reference,
    route,
    silu,
)
from repro.tensor import INT8

HIDDEN, INTER = 32, 48


@pytest.fixture
def experts():
    rng = np.random.default_rng(0)
    return [make_expert(HIDDEN, INTER, rng) for _ in range(8)]


@pytest.fixture
def routing():
    rng = np.random.default_rng(1)
    cfg = RouterConfig(n_experts=8, top_k=2)
    return route(rng.standard_normal((6, 8)).astype(np.float32), cfg)


def test_silu_basic():
    assert silu(np.float32(0.0)) == 0.0
    assert silu(np.float32(100.0)) == pytest.approx(100.0)
    assert abs(silu(np.float32(-100.0))) < 1e-6


def test_expert_forward_shapes(experts):
    x = np.random.default_rng(2).standard_normal((4, HIDDEN)).astype(np.float32)
    y = expert_forward(x, experts[0], AMXKernel())
    assert y.shape == (4, HIDDEN)


def test_fused_expert_matches_unfused(experts):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, HIDDEN)).astype(np.float32)
    kernel = AMXKernel()
    fe = fuse_expert(experts[0])
    gu = kernel.run(x, fe.gate_up)
    h = silu(gu[:, :INTER]) * gu[:, INTER:2 * INTER]
    fused_out = kernel.run(h, fe.down)
    unfused_out = expert_forward(x, experts[0], kernel)
    assert np.allclose(fused_out, unfused_out, atol=1e-3)


def test_fused_moe_matches_reference(experts, routing):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, HIDDEN)).astype(np.float32)
    kernel = AMXKernel()
    fused = FusedMoE(experts, kernel).forward(x, routing)
    ref = moe_forward_reference(x, routing, experts, kernel)
    assert np.allclose(fused, ref, atol=1e-3)


def test_fused_moe_unfused_mode_matches(experts, routing):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, HIDDEN)).astype(np.float32)
    a = FusedMoE(experts, AMXKernel(), fuse_gate_up=True).forward(x, routing)
    b = FusedMoE(experts, AMXKernel(), fuse_gate_up=False).forward(x, routing)
    assert np.allclose(a, b, atol=1e-3)


def test_fused_moe_kernels_agree(experts, routing):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((6, HIDDEN)).astype(np.float32)
    a = FusedMoE(experts, AMXKernel()).forward(x, routing)
    b = FusedMoE(experts, AVX512Kernel()).forward(x, routing)
    c = FusedMoE(experts, HybridKernel()).forward(x, routing)
    assert np.allclose(a, b, atol=1e-3)
    assert np.allclose(a, c, atol=1e-3)


def test_expert_subset_partitions_output(experts, routing):
    """Immediate + deferred subsets must sum to the full MoE output."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, HIDDEN)).astype(np.float32)
    moe = FusedMoE(experts, AMXKernel())
    full = moe.forward(x, routing)
    lo = moe.forward(x, routing, expert_subset=np.arange(4))
    hi = moe.forward(x, routing, expert_subset=np.arange(4, 8))
    assert np.allclose(full, lo + hi, atol=1e-4)


def test_empty_subset_is_zero(experts, routing):
    x = np.ones((6, HIDDEN), dtype=np.float32)
    moe = FusedMoE(experts, AMXKernel())
    out = moe.forward(x, routing, expert_subset=np.array([], dtype=int))
    assert np.allclose(out, 0.0)


def test_sync_points(experts):
    moe = FusedMoE(experts, AMXKernel(), fuse_gate_up=True)
    assert moe.sync_points(active_experts=8) == 2
    unfused = FusedMoE(experts, AMXKernel(), fuse_gate_up=False)
    assert unfused.sync_points(active_experts=8) == 24


def test_token_row_mismatch_rejected(experts, routing):
    moe = FusedMoE(experts, AMXKernel())
    with pytest.raises(ConfigError):
        moe.forward(np.ones((3, HIDDEN), dtype=np.float32), routing)


def test_empty_expert_list_rejected():
    with pytest.raises(ConfigError):
        FusedMoE([], AMXKernel())


def test_quantized_experts_close_to_bf16():
    rng = np.random.default_rng(8)
    w_rng = np.random.default_rng(9)
    cfg = RouterConfig(n_experts=4, top_k=2)
    routing = route(rng.standard_normal((4, 4)).astype(np.float32), cfg)
    x = rng.standard_normal((4, HIDDEN)).astype(np.float32)

    bf16_experts = [make_expert(HIDDEN, INTER, np.random.default_rng(100 + i))
                    for i in range(4)]
    int8_experts = [make_expert(HIDDEN, INTER, np.random.default_rng(100 + i),
                                dtype=INT8) for i in range(4)]
    a = FusedMoE(bf16_experts, AMXKernel()).forward(x, routing)
    b = FusedMoE(int8_experts, AMXKernel()).forward(x, routing)
    # Same seeds -> same underlying weights; int8 output close, not exact.
    assert np.allclose(a, b, atol=0.05)
    assert not np.array_equal(a, b)
