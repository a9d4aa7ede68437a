"""Tests for quantized KV caching, LR schedules, and simulator edge cases."""

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.hw import Simulator
from repro.model import LatentKVCache, MLAAttention, QuantizedLatentKVCache
from repro.train import ConstantLR, TrainConfig, WarmupCosineLR, task, train
from repro.train.model import TrainableMoETransformer
from repro.model import tiny_config


class TestQuantizedLatentCache:
    def test_roundtrip_close(self):
        rng = np.random.default_rng(0)
        cache = QuantizedLatentKVCache(32)
        latents = rng.standard_normal((10, 32)).astype(np.float32)
        cache.append(latents)
        back = cache.latents()
        assert back.shape == (10, 32)
        assert np.abs(back - latents).max() < 0.05

    def test_attention_fidelity(self):
        """MLA attention over the quantized cache tracks the exact cache."""
        rng = np.random.default_rng(1)
        attn = MLAAttention(32, 4, kv_rank=32, rng=rng)
        x = rng.standard_normal((8, 32)).astype(np.float32)
        exact = attn(x, LatentKVCache(32))
        quantized = attn(x, QuantizedLatentKVCache(32))
        rel = np.abs(exact - quantized).mean() / np.abs(exact).mean()
        assert rel < 0.05

    def test_storage_half_of_fp32(self):
        cache = QuantizedLatentKVCache(64)
        cache.append(np.ones((100, 64), dtype=np.float32))
        fp32_bytes = 100 * 64 * 4
        assert cache.nbytes() < fp32_bytes / 3

    def test_growth(self):
        cache = QuantizedLatentKVCache(32, initial_capacity=2)
        for i in range(5):
            cache.append(np.full((3, 32), float(i), dtype=np.float32))
        assert len(cache) == 15
        assert cache.latents()[4, 0] == pytest.approx(1.0, abs=0.05)

    def test_reset_and_empty(self):
        cache = QuantizedLatentKVCache(32)
        assert cache.latents().shape == (0, 32)
        cache.append(np.ones((2, 32), dtype=np.float32))
        cache.reset()
        assert len(cache) == 0

    def test_invalid(self):
        with pytest.raises(ConfigError):
            QuantizedLatentKVCache(0)
        with pytest.raises(ConfigError):
            QuantizedLatentKVCache(33)  # not a multiple of the group size
        cache = QuantizedLatentKVCache(32)
        with pytest.raises(ConfigError):
            cache.append(np.ones((2, 16)))


class TestLRSchedules:
    def test_constant(self):
        s = ConstantLR(0.01)
        assert s.lr_at(0, 100) == s.lr_at(99, 100) == 0.01

    def test_warmup_ramps_linearly(self):
        s = WarmupCosineLR(base_lr=1.0, warmup_steps=10)
        assert s.lr_at(0, 100) == pytest.approx(0.1)
        assert s.lr_at(4, 100) == pytest.approx(0.5)
        assert s.lr_at(9, 100) == pytest.approx(1.0)

    def test_cosine_decays_to_min(self):
        s = WarmupCosineLR(base_lr=1.0, warmup_steps=0, min_lr=0.1)
        assert s.lr_at(0, 100) == pytest.approx(1.0)
        assert s.lr_at(100, 100) == pytest.approx(0.1)
        mid = s.lr_at(50, 100)
        assert 0.1 < mid < 1.0

    def test_monotone_after_warmup(self):
        s = WarmupCosineLR(base_lr=1.0, warmup_steps=5)
        lrs = [s.lr_at(i, 50) for i in range(5, 50)]
        assert lrs == sorted(lrs, reverse=True)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            WarmupCosineLR(base_lr=0.0, warmup_steps=1)
        with pytest.raises(ConfigError):
            WarmupCosineLR(base_lr=1.0, warmup_steps=-1)
        with pytest.raises(ConfigError):
            WarmupCosineLR(base_lr=1.0, warmup_steps=0, min_lr=2.0)

    def test_trainer_uses_schedule(self):
        model = TrainableMoETransformer(tiny_config("tiny"))
        examples = task("modsum").generate(32, seed=0)
        cfg = TrainConfig(steps=20, lr=3e-3,
                          lr_schedule=WarmupCosineLR(3e-3, warmup_steps=5))
        report = train(model, examples, cfg)
        assert report.final_loss < report.initial_loss


class TestSimulatorFailureModes:
    def test_cycles_impossible_through_public_api(self):
        """submit() takes only already-created tasks as deps, so dependency
        cycles cannot be expressed -- the DAG property holds by
        construction."""
        sim = Simulator()
        res = sim.resource("cpu")
        a = sim.submit("a", res, 1.0)
        b = sim.submit("b", res, 1.0, deps=[a])
        end = sim.drain()
        assert end == 2.0
        assert sim.starts[b] == 1.0

    def test_submit_rejects_unknown_ids(self):
        """A dep must be an earlier task id and a resource a handed-out
        id; negative indexing must not wire a task to the last one."""
        sim = Simulator()
        res = sim.resource("cpu")
        a = sim.submit("a", res, 1.0)
        for deps in ([-1], [a + 1], [a, 5]):
            with pytest.raises(SimulationError, match="earlier task ids"):
                sim.submit("x", res, 1.0, deps=deps)
        for bad in (7, -1):
            with pytest.raises(SimulationError, match="unknown resource"):
                sim.submit("x", bad, 1.0)
        # Rejected submits leave no trace in the graph.
        assert len(sim.all_tasks) == 1 and sim.dependents == [[]]
        assert sim.drain() == 1.0
