"""The per-process step-price memo behind ``batched_step_time_us``.

A hit must return the exact float a fresh simulation gives, and equal
fault perturbations must share one entry.
"""

import pytest

from repro.errors import SchedulingError
from repro.faults import StepPerturbation
from repro.hw import Simulator, paper_testbed
from repro.sched import DecodeScheduleConfig, GpuExecutor, LaunchMode
from repro.sched import decode
from repro.sched.decode import batched_step_time_us, build_decode_step
from repro.sched.workload import DecodeLayerWork

MACHINE = paper_testbed("a100")
CONFIG = DecodeScheduleConfig(launch_mode=LaunchMode.CUDA_GRAPH,
                              overlap_cpu_gpu=True, top_k=6, n_deferred=2)


def _works(tag: float) -> list[DecodeLayerWork]:
    """Three layers whose durations carry ``tag``, so no other test in the
    process has priced this exact graph."""
    return [DecodeLayerWork(30.0 + tag, 12.0, 250.0 + tag, 7168 * 4.0, 9),
            DecodeLayerWork(31.0, 0.0, 0.0, 0.0, 4),
            DecodeLayerWork(29.5, 11.0, 240.0, 7168 * 4.0, 9)]


def _fresh_price(works, perturb=None, n_steps=4, warmup_steps=2):
    sim = Simulator(perturb=perturb)
    ex = GpuExecutor(sim, MACHINE, CONFIG.launch_mode)
    deps, carried, heads = [], None, []
    for t in range(warmup_steps + n_steps):
        end, carried = build_decode_step(sim, ex, works, CONFIG, MACHINE,
                                         step_deps=deps, step_idx=t,
                                         carried_deferred=carried)
        deps = [end]
        heads.append(end)
    total = sim.drain()
    return (total - sim.ends[heads[warmup_steps - 1]]) / n_steps


def _misses() -> int:
    return decode._simulated_step_us.cache_info().misses


def test_hit_is_bit_identical_to_fresh_simulation():
    works = _works(0.125)
    first = batched_step_time_us(works, CONFIG, MACHINE)
    before = _misses()
    again = batched_step_time_us(list(works), CONFIG, MACHINE)
    assert _misses() == before
    assert again == first == _fresh_price(works)


def test_equal_perturbations_share_one_simulation():
    a = StepPerturbation(cpu_scale=1.7, pcie_scale=0.4)
    b = StepPerturbation(cpu_scale=1.7, pcie_scale=0.4, jitter_scale=1.3)
    hook_a, hook_b = a.sim_hook(), b.sim_hook()
    assert hook_a is not hook_b
    assert hook_a == hook_b and hash(hook_a) == hash(hook_b)

    works = _works(0.25)
    before = _misses()
    price_a = batched_step_time_us(works, CONFIG, MACHINE, perturb=hook_a)
    price_b = batched_step_time_us(works, CONFIG, MACHINE, perturb=hook_b)
    assert _misses() == before + 1
    assert price_a == price_b == _fresh_price(works, a.sim_hook())
    assert price_a > batched_step_time_us(works, CONFIG, MACHINE)


@pytest.mark.parametrize("kwargs", [{"n_steps": 0}, {"n_steps": -1},
                                    {"warmup_steps": -1}])
def test_invalid_step_counts_raise_on_a_warm_cache(kwargs):
    works = _works(0.5)
    batched_step_time_us(works, CONFIG, MACHINE)
    with pytest.raises(SchedulingError):
        batched_step_time_us(works, CONFIG, MACHINE, **kwargs)


def test_memo_is_bounded():
    info = decode._simulated_step_us.cache_info()
    assert info.maxsize == decode.STEP_PRICE_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_graphs_sharing_a_topology_compile_it_once():
    """Durations re-time one compiled topology; they never key it."""
    hook = StepPerturbation(cpu_scale=1.3, pcie_scale=0.7).sim_hook()
    compiled = decode._decode_topology.cache_info().misses
    before = _misses()
    for i in range(10):
        # A trailing dense layer carries layer 2's deferred transfer
        # into the next step.
        works = [DecodeLayerWork(20.0 + i, 5.0, 100.0 + 7 * i, 4096.0, 6),
                 DecodeLayerWork(22.0, 0.0, 0.0, 0.0, 3),
                 DecodeLayerWork(21.0, 6.0 + i, 90.0, 2048.0 * (i + 1), 6),
                 DecodeLayerWork(19.0 + i / 8, 0.0, 0.0, 0.0, 3)]
        for perturb in (None, hook):
            price = batched_step_time_us(works, CONFIG, MACHINE, n_steps=4,
                                         warmup_steps=3, perturb=perturb)
            assert price == _fresh_price(works, perturb, n_steps=4,
                                         warmup_steps=3)
    assert _misses() == before + 20
    assert decode._decode_topology.cache_info().misses == compiled + 1
