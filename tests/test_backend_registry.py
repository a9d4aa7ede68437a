"""Kernel-backend registry tests (ISSUE 10).

Covers the satellites around the pluggable backend registry:

- the shared ARI selector: both historical call sites
  (``batched_decode_layer_work`` and ``hybrid_chunk_layer_work``) classify
  identically at the threshold, threshold +- 1, and 0 tokens;
- fail-fast string knobs: unknown ``backend`` / ``gemm_dispatch`` names
  raise :class:`ValueError` at config construction, listing the valid
  choices;
- registry mechanics: register/unregister/replace semantics, resolution,
  launch-model overrides, AMX-capability fallback;
- property-based determinism: every registered backend prices strictly
  positive, bit-reproducible step times and conserves routed tokens.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (KTRANSFORMERS, batched_decode_works, run_prefill,
                        run_prefill_us)
from repro.errors import ConfigError
from repro.hw import KT_AMX, KT_AVX512, paper_testbed
from repro.kernels import (
    DEFAULT_ARI_THRESHOLD,
    DEFAULT_BACKEND,
    AriSelection,
    KT_AMX_AVX512_BACKEND,
    TORCH_VENDOR_BACKEND,
    TRITON_PORTABLE_BACKEND,
    available_backends,
    backend_summaries,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.kernels.backend import LaunchModel
from repro.model import DS3, QW2, MoETransformer, tiny_config
from repro.sched.workload import (
    ari_selection_for,
    batched_decode_layer_work,
    hybrid_chunk_layer_work,
)
from repro.serving import (
    BatchCostModel,
    BatchSchedulerConfig,
    ContinuousBatchingServer,
    FleetConfig,
    FleetRouter,
    InferenceSession,
    poisson_workload,
)
from repro.serving import pricing
from repro.tensor import BF16

MACHINE = paper_testbed("a100")
NO_AMX = dataclasses.replace(
    MACHINE, cpu=dataclasses.replace(MACHINE.cpu, has_amx=False))


@pytest.fixture(scope="module")
def session():
    return InferenceSession(MoETransformer(tiny_config("tiny-qw")), DS3)


def small_workload(seed=11):
    return poisson_workload(n_requests=6, mean_interarrival_us=1e6,
                            prompt_len=16, max_new_tokens=4, vocab_size=64,
                            seed=seed)


# --- satellite: one shared ARI selector for every call site -----------------

class TestSharedAriSelector:
    @pytest.mark.parametrize("threshold", [1, 4, 8])
    def test_boundary_classification(self, threshold):
        """The shared selector pins the crossover: latency lane at and
        below the threshold, throughput lane strictly above, idle at 0."""
        sel = ari_selection_for(MACHINE, KT_AVX512, KT_AMX, threshold)
        assert sel.kernel_name(0) == "idle"
        if threshold > 1:
            assert sel.kernel_name(threshold - 1) == "avx512"
        assert sel.kernel_name(threshold) == "avx512"
        assert sel.kernel_name(threshold + 1) == "amx"
        assert sel.select_profile(threshold) is KT_AVX512
        assert sel.select_profile(threshold + 1) is KT_AMX

    @pytest.mark.parametrize("threshold", [1, 4, 8])
    def test_call_sites_classify_identically(self, threshold):
        """Regression for the copy-pasted ``select()`` closures: both
        pricing call sites must classify every expert exactly as the
        shared selector does -- including counts sitting at the
        threshold, one either side of it, and idle experts."""
        sel = ari_selection_for(MACHINE, KT_AVX512, KT_AMX, threshold)
        kw = dict(
            avx512_profile=KTRANSFORMERS.decode_kernel,
            amx_profile=KTRANSFORMERS.prefill_kernel,
            numa_strategy=KTRANSFORMERS.numa_strategy,
            kernels_per_layer=KTRANSFORMERS.decode_kernels_per_layer,
            ari_threshold=threshold,
        )
        _, decode = batched_decode_layer_work(
            QW2, MACHINE, BF16, [64] * 8, **kw)
        _, hybrid = hybrid_chunk_layer_work(
            QW2, MACHINE, BF16, 32, 8, **kw)
        for summary in (decode, hybrid):
            assert summary.ari_threshold == threshold
            assert summary.kernel_names == sel.kernel_names(
                summary.expert_token_counts)
        # Where the two call sites see the same count, they must emit the
        # same label -- the historical divergence this refactor removes.
        decode_map = dict(zip(decode.expert_token_counts,
                              decode.kernel_names))
        hybrid_map = dict(zip(hybrid.expert_token_counts,
                              hybrid.kernel_names))
        shared = set(decode_map) & set(hybrid_map)
        assert shared
        for count in shared:
            assert decode_map[count] == hybrid_map[count]

    def test_default_threshold(self):
        sel = ari_selection_for(MACHINE, KT_AVX512, KT_AMX)
        assert sel.ari_threshold == DEFAULT_ARI_THRESHOLD

    def test_backend_overrides_profiles(self):
        sel = ari_selection_for(MACHINE, KT_AVX512, KT_AMX,
                                backend=TRITON_PORTABLE_BACKEND)
        assert sel.ari_threshold == TRITON_PORTABLE_BACKEND.ari_threshold
        assert sel.kernel_name(1) == "triton-tall"
        assert sel.kernel_name(100) == "triton-bulk"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            AriSelection(latency_profile=KT_AVX512,
                         throughput_profile=KT_AMX, ari_threshold=-1)


# --- satellite: fail-fast string knobs --------------------------------------

class TestFailFastKnobs:
    def test_unknown_backend_name(self):
        with pytest.raises(ValueError, match="kt-amx-avx512"):
            BatchSchedulerConfig(backend="cuda-tensorcore")

    def test_unknown_gemm_dispatch(self):
        with pytest.raises(ValueError, match="legacy"):
            BatchSchedulerConfig(gemm_dispatch="magic")

    def test_unknown_backend_in_cost_model(self, session):
        with pytest.raises(ValueError, match="registered backends"):
            BatchCostModel(session, backend="nope")

    def test_unknown_backend_in_fleet(self):
        with pytest.raises(ValueError, match="registered backends"):
            FleetConfig(n_replicas=1, backends=("nope",))

    def test_fleet_backends_length_mismatch(self):
        with pytest.raises(ConfigError, match="per replica"):
            FleetConfig(n_replicas=2, backends=("kt-amx-avx512",))

    def test_config_error_is_value_error(self):
        """Construction-time knob rejections are catchable either way."""
        assert issubclass(ConfigError, ValueError)


# --- registry mechanics -----------------------------------------------------

class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        assert DEFAULT_BACKEND == "kt-amx-avx512"
        assert {"kt-amx-avx512", "torch-vendor",
                "triton-portable"} <= set(names)

    def test_get_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="kt-amx-avx512"):
            get_backend("nope")

    def test_resolve_passthrough(self):
        assert resolve_backend(None) is None
        assert resolve_backend(KT_AMX_AVX512_BACKEND) is KT_AMX_AVX512_BACKEND
        assert resolve_backend("triton-portable") is TRITON_PORTABLE_BACKEND

    def test_register_unregister_roundtrip(self):
        custom = dataclasses.replace(KT_AMX_AVX512_BACKEND,
                                     name="custom-test")
        register_backend(custom)
        try:
            assert get_backend("custom-test") is custom
            with pytest.raises(ValueError, match="already registered"):
                register_backend(custom)
            register_backend(custom, replace=True)
        finally:
            unregister_backend("custom-test")
        with pytest.raises(ValueError):
            get_backend("custom-test")

    def test_cannot_unregister_default(self):
        with pytest.raises(ValueError):
            unregister_backend(DEFAULT_BACKEND)

    def test_summaries_cover_every_backend(self):
        rows = backend_summaries()
        assert {r["name"] for r in rows} == set(available_backends())
        for r in rows:
            assert r["ari_threshold"] >= 0

    def test_launch_model_rejects_negative(self):
        with pytest.raises(ValueError):
            LaunchModel(kernel_launch_latency_us=-1.0)

    def test_default_backend_launch_is_identity(self):
        """Bit-identity hinges on this: the default backend must hand back
        the *same* machine object, not a rebuilt equal one."""
        assert KT_AMX_AVX512_BACKEND.apply_launch(MACHINE) is MACHINE

    def test_launch_overrides_apply(self):
        m = TRITON_PORTABLE_BACKEND.apply_launch(MACHINE)
        assert m is not MACHINE
        assert m.gpu.kernel_launch_latency_us == 8.0
        assert m.gpu.graph_launch_us == 14.0
        # untouched fields and the original spec survive
        assert m.gpu.graph_replay_latency_us == \
            MACHINE.gpu.graph_replay_latency_us
        assert MACHINE.gpu.kernel_launch_latency_us != 8.0

    def test_amx_fallback_on_capability(self):
        lat, thr = KT_AMX_AVX512_BACKEND.resolve_profiles(NO_AMX)
        assert thr is lat is KT_AVX512
        # a backend whose throughput lane never touches AMX keeps it
        lat_t, thr_t = TRITON_PORTABLE_BACKEND.resolve_profiles(NO_AMX)
        assert thr_t is TRITON_PORTABLE_BACKEND.throughput_profile
        assert KT_AMX_AVX512_BACKEND.requires_amx_lane
        assert not TRITON_PORTABLE_BACKEND.requires_amx_lane

    def test_hybrid_kernel_from_backend(self):
        k = TORCH_VENDOR_BACKEND.make_hybrid_kernel()
        assert k.ari_threshold == TORCH_VENDOR_BACKEND.ari_threshold


# --- serving integration ----------------------------------------------------

class TestServingIntegration:
    def test_rebind_backend_fresh_server(self, session):
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(kv_budget_tokens=512,
                                          max_batch_size=4))
        server.rebind_backend("torch-vendor")
        assert server.costs.backend.name == "torch-vendor"
        assert server.config.backend == "torch-vendor"

    def test_rebind_backend_refuses_served_work(self, session):
        server = ContinuousBatchingServer(
            session, BatchSchedulerConfig(kv_budget_tokens=512,
                                          max_batch_size=4))
        server.replay(small_workload())
        with pytest.raises(ConfigError, match="fresh"):
            server.rebind_backend("torch-vendor")

    def test_prefill_price_shared_across_cost_models_not_backends(
            self, session, monkeypatch):
        """Cost models pricing the same inputs (a fleet's replica epochs)
        time each prefill bucket once per process; another backend
        prices its own pass."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["backend"])
            return run_prefill_us(*args, **kwargs)

        monkeypatch.setattr(pricing, "run_prefill_us", counted)
        pricing._prefill_pass_us.cache_clear()
        first = BatchCostModel(session).batched_prefill_us(100)
        assert BatchCostModel(session).batched_prefill_us(100) == first
        assert len(calls) == 1
        vendor = BatchCostModel(session, backend="torch-vendor")
        price = vendor.batched_prefill_us(100)
        assert [getattr(b, "name", b) for b in calls] == [None,
                                                          "torch-vendor"]
        assert price == run_prefill(
            session.system, session.preset, vendor.machine, session.dtype,
            prompt_len=vendor.prefill_bucket(100),
            backend="torch-vendor").elapsed_us

    def test_decode_works_shared_across_cost_models_not_backends(
            self, session, monkeypatch):
        """Cost models pricing the same inputs build each base decode
        shape once per process; another backend or ARI threshold builds
        its own, and the shared works are a tuple no model can change."""
        calls = []

        def counted(*args, **kwargs):
            calls.append((getattr(kwargs["backend"], "name", None),
                          kwargs["ari_threshold"]))
            return batched_decode_works(*args, **kwargs)

        monkeypatch.setattr(pricing, "batched_decode_works", counted)
        pricing._decode_works.cache_clear()
        first = BatchCostModel(session).decode_step_us([64] * 4)
        second = BatchCostModel(session)
        assert second.decode_step_us([64] * 4) == first
        assert calls == [(None, None)]
        BatchCostModel(session, backend="torch-vendor").decode_step_us(
            [64] * 4)
        BatchCostModel(session, ari_threshold=2).decode_step_us([64] * 4)
        assert calls == [(None, None), ("torch-vendor", None), (None, 2)]
        assert isinstance(second._decode_layers(4, 64)[0], tuple)

    def test_fleet_default_backend_bit_identity(self, session):
        """A fleet pinning every replica to the default backend replays
        bit-for-bit like one with no backends configured."""
        def make_server():
            return ContinuousBatchingServer(
                session, BatchSchedulerConfig(kv_budget_tokens=512,
                                              max_batch_size=4))

        def key(stats):
            return [(t.arrival_us, t.start_us, t.first_token_us,
                     t.finish_us, t.generated_tokens) for t in stats.timings]

        base = FleetRouter(make_server, FleetConfig(n_replicas=2)).replay(
            list(small_workload()))
        pinned = FleetRouter(
            make_server,
            FleetConfig(n_replicas=2,
                        backends=("kt-amx-avx512", None))).replay(
            list(small_workload()))
        assert key(pinned) == key(base)

    def test_fleet_mixed_backends_serve_all(self, session):
        def make_server():
            return ContinuousBatchingServer(
                session, BatchSchedulerConfig(kv_budget_tokens=512,
                                              max_batch_size=4))
        stats = FleetRouter(
            make_server,
            FleetConfig(n_replicas=2,
                        backends=("triton-portable", "torch-vendor"))
        ).replay(list(small_workload()))
        assert len(stats.timings) == 6
        assert all(t.generated_tokens > 0 for t in stats.timings)


# --- satellite: property fuzz over every registered backend -----------------

@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(available_backends())),
       batch=st.integers(min_value=1, max_value=8),
       ctx=st.integers(min_value=8, max_value=256))
def test_any_backend_deterministic_positive_steps(name, batch, ctx):
    """Every registered backend prices strictly positive step times,
    bit-reproducibly across independently built cost models."""
    session = InferenceSession(MoETransformer(tiny_config("tiny-qw")), QW2)
    a = BatchCostModel(session, backend=name)
    b = BatchCostModel(session, backend=name)
    step = a.decode_step_us([ctx] * batch)
    assert step > 0.0
    assert step == b.decode_step_us([ctx] * batch)
    hybrid = a.decode_step_us([ctx] * batch, chunk_tokens=32)
    assert hybrid > step
    assert hybrid == b.decode_step_us([ctx] * batch, chunk_tokens=32)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(sorted(available_backends())),
       batch=st.integers(min_value=1, max_value=16))
def test_any_backend_conserves_tokens(name, batch):
    """Routed-token conservation holds under every backend: the dispatch
    summary accounts for exactly batch * top_k tokens, each classified
    by the backend's own lane labels."""
    backend = get_backend(name)
    _, summary = batched_decode_works(
        KTRANSFORMERS, QW2, MACHINE, BF16, [64] * batch, backend=backend)
    assert sum(summary.expert_token_counts) == batch * QW2.top_k
    labels = {backend.latency_label, backend.throughput_label, "idle"}
    assert set(summary.kernel_names) <= labels
