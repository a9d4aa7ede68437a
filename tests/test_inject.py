"""Tests for the YAML injection framework (Section 5, Listing 1)."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import InjectionError
from repro.inject import (
    FlashInferMLA,
    FusedMoEOperator,
    MarlinLinear,
    inject,
    load_rules,
    parse_rules,
    resolve_class,
)
from repro.kernels import AVX512Kernel, HybridKernel
from repro.model import Linear, MoETransformer, tiny_config
from repro.model.moe_layer import MoEBlock

EXAMPLE_RULES = (Path(__file__).resolve().parent.parent / "examples"
                 / "injection_rules.yaml")

LISTING1_YAML = """
- match:
    class: MoEBlock
  replace:
    class: operators.experts.FusedMoE
    device: "cpu"
    kwargs:
      backend: "hybrid_AMX_AVX512"
      data_type: "int8"
      n_deferred_experts: 2

- match:
    name: "layers\\\\..*\\\\.self_attn$"
  replace:
    class: operators.attention.FlashInferMLA
    device: "cuda:0"

- match:
    name: "^(?!lm_head$).*"
    class: Linear
  replace:
    class: operators.linear.MarlinLinear
    device: "cuda:0"
    kwargs:
      data_type: "int4"
"""


def _fresh_model():
    return MoETransformer(tiny_config("tiny-ds"))


class TestRuleParsing:
    def test_parse_listing1(self):
        rules = parse_rules(LISTING1_YAML)
        assert len(rules) == 3
        assert rules[0].replace.kwargs["n_deferred_experts"] == 2
        assert rules[1].replace.device == "cuda:0"

    def test_load_rules_reads_the_example_rule_file(self):
        """The example's committed rule file loads as it parses, and it
        is Listing 1."""
        rules = load_rules(EXAMPLE_RULES)
        assert rules == parse_rules(EXAMPLE_RULES.read_text())
        assert rules == parse_rules(LISTING1_YAML)

    def test_empty_document(self):
        assert parse_rules("") == []

    def test_non_list_rejected(self):
        with pytest.raises(InjectionError):
            parse_rules("match: {}")

    def test_unknown_keys_rejected(self):
        with pytest.raises(InjectionError):
            parse_rules("- {match: {name: x}, replace: {class: y}, extra: 1}")

    def test_match_needs_criterion(self):
        with pytest.raises(InjectionError):
            parse_rules("- {match: {}, replace: {class: y}}")

    def test_replace_needs_class(self):
        with pytest.raises(InjectionError):
            parse_rules("- {match: {name: x}, replace: {}}")

    def test_bad_regex_rejected(self):
        with pytest.raises(InjectionError):
            parse_rules('- {match: {name: "["}, replace: {class: y}}')

    def test_invalid_yaml_rejected(self):
        with pytest.raises(InjectionError):
            parse_rules("- match: [unclosed")


class TestResolution:
    def test_registry_lookup(self):
        assert resolve_class("operators.experts.FusedMoE") is FusedMoEOperator
        assert resolve_class("FusedMoEOperator") is FusedMoEOperator

    def test_import_path_lookup(self):
        assert resolve_class("repro.model.modules.Linear") is Linear

    def test_unknown_rejected(self):
        with pytest.raises(InjectionError):
            resolve_class("no.such.Thing")


class TestInjection:
    def test_moe_blocks_replaced(self):
        model = _fresh_model()
        rules = parse_rules(LISTING1_YAML[:LISTING1_YAML.index("- match:\n    name:")])
        report = inject(model, rules)
        moe_layers = [l for l in model.layers if l.is_moe]
        assert report.count() == len(moe_layers)
        for layer in moe_layers:
            assert isinstance(layer.mlp, FusedMoEOperator)
            assert layer.mlp.n_deferred_experts == 2
            assert layer.mlp.device == "cpu"
            assert isinstance(layer.mlp.kernel, HybridKernel)

    def test_full_listing1_adaptation(self):
        model = _fresh_model()
        report = inject(model, parse_rules(LISTING1_YAML))
        names = dict(report.replacements)
        assert any(v == "FusedMoEOperator" for v in names.values())
        assert any(v == "FlashInferMLA" for v in names.values())
        assert any(v == "MarlinLinear" for v in names.values())
        # lm_head excluded by the negative-lookahead name pattern.
        assert isinstance(model.lm_head, Linear)
        assert "lm_head" not in names

    def test_injection_preserves_function_bf16(self):
        """Swapping in the fused operator (bf16) must not change outputs."""
        tokens = np.array([1, 2, 3, 4, 5])
        base = _fresh_model()
        expected = base.forward(tokens)
        rules = parse_rules("""
- match: {class: MoEBlock}
  replace:
    class: operators.experts.FusedMoE
    kwargs: {backend: "AVX512", data_type: "bf16"}
""")
        inject(base, rules)
        got = base.forward(tokens)
        assert np.allclose(got, expected, atol=1e-3)

    def test_injection_quantized_close(self):
        tokens = np.array([1, 2, 3])
        base = _fresh_model()
        expected = base.forward(tokens)
        inject(base, parse_rules(LISTING1_YAML))
        got = base.forward(tokens)
        # Int8 experts + Int4 linears perturb but do not break the model.
        assert got.shape == expected.shape
        assert np.abs(got - expected).mean() < np.abs(expected).mean()

    def test_first_matching_rule_wins(self):
        model = _fresh_model()
        rules = parse_rules("""
- match: {class: MoEBlock}
  replace:
    class: operators.experts.FusedMoE
    kwargs: {backend: "AMX"}
- match: {class: MoEBlock}
  replace:
    class: operators.experts.FusedMoE
    kwargs: {backend: "AVX512"}
""")
        inject(model, rules)
        moe = next(l.mlp for l in model.layers if l.is_moe)
        assert moe.backend == "AMX"

    def test_wrong_target_class_rejected(self):
        model = _fresh_model()
        rules = parse_rules("""
- match: {name: "embed_tokens"}
  replace: {class: operators.experts.FusedMoE}
""")
        with pytest.raises(InjectionError):
            inject(model, rules)

    def test_device_tag_set(self):
        model = _fresh_model()
        rules = parse_rules("""
- match: {name: "self_attn$"}
  replace: {class: operators.attention.FlashInferMLA, device: "cuda:1"}
""")
        inject(model, rules)
        assert model.layers[0].self_attn.device == "cuda:1"


class TestOperators:
    def test_marlin_linear_close_to_dense(self):
        rng = np.random.default_rng(0)
        lin = Linear(24, 17, rng=rng)
        marlin = MarlinLinear.from_module(lin, data_type="int8")
        x = rng.standard_normal((3, 24)).astype(np.float32)
        assert np.allclose(marlin(x), lin(x), atol=0.1)
        assert marlin.out_features == 17

    def test_marlin_requires_quantized_dtype(self):
        with pytest.raises(InjectionError):
            MarlinLinear.from_module(Linear(8, 8), data_type="bf16")

    def test_flashinfer_wraps_attention(self):
        model = _fresh_model()
        attn = model.layers[0].self_attn
        wrapped = FlashInferMLA.from_module(attn)
        cache = wrapped.make_cache()
        x = np.random.default_rng(1).standard_normal((4, 32)).astype(np.float32)
        ref_cache = attn.make_cache()
        assert np.allclose(wrapped(x, cache), attn(x, ref_cache), atol=1e-5)

    def test_flashinfer_rejects_non_attention(self):
        with pytest.raises(InjectionError):
            FlashInferMLA.from_module(Linear(4, 4))

    def test_unknown_backend_rejected(self):
        model = _fresh_model()
        block = next(l.mlp for l in model.layers if l.is_moe)
        with pytest.raises(InjectionError):
            FusedMoEOperator.from_module(block, backend="sse2")

    def test_fused_operator_is_moe_block(self):
        """Injected operators stay substitutable wherever MoEBlock is used
        (the deferral engine relies on the MoEBlock piece API)."""
        model = _fresh_model()
        block = next(l.mlp for l in model.layers if l.is_moe)
        op = FusedMoEOperator.from_module(block, backend="AVX512")
        assert isinstance(op, MoEBlock)
        assert isinstance(op.kernel, AVX512Kernel)
