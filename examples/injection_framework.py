"""The YAML module-injection framework (Section 5, Listing 1).

Adapts a stock MoE transformer with a single YAML rule file,
``injection_rules.yaml`` next to this script: fused CPU MoE operators
with Int8 experts and deferral metadata, FlashInfer-style attention on
the GPU, and Marlin-quantized linear layers (everything except
``lm_head``).  Shows the module tree before and after, and verifies the
model still works.

Run:  python examples/injection_framework.py
"""

from pathlib import Path

import numpy as np

from repro import MoETransformer, inject, load_rules, tiny_config

RULES = Path(__file__).with_name("injection_rules.yaml")


def show_tree(model, title):
    print(title)
    for name, module in model.named_modules():
        if not name or name.count(".") > 2:
            continue
        device = getattr(module, "device", "cpu")
        print(f"  {name:32s} {type(module).__name__:20s} [{device}]")
    print()


def main() -> None:
    model = MoETransformer(tiny_config("tiny-ds"))
    prompt = np.array([1, 2, 3, 4, 5])
    before = model.forward(prompt)

    show_tree(model, "Before injection:")

    rules = load_rules(RULES)
    report = inject(model, rules)
    print(f"Applied {len(rules)} rules -> {report.count()} replacements:")
    for path, cls in sorted(report.replacements.items()):
        print(f"  {path:32s} -> {cls}")
    print()

    show_tree(model, "After injection:")

    after = model.forward(prompt)
    drift = np.abs(after - before).mean() / np.abs(before).mean()
    print(f"Functional check: logits shape {after.shape}, "
          f"mean relative drift from quantization = {drift * 100:.1f}%")
    print("The HuggingFace-style interface is unchanged: "
          f"generate() -> {model.generate(prompt, max_new_tokens=5).tolist()}")


if __name__ == "__main__":
    main()
