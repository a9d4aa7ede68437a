"""Injection rules: YAML match/replace clauses (Section 5, Listing 1).

A rule file is a YAML list; each entry has a ``match`` clause (regular
expression over dotted module names, class reference, or both) and a
``replace`` clause naming the substitute class, its execution device, and
keyword arguments forwarded to the replacement's constructor:

    - match:
        name: "^model\\.layers\\..*\\.self_attn$"
        class: modeling_deepseek_v3.DeepseekV3MoE
      replace:
        class: operators.experts.FusedMoE
        device: "cpu"
        kwargs: {backend: hybrid_AMX_AVX512, data_type: Int4}
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import InjectionError
from ..model.modules import Module


@dataclass(frozen=True)
class MatchClause:
    """Selects modules by name regex, class reference, or both."""

    name_pattern: Optional[str] = None
    class_ref: Optional[str] = None

    def __post_init__(self) -> None:
        if self.name_pattern is None and self.class_ref is None:
            raise InjectionError("match clause needs a name pattern or a class")
        if self.name_pattern is not None:
            try:
                re.compile(self.name_pattern)
            except re.error as exc:
                raise InjectionError(
                    f"invalid match regex {self.name_pattern!r}: {exc}"
                ) from exc

    def matches(self, dotted_name: str, module: Module) -> bool:
        if self.name_pattern is not None:
            if not re.search(self.name_pattern, dotted_name):
                return False
        if self.class_ref is not None:
            if not _class_matches(module, self.class_ref):
                return False
        return True


def _class_matches(module: Module, ref: str) -> bool:
    """True if ``ref`` names the module's class.

    Accepts the bare class name (``DeepseekV3MoE``) or a dotted path whose
    last component is the class name (``modeling_deepseek_v3.DeepseekV3MoE``)
    -- matching HuggingFace convention where the module prefix identifies
    the modeling file.
    """
    cls = type(module)
    tail = ref.rsplit(".", 1)[-1]
    if cls.__name__ != tail:
        return False
    if "." in ref:
        full = f"{cls.__module__}.{cls.__name__}"
        return full.endswith(ref) or ref == cls.__name__
    return True


@dataclass(frozen=True)
class ReplaceClause:
    """Names the replacement class and its construction parameters."""

    class_ref: str
    device: Optional[str] = None
    kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.class_ref:
            raise InjectionError("replace clause needs a class")


@dataclass(frozen=True)
class InjectionRule:
    match: MatchClause
    replace: ReplaceClause


def parse_rules(text: str) -> list[InjectionRule]:
    """Parse a YAML rule document into :class:`InjectionRule` objects."""
    import yaml     # only rule files need it: keep it out of `import repro`
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InjectionError(f"invalid YAML: {exc}") from exc
    if doc is None:
        return []
    if not isinstance(doc, list):
        raise InjectionError("rule document must be a YAML list")
    rules = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or set(entry) - {"match", "replace"}:
            raise InjectionError(
                f"rule {i}: expected exactly 'match' and 'replace' keys"
            )
        match_spec = entry.get("match") or {}
        replace_spec = entry.get("replace") or {}
        rules.append(InjectionRule(
            match=MatchClause(
                name_pattern=match_spec.get("name"),
                class_ref=match_spec.get("class"),
            ),
            replace=ReplaceClause(
                class_ref=replace_spec.get("class", ""),
                device=replace_spec.get("device"),
                kwargs=dict(replace_spec.get("kwargs") or {}),
            ),
        ))
    return rules


def load_rules(path: str) -> list[InjectionRule]:
    """Read and parse a YAML rule file."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_rules(f.read())
