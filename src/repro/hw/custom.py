"""Custom machine specs from YAML (model *your* box, not just the paper's).

A downstream user's first question is "what would this do on my hardware?"
This loader turns a small YAML document into a :class:`MachineSpec`:

    cpu:
      name: EPYC 9654
      cores: 96
      amx_tflops: 0            # no AMX -> AVX-512 kernels only
      avx512_tflops: 12.0
      dram_gbps: 460
      dram_gb: 768
    sockets: 2
    gpu:
      name: RTX 4090
      tflops: 165
      hbm_gbps: 1008
      vram_gb: 24
    pcie_gbps: 32
    cross_socket_gbps: 150

Unspecified fields fall back to the paper-testbed defaults.
"""

from __future__ import annotations

from ..errors import ConfigError
from .spec import (
    PCIE4_X16,
    XEON_8452Y,
    A100_40G,
    CPUSpec,
    GPUSpec,
    InterconnectSpec,
    MachineSpec,
)
from .units import GB, GBps, TFLOPS


def machine_from_dict(doc: dict) -> MachineSpec:
    """Build a MachineSpec from a parsed YAML document."""
    if not isinstance(doc, dict):
        raise ConfigError("machine spec must be a mapping")
    unknown = set(doc) - {"name", "cpu", "sockets", "gpu", "pcie_gbps",
                          "cross_socket_gbps"}
    if unknown:
        raise ConfigError(f"unknown machine keys: {sorted(unknown)}")

    cpu_doc = doc.get("cpu") or {}
    cpu = CPUSpec(
        name=cpu_doc.get("name", XEON_8452Y.name),
        cores=int(cpu_doc.get("cores", XEON_8452Y.cores)),
        amx_peak_flops=TFLOPS(float(cpu_doc.get(
            "amx_tflops", XEON_8452Y.amx_peak_flops / 1e12))),
        avx512_peak_flops=TFLOPS(float(cpu_doc.get(
            "avx512_tflops", XEON_8452Y.avx512_peak_flops / 1e12))),
        dram_bandwidth=GBps(float(cpu_doc.get(
            "dram_gbps", XEON_8452Y.dram_bandwidth / 1e9))),
        dram_capacity=float(cpu_doc.get(
            "dram_gb", XEON_8452Y.dram_capacity / GB)) * GB,
        has_amx=float(cpu_doc.get(
            "amx_tflops", XEON_8452Y.amx_peak_flops / 1e12)) > 0,
    )

    gpu_doc = doc.get("gpu") or {}
    gpu = GPUSpec(
        name=gpu_doc.get("name", A100_40G.name),
        peak_flops=TFLOPS(float(gpu_doc.get(
            "tflops", A100_40G.peak_flops / 1e12))),
        hbm_bandwidth=GBps(float(gpu_doc.get(
            "hbm_gbps", A100_40G.hbm_bandwidth / 1e9))),
        vram_capacity=float(gpu_doc.get(
            "vram_gb", A100_40G.vram_capacity / GB)) * GB,
    )

    interconnect = InterconnectSpec(
        pcie_bandwidth=GBps(float(doc.get(
            "pcie_gbps", PCIE4_X16.pcie_bandwidth / 1e9))),
        cross_socket_bandwidth=GBps(float(doc.get(
            "cross_socket_gbps", PCIE4_X16.cross_socket_bandwidth / 1e9))),
    )

    return MachineSpec(
        name=doc.get("name", f"custom: {cpu.name} + {gpu.name}"),
        cpu=cpu,
        sockets=int(doc.get("sockets", 2)),
        gpu=gpu,
        interconnect=interconnect,
    )


def load_machine(path: str) -> MachineSpec:
    """Read a machine-spec YAML file."""
    import yaml     # only machine files need it: keep it out of `import repro`
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid machine YAML: {exc}") from exc
    return machine_from_dict(doc or {})
