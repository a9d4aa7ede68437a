"""Hardware simulation substrate: specs, discrete-event simulator, cost models."""

from .calibration import (
    Anchor,
    AnchorResult,
    format_calibration_report,
    paper_anchors,
    run_calibration_check,
)
from .custom import load_machine, machine_from_dict
from .event_sim import Simulator
from .roofline import (
    CPU_KERNEL_PROFILES,
    KT_AMX,
    KT_AVX512,
    LLAMACPP_AVX512,
    TORCH_AMX,
    TORCH_AVX512,
    CPUKernelProfile,
    cpu_gemm_achieved_tflops,
    cpu_gemm_time_us,
    cross_socket_transfer_time_us,
    gpu_kernel_time_us,
    pcie_transfer_time_us,
)
from .spec import (
    A100_40G,
    PCIE4_X16,
    RTX_4080_16G,
    XEON_8452Y,
    CPUSpec,
    GPUSpec,
    InterconnectSpec,
    MachineSpec,
    paper_testbed,
    single_socket_testbed,
)
from .trace import Interval, Trace
from . import units

__all__ = [
    "Anchor", "AnchorResult", "format_calibration_report", "paper_anchors",
    "run_calibration_check",
    "load_machine", "machine_from_dict",
    "Simulator",
    "CPU_KERNEL_PROFILES", "KT_AMX", "KT_AVX512", "LLAMACPP_AVX512",
    "TORCH_AMX", "TORCH_AVX512", "CPUKernelProfile",
    "cpu_gemm_achieved_tflops", "cpu_gemm_time_us",
    "cross_socket_transfer_time_us", "gpu_kernel_time_us",
    "pcie_transfer_time_us",
    "A100_40G", "PCIE4_X16", "RTX_4080_16G", "XEON_8452Y",
    "CPUSpec", "GPUSpec", "InterconnectSpec", "MachineSpec",
    "paper_testbed", "single_socket_testbed",
    "Interval", "Trace", "units",
]
