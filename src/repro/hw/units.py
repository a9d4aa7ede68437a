"""Unit helpers used throughout the hardware model.

Internal conventions (chosen once, used everywhere):

- **time** is measured in microseconds (float)
- **bandwidth** in bytes per second
- **compute throughput** in FLOP/s
- **capacity** in bytes

The constructors below exist so call sites read like the paper's prose
(``GBps(220)``, ``TFLOPS(73.7)``) instead of raw powers of ten.
"""

from __future__ import annotations

US_PER_S = 1e6

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


def GBps(value: float) -> float:
    """Bandwidth: gigabytes per second -> bytes per second (decimal GB)."""
    return value * 1e9


def TFLOPS(value: float) -> float:
    """Compute: teraFLOP/s -> FLOP/s."""
    return value * 1e12


def ms(value: float) -> float:
    """Time: milliseconds -> microseconds."""
    return value * 1e3


def seconds(value: float) -> float:
    """Time: seconds -> microseconds."""
    return value * US_PER_S


def us_to_s(value_us: float) -> float:
    """Convert microseconds back to seconds (for tokens/s reporting)."""
    return value_us / US_PER_S


def tokens_per_second(tokens: float, elapsed_us: float) -> float:
    """Throughput helper: tokens produced over a simulated duration."""
    if elapsed_us <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_us}")
    return tokens / us_to_s(elapsed_us)
