"""Free-space Shannon rate between an S-UAV and the relay.

All quantities are linear SI units; dB/dBm conversion happens at config load.
The model is calibrated at a 1 m reference distance, and every caller floors
the distance there (cost.floored_rate) rather than extrapolate below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicsConstants:
    """Shared physical constants of the system.

    bandwidth_hz: channel bandwidth B.
    rho0: linear channel gain at the 1 m reference distance.
    noise_w: receiver noise power in watts.
    f0_cycles_per_bit: CPU cycles needed per bit of video data.
    zeta: effective switched capacitance of the CPUs.
    """

    bandwidth_hz: float
    rho0: float
    noise_w: float
    f0_cycles_per_bit: float
    zeta: float

    def __post_init__(self):
        for name in ("bandwidth_hz", "rho0", "noise_w", "f0_cycles_per_bit", "zeta"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def snr_coeff(p_w: float, rho0: float, noise_w: float) -> float:
    """Combined SNR coefficient: gamma1 = rho0 * tx_power / noise (m^2)."""
    if p_w <= 0 or rho0 <= 0 or noise_w <= 0:
        raise ValueError("power, gain and noise must be positive")
    gamma1 = rho0 * p_w / noise_w
    if gamma1 <= 0:  # the product underflowed
        raise ValueError("gamma1 must be strictly positive")
    return gamma1


def rate_at_dist_sq(d2: float, bandwidth_hz: float, gamma1: float) -> float:
    """Rate as a function of squared distance; no geometry guard (d2 > 0)."""
    return bandwidth_hz * math.log2(1.0 + gamma1 / d2)
