"""Latency and energy bookkeeping for both computing placements.

Per S-UAV, a video chunk is either processed on board and the compressed
result transmitted, or transmitted raw and processed on the relay, which
splits its CPU evenly among the S-UAVs offloading in the same slot. S-UAVs
with no monitored targets carry no video and are excluded from the min-max
objective and the delay-difference metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleSubproblem, InvalidDecision
from .link import rate_at_dist_sq, snr_coeff
from .scenario import Association, Position3D, Scenario


@dataclass(frozen=True)
class LatencyBreakdown:
    suav_id: int
    local_compute_s: float
    local_tx_s: float
    offload_tx_s: float
    ruav_compute_s: float
    total_s: float
    offloaded: bool
    active: bool  # carries video this slot (monitors at least one target)


@dataclass(frozen=True)
class EnergyBreakdown:
    owner: str  # "suav:<id>" or "ruav"
    comm_j: float
    comp_j: float
    hover_j: float

    @property
    def total_j(self) -> float:
        return self.comm_j + self.comp_j + self.hover_j


def effective_chunk_bits(scenario: Scenario, alpha: np.ndarray) -> np.ndarray:
    """Per-S-UAV task size: the chunk size if it monitors anything, else 0."""
    monitored = alpha.sum(axis=0) > 0
    sizes = np.array([s.chunk_bits for s in scenario.suavs])
    return np.where(monitored, sizes, 0.0)


class BranchPrice(NamedTuple):
    """One S-UAV's price record on one computing branch: all that its
    latency, execution energy and budget test need but the link rate r,
    which may be an array, as may every field of a stacked record. The
    blocks price only S-UAVs that carry video: an idle one costs nothing
    but its hover, which price_table has already tested."""

    tx_bits: float   # bits sent to the relay: compressed result or raw chunk
    fixed_s: float   # compute seconds, on board or fair-share on the relay
    comp_j: float    # on-board compute energy
    relay_j: float   # relay compute energy spent on this S-UAV's chunk
    gamma1: float    # SNR coefficient of the S-UAV's link (link.snr_coeff)
    tx_power_w: float
    hover_j: float
    budget_j: float

    def latency(self, r):
        return self.tx_bits / r + self.fixed_s

    def energy(self, r):
        return self.tx_power_w * (self.tx_bits / r) + self.comp_j

    def fits(self, r):
        """The budget test, hover included, in the evaluator's arithmetic."""
        return self.energy(r) + self.hover_j <= self.budget_j

    @property
    def rate_floor(self) -> float:
        """The least rate at which the S-UAV keeps its budget, or inf if
        none does."""
        headroom = self.budget_j - self.hover_j - self.comp_j
        if headroom <= 0.0:
            return math.inf
        return self.tx_power_w * self.tx_bits / headroom


def branch_price(scenario: Scenario, j: int, s: float, offloaded: bool,
                 n_offloaders: int) -> BranchPrice:
    """Price record of S-UAV j processing s bits on board, or on the relay
    whose CPU is split evenly among n_offloaders. The one place the model
    lives."""
    c = scenario.constants
    suav = scenario.suavs[j]
    if offloaded:
        if n_offloaders < 1:
            raise InvalidDecision("offloading S-UAV needs n_offloaders >= 1")
        branch = _offload_terms(scenario, s, n_offloaders)
    else:
        branch = (suav.compress_ratio * s, s * c.f0_cycles_per_bit / suav.cpu_hz,
                  suav.cpu_hz**2 * c.zeta * s * c.f0_cycles_per_bit, 0.0)
    return BranchPrice(*branch, snr_coeff(suav.tx_power_w, c.rho0, c.noise_w),
                       suav.tx_power_w, suav.hover_energy_j, suav.energy_budget_j)


def _offload_terms(scenario: Scenario, s: float,
                   n_offloaders: int) -> tuple[float, float, float, float]:
    """The offload branch's (tx_bits, fixed_s, comp_j, relay_j) for s bits
    on a relay whose CPU is split evenly among n_offloaders."""
    c, f_r = scenario.constants, scenario.ruav.cpu_hz
    return (s, s * c.f0_cycles_per_bit * n_offloaders / f_r, 0.0,
            n_offloaders * f_r**2 * c.zeta * c.f0_cycles_per_bit * s)


def suav_prices(scenario: Scenario, s_bits, beta) -> list[BranchPrice]:
    """Every S-UAV's price record at task sizes s_bits under offload
    decision beta: the one place the fair share's offloader count is taken."""
    n_off = int(sum(beta))
    return [branch_price(scenario, j, float(s), bool(b), n_off)
            for j, (s, b) in enumerate(zip(s_bits, beta))]


def price_table(scenario: Scenario) -> list[list[BranchPrice]]:
    """Every S-UAV's price records at its chunk size, one row per S-UAV:
    the local branch's at index 0 and the offload branch's at m offloaders
    at index m, for m up to the relay cap. A solve builds it once, first
    (association.Pools.prices), and every block reads it: SP1 by row, the
    others through plan_prices.

    Raises InfeasibleSubproblem if an S-UAV's hover alone breaks its budget,
    the lowest index first, or else if the relay's does: every plan then
    breaks that budget, whatever the blocks decide. So a table vouches that
    every idle S-UAV keeps its budget, and the blocks price only those that
    carry video.
    """
    owners = [(f"S-UAV {j}", s) for j, s in enumerate(scenario.suavs)]
    for owner, uav in owners + [("the relay", scenario.ruav)]:
        if uav.hover_energy_j > uav.energy_budget_j:
            raise InfeasibleSubproblem(
                f"{owner}'s hover alone breaks its energy budget")
    table = []
    for j, suav in enumerate(scenario.suavs):
        s = float(suav.chunk_bits)
        local = branch_price(scenario, j, s, False, 0)
        # The offload records share the local one's S-UAV fields.
        table.append([local] + [
            BranchPrice(*_offload_terms(scenario, s, m), *local[4:])
            for m in range(1, scenario.n0_cap + 1)])
    return table


def plan_prices(table: list[list[BranchPrice]], beta) -> list[BranchPrice]:
    """Every S-UAV's record under offload decision beta, read from a price
    table (price_table): for an S-UAV that carries video, to the bit what
    suav_prices gives. Every record is at the S-UAV's chunk size, and a
    block reads one only where the S-UAV carries video. Past the relay cap
    it raises InvalidDecision, as the evaluator does."""
    m = int(sum(beta))
    if m >= len(table[0]):
        raise InvalidDecision("offloader count exceeds the relay cap")
    return [row[m if b else 0] for row, b in zip(table, beta)]


def floored_rate(pos: tuple[float, float, float],
                 q_m: tuple[float, float, float], gamma1: float,
                 bandwidth_hz: float) -> float:
    """Rate from pos to the relay at q_m, each an (x, y, h) triple
    (Position3D.xyz), with the distance floored at the 1 m reference: the
    one convention every block and the evaluator price by.

    The squared distance is summed on floats as (dx*dx + dy*dy) + dz*dz,
    which is bit for bit what NumPy gives for ((p - q) ** 2).sum() over a
    3-vector: NumPy squares by multiplying and adds so short a row left to
    right. floored_rates prices arrays with that expression, so the two
    agree to the last bit.
    """
    (x, y, h), (qx, qy, qh) = pos, q_m
    dx, dy, dz = x - qx, y - qy, h - qh
    d2 = max((dx * dx + dy * dy) + dz * dz, 1.0)
    return rate_at_dist_sq(d2, bandwidth_hz, gamma1)


def floored_rates(pos: np.ndarray, q_m: np.ndarray, gamma1,
                  bandwidth_hz: float) -> np.ndarray:
    """floored_rate over broadcast rows (..., 3) of pos and q_m, to the
    bit: math.log2 per element, as NumPy's log2 differs in the last bit on
    some inputs."""
    d2 = np.maximum(((pos - q_m) ** 2).sum(axis=-1), 1.0)
    snr = 1.0 + gamma1 / d2
    log2 = [math.log2(v) for v in snr.ravel().tolist()]
    return bandwidth_hz * np.array(log2).reshape(snr.shape)


def objective_and_spread(latencies: list[LatencyBreakdown]) -> tuple[float, float]:
    """(max latency, population stddev) over S-UAVs that carry video."""
    if not latencies:
        raise ValueError("need at least one latency entry")
    totals = [lb.total_s for lb in latencies if lb.active]
    if not totals:
        return 0.0, 0.0
    arr = np.array(totals)
    return float(arr.max()), float(arr.std())


def evaluate_solution(scenario: Scenario, association: Association,
                      beta: np.ndarray, q_m: Position3D):
    """Exact objective, spread and breakdowns at one (alpha, beta, q_M) point:
    (objective, spread, latency breakdowns, energy breakdowns ending with
    the relay's: its hover plus the fair-share compute term of every
    offloaded chunk). An S-UAV that carries no video sends 0 bits, so its
    link prices to zero at its own rate, as does its compute: only its
    hover remains.

    The scenario must already be repositioned under the association.
    Raises InvalidDecision if beta offloads past the relay cap.
    """
    beta = np.asarray(beta, dtype=int)
    if beta.sum() > scenario.n0_cap:
        raise InvalidDecision("offloader count exceeds the relay cap")
    s_bits = effective_chunk_bits(scenario, association.alpha)
    prices = suav_prices(scenario, s_bits, beta)
    lats, energies = [], []
    for suav, s, off, price in zip(scenario.suavs, s_bits.tolist(),
                                   beta.tolist(), prices):
        t_tx = price.tx_bits / floored_rate(suav.current_pos.xyz, q_m.xyz,
                                            price.gamma1,
                                            scenario.constants.bandwidth_hz)
        lats.append(LatencyBreakdown(
            suav_id=suav.id,
            local_compute_s=0.0 if off else price.fixed_s,
            local_tx_s=0.0 if off else t_tx,
            offload_tx_s=t_tx if off else 0.0,
            ruav_compute_s=price.fixed_s if off else 0.0,
            total_s=t_tx + price.fixed_s,
            offloaded=bool(off),
            active=s > 0.0,
        ))
        energies.append(EnergyBreakdown(f"suav:{suav.id}",
                                        price.tx_power_w * t_tx,
                                        price.comp_j, price.hover_j))
    energies.append(EnergyBreakdown("ruav", 0.0,
                                    float(np.sum([p.relay_j for p in prices])),
                                    scenario.ruav.hover_energy_j))
    objective, spread = objective_and_spread(lats)
    return objective, spread, lats, energies
