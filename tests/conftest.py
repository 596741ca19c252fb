"""Shared fixtures and hand-built scenario helpers."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from uav_mec.association import Pools
from uav_mec.config import KB_BITS, ExperimentConfig
from uav_mec.cost import BranchPrice
from uav_mec.link import PhysicsConstants
from uav_mec.offload import Sp1Terms
from uav_mec.placement import PlacementTerms
from uav_mec.scenario import (Association, CameraSpec, Position3D, RUav,
                              Scenario, SUav, Target,
                              feasible_association_mask, generate_scenario)

DEFAULT_CAMERA = CameraSpec(
    phi_h=math.radians(58.4), phi_v=math.radians(40.0), gamma=30.0)
DEFAULT_CONSTANTS = ExperimentConfig().constants


def make_scenario(suav_xy, target_xy, *, altitude=500.0, chunk_bits=None,
                  camera=DEFAULT_CAMERA, constants=DEFAULT_CONSTANTS,
                  cpu_suav_hz=0.2e9, cpu_ruav_hz=2e9, tx_power_w=0.8,
                  mu=0.1, energy_budget_j=1e3, n0_cap=None,
                  box=(0.0, 0.0, 100.0, 1000.0, 1000.0, 1000.0)) -> Scenario:
    """Scenario with explicit S-UAV hover points and target locations."""
    n = len(suav_xy)
    if chunk_bits is None:
        chunk_bits = [250.0 * KB_BITS] * n
    suavs = tuple(
        SUav(id=j,
             initial_pos=Position3D(x, y, altitude),
             current_pos=Position3D(x, y, altitude),
             camera=camera, cpu_hz=cpu_suav_hz, tx_power_w=tx_power_w,
             compress_ratio=mu, energy_budget_j=energy_budget_j,
             hover_energy_j=0.0, chunk_bits=float(chunk_bits[j]))
        for j, (x, y) in enumerate(suav_xy))
    targets = tuple(Target(id=i, pos=Position3D(x, y, 0.0))
                    for i, (x, y) in enumerate(target_xy))
    lo, hi = Position3D(*box[:3]), Position3D(*box[3:])
    ruav = RUav(cpu_hz=cpu_ruav_hz, box_lo=lo, box_hi=hi,
                energy_budget_j=1e3, hover_energy_j=0.0)
    return Scenario(suavs=suavs, targets=targets, ruav=ruav,
                    constants=constants,
                    n0_cap=n0_cap if n0_cap is not None else max(1, n // 2),
                    seed=0)


def static_pools(scenario: Scenario) -> Pools:
    """The solve's tables with every S-UAV held where the scenario puts it
    (current_pos): how a block test hands a block its geometry."""
    return Pools(scenario, static_positions=True)


def row_terms(rows, bandwidth_hz: float = DEFAULT_CONSTANTS.bandwidth_hz
              ) -> PlacementTerms:
    """Placement terms with one row per (point, gamma1, tx_bits, fixed_s),
    every rate floor 0."""
    return PlacementTerms(
        rows=tuple((*map(float, p), float(g), float(t), float(f), 0.0)
                   for p, g, t, f in rows),
        bandwidth_hz=bandwidth_hz)


def link_terms(q_n, gamma1: float,
               bandwidth_hz: float = DEFAULT_CONSTANTS.bandwidth_hz
               ) -> PlacementTerms:
    """Placement terms for transmitters at the rows of q_n, holding only what
    the rate surrogate reads: positions, SNR coefficient and bandwidth."""
    q = np.atleast_2d(np.asarray(q_n, dtype=float)).tolist()
    return row_terms([(p, gamma1, 0.0, 0.0) for p in q], bandwidth_hz)


def term_arrays(terms: PlacementTerms) -> SimpleNamespace:
    """terms.rows as NumPy arrays: q (n, 3), and gamma1, tx_bits, fixed_s
    and floors (n,); with terms.bandwidth_hz."""
    a = np.array(terms.rows, dtype=float).reshape(-1, 7)
    return SimpleNamespace(q=a[:, :3], gamma1=a[:, 3], tx_bits=a[:, 4],
                           fixed_s=a[:, 5], floors=a[:, 6],
                           bandwidth_hz=terms.bandwidth_hz)


def sp1_arrays(t: Sp1Terms) -> SimpleNamespace:
    """t's records as NumPy arrays at its rates, (n,) each, an idle S-UAV's
    zero: the local branch's compute seconds t_loc, both branches' transmit
    seconds t_tx_loc and t_tx_off and execution energies e_local and
    e_offload, and the relay compute seconds per unit of xi k_ruav; and
    e_ruav (n0_cap, n), the relay compute energy at m offloaders in row
    m - 1."""
    table = np.array(t.prices)  # (n, n0_cap + 1, 8)
    idle = [j not in t.rates for j in range(len(table))]
    table[idle, :, :4] = 0.0  # an idle S-UAV's records at 0 bits
    r = np.array([t.rates.get(j, 1.0) for j in range(len(table))])
    local, off = BranchPrice(*table[:, 0].T), BranchPrice(*table[:, 1].T)
    return SimpleNamespace(t_loc=local.fixed_s, t_tx_loc=local.tx_bits / r,
                           t_tx_off=off.tx_bits / r, k_ruav=off.fixed_s,
                           e_local=local.energy(r), e_offload=off.energy(r),
                           e_ruav=table[:, 1:, 3].T)


def full_association(scenario: Scenario) -> Association:
    """Every target to its first covering S-UAV."""
    mask = feasible_association_mask(scenario)
    alpha = np.zeros_like(mask)
    for i in range(scenario.n_targets):
        alpha[i, int(np.flatnonzero(mask[i])[0])] = 1
    return Association(alpha=alpha, feasible_mask=mask)


def identity_association(scenario: Scenario) -> Association:
    """Target i to S-UAV i (valid when targets sit at the S-UAV nadirs)."""
    mask = feasible_association_mask(scenario)
    alpha = np.zeros_like(mask)
    for i in range(scenario.n_targets):
        alpha[i, min(i, scenario.n_suavs - 1)] = 1
    return Association(alpha=alpha, feasible_mask=mask)


def counting(monkeypatch, module, name, override=None):
    """Wrap module.name so that every call is counted; `override` may
    rewrite the wrapped function's return value."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return override(out) if override else out

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def dfs_allowance(monkeypatch):
    """Sets association.DFS_ALLOWANCE for the rest of one test. A search that
    runs out of it hands the call to the columns (their lower bound, then
    the column cover); 0 enters one node."""
    from uav_mec import association

    def set_allowance(nodes: int) -> None:
        monkeypatch.setattr(association, "DFS_ALLOWANCE", nodes)

    return set_allowance


@pytest.fixture(scope="session")
def default_config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def small_config() -> ExperimentConfig:
    from dataclasses import replace
    return replace(ExperimentConfig(), n_suavs=4, n_targets=5)


@pytest.fixture(scope="session")
def scenario0(default_config) -> Scenario:
    return generate_scenario(default_config, 0)
