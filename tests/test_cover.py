"""The association's box-closed columns: built as brute force finds them,
priced as the search prices the same targets, and built without numpy.ma."""

import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from uav_mec import cover
from uav_mec.association import Pools, _Context
from uav_mec.scenario import Position3D

from .conftest import make_scenario

# A pool of drawn targets, duplicates included, under the S-UAV at
# (500, 500), and optionally one target only the S-UAV at (850, 850) sees.
# Each S-UAV draws its own chunk size, offload bit and transmit power, so a
# column priced with the other S-UAV's branch price or SNR coefficient is
# priced wrong.
_SPOTS = st.tuples(st.floats(300.0, 700.0), st.floats(340.0, 660.0))


@st.composite
def _pricing_instance(draw):
    spots = draw(st.lists(_SPOTS, min_size=1, max_size=4))
    target_xy = draw(st.lists(st.sampled_from(spots), min_size=1, max_size=7))
    suav_xy = [(500.0, 500.0)]
    if draw(st.booleans()):
        suav_xy.append((850.0, 850.0))
        target_xy.append((draw(st.floats(800.0, 900.0)),
                          draw(st.floats(800.0, 900.0))))
    n = len(suav_xy)

    def per_suav(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    sc = make_scenario(
        suav_xy, target_xy, n0_cap=n,
        chunk_bits=per_suav(st.floats(1e6, 3e6)),
        energy_budget_j=draw(st.floats(0.009, 0.016)))
    sc = replace(sc, suavs=tuple(
        replace(suav, tx_power_w=p)
        for suav, p in zip(sc.suavs, per_suav(st.floats(0.4, 1.2)))))
    beta = np.array(per_suav(st.integers(0, 1)))
    q_m = Position3D(draw(st.floats(0.0, 1000.0)),
                     draw(st.floats(0.0, 1000.0)),
                     draw(st.floats(100.0, 1000.0)))
    return _Context(Pools(sc, draw(st.booleans())), beta, q_m)


def _box_closed_subsets(ctx, j):
    """Brute force: nonempty subsets of S-UAV j's pool equal to the pool
    targets inside their own bounding box, as sets of target indices."""
    pool = np.flatnonzero(ctx.pools.mask[:, j])
    xy = np.array([(ctx.pools.scenario.targets[i].pos.x,
                    ctx.pools.scenario.targets[i].pos.y) for i in pool])
    out = set()
    for r in range(1, len(pool) + 1):
        for subset in itertools.combinations(range(len(pool)), r):
            lo, hi = xy[list(subset)].min(axis=0), xy[list(subset)].max(axis=0)
            inside = np.all((lo <= xy) & (xy <= hi), axis=1)
            if set(np.flatnonzero(inside)) == set(subset):
                out.add(frozenset(pool[list(subset)].tolist()))
    return out


class TestColumnPrices:
    @settings(max_examples=150, deadline=None)
    @given(_pricing_instance())
    def test_columns_are_the_box_closed_subsets_priced_exactly(self, ctx):
        cols = ctx.pools.columns()
        latency, feasible = cover.price(cols, ctx.prices, ctx.q,
                                        ctx.bandwidth_hz)
        assert cols.sizes.sum() == len(cols.held)
        for j in range(ctx.pools.scenario.n_suavs):
            rows = range(cols.starts[j], cols.starts[j + 1])
            held = {k: cols.held[cols.first[k]:cols.first[k] + cols.sizes[k]]
                    .tolist() for k in rows}
            assert {frozenset(held[k]) for k in rows} == \
                _box_closed_subsets(ctx, j)
            pool = np.flatnonzero(ctx.pools.mask[:, j]).tolist()
            for k in rows:
                assert cols.suav[k] == j
                assert held[k] == [pool[p] for p in range(len(pool))
                                   if int(cols.masks[k]) >> p & 1]
                assert ctx.latency(j, sum(1 << i for i in held[k])) == (
                    latency.tolist()[k], feasible.tolist()[k])


class TestDistinct:
    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                 min_side=0, max_side=6),
                      elements=st.integers(-4, 4)))
    def test_matches_numpy_unique(self, a):
        out = cover._distinct(a)
        expected = np.unique(a)
        assert out.dtype == expected.dtype
        assert out.tolist() == expected.tolist()


FLEET_SOLVE = """
import sys
from dataclasses import replace
from uav_mec.config import ExperimentConfig
from uav_mec.orchestrator import run_scheme
from uav_mec.scenario import generate_scenario
config = replace(ExperimentConfig(), n_suavs=16, n_targets=40)
run_scheme(generate_scenario(config, 0), "proposed")
print("numpy.ma" in sys.modules)
"""


def test_a_fleet_solve_imports_no_numpy_ma():
    # The fleet seed-0 solve builds columns; np.unique would import numpy.ma
    # on the way, in the middle of the first solve.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", FLEET_SOLVE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
