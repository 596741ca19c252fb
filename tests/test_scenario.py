"""Geometry, repositioning, coverage and generation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uav_mec.config import ExperimentConfig
from uav_mec.errors import InfeasibleScenario
from uav_mec.scenario import (CameraSpec, Position3D, Target,
                              feasible_association_mask, fov_extents, fov_rect,
                              generate_scenario, reposition,
                              repositioned_scenario, suav_grid_positions)

from .conftest import DEFAULT_CAMERA, full_association, make_scenario


class TestFovExtents:
    def test_zero_altitude(self):
        assert fov_extents(0.0, DEFAULT_CAMERA) == (0.0, 0.0)

    def test_default_angles_at_500m(self):
        hfov, vfov = fov_extents(500.0, DEFAULT_CAMERA)
        assert hfov == pytest.approx(558.9, abs=0.1)
        assert vfov == pytest.approx(364.0, abs=0.1)

    def test_right_angle_lens(self):
        cam = CameraSpec(phi_h=math.radians(90.0), phi_v=math.radians(40.0),
                         gamma=30.0)
        hfov, _ = fov_extents(30.0, cam)
        assert hfov == pytest.approx(60.0)

    def test_negative_altitude_raises(self):
        with pytest.raises(ValueError):
            fov_extents(-1.0, DEFAULT_CAMERA)


class TestFovRect:
    def test_centered_halves(self):
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)])
        rect = fov_rect(sc.suavs[0])
        assert rect.x_lo == pytest.approx(500.0 - 279.4, abs=0.1)
        assert rect.x_hi == pytest.approx(500.0 + 279.4, abs=0.1)
        assert rect.y_lo == pytest.approx(500.0 - 182.0, abs=0.1)
        assert rect.y_hi == pytest.approx(500.0 + 182.0, abs=0.1)
        assert rect.contains(500.0, 500.0)

    def test_cover_boundary(self):
        sc = make_scenario([(500.0, 500.0)],
                           [(500.0, 500.0), (500.0 + 279.4 / 2, 500.0)])
        rect = fov_rect(sc.suavs[0])
        assert rect.contains(sc.targets[0].pos.x, sc.targets[0].pos.y)
        assert rect.contains(sc.targets[1].pos.x, sc.targets[1].pos.y)
        hfov, _ = fov_extents(500.0, DEFAULT_CAMERA)
        assert not rect.contains(500.0 + hfov / 2 + 1.0, 500.0)


class TestReposition:
    def test_no_targets_keeps_initial(self):
        sc = make_scenario([(100.0, 200.0)], [(100.0, 200.0)])
        assert reposition(sc.suavs[0], []) == sc.suavs[0].initial_pos

    def test_single_target_overhead_at_gamma(self):
        sc = make_scenario([(100.0, 200.0)], [(340.0, 410.0)])
        pos = reposition(sc.suavs[0], [sc.targets[0]])
        assert (pos.x, pos.y, pos.h) == (340.0, 410.0, 30.0)

    def test_two_target_example(self):
        sc = make_scenario([(100.0, 0.0)], [(0.0, 0.0), (200.0, 0.0)])
        pos = reposition(sc.suavs[0], list(sc.targets))
        assert pos.x == pytest.approx(100.0)
        assert pos.y == pytest.approx(0.0)
        assert pos.h == pytest.approx(100.0 / math.tan(math.radians(29.2)) + 30.0,
                                      abs=0.1)
        assert pos.h == pytest.approx(208.9, abs=0.1)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)),
                    min_size=1, max_size=6))
    def test_repositioned_footprint_strictly_contains_targets(self, pts):
        sc = make_scenario([(500.0, 500.0)], [(500.0, 500.0)])
        targets = [Target(id=i, pos=Position3D(x, y, 0.0))
                   for i, (x, y) in enumerate(pts)]
        pos = reposition(sc.suavs[0], targets)
        moved = replace(sc.suavs[0], current_pos=pos)
        rect = fov_rect(moved)
        for t in targets:
            # The gamma margin keeps targets strictly inside the footprint.
            assert rect.x_lo < t.pos.x < rect.x_hi
            assert rect.y_lo < t.pos.y < rect.y_hi


class TestFeasibleMask:
    def test_all_covered_single_suav(self):
        sc = make_scenario([(500.0, 500.0)],
                           [(450.0, 480.0), (510.0, 520.0)])
        mask = feasible_association_mask(sc)
        assert mask.shape == (2, 1)
        assert mask.all()

    def test_uncovered_target_raises(self):
        sc = make_scenario([(100.0, 100.0)], [(100.0, 100.0), (900.0, 900.0)])
        with pytest.raises(InfeasibleScenario):
            feasible_association_mask(sc)

    def test_footprint_bounds_are_closed(self):
        probe = make_scenario([(500.0, 500.0)], [(500.0, 500.0)])
        rect = fov_rect(probe.suavs[0], at_initial=True)
        corners = [(rect.x_lo, rect.y_lo), (rect.x_hi, rect.y_hi),
                   (rect.x_lo, rect.y_hi), (rect.x_hi, rect.y_lo)]
        sc = make_scenario([(500.0, 500.0), (900.0, 900.0)],
                           corners + [(900.0, 900.0)])
        assert feasible_association_mask(sc)[:, 0].tolist() == [1] * 4 + [0]

    @pytest.mark.parametrize("shape", [(8, 20), (16, 40), (32, 80)])
    def test_matches_the_rect_by_rect_loop(self, shape):
        # The mask compares arrays; the loop it replaced is the reference.
        config = replace(ExperimentConfig(), n_suavs=shape[0],
                         n_targets=shape[1])
        for seed in range(10):
            sc = generate_scenario(config, seed)
            loop = np.zeros((sc.n_targets, sc.n_suavs), dtype=np.int8)
            for j, suav in enumerate(sc.suavs):
                rect = fov_rect(suav, at_initial=True)
                for i, target in enumerate(sc.targets):
                    loop[i, j] = rect.contains(target.pos.x, target.pos.y)
            mask = feasible_association_mask(sc)
            assert mask.dtype == loop.dtype
            assert np.array_equal(mask, loop)


class TestGenerator:
    def test_deterministic(self, default_config):
        a = generate_scenario(default_config, 7)
        b = generate_scenario(default_config, 7)
        assert a == b

    def test_seed_changes_targets(self, default_config):
        a = generate_scenario(default_config, 1)
        b = generate_scenario(default_config, 2)
        assert any(ta.pos != tb.pos for ta, tb in zip(a.targets, b.targets))

    def test_every_target_initially_covered(self, default_config):
        for seed in range(10):
            sc = generate_scenario(default_config, seed)
            for t in sc.targets:
                assert any(fov_rect(s, at_initial=True).contains(t.pos.x, t.pos.y)
                           for s in sc.suavs)

    def test_single_suav_centered(self):
        cfg = replace(ExperimentConfig(), n_suavs=1, n_targets=1, n0_cap=1)
        sc = generate_scenario(cfg, 0)
        pos = sc.suavs[0].initial_pos
        assert (pos.x, pos.y) == (500.0, 500.0)

    def test_grid_covers_area(self, default_config):
        cam = DEFAULT_CAMERA
        grid = suav_grid_positions(8, 1000.0, 500.0, cam)
        rects = [fov_rect(s, at_initial=True)
                 for s in generate_scenario(default_config, 0).suavs]
        assert len(grid) == 8
        for x in np.linspace(0.5, 999.5, 21):
            for y in np.linspace(0.5, 999.5, 21):
                assert any(r.contains(x, y) for r in rects)

    def test_chunk_sizes_in_range(self, default_config):
        # Each S-UAV keeps the mean of its own n_chunks draws, in order.
        sc = generate_scenario(default_config, 3)
        rng = np.random.default_rng([3, 0xC4])
        for s in sc.suavs:
            sizes = [float(v) * 8192.0 for v in
                     rng.uniform(200.0, 300.0, size=default_config.n_chunks)]
            assert s.chunk_bits == sum(sizes) / len(sizes)
            assert 200.0 * 8192.0 <= s.chunk_bits <= 300.0 * 8192.0


class TestRepositionedScenario:
    def test_assigned_targets_covered_after_move(self, scenario0):
        assoc = full_association(scenario0)
        placed = repositioned_scenario(scenario0, assoc.alpha)
        for i in range(scenario0.n_targets):
            j = int(np.flatnonzero(assoc.alpha[i])[0])
            t = scenario0.targets[i]
            assert fov_rect(placed.suavs[j]).contains(t.pos.x, t.pos.y)

    def test_unassigned_suav_stays_put(self, scenario0):
        assoc = full_association(scenario0)
        alpha = assoc.alpha.copy()
        placed = repositioned_scenario(scenario0, alpha)
        for j in range(scenario0.n_suavs):
            if alpha[:, j].sum() == 0:
                assert placed.suavs[j].current_pos == \
                    scenario0.suavs[j].initial_pos

