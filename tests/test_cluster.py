import math
import random
from collections import Counter

import pytest

import oracles
from evsite.cluster import NOISE, cluster_all, dbscan_lga
from evsite.constraints import AdjustedParams, ConstraintConfig, adjust_params
from evsite.geo import METERS_PER_DEG, GeoPoint
from evsite.ingest import DemandPoint

NEUTRAL = ConstraintConfig(eps_factor_poi=1.0, minpts_factor_poi=1.0,
                           minpts_factor_route=1.0, minpts_factor_flood=1.0,
                           minpts_factor_fire=1.0)

# what adjust_params gives every point under NEUTRAL
BASE = AdjustedParams(NEUTRAL.base_eps_m, NEUTRAL.base_minpts)


def demand(points, start_id=0):
    return [DemandPoint(start_id + i, GeoPoint(lat, lon), "t", "origin")
            for i, (lat, lon) in enumerate(points)]


def random_cloud(rng, n, box_km=10.0):
    half = box_km * 1000 / 111194.9 / 2
    return [(-33.5 + rng.uniform(-half, half), 150.5 + rng.uniform(-half, half))
            for _ in range(n)]


class TestDbscanLga:
    def test_three_coincident_points_one_cluster(self):
        pts = demand([(-33.5, 150.5)] * 3)
        result = dbscan_lga(pts, [AdjustedParams(800.0, 2)] * 3)
        assert result.assignment.labels == (0, 0, 0)
        assert result.assignment.cluster_count == 1

    def test_far_apart_all_noise(self):
        pts = demand([(-33.0, 150.0), (-33.5, 150.5), (-34.0, 151.0)])
        result = dbscan_lga(pts, [BASE] * 3)
        assert result.assignment.labels == (NOISE, NOISE, NOISE)
        assert result.assignment.cluster_count == 0

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            dbscan_lga(demand([(-33.5, 150.5)] * 2), [BASE])

    def test_neutral_matches_textbook_oracle(self):
        for seed in range(50):
            rng = random.Random(1000 + seed)
            coords = random_cloud(rng, 80, box_km=8.0)
            pts = demand(coords)
            result = dbscan_lga(pts, [BASE] * len(pts))
            want, want_c = oracles.textbook_dbscan(coords, NEUTRAL.base_eps_m,
                                                   NEUTRAL.base_minpts)
            got = oracles.relabel_by_first_occurrence(result.assignment.labels)
            assert got == oracles.relabel_by_first_occurrence(want)
            assert result.assignment.cluster_count == want_c

    def test_per_point_params_match_brute_oracle(self):
        for seed in range(30):
            rng = random.Random(2000 + seed)
            coords = random_cloud(rng, 100, box_km=10.0)
            pts = demand(coords)
            # random contexts so per-point factors actually vary
            contexts = [(rng.uniform(0, 100),
                         rng.choice([rng.uniform(0, 400), math.inf]),
                         rng.choice([rng.uniform(0, 400), math.inf]),
                         rng.choice([None, rng.uniform(0, 5)]))
                        for _ in coords]
            cfg = ConstraintConfig()
            params = [adjust_params(*ctx, cfg) for ctx in contexts]
            result = dbscan_lga(pts, params)
            want, _ = oracles.brute_dbscan_per_point(
                coords, [p.eps_m for p in params], [p.minpts for p in params])
            assert (oracles.relabel_by_first_occurrence(result.assignment.labels)
                    == oracles.relabel_by_first_occurrence(want))

    def test_permutation_invariance(self):
        rng = random.Random(17)
        coords = random_cloud(rng, 60)
        pts = demand(coords)
        base = dbscan_lga(pts, [BASE] * len(pts))
        by_id = {dp.point_id: lab for dp, lab in zip(pts, base.assignment.labels)}
        order = list(range(len(pts)))
        rng.shuffle(order)
        shuffled = [pts[i] for i in order]
        got = dbscan_lga(shuffled, [BASE] * len(pts))
        assert {dp.point_id: lab for dp, lab in
                zip(shuffled, got.assignment.labels)} == by_id

    def test_structural_invariants(self):
        rng = random.Random(18)
        coords = random_cloud(rng, 150)
        pts = demand(coords)
        result = dbscan_lga(pts, [BASE] * len(pts))
        labels = result.assignment.labels
        n_clusters = result.assignment.cluster_count
        assert all(lab == NOISE or 0 <= lab < n_clusters for lab in labels)
        assert set(lab for lab in labels if lab != NOISE) == set(range(n_clusters))
        # core points: |N(p)| >= minpts; every cluster has one; noise is non-core
        core = []
        for i, (lat, lon) in enumerate(coords):
            n_count = sum(1 for c in coords
                          if oracles.haversine_oracle(lat, lon, *c)
                          <= NEUTRAL.base_eps_m)
            core.append(n_count >= NEUTRAL.base_minpts)
        for c in range(n_clusters):
            assert any(core[i] for i in range(len(pts)) if labels[i] == c)
        for i, lab in enumerate(labels):
            if core[i]:
                assert lab != NOISE
            if lab == NOISE:
                assert not core[i]

    @pytest.mark.parametrize("cfg", [
        # eps 90 or 120 m: a dense core, a fringe of border points and noise
        ConstraintConfig(base_eps_m=120.0, eps_min_m=50.0, base_minpts=12),
        # eps 100 m near a POI and 2000 m elsewhere, so that cells come from
        # the floor of an eighth of the largest eps; 2000-m points never core
        ConstraintConfig(base_eps_m=2000.0, eps_factor_poi=0.05, eps_min_m=100.0,
                         base_minpts=400, minpts_factor_poi=0.05),
        # eps 100 m near a POI and 200 m elsewhere with one MinPts for both:
        # far points reach near ones that cannot reach back, and both are core
        ConstraintConfig(base_eps_m=200.0, eps_factor_poi=0.5, base_minpts=40,
                         minpts_factor_poi=1.0, minpts_factor_route=1.0,
                         minpts_factor_flood=1.0, minpts_factor_fire=1.0),
    ])
    def test_dense_hotspot_matches_brute_oracle(self, cfg):
        rng = random.Random(int(cfg.base_eps_m))
        lat0, lon0 = -33.5, 150.5
        m_lon = METERS_PER_DEG * math.cos(math.radians(lat0))
        coords = [(lat0 + rng.gauss(0, 150) / METERS_PER_DEG,
                   lon0 + rng.gauss(0, 150) / m_lon) for _ in range(300)]
        ids = rng.sample(range(100_000), len(coords))
        pts = [DemandPoint(pid, GeoPoint(lat, lon), "t", "origin")
               for pid, (lat, lon) in zip(ids, coords)]
        contexts = [(rng.uniform(0, 20),
                     rng.uniform(0, 300) if rng.random() < 0.8 else math.inf,
                     rng.choice([rng.uniform(0, 400), math.inf]),
                     rng.choice([None, rng.uniform(0, 5)]))
                    for _ in pts]
        params = [adjust_params(*ctx, cfg) for ctx in contexts]
        result = dbscan_lga(pts, params)
        assert result.per_point_params == tuple(params)
        # the oracle visits in index order: hand it the points by id
        by_id = sorted(range(len(pts)), key=lambda k: pts[k].point_id)
        want, want_c = oracles.brute_dbscan_per_point(
            [coords[k] for k in by_id], [params[k].eps_m for k in by_id],
            [params[k].minpts for k in by_id])
        assert [result.assignment.labels[k] for k in by_id] == want
        assert result.assignment.cluster_count == want_c
        assert want_c >= 1 and NOISE in want


    @pytest.mark.parametrize("lat0,lon0", [(-33.5, 150.5), (70.0, 180.0)])
    @pytest.mark.parametrize("minpts", [20, 26, 30])
    def test_many_points_per_cell_at_one_eps_match_brute_oracle(self, lat0, lon0, minpts):
        # one eps of 100 m for every point, so cells are 50 m wide (17 m of
        # longitude at 70 N) and many hold two points or more: most steps
        # query a cell that an earlier step queried at the same eps. A point
        # has about 26 others within eps, so one point missed can change
        # whether it is core. At 70 N the square straddles the antimeridian.
        rng = random.Random(minpts)
        m_lon = METERS_PER_DEG * math.cos(math.radians(lat0))
        coords = []
        for _ in range(300):
            north_m, east_m = rng.uniform(-300, 300), rng.uniform(-300, 300)
            lon = lon0 + east_m / m_lon
            coords.append((lat0 + north_m / METERS_PER_DEG,
                           lon - 360.0 if lon > 180.0 else lon))
        cell = 50.0 / METERS_PER_DEG
        per_cell = Counter((math.floor(lat / cell), math.floor(lon / cell))
                           for lat, lon in coords)
        assert sum(n for n in per_cell.values() if n >= 2) >= len(coords) / 3
        result = dbscan_lga(demand(coords), [AdjustedParams(100.0, minpts)] * len(coords))
        want, want_c = oracles.brute_dbscan_per_point(
            coords, [100.0] * len(coords), [minpts] * len(coords))
        assert list(result.assignment.labels) == want
        assert result.assignment.cluster_count == want_c
        assert want_c >= 1 and NOISE in want

    def test_core_by_clustered_neighbours(self):
        # 0-3 form a cluster within their 100-m eps; 4 reaches them and 5 with
        # its 400-m eps but none of them reaches 4. So 4 is core only when the
        # clustered 0-3 count toward its MinPts, and then it takes 5 along.
        cfg = ConstraintConfig(base_eps_m=400.0, eps_factor_poi=0.25, base_minpts=4,
                               minpts_factor_poi=1.0, minpts_factor_route=1.0,
                               minpts_factor_flood=1.0, minpts_factor_fire=1.0)
        near_poi, far = (100.0, 0.0, math.inf, None), (100.0, math.inf, math.inf, None)
        north_m = [0.0, 10.0, 20.0, 30.0, 250.0, 600.0]
        coords = [(-33.5 + m / METERS_PER_DEG, 150.5) for m in north_m]
        params = [adjust_params(*ctx, cfg) for ctx in [near_poi] * 4 + [far, near_poi]]
        result = dbscan_lga(demand(coords), params)
        want, want_c = oracles.brute_dbscan_per_point(
            coords, [p.eps_m for p in params], [p.minpts for p in params])
        assert want == [0, 0, 0, 0, 1, 1]
        assert list(result.assignment.labels) == want
        assert result.assignment.cluster_count == want_c == 2


class TestClusterAll:
    def test_one_blob_per_lga(self):
        blob_a = demand([(-33.5, 150.5)] * 12, start_id=0)
        blob_b = demand([(-34.5, 151.5)] * 12, start_id=12)
        buckets = {"A": blob_a, "B": blob_b}
        results = cluster_all(buckets, {"A": [BASE] * 12, "B": [BASE] * 12})
        assert [r.lga_name for r in results] == ["A", "B"]
        assert all(r.assignment.cluster_count == 1 for r in results)

    def test_empty_bucket(self):
        results = cluster_all({"A": []}, {"A": []})
        assert results[0].assignment.cluster_count == 0
        assert results[0].assignment.labels == ()

    def test_no_cross_lga_cluster(self):
        # dense strip straddling the A/B boundary; per-LGA mode must never
        # put points from different LGAs in one cluster
        rng = random.Random(19)
        strip = [(-33.5 + rng.uniform(-0.001, 0.001), 150.5 + k * 0.001)
                 for k in range(40)]
        pts = demand(strip)
        in_a = [dp for dp in pts if dp.location.lon < 150.52]
        in_b = [dp for dp in pts if dp.location.lon >= 150.52]
        buckets = {"A": in_a, "B": in_b}
        results = cluster_all(buckets, {"A": [BASE] * len(in_a), "B": [BASE] * len(in_b)})
        seen = {}
        for r in results:
            for dp, lab in zip(buckets[r.lga_name], r.assignment.labels):
                if lab != NOISE:
                    seen.setdefault((r.lga_name, lab), set()).add(dp.point_id)
        ids_a = {dp.point_id for dp in in_a}
        for (name, _), members in seen.items():
            assert members <= ids_a if name == "A" else not (members & ids_a)
