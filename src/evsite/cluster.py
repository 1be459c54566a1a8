"""Per-LGA DBSCAN with per-point adjusted radius and density threshold.

Per-point semantics: N(p) = {q : haversine(p, q) <= eps(p)}, p included;
p is core iff |N(p)| >= minpts(p). Points are visited in point-id order, and
each unclustered core point starts a cluster: every unclustered point it
reaches through chains of unclustered core points. Labels are therefore fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import AdjustedParams, ConstraintConfig, PointContext, adjust_params
from .geo import METERS_PER_DEG, SpatialIndex
from .ingest import DemandPoint

NOISE = -1


class ClusterError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]  # NOISE or 0..cluster_count-1, parallel to points
    cluster_count: int


@dataclass(frozen=True)
class LgaClusterResult:
    lga_name: str
    assignment: ClusterAssignment
    per_point_params: tuple[AdjustedParams, ...]


def dbscan_lga(points: list[DemandPoint], contexts: list[PointContext],
               cfg: ConstraintConfig, lga_name: str = "") -> LgaClusterResult:
    if len(points) != len(contexts):
        raise ClusterError("points and contexts must be parallel")
    params = [adjust_params(ctx, cfg) for ctx in contexts]
    # work in point-id order, so that index ids, visiting order and the
    # ascending neighbour lists all follow point ids
    order = sorted(range(len(points)), key=lambda i: points[i].point_id)
    eps = [params[i].eps_m for i in order]
    minpts = [params[i].minpts for i in order]
    # cells of half the smallest eps, but no finer than an eighth of the
    # largest, so that a query window stays within about 17 x 17 cells
    cell_m = max(min(eps) / 2, max(eps) / 8) if points else METERS_PER_DEG
    index = SpatialIndex([points[i].location for i in order], cell_m / METERS_PER_DEG)
    locations = index.points

    labels = [NOISE] * len(points)
    unclustered = set(range(len(points)))
    visited = [False] * len(points)
    n_clusters = 0
    for i in range(len(points)):
        if visited[i]:
            continue
        visited[i] = True
        reach = index.neighbors_within(locations[i], eps[i])
        if len(reach) < minpts[i]:
            continue
        cluster = n_clusters
        n_clusters += 1
        # A point joins the cluster when first reached, and only unvisited
        # points wait to be expanded. The reached set does not depend on the
        # order of expansion, so an unordered set and a stack suffice.
        stack = []
        while True:
            joined = unclustered.intersection(reach)
            unclustered -= joined
            for j in joined:
                labels[j] = cluster
                if not visited[j]:
                    visited[j] = True
                    stack.append(j)
            if not stack:
                break
            q = stack.pop()
            reach = index.neighbors_within(locations[q], eps[q])
            if len(reach) < minpts[q]:
                reach = ()
    by_input = [NOISE] * len(points)
    for k, i in enumerate(order):
        by_input[i] = labels[k]
    return LgaClusterResult(lga_name, ClusterAssignment(tuple(by_input), n_clusters),
                            tuple(params))


def cluster_all(buckets: dict[str, list[DemandPoint]],
                contexts: dict[str, list[PointContext]],
                cfg: ConstraintConfig) -> list[LgaClusterResult]:
    """One independent clustering per LGA, returned sorted by name."""
    return [dbscan_lga(buckets[name], contexts[name], cfg, lga_name=name)
            for name in sorted(buckets)]
