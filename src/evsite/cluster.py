"""Per-LGA DBSCAN with per-point adjusted radius and density threshold.

Per-point semantics: N(p) = {q : haversine(p, q) <= eps(p)}, p included;
p is core iff |N(p)| >= minpts(p). Points are visited in point-id order, and
each unclustered core point starts a cluster: every unclustered point it
reaches through chains of unclustered core points. Labels are therefore fully
deterministic.

The expansion asks the index only what it needs (SpatialIndex.claim_within):
whether |N(q)| >= minpts(q), and which points of N(q) are not yet clustered.
Unclustered ids are kept as one set per index cell. A step walks its window
once: from the second step in a cell at one eps on, a window that the cell
shares at that eps (SpatialIndex._shared_window). Cells taken whole count
with their size, and points are tested one by one only in partial cells that
still hold unclustered ids, or while the count is short of minpts. Clustered
points still count toward minpts; a step with nothing left to join ends
without counting, since q's core status could not change a label.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import AdjustedParams
from .geo import METERS_PER_DEG, SpatialIndex
from .ingest import DemandPoint

NOISE = -1


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]  # NOISE or 0..cluster_count-1, parallel to points
    cluster_count: int


@dataclass(frozen=True)
class LgaClusterResult:
    lga_name: str
    assignment: ClusterAssignment
    per_point_params: tuple[AdjustedParams, ...]


def dbscan_lga(points: list[DemandPoint], params: list[AdjustedParams],
               lga_name: str = "") -> LgaClusterResult:
    if len(points) != len(params):
        raise ValueError("points and params must be parallel")
    # work in point-id order, so that index ids and visiting order follow
    # point ids
    order = sorted(range(len(points)), key=lambda i: points[i].point_id)
    eps = [params[i].eps_m for i in order]
    minpts = [params[i].minpts for i in order]
    # cells of half the smallest eps, but no finer than an eighth of the
    # largest, so that a query window stays within about 19 x 19 cells, nor
    # than a metre, so that a tiny eps does not round the cell to 0 degrees
    cell_m = max(min(eps) / 2, max(eps) / 8, 1.0) if points else METERS_PER_DEG
    locations = [points[i].location for i in order]
    index = SpatialIndex([p.lat for p in locations], [p.lon for p in locations],
                         cell_m / METERS_PER_DEG)

    labels = [NOISE] * len(points)
    # ids not yet clustered, one set per index cell: a walk counts what it
    # reaches, but collects only from these
    free = index.free_cells()
    visited = [False] * len(points)
    n_clusters = 0
    for i in range(len(points)):
        if visited[i]:
            continue
        visited[i] = True
        # i is unclustered and within its own eps, so [] means i is not core
        joined = index.claim_within(locations[i], eps[i], minpts[i], free)
        if not joined:
            continue
        cluster = n_clusters
        n_clusters += 1
        # A point joins the cluster when first reached, and only unvisited
        # points wait to be expanded. The reached set does not depend on the
        # order of expansion, so unordered sets and a stack suffice.
        stack = []
        while True:
            for j in joined:
                labels[j] = cluster
                if not visited[j]:
                    visited[j] = True
                    stack.append(j)
            if not stack:
                break
            q = stack.pop()
            joined = index.claim_within(locations[q], eps[q], minpts[q], free)
    by_input = [NOISE] * len(points)
    for k, i in enumerate(order):
        by_input[i] = labels[k]
    return LgaClusterResult(lga_name, ClusterAssignment(tuple(by_input), n_clusters),
                            tuple(params))


def cluster_all(buckets: dict[str, list[DemandPoint]],
                params: dict[str, list[AdjustedParams]]) -> list[LgaClusterResult]:
    """One independent clustering per LGA, returned sorted by name."""
    return [dbscan_lga(buckets[name], params[name], lga_name=name)
            for name in sorted(buckets)]
