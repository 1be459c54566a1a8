"""Evaluation of recommendations against an existing station plan."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .geo import METERS_PER_DEG, SpatialIndex
# tracing patches these here by name
from .geo import haversine_distance, point_in_polygon  # noqa: F401
from .ingest import DemandPoint, LgaRecord, StationRecord, locate_lga
from .recommend import Recommendation

_COUNT_KEYS = ("existing_fast", "existing_destination", "approved",
               "recommended_fast", "recommended_destination")


@dataclass
class EvaluationReport:
    per_lga_counts: dict[str, dict[str, int]]
    alignment_rate: float
    alignment_rec_count: int
    new_area_count: int
    coverage_before: float
    coverage_after: float
    nearest_existing_distance_stats: dict[str, float | None]

    def as_dict(self) -> dict:
        return asdict(self)

    def as_table(self) -> str:
        """Plain-text table mirroring the JSON content."""
        header = ["lga"] + list(_COUNT_KEYS)
        rows = [header]
        for name in sorted(self.per_lga_counts):
            row = self.per_lga_counts[name]
            rows.append([name] + [str(row[k]) for k in _COUNT_KEYS])
        totals = ["TOTAL"] + [
            str(sum(r[k] for r in self.per_lga_counts.values())) for k in _COUNT_KEYS]
        rows.append(totals)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.append("")
        lines.append(f"alignment_rate: {self.alignment_rate} "
                     f"(over {self.alignment_rec_count} recommendations)")
        lines.append(f"new_area_count: {self.new_area_count}")
        lines.append(f"coverage_before: {self.coverage_before}")
        lines.append(f"coverage_after: {self.coverage_after}")
        s = self.nearest_existing_distance_stats
        lines.append("nearest_existing_distance_m: "
                     f"min={s['min']} median={s['median']} "
                     f"mean={s['mean']} max={s['max']}")
        return "\n".join(lines) + "\n"


def alignment_rate(recs: list[Recommendation], station_index: SpatialIndex,
                   align_m: float) -> tuple[float, int]:
    """(fraction of recs within align_m of any indexed station, rec count).

    Meant to run on pre-dedup recommendations; an empty rec list reports 0.0
    with count 0.
    """
    if not recs:
        return 0.0, 0
    aligned = sum(1 for r in recs if station_index.any_within(r.location, align_m))
    return aligned / len(recs), len(recs)


def coverage(points: list[DemandPoint], sites: SpatialIndex, radius_m: float,
             uncovered: list[DemandPoint] | None = None) -> float:
    """Fraction of demand points within radius_m of any indexed site; the
    points outside that radius are appended to uncovered, when given."""
    if not points:
        raise ValueError("no demand points")
    missed = [dp for dp in points if not sites.any_within(dp.location, radius_m)]
    if uncovered is not None:
        uncovered += missed
    return (len(points) - len(missed)) / len(points)


def build_report(demand_points: list[DemandPoint], lgas: list[LgaRecord],
                 stations: list[StationRecord], station_index: SpatialIndex,
                 recs_pre_dedup: list[Recommendation],
                 recs_final: list[Recommendation],
                 align_m: float, coverage_radius_m: float) -> EvaluationReport:
    counts: dict[str, dict[str, int]] = {
        lga.lga_name: {k: 0 for k in _COUNT_KEYS} for lga in lgas}

    def row(name: str) -> dict[str, int]:
        return counts.setdefault(name, {k: 0 for k in _COUNT_KEYS})

    for s in stations:
        row(locate_lga(s.location, lgas))[s.kind] += 1
    for r in recs_final:
        row(r.lga_name if r.lga_name in counts else locate_lga(r.location, lgas))[
            f"recommended_{r.charger_kind}"] += 1

    rate, n_recs = alignment_rate(recs_pre_dedup, station_index, align_m)
    new_area = sum(1 for r in recs_final
                   if not station_index.any_within(r.location, align_m))

    # only the points the stations leave uncovered can gain a recommendation
    uncovered: list[DemandPoint] = []
    cov_before = coverage(demand_points, station_index, coverage_radius_m, uncovered)
    # exact for any cell size; no narrower than a metre, as in run_pipeline
    rec_index = SpatialIndex([r.location.lat for r in recs_final],
                             [r.location.lon for r in recs_final],
                             max(coverage_radius_m, 1.0) / METERS_PER_DEG)
    gained = sum(1 for dp in uncovered if rec_index.any_within(dp.location, coverage_radius_m))
    cov_after = (len(demand_points) - len(uncovered) + gained) / len(demand_points)

    dists = sorted(d for _, d in station_index.nearest_all(
        [r.location for r in recs_final])) if stations else []
    if dists:
        n = len(dists)
        median = (dists[n // 2] if n % 2 == 1
                  else (dists[n // 2 - 1] + dists[n // 2]) / 2)
        stats = {"min": dists[0], "median": median,
                 "mean": sum(dists) / n, "max": dists[-1]}
    else:
        stats = {"min": None, "median": None, "mean": None, "max": None}

    return EvaluationReport(
        per_lga_counts=counts, alignment_rate=rate, alignment_rec_count=n_recs,
        new_area_count=new_area, coverage_before=cov_before,
        coverage_after=cov_after, nearest_existing_distance_stats=stats)
