"""Command-line entry point: validate, recommend, evaluate, synth, export-map.

Exit codes: 0 success, 1 input/validation error, 2 internal error.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click

from . import export, pipeline, synth
from .config import load_config
from .ingest import InputError, load_json

EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _guarded(fn):
    """Map input errors to exit 1 and anything else to exit 2: an input the
    user can mend raises InputError, and a file that cannot be read OSError.
    Any other exception, a builtin ValueError among them, is a fault in the code."""
    try:
        return fn()
    except (OSError, InputError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(EXIT_INPUT)
    except Exception as e:  # noqa: BLE001 - exit-code contract
        click.echo(f"internal error: {e}", err=True)
        sys.exit(EXIT_INTERNAL)


@click.group()
def main():
    """EV charging-station siting from GPS trip data."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=False), help="Path to the JSON run config.")
def validate(config_path):
    """Load and check every input layer; print per-layer counts."""
    def run():
        cfg = load_config(config_path)
        layers = pipeline.load_layers(cfg)
        from .ingest import clean_trips
        _, cleaning = clean_trips(layers.trips, cfg.max_speed_mps)
        click.echo(f"trips: {len(layers.trips)} "
                   f"(malformed rows: {len(layers.trip_load_errors)})")
        for msg in layers.trip_load_errors:
            click.echo(f"  {msg}")
        click.echo(f"stations: {len(layers.stations)}")
        click.echo(f"lgas: {len(layers.lgas)}")
        click.echo(f"pois: {len(layers.pois)}")
        click.echo(f"routes: {len(layers.routes)}")
        click.echo(f"fire_grid: {layers.fire_grid.n_rows}x{layers.fire_grid.n_cols}")
        click.echo("cleaning: " + json.dumps(cleaning.as_dict(), sort_keys=True))
    _guarded(run)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def recommend(config_path, out_dir):
    """Run the full pipeline and write recommendations and station GeoJSON."""
    def run():
        t0 = time.monotonic()
        cfg = load_config(config_path)
        result = pipeline.run_pipeline(cfg)
        summary = pipeline.write_outputs(result, cfg, out_dir)
        # wall-clock timing lives in its own file so the main outputs stay
        # byte-identical across runs
        pipeline.write_json(Path(out_dir) / "timing.json",
                            {"recommend_seconds": round(time.monotonic() - t0, 3)})
        click.echo(f"recommendations: {summary['recommendations']} "
                   f"(pre-dedup {summary['recommendations_pre_dedup']})")
    _guarded(run)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def evaluate(config_path, out_dir):
    """Run the pipeline and write the evaluation report (JSON + text table)."""
    def run():
        cfg = load_config(config_path)
        result = pipeline.run_pipeline(cfg)
        report = pipeline.write_evaluation(result, cfg, out_dir)
        click.echo(report.as_table())
    _guarded(run)


@main.command(name="synth")
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_dir", required=True, type=click.Path())
def synth_cmd(spec_path, out_dir):
    """Generate a seeded synthetic scenario bundle (all layers + manifest)."""
    def run():
        doc = load_json(spec_path)
        try:
            spec = synth.ScenarioSpec.from_dict(doc)
        except InputError as e:
            raise InputError(f"{spec_path}: {e}") from e
        manifest = synth.generate(spec, out_dir)
        click.echo(json.dumps(manifest.layer_counts, sort_keys=True))
    _guarded(run)


@main.command(name="export-map")
@click.option("--in", "in_dir", required=True, type=click.Path())
@click.option("--out", "out_html", required=True, type=click.Path())
def export_map(in_dir, out_html):
    """Render recommend outputs as a self-contained static HTML map."""
    def run():
        in_path = Path(in_dir)
        n = export.export_map(in_path / "recommendations.geojson",
                              in_path / "stations.geojson", out_html)
        click.echo(f"wrote {out_html} with {n} markers")
    _guarded(run)


if __name__ == "__main__":
    main()
