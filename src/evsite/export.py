"""Self-contained static HTML map: SVG circle markers on a plain lat/lon canvas."""

from __future__ import annotations

import html
from pathlib import Path

from .ingest import _point, _read_features, _utf8

_PAGE = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>EV charging station map</title>
<style>
body {{ font-family: sans-serif; margin: 1em; }}
#popup {{ position: fixed; background: #fff; border: 1px solid #444;
         padding: 0.5em; display: none; font-size: 12px; white-space: pre; }}
circle.marker {{ stroke: #333; stroke-width: 0.5; cursor: pointer; }}
</style>
</head>
<body>
<h1>EV charging stations ({n_markers} markers)</h1>
<svg viewBox="{viewbox}" width="900" height="700" xmlns="http://www.w3.org/2000/svg">
{markers}
</svg>
<div id="popup"></div>
<script>
const popup = document.getElementById("popup");
document.querySelectorAll("circle.marker").forEach(c => {{
  c.addEventListener("click", e => {{
    popup.textContent = c.dataset.info;
    popup.style.left = (e.clientX + 10) + "px";
    popup.style.top = (e.clientY + 10) + "px";
    popup.style.display = "block";
    e.stopPropagation();
  }});
}});
document.body.addEventListener("click", () => popup.style.display = "none");
</script>
</body>
</html>
"""


def _marker(feat: dict) -> dict:
    """feat, unchanged, once its geometry is a Point that a layer loader would
    take, its properties, if any, are an object, and the id, keys and values
    that its marker writes can be written as UTF-8."""
    _point(feat)
    props = feat.get("properties") or {}
    if not isinstance(props, dict):
        raise ValueError("properties must be an object")
    _utf8(feat.get("id"), "id")
    for key, value in props.items():
        _utf8(key, "a property name")
        _utf8(value, f"property {key!r}")
    return feat


def export_map(recommendations_path, stations_path, out_html) -> int:
    """Render both collections as colored circle markers; returns marker count."""
    features = (_read_features(stations_path, _marker)
                + _read_features(recommendations_path, _marker))
    lons = [f["geometry"]["coordinates"][0] for f in features]
    lats = [f["geometry"]["coordinates"][1] for f in features]
    if features:
        pad = 0.05
        min_lon, max_lon = min(lons) - pad, max(lons) + pad
        min_lat, max_lat = min(lats) - pad, max(lats) + pad
    else:
        min_lon, max_lon, min_lat, max_lat = 0.0, 1.0, 0.0, 1.0
    width = max_lon - min_lon
    height = max_lat - min_lat
    radius = max(width, height) / 200

    markers = []
    for f in features:
        lon, lat = f["geometry"]["coordinates"][:2]
        props = f.get("properties") or {}
        color = html.escape(str(props.get("color", "#000000")), quote=True)
        lines = [f"id: {f.get('id', '')}"]
        lines += [f"{k}: {v}" for k, v in sorted(props.items()) if k != "color"]
        info = html.escape("\n".join(lines), quote=True)
        # y axis flipped so north is up
        y = max_lat - (lat - min_lat) + min_lat
        markers.append(
            f'<circle class="marker" cx="{lon}" cy="{y}" r="{radius}" '
            f'fill="{color}" data-info="{info}"/>')

    page = _PAGE.format(
        n_markers=len(markers),
        viewbox=f"{min_lon} {min_lat} {width} {height}",
        markers="\n".join(markers))
    Path(out_html).write_text(page, encoding="utf-8")
    return len(markers)
