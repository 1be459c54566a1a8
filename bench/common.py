"""Paths shared by the benchmark's scripts.

The benchmark runs the evsite sources of the checkout it sits in, never an
installed copy, so importing this module puts ``<checkout>/src`` first on
``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("dense_hotspots", "road_corridors")


def source_tree_present() -> bool:
    return (SRC / "evsite" / "pipeline.py").is_file()


if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
