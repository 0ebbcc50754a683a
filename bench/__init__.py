"""The repo's one benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repo root as ``python3 -m bench`` (see ``bench/README.md``).
Importing this package starts nothing; ``bench.__main__`` is the entry point.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ensure_repro_importable() -> None:
    """Put ``src/`` on ``sys.path`` so ``python3 -m bench`` needs no PYTHONPATH.

    Exits non-zero when the program under test is absent (a directory that
    holds only the benchmark), before any result could be printed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
