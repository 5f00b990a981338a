"""Paths of the checkout the benchmark runs in, and the import of the package
under test from that checkout's own source tree."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / "perfbench" / ".cache"
OUT = ROOT / "perfbench" / ".out"


class MissingSourceError(RuntimeError):
    pass


def import_judipart():
    """Import judipart from ROOT/src, never from an installed copy, so a
    checkout without the source fails instead of measuring something else."""
    if not (SRC / "judipart" / "__init__.py").is_file():
        raise MissingSourceError(f"no judipart package under {SRC}")
    sys.path.insert(0, str(SRC))
    import judipart

    if Path(judipart.__file__).resolve().parent != (SRC / "judipart").resolve():
        raise MissingSourceError(f"judipart imported from {judipart.__file__}")
    return judipart


def cache_dir(workload: str, seed: int) -> Path:
    return CACHE / f"{workload}-s{seed}"
