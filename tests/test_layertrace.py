"""The benchmark's layer trace names only attributes that exist."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "benchmark" / "layertrace.py"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    boundaries = layertrace.boundaries()
    assert boundaries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in boundaries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
