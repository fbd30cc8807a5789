"""Test-wide settings.

Hypothesis runs derandomized, which also turns off its example database,
so every run of the suite draws the same examples whatever `.hypothesis/`
holds. Each test keeps its own `max_examples`.

pytest finds the package through `pythonpath` in `pyproject.toml`; the
tests that start `python -m depolcap.cli` in a subprocess find it through
`PYTHONPATH`, so `src/` is put there as well.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("depolcap", derandomize=True, deadline=None)
settings.load_profile("depolcap")

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _path:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [_SRC, *_path] if p)
