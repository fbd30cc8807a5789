"""The benchmark's tracer rebinds depolcap functions by attribute name
(``core.tensor_channel``, ``optimize.ascend_on_sphere``, the ``core.random_*``
samplers, ...), so deleting or renaming one breaks the traced round. This
installs it on the package, the way ``perfbench/`` does, so such a change
fails here first."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "import tracer; tracer.install(tracer.Tracer()); print('installed')"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench",
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
