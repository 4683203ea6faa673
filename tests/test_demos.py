"""The demos run to completion.

Each runs as its own process in an empty working directory, against the
package in `src/`. `02_learned_entropy_model.py` and
`04_dynamic_sequence.py` are left out: they train networks, for about 45 s
and 33 s on a 2-core x86-64 VM, each longer than the whole rest of this
file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_static_codec_roundtrip.py", "03_coordinate_refinement.py",
         "05_metrics_and_bdbr.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
