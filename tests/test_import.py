import os
import subprocess
import sys

import plasmacas


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg adds about 75 ms to the import; the exact path loads it
    # with its first block instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmacas.__file__)))
    code = "import sys, plasmacas; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
