import os
import subprocess
import sys
from pathlib import Path

import graphpoly

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    assert len(set(graphpoly.__all__)) == len(graphpoly.__all__)
    for name in graphpoly.__all__:
        getattr(graphpoly, name)


def test_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, since pytest itself imports dataclasses
    heavy = ("dataclasses", "inspect", "ast", "dis")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    code = f"import graphpoly, sys; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", f"import graphpoly loaded {done.stdout.strip()}"
