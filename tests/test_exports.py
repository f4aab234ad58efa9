"""The public name list stays sorted, unique and resolvable; importing the
package needs numpy alone."""
import os
import subprocess
import sys
from pathlib import Path

import selftrig


def test_all_is_sorted_unique_and_resolves():
    names = selftrig.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(selftrig, name)]
    assert not missing


def test_import_loads_no_scipy():
    # A fresh interpreter, so that modules the test suite imported do not count.
    src = str(Path(selftrig.__file__).resolve().parent.parent)
    code = (
        "import sys, selftrig, selftrig.cli; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""
