import os
import subprocess
import sys

import mpepsn


def test_package_import_loads_no_scipy():
    # scipy serves verify's oracles only; loading it with the package or the
    # command line would add to every run's start-up time and resident memory
    code = "import sys, mpepsn.cli; print('scipy' in sys.modules)"
    # the child imports the package this process imported, however pytest found it
    src = os.path.dirname(os.path.dirname(mpepsn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"
