import subprocess
import sys


def test_package_import_loads_no_scipy():
    # scipy serves verify's oracles only; loading it with the package would
    # add to every run's start-up time and resident memory
    code = "import sys, mpepsn; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
