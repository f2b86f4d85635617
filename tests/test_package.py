import os
import subprocess
import sys

import causalot


def test_public_names_resolve():
    missing = [name for name in causalot.__all__ if not hasattr(causalot, name)]
    assert not missing
    namespace = {}
    exec("from causalot import *", namespace)
    assert set(causalot.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_out():
    # scipy serves only the transport LP, which imports it on first use.
    src = os.path.dirname(os.path.dirname(causalot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, causalot.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"
