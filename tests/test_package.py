import contextlib
import io
import os
import re
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
    # The library uses neither scipy, not even for W1 off the closed form,
    # nor numpy, not even for the causal adjacency of a graph decision.
    src = os.path.dirname(os.path.dirname(causalot.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, causalot.cli\n"
            "from causalot import (SliceMeasure, Spacetime, find_causal_coupling,\n"
            "                      transport_distance)\n"
            "g = Spacetime('static-graph', vertices=['A', 'B'], edges=[('A', 'B', 1.0)])\n"
            "mu = SliceMeasure(g, [(g.event(0, 'A'), 0.5), (g.event(0, 'B'), 0.5)])\n"
            "nu = SliceMeasure(g, [(g.event(1, 'A'), 0.25), (g.event(1, 'B'), 0.75)])\n"
            "assert transport_distance(g, mu, nu) > 0\n"
            "assert find_causal_coupling(g, mu, nu) is not None\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False False\n"


def test_readme_library_example_runs():
    root = os.path.join(os.path.dirname(__file__), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "SliceMeasure(1 atoms, tau=1.5)\nCoupling(1 atoms)\n"
