"""What each CLI verb loads, seen in a fresh interpreter.

An in-process test cannot catch a lazy import that works only because an
earlier test loaded the module, so every request here runs in a new
Python process.
"""

import json
import os
import subprocess
import sys

import pytest

import nilzeta

SRC = os.path.dirname(os.path.dirname(nilzeta.__file__))

# what a cache hit may load of the package
HIT_MODULES = ["nilzeta", "nilzeta.arith", "nilzeta.cache", "nilzeta.cli"]

# runs cli.main on the arguments, then prints the loaded modules as the
# last line of stdout
SHOW_MODULES = """\
import json, sys
from nilzeta import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def _python(cache, *args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, NILZETA_CACHE=str(cache), PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env, cwd=str(cache),
                          capture_output=True, text=True, timeout=300)


def _imported(stderr):
    """The modules that -X importtime lists as imported."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "imported package" not in
            line}


def test_cache_hit_loads_only_the_cache(tmp_path):
    miss = _python(tmp_path, "-m", "nilzeta.cli", "compute", "--d", "2")
    assert miss.returncode == 0 and "progress:" in miss.stderr
    hit = _python(tmp_path, "-c", SHOW_MODULES, "compute", "--d", "2")
    assert (hit.returncode, hit.stderr) == (0, "")
    *out, modules = hit.stdout.splitlines()
    assert out == miss.stdout.splitlines()
    modules = json.loads(modules)
    assert [m for m in modules if m.split(".")[0] == "nilzeta"] \
        == HIT_MODULES
    assert "dataclasses" not in modules and "inspect" not in modules


@pytest.mark.parametrize("argv", [
    ("compute", "--d", "2"),
    ("verify", "--d", "2", "--suite", "golden"),
    ("verify", "--d", "2", "--suite", "funeq"),
    ("verify", "--d", "2", "--suite", "pole"),
    ("verify", "--d", "2", "--suite", "oracle"),
    ("report", "--d", "2"),
    ("oracle", "--d", "2", "--p", "3", "--n", "5"),
], ids=["compute", "golden", "funeq", "pole", "oracle-suite", "report",
        "oracle"])
def test_every_verb_runs_as_a_module(tmp_path, argv):
    """python -m nilzeta.cli exits 0 for every verb, with no dataclasses
    loaded; compute runs twice, a miss and then a hit."""
    runs = 2 if argv[0] == "compute" else 1
    for _ in range(runs):
        proc = _python(tmp_path, "-X", "importtime", "-m", "nilzeta.cli",
                       *argv)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout
        imported = _imported(proc.stderr)
        assert "nilzeta.arith" in imported
        assert "dataclasses" not in imported and "inspect" not in imported
    if argv[0] == "compute":
        assert "nilzeta.zeta" not in imported
