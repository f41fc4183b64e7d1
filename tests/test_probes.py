"""The benchmark's tracing probes name attributes that exist.

``bench/tracing.py`` patches functions by the name their callers look up;
a rename in ``src/`` would otherwise surface only as a crash in a traced
benchmark run.
"""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                       "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_exists():
    tracing = _load_tracing()
    missing = []
    for path, _span, _count in tracing.PROBES:
        owner_path, attr = path.rsplit(".", 1)
        try:
            target = getattr(tracing._resolve(owner_path), attr)
        except (AttributeError, ModuleNotFoundError):
            missing.append(path)
            continue
        if not callable(target):
            missing.append(path)
    assert missing == []
