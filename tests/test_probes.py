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


def test_box_points_probe_sees_every_cell(monkeypatch):
    """The traced cones.box_points count of a d=3 p-adic sweep is the
    number of box points of the signed half-open pieces it visits: each
    piece still gets its points through the probed module-level function,
    and the pieces of the pairs' regions are all it visits."""
    from nilzeta import zeta

    monkeypatch.setattr(zeta, "_sigma_cache", {})
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        zeta.zeta_all(3, ("padic",))
    finally:
        tracer.uninstall()
    points = pieces = 0
    for wp in zeta.enumerate_Wd(3):
        monoid, A, C = zeta.region_of_wpair(wp)
        for _, simplex_pieces in zeta.decompose_region_by_face(monoid, A, C):
            pieces += len(simplex_pieces)
            points += sum(len(p.box()) for p in simplex_pieces)
    assert tracer.counts["cones.pieces"] == pieces > 0
    assert tracer.counts["cones.box_points"] == points > pieces
