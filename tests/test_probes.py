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
    piece of each pair still gets its points through the probed
    module-level function, and the pieces of the pairs' regions are all it
    visits.  The traced cones.pieces count is of the pieces of the
    decompositions made, one per distinct region system from an empty
    memo."""
    from nilzeta import zeta

    monkeypatch.setattr(zeta, "_region_memo", {})
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        zeta.zeta_all(3, ("padic",))
    finally:
        tracer.uninstall()
    points = pieces = made = 0
    systems = set()
    for wp in zeta.enumerate_Wd(3):
        monoid, A, C, _ = zeta.region_of_wpair(wp)
        groups = zeta.decompose_region_by_face(monoid, A, C)
        count = sum(len(simplex_pieces) for _, simplex_pieces in groups)
        points += sum(len(p.box()) for _, simplex_pieces in groups
                      for p in simplex_pieces)
        pieces += count
        key = (tuple(monoid.equations), A)
        if key not in systems:
            systems.add(key)
            made += count
    assert tracer.counts["cones.pieces"] == made > 0
    assert made < pieces
    assert tracer.counts["cones.box_points"] == points > pieces
