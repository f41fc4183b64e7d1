"""The exact output forms, pinned by digest, and the lowest-terms invariant
that lets each sum normalize once.

rf_equal checks values; the digests check the forms themselves: the
numerator terms and the denominator multiset that the result cache stores.
A change that should leave every output as it is must leave these digests
as they are.  After a change that alters a form on purpose, print the new
digests with

    PYTHONPATH=src python3 tests/test_output_forms.py
"""

import hashlib
import json

from nilzeta.arith import (
    poly_div_binomial,
    rf_equal,
    rf_sum_common,
)
from nilzeta.cones import (
    DiophantineMonoid,
    decompose_region_by_face,
    genfun_faces,
    genfun_piece,
    genfun_region,
)
from nilzeta.zeta import (
    QT,
    T,
    WPair,
    _gaussian_product,
    _pair_exponents,
    _region_term,
    enumerate_Wd,
    region_of_wpair,
    zeta_all,
    zeta_no_overlap,
    zeta_padic,
)
from reference_impls import rf_substitute

# cheap W_4 pairs from bench/panel_d4.json with five different subsets I;
# the last shuffle ends in the descending run 6,5,4,3,2,1
D4_PAIRS = [
    ((), (12, 11, 10, 9, 8, 7, 1, 6, 5, 4, 3, 2)),
    ((1,), (9, 8, 7, 12, 11, 10, 5, 4, 3, 2, 1, 6)),
    ((1, 2), (7, 9, 8, 11, 10, 12, 3, 2, 1, 6, 5, 4)),
    ((1, 2, 3), (7, 8, 9, 10, 11, 2, 1, 12, 6, 5, 4, 3)),
    ((1, 3), (8, 7, 10, 9, 12, 11, 6, 5, 4, 3, 2, 1)),
]

# every 40th of the 400 cheapest finishing pairs of bench/panel_d4.json:
# ten pairs over five Dyck words
D4_SET = [
    ((), (12, 11, 10, 9, 8, 7, 1, 6, 5, 4, 3, 2)),
    ((2,), (7, 11, 10, 9, 8, 1, 3, 2, 5, 4, 12, 6)),
    ((2,), (7, 11, 10, 9, 8, 12, 2, 1, 5, 4, 3, 6)),
    ((1,), (9, 8, 7, 12, 11, 10, 1, 4, 3, 2, 6, 5)),
    ((3,), (10, 8, 7, 2, 1, 12, 11, 9, 6, 5, 4, 3)),
    ((1, 2), (7, 9, 8, 1, 11, 10, 3, 2, 12, 6, 5, 4)),
    ((3,), (10, 8, 7, 12, 11, 9, 2, 1, 6, 5, 4, 3)),
    ((1, 3), (8, 7, 9, 10, 12, 11, 3, 2, 1, 6, 5, 4)),
    ((1, 2, 3), (7, 8, 9, 10, 11, 12, 4, 3, 2, 1, 6, 5)),
    ((2, 3), (7, 1, 10, 8, 11, 9, 12, 5, 4, 3, 2, 6)),
]

DIGESTS = {
    'd2:padic':
        '21953cc32ff843b50023a96d0b24561bd494680263ee13c0478001b4ab8ed9ac',
    'd2:reduced':
        '50b66fe2bd1a75ec6eba69e2efe7bd0f77b30fa05e8b6378fc74974f44d55e40',
    'd2:topological':
        'e8ecc954d1df565b19ab6b1577a927eb523d84c095476a57dd7d5ac8faa96262',
    'd2:overlap:01':
        '21953cc32ff843b50023a96d0b24561bd494680263ee13c0478001b4ab8ed9ac',
    'd2:no_overlap:via_H':
        '21953cc32ff843b50023a96d0b24561bd494680263ee13c0478001b4ab8ed9ac',
    'd2:no_overlap:via_G':
        '21953cc32ff843b50023a96d0b24561bd494680263ee13c0478001b4ab8ed9ac',
    'd3:padic':
        '54b6c5a9962f4ce9082dd1d7bc245ef18dda354391b5a4b5f0276edae6d84003',
    'd3:reduced':
        'bfb7be68209a9e38603f9056a3a159c3facc1a8f13d847eadcb3d78c35ae6a24',
    'd3:topological':
        '31fb4078e4380e9369d41e73a71963220d8662fcf0f145f31799ebded1a69106',
    'd3:overlap:000111':
        '82395abd7e27ecff3641383bbee67b5edb20b6562731f1c095d3e625d686b3b2',
    'd3:overlap:001011':
        '7801353a5f783f5fbff7c2fe692c7d52fe3ba84ba589b374a20adb9a080018aa',
    'd3:overlap:001101':
        '1468952613e3ae2f12a08330462bba9e068e8a4c50ea1b9040d61588e2c30052',
    'd3:overlap:010011':
        'f628da326bf72dd85ed8f0c225754a9df1bc8fa5526564f4edcfb65cdad83a79',
    'd3:overlap:010101':
        '7d56266d2ef5caaef732b7fc9ba2cebe96377997bba761268af4047a10fe23f3',
    'd3:no_overlap:via_H':
        '82395abd7e27ecff3641383bbee67b5edb20b6562731f1c095d3e625d686b3b2',
    'd3:no_overlap:via_G':
        '82395abd7e27ecff3641383bbee67b5edb20b6562731f1c095d3e625d686b3b2',
    'd4:[]:(12, 11, 10, 9, 8, 7, 1, 6, 5, 4, 3, 2)':
        '9e10c01b1eac5815e5663b4f236afca705e8e5b9bad3d3697530d1b5d9d28143',
    'd4:[1]:(9, 8, 7, 12, 11, 10, 5, 4, 3, 2, 1, 6)':
        '70767307a5048c8c642057741dbb940c4065d331e29bbe9a6f20ccef3f02dfdc',
    'd4:[1, 2]:(7, 9, 8, 11, 10, 12, 3, 2, 1, 6, 5, 4)':
        'd8db90369b2a9fcc555e2e86610589068bcb004743ca0e9be3c124b12223484b',
    'd4:[1, 2, 3]:(7, 8, 9, 10, 11, 2, 1, 12, 6, 5, 4, 3)':
        '4a4bcf5ec52d93e6391c07893ed8a1e653b1913892aefa014af9b0bce8717a35',
    'd4:[1, 3]:(8, 7, 10, 9, 12, 11, 6, 5, 4, 3, 2, 1)':
        'e53920d3786de3bd7d1bdf68a48a45702d531578adaa5758a1d76f90978fbbe8',
}

D4_SET_DIGESTS = {
    'padic':
        '94fcdaf29e7143f677eb45d5c538264d2adbf220fd919e9fb05c3e457e97703a',
    'overlap:000000111111':
        '7ec44047390d760dccc35f06d504768492571657f32a431664c78930bb4b834b',
    'overlap:000001111101':
        '118a656cf5998470b7fec8e4b517eafbdc550c0ee473e70ec66fd31d57aa6f63',
    'overlap:000100110111':
        '5743e96f25b26f9ee35f2ce87758e55c584d392471bf676a526ee73379861169',
    'overlap:000110001111':
        '73b2c16f2720f05f8af3ad80d27680b86fb0f6cd3d1c8f2514cf63cecb02b40e',
    'overlap:010000011111':
        '6e3fed573ec2ed8f888288161da0061990e283de86523bf171378d80a657d568',
}


def _d4_pairs(pairs=D4_PAIRS):
    return [WPair(4, frozenset(I), sigma) for I, sigma in pairs]


def _forms():
    """Every pinned output, by name."""
    out = {}
    for d in (2, 3):
        res = zeta_all(d, ("padic", "reduced", "topological", "overlap"))
        for kind in ("padic", "reduced", "topological"):
            out[f"d{d}:{kind}"] = res[kind].value
        for word, summand in res["overlap"].items():
            out[f"d{d}:overlap:{word}"] = summand.value
        for route in ("via_H", "via_G"):
            out[f"d{d}:no_overlap:{route}"] = \
                zeta_no_overlap(d, route).value
    for wp in _d4_pairs():
        out[f"d4:{sorted(wp.I)}:{wp.sigma}"] = \
            zeta_padic(4, pairs=[wp]).value
    return out


def _d4_set_forms():
    """The p-adic sum of D4_SET, assembled across its five words, and each
    word's summand."""
    res = zeta_all(4, ("padic", "overlap"), pairs=_d4_pairs(D4_SET))
    out = {"padic": res["padic"].value}
    for word, summand in res["overlap"].items():
        out[f"overlap:{word}"] = summand.value
    return out


def _digest(value):
    text = json.dumps(value.to_json_obj(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_output_forms_are_pinned():
    assert {name: _digest(v) for name, v in _forms().items()} == DIGESTS


def test_d4_multi_word_forms_are_pinned():
    assert {name: _digest(v) for name, v in _d4_set_forms().items()} \
        == D4_SET_DIGESTS


def _in_lowest_terms(f):
    return all(poly_div_binomial(f.num, e) is None for e in f.den)


def test_region_terms_arrive_in_lowest_terms():
    """What lets rf_sum_common return a lone term as it is, and the sums
    over pairs skip a second normalize: each piece's numerator has only
    coefficients of its sign, and the full +1 piece of each top simplex,
    a region's only piece when it has one, has only positive ones; the
    sums of each simplex's pieces and the region terms have no factor left
    to cancel."""
    lone = 0
    for wp in enumerate_Wd(3) + _d4_pairs():
        monoid, A, C, keep = region_of_wpair(wp)
        groups = decompose_region_by_face(monoid, A, C)
        cols = list(zip(*_pair_exponents(wp, keep)))
        u_poly = _gaussian_product(wp)
        for vars in (QT, T):
            for simplex, pieces in groups:
                forms = [genfun_piece(p, cols[-len(vars):], vars)
                         for p in pieces]
                assert all(c * p.sign > 0 for p, f in zip(pieces, forms)
                           for c in f.num.terms.values()), wp
                assert [p.sign for p in pieces if p.rays == simplex] == [1]
                assert _in_lowest_terms(rf_sum_common(forms, vars=vars)), wp
            if sum(len(pieces) for _, pieces in groups) == 1:
                (simplex, (piece,)), = groups
                assert piece.rays == simplex and piece.sign == 1
                lone += 1
            assert _in_lowest_terms(
                _region_term(groups, cols, vars, u_poly)), wp
    assert lone > 0


def test_flat_region_sum_keeps_the_per_face_form():
    """genfun_faces sums a region's pieces in one pass.  One normalize of
    the flat sum need not give the same form as normalizing per top
    simplex and then across simplices (a function has several
    lowest-terms forms over binomials), so the two are compared form for
    form: numerator terms and denominator multiset."""
    for wp in enumerate_Wd(3) + _d4_pairs():
        monoid, A, C, keep = region_of_wpair(wp)
        groups = decompose_region_by_face(monoid, A, C)
        cols = list(zip(*_pair_exponents(wp, keep)))
        for vars in (QT, T):
            c = cols[-len(vars):]
            nested = rf_sum_common(
                [rf_sum_common([genfun_piece(p, c, vars) for p in pieces],
                               vars=vars)
                 for _, pieces in groups], vars=vars)
            flat = genfun_faces(groups, c, vars)
            assert (flat.num.terms, flat.den) == \
                (nested.num.terms, nested.den), (wp, vars)


def test_region_sums_push_through_the_map():
    """The region's signed sum under the (q, t) map is the identity-map region
    generating function with the map substituted afterwards.  The region
    is in the pair's own coordinates, so the map is its shuffle's at the
    kept coordinates; on sigma's full monoid, the region's generating
    function is the same one with the kept coordinates' variables."""
    for wp in enumerate_Wd(3) + _d4_pairs():
        monoid, A, C, keep = region_of_wpair(wp)
        exps = _pair_exponents(wp, keep)
        mapped = genfun_faces(decompose_region_by_face(monoid, A, C),
                              list(zip(*exps)), QT)
        own = genfun_region(monoid, A, C)
        assert rf_equal(mapped, rf_substitute(own, exps, QT)), wp
        if wp.d == 3:
            ctx = wp.context
            full = genfun_region(DiophantineMonoid(ctx.m, ctx.phi),
                                 *wp.region_sets())
            at_keep = [[int(i == c) for i in range(ctx.m)] for c in keep]
            assert rf_equal(full, rf_substitute(own, at_keep, full.vars)), wp


if __name__ == "__main__":
    for forms in (_forms(), _d4_set_forms()):
        for name, value in forms.items():
            print(f"    {name!r}:\n        {_digest(value)!r},")
        print()
