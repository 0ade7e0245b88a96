import hashlib
import json
import random

import pytest

from vknots.bracket import bracket, f_polynomial
from vknots.diagram import (
    InapplicableMove,
    MoveKind,
    apply_move,
    applicable_kinds,
    parse_gauss,
    random_diagram,
    random_move,
    serialize,
    writhe,
)
from vknots.verify import fuzz_invariance

from conftest import TREFOIL_MIRROR, UNKNOT


def test_r1_add_then_remove_restores():
    d = parse_gauss(TREFOIL_MIRROR)
    for gap in range(7):
        for over_first in (True, False):
            for sign in (1, -1):
                d2 = apply_move(d, MoveKind("R1-add", (0, gap, over_first, sign)))
                assert d2.crossing_count == 4
                assert f_polynomial(d2) == f_polynomial(d)
                # the inserted kink sits at positions gap, gap+1
                d3 = apply_move(d2, MoveKind("R1-remove", (0, gap)))
                assert d3 == d


def test_r1_add_unknot():
    d = apply_move(parse_gauss(UNKNOT), MoveKind("R1-add", (0, 0, True, 1)))
    assert d.crossing_count == 1
    assert writhe(d) == 1
    assert f_polynomial(d) == f_polynomial(parse_gauss(UNKNOT))


def test_r1_remove_only_kinks():
    d = parse_gauss(TREFOIL_MIRROR)  # alternating: no removable kink
    with pytest.raises(InapplicableMove):
        apply_move(d, MoveKind("R1-remove", (0, 0)))


def test_r2_add_all_variants_preserve_bracket():
    base = parse_gauss(TREFOIL_MIRROR)
    for gap_o in range(7):
        for gap_u in range(7):
            for parallel in (True, False):
                for sign in (1, -1):
                    site = ((0, gap_o), (0, gap_u), parallel, sign)
                    d2 = apply_move(base, MoveKind("R2-add", site))
                    assert d2.crossing_count == 5
                    assert bracket(d2) == bracket(base)
                    assert f_polynomial(d2) == f_polynomial(base)


def test_r2_add_two_components():
    base = parse_gauss("O1+U1+\n()")
    for parallel in (True, False):
        d2 = apply_move(base, MoveKind("R2-add", ((0, 1), (1, 0), parallel, -1)))
        assert d2.crossing_count == 3
        assert f_polynomial(d2) == f_polynomial(base)


def test_r2_remove_inverse():
    rng = random.Random(5)
    base = parse_gauss(TREFOIL_MIRROR)
    for _ in range(50):
        site = (
            (0, rng.randrange(7)),
            (0, rng.randrange(7)),
            rng.random() < 0.5,
            rng.choice((1, -1)),
        )
        d2 = apply_move(base, MoveKind("R2-add", site))
        removed = apply_move(d2, MoveKind("R2-remove", None), rng_seed=rng.randrange(10**6))
        assert removed.crossing_count == 3
        assert f_polynomial(removed) == f_polynomial(base)


def test_r2_remove_rejects_same_sign_bigon():
    # O-O / U-U interleaving with equal signs is not a Reidemeister bigon
    d = parse_gauss("O1+O2+U1+U2+")
    with pytest.raises(InapplicableMove):
        apply_move(d, MoveKind("R2-remove", ((0, 0), (0, 2))))


def test_r3_sites_and_involution():
    # build a diagram with an R3 triangle by poking a strand across a crossing
    rng = random.Random(17)
    found = 0
    for _ in range(300):
        d = random_diagram(rng, rng.randrange(2, 5), components=1)
        try:
            d2 = apply_move(d, MoveKind("R3", None), rng_seed=rng.randrange(10**6))
        except InapplicableMove:
            continue
        found += 1
        assert bracket(d2) == bracket(d)
        assert writhe(d2) == writhe(d)
        assert d2 != d
    assert found >= 5


def test_r3_explicit_site_round_trip():
    from vknots.diagram import _r3_sites  # site table is internal

    rng = random.Random(23)
    tried = 0
    for _ in range(500):
        if tried >= 5:
            break
        d = random_diagram(rng, 4, components=1)
        sites = _r3_sites(d)
        if not sites:
            continue
        tried += 1
        site = sites[0]
        d2 = apply_move(d, MoveKind("R3", site))
        d3 = apply_move(d2, MoveKind("R3", site))
        assert d3 == d
    assert tried >= 5


def test_r3_inapplicable_on_triangle_free_diagram():
    with pytest.raises(InapplicableMove):
        apply_move(parse_gauss(TREFOIL_MIRROR), MoveKind("R3", ((0, 0), (0, 2), (0, 4))))


def test_unknown_move_kind():
    with pytest.raises(InapplicableMove):
        apply_move(parse_gauss(UNKNOT), MoveKind("R9"))


def test_apply_move_seeded_determinism():
    d = parse_gauss(TREFOIL_MIRROR)
    a = apply_move(d, MoveKind("R2-add"), rng_seed=42)
    b = apply_move(d, MoveKind("R2-add"), rng_seed=42)
    assert a == b


def test_move_invariant_fuzz_10k():
    """10^4 random (diagram, move) pairs keep the two-passage invariant."""
    rng = random.Random(20260810)
    applied = 0
    d = random_diagram(rng, 3, components=2)
    while applied < 10_000:
        if d.crossing_count > 10 or not applicable_kinds(d):
            d = random_diagram(rng, rng.randrange(0, 5), components=rng.randrange(1, 3))
            continue
        _, d = random_move(d, rng)  # make_diagram validates on every build
        applied += 1
        seen = {}
        for comp in d.components:
            for p in comp:
                seen.setdefault(p.crossing, []).append(p)
        assert all(len(v) == 2 and v[0].over != v[1].over for v in seen.values())


def test_move_trajectories_pinned():
    """Seeded fuzz reports and a seeded 3 000-step random_move walk, byte
    for byte: a change to the site finders, the rewrites, the kinds'
    order or the order of random draws changes the digest."""
    h = hashlib.sha256()
    for seed in (0, 7, 97):
        report = fuzz_invariance(seed=seed, trials=40, max_moves=4).to_json()
        del report["elapsed_seconds"]
        h.update(json.dumps(report, sort_keys=True).encode())
    rng = random.Random(4099)
    d = random_diagram(rng, 3, components=2)
    steps = 0
    while steps < 3000:
        if d.crossing_count > 10 or not applicable_kinds(d):
            d = random_diagram(rng, rng.randrange(0, 5), components=rng.randrange(1, 3))
            continue
        move, d = random_move(d, rng)
        h.update(repr((move.kind, move.site, serialize(d))).encode())
        steps += 1
    assert h.hexdigest() == "6221c10e2104b953793bd62b48eae4e88c1c232d6c3c745e2e29f6cfff17a2e4"
