import itertools

from hypothesis import given
from hypothesis import strategies as st

from vknots.laurent import LOOP_FACTOR, LaurentPoly, monomial_pow

polys = st.dictionaries(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-10**6, max_value=10**6),
    max_size=8,
).map(LaurentPoly)


def P(**kw):
    return LaurentPoly({int(k.lstrip("e")): v for k, v in kw.items()})


def test_add_cancellation():
    assert LaurentPoly({4: 1}) + LaurentPoly({4: -1}) == LaurentPoly.zero()


def test_add_reference_values():
    assert LaurentPoly({4: 1, 12: 1}) + LaurentPoly({16: -1}) == LaurentPoly(
        {4: 1, 12: 1, 16: -1}
    )
    assert LaurentPoly({-2: 3, 1: 6}) + LaurentPoly({5: -7}) == LaurentPoly(
        {-2: 3, 1: 6, 5: -7}
    )


def test_mul_loop_factor_square():
    assert LOOP_FACTOR * LOOP_FACTOR == LaurentPoly({4: 1, 0: 2, -4: 1})


def test_mul_identity_and_monomial_inverse():
    p = LaurentPoly({-2: 3, 1: 6, 5: -7})
    assert p * LaurentPoly.one() == p
    assert monomial_pow(-1, 3, -1) * LaurentPoly({3: -1}) == LaurentPoly.one()


def test_monomial_pow():
    assert monomial_pow(-1, 3, 0) == LaurentPoly.one()
    assert monomial_pow(-1, 3, -3) == LaurentPoly({-9: -1})
    # (-A^3)^(-2l) at l = 1 has positive sign
    assert monomial_pow(-1, 3, -2) == LaurentPoly({-6: 1})


def test_evaluate_at_one():
    assert LaurentPoly({4: 1, 12: 1, 16: -1}).evaluate_at_one() == 1
    assert LOOP_FACTOR.evaluate_at_one() == -2
    assert LaurentPoly.zero().evaluate_at_one() == 0


def test_exponent_set():
    assert LaurentPoly({-2: 3, 1: 6, 5: -7}).exponent_set() == {-2, 1, 5}
    assert LaurentPoly.zero().exponent_set() == set()
    assert LaurentPoly({4: 1, 12: 1, 16: -1}).exponent_set() == {4, 12, 16}


def test_congruence_class():
    assert LaurentPoly({4: 1, 12: 1, 16: -1}).congruence_class_mod4() == 0
    assert LaurentPoly({10: -1, 6: 1, 4: 1}).congruence_class_mod4() == "mixed"
    assert LOOP_FACTOR.congruence_class_mod4() == 2
    assert LaurentPoly.zero().congruence_class_mod4() == "empty"


def test_alternating_form():
    # even-index nonzero coefficients 1, -4, -4, -3 mix signs
    bad = LaurentPoly({12: 1, 16: 3, 20: -4, 24: 3, 28: -4, 32: 4, 36: -3, 40: 1})
    assert not bad.is_alternating_form()
    assert LaurentPoly({7: 5}).is_alternating_form()
    # absent terms are skipped, so this alternating-knot value passes
    assert LaurentPoly({4: 1, 12: 1, 16: -1}).is_alternating_form()
    assert LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}).is_alternating_form()
    assert not LaurentPoly({0: 1, 3: 1}).is_alternating_form()


def reference_is_alternating_form(poly: LaurentPoly) -> bool:
    """The alternating-form test with one sign tracker for the even and
    one for the odd indices i = (e - min e) / 4."""
    terms = dict(poly.terms())
    if not terms:
        return True
    if poly.congruence_class_mod4() == "mixed":
        return False
    alpha = min(terms)
    even_sign = 0
    odd_sign = 0
    for e, c in terms.items():
        i = (e - alpha) // 4
        s = 1 if c > 0 else -1
        if i % 2 == 0:
            if even_sign and s != even_sign:
                return False
            even_sign = s
        else:
            if odd_sign and s != odd_sign:
                return False
            odd_sign = s
    if even_sign and odd_sign and even_sign == odd_sign:
        return False
    return True


def test_alternating_form_matches_sign_trackers():
    """Every polynomial of up to 5 terms on a step-4 grid of exponents,
    at residues 0 and 3, with coefficients +-1 and +-2, and every one of
    up to 3 terms on a step-2 grid, whose residues may mix."""
    grids = [range(-8, 16, 4), range(-5, 19, 4), range(0, 10, 2)]
    checked = 0
    for grid, most in zip(grids, (5, 5, 3)):
        for size in range(most + 1):
            for exps in itertools.combinations(grid, size):
                for coeffs in itertools.product((1, -1, 2, -2), repeat=size):
                    poly = LaurentPoly(dict(zip(exps, coeffs)))
                    assert poly.is_alternating_form() == reference_is_alternating_form(poly), poly
                    checked += 1
    assert checked > 20_000


def test_text_rendering():
    assert str(LaurentPoly({4: 1, 12: 1, 16: -1})) == "A^4 + A^12 - A^16"
    assert str(LaurentPoly({-2: 3, 1: 6, 5: -7})) == "3A^-2 + 6A - 7A^5"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({0: -2, 1: 1})) == "-2 + A"


def test_json_pairs_round_trip():
    p = LaurentPoly({-2: 3, 1: 6, 5: -7})
    assert LaurentPoly.from_pairs(p.to_pairs()) == p
    assert p.to_pairs() == [[-2, 3], [1, 6], [5, -7]]


@given(polys, polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_add_mul_associate_and_distribute(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(polys, polys)
def test_evaluate_at_one_additive(p, q):
    assert (p + q).evaluate_at_one() == p.evaluate_at_one() + q.evaluate_at_one()


@given(st.integers(min_value=-10, max_value=10))
def test_monomial_pow_inverse(k):
    assert monomial_pow(-1, 3, k) * monomial_pow(-1, 3, -k) == LaurentPoly.one()


@given(polys)
def test_no_zero_coefficients_stored(p):
    assert all(c != 0 for _, c in p.terms())
    q = p + (-p)
    assert q == LaurentPoly.zero()
    assert not q.exponent_set()
