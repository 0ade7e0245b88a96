"""Exact integer Laurent polynomials in one variable A.

This is the value domain of the bracket and f-polynomial computations.
Polynomials are immutable and use Python integers throughout, so state
sums stay exact no matter how large the coefficients grow, and values
can be shared between threads freely.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Union

CongruenceClass = Union[int, str]  # 0..3, "mixed", or "empty"


def _accumulate(into: dict[int, int], items: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add (exponent, coefficient) pairs into ``into``, keeping only the
    nonzero sums."""
    for e, c in items:
        acc = into.get(e, 0) + c
        if acc:
            into[e] = acc
        elif e in into:
            del into[e]
    return into


def _wrap(terms: dict[int, int]) -> "LaurentPoly":
    # a polynomial on a map with no zero coefficient, taken as it is,
    # without the pass of __init__
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


class LaurentPoly:
    """A Laurent polynomial stored as a map exponent -> nonzero coefficient.

    The zero polynomial is the empty map.  Equality and hashing are
    structural, so two equal polynomials always compare bit-exactly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        self._terms = _accumulate({}, terms.items() if isinstance(terms, Mapping) else terms)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "LaurentPoly":
        """Inverse of :meth:`to_pairs`."""
        return cls((int(e), int(c)) for e, c in pairs)

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _wrap(_accumulate(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = other._terms.items()
        return _wrap(_accumulate({}, ((e1 + e2, c1 * c2) for e1, c1 in self._terms.items() for e2, c2 in terms)))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers are only defined for monomials; use monomial_pow")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, factor: int) -> "LaurentPoly":
        if not factor:
            return LaurentPoly.zero()
        return _wrap({e: c * factor for e, c in self._terms.items()})

    def shift(self, exp: int) -> "LaurentPoly":
        """Multiply by A^exp."""
        return _wrap({e + exp: c for e, c in self._terms.items()})

    # -- queries -----------------------------------------------------

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at A = 1."""
        return sum(self._terms.values())

    def exponent_set(self) -> set[int]:
        """Exponents carrying a nonzero coefficient."""
        return set(self._terms)

    def congruence_class_mod4(self) -> CongruenceClass:
        """The common residue mod 4 of all exponents.

        Returns the residue 0..3 when all exponents agree mod 4,
        "mixed" when they span several residues and "empty" for the
        zero polynomial.
        """
        if not self._terms:
            return "empty"
        residues = {e % 4 for e in self._terms}
        if len(residues) == 1:
            return residues.pop()
        return "mixed"

    def is_alternating_form(self) -> bool:
        """Whether the polynomial has the shape A^a * sum c_i A^{4i} with
        nonzero coefficients of constant sign at even i, constant opposite
        sign at odd i.

        Absent intermediate terms are skipped: the sign conditions apply
        only to pairs of nonzero coefficients.
        """
        if not self._terms:
            return True
        if self.congruence_class_mod4() == "mixed":
            return False
        alpha = min(self._terms)
        even_sign = 0
        odd_sign = 0
        for e, c in self._terms.items():
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

    def coefficient(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in increasing exponent order."""
        return sorted(self._terms.items())

    def to_pairs(self) -> list[list[int]]:
        """JSON form: list of [exponent, coefficient] sorted by exponent."""
        return [[e, c] for e, c in self.terms()]

    # -- dunder plumbing ----------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "A" if mag == 1 else f"{mag}A"
            else:
                body = f"A^{e}" if mag == 1 else f"{mag}A^{e}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._terms.items()))!r})"


def monomial_pow(base_sign: int, base_exp: int, k: int) -> LaurentPoly:
    """(base_sign * A^base_exp)^k for any integer k, negative included,
    such as the writhe normalization factor (-A^3)^(-w).  The library
    itself applies that factor as a shift and a sign, not as a product.
    """
    if base_sign not in (1, -1):
        raise ValueError("base_sign must be +1 or -1")
    sign = 1 if (base_sign == 1 or k % 2 == 0) else -1
    return LaurentPoly.monomial(sign, base_exp * k)


#: the extra-loop factor (-A^2 - A^-2) from the bracket rules
LOOP_FACTOR = LaurentPoly({2: -1, -2: -1})


__all__ = [
    "LaurentPoly",
    "monomial_pow",
]
