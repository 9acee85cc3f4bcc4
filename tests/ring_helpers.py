"""Test references for the constant ring that share no code with the package:
a polynomial's value from its terms and mpmath's constants, and its total
degree."""

import mpmath


def mp_value(poly, dps: int) -> mpmath.mpf:
    """`poly` at mpmath's g, ln 2, pi^2/6 and zeta(3), at `dps` digits."""
    with mpmath.workdps(dps):
        consts = (mpmath.euler, mpmath.ln(2), mpmath.pi ** 2 / 6, mpmath.zeta(3))
        total = mpmath.mpf(0)
        for mono, coef in poly.terms.items():
            term = mpmath.mpf(coef.numerator) / coef.denominator
            for value, power in zip(consts, mono):
                if power:
                    term *= value ** power
            total += term
        return total


def total_degree(poly) -> int:
    """The largest total degree of a monomial of `poly` (0 for constants)."""
    return max((sum(mono) for mono in poly.terms), default=0)
