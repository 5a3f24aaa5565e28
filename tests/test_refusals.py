"""Each public entry point refuses its out-of-contract inputs with its own error."""

import pytest

from progressio import (
    Poly,
    PrimeField,
    build_c,
    choose_e,
    count_irreducibles,
    cycle_type_histogram,
    gcd,
    parse_poly,
    pow_mod,
    ramification_type,
    smallest_feasible_n,
    xgcd,
)
from progressio.errors import (
    FieldMismatch,
    NoValidE,
    ParseError,
    PreconditionViolated,
    ZeroPolynomial,
)

F7, F11 = PrimeField(7), PrimeField(11)
X7, X11 = parse_poly(F7, "X+1"), parse_poly(F11, "X+1")
ONE7, ZERO7 = Poly.one(F7), Poly.zero(F7)
P1, P2 = parse_poly(F7, "X^3"), parse_poly(F7, "X^2+5*X+1")

REFUSALS = {
    "gcd-foreign-field": (lambda: gcd(X7, X11), FieldMismatch, "gcd of"),
    "xgcd-foreign-field": (lambda: xgcd(X7, X11), FieldMismatch, "xgcd of"),
    "pow_mod-foreign-modulus": (lambda: pow_mod(X7, 3, X11), FieldMismatch, "operands"),
    "pow_mod-zero-modulus": (lambda: pow_mod(X7, 3, ZERO7), ZeroDivisionError, "zero"),
    "parse-over-int-digit-limit": (
        lambda: parse_poly(F7, "1" * 5000 + "*X"), ParseError, "bad term"),
    "choose_e-degree-0": (lambda: choose_e(0, 2, 7), PreconditionViolated, "n >= 1"),
    "build_c-zero-part": (lambda: build_c(ZERO7, ONE7, P1, P2, 1, 2, 9),
                          PreconditionViolated, "must be nonzero"),
    "build_c-constant-p1": (lambda: build_c(X7, ONE7, ONE7 * 3, P2, 1, 2, 9),
                            PreconditionViolated, "nonconstant"),
    "smallest_feasible_n-b-zero": (lambda: smallest_feasible_n(X7, ZERO7),
                                   PreconditionViolated, "b != 0"),
    "smallest_feasible_n-limit": (lambda: smallest_feasible_n(X7, ONE7, limit=3),
                                  NoValidE, "up to 3"),
    "count_irreducibles-degree-0": (lambda: count_irreducibles(2, 0),
                                    PreconditionViolated, "degree"),
    "ramification_type-zero": (lambda: ramification_type(ZERO7), ZeroPolynomial, "zero"),
    "cycle_type_histogram-mixed-fields": (
        lambda: cycle_type_histogram((X7, ONE7, X11), [1], workers=1),
        PreconditionViolated, "different fields"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_public_calls_refuse_out_of_contract_inputs(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message) as refused:
        call()
    # The digit limit is int()'s, met after the term pattern has matched.
    assert case != "parse-over-int-digit-limit" or isinstance(
        refused.value.__cause__, ValueError)
