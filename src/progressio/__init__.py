"""Irreducible polynomials in arithmetic progressions over prime fields.

The package constructs, for a coprime pair (a, b) in F_p[X] and a target
degree n, an explicit multiplier c so that the family a + b*c*Y is
irreducible of degree n with full symmetric geometric Galois group; it
certifies that claim from two ramified specializations, and it searches
and counts irreducible members a + b*(alpha*c) of the progression.
"""

from .construct import (
    Pencil,
    StableCertificate,
    build_c,
    build_stable,
    certificate_from_text,
    certificate_to_text,
    certificate_violations,
    choose_e,
    smallest_feasible_n,
    verify_certificate,
)
from .dirichlet import (
    DensityResult,
    SearchReport,
    density_scan,
    search_constructed,
    search_exhaustive,
)
from .factor import (
    FactorizationResult,
    count_irreducibles,
    factorize,
    is_irreducible,
)
from .ff import FieldElem, PrimeField, is_prime
from .galois import (
    CycleTypeHistogram,
    RamificationType,
    SnCertificate,
    certify_sn,
    cycle_type_histogram,
    long_cycle_evidence,
    ramification_type,
    specialize,
    transposition_evidence,
)
from .oracle import enumerate_irreducibles, naive_factor, naive_mul
from .poly import (
    Poly,
    ZERO_DEGREE,
    format_poly,
    gcd,
    is_separable,
    parse_poly,
    pow_mod,
    xgcd,
)

__version__ = "0.1.0"

__all__ = [
    "CycleTypeHistogram",
    "DensityResult",
    "FactorizationResult",
    "FieldElem",
    "Pencil",
    "Poly",
    "PrimeField",
    "RamificationType",
    "SearchReport",
    "SnCertificate",
    "StableCertificate",
    "ZERO_DEGREE",
    "build_c",
    "build_stable",
    "certificate_from_text",
    "certificate_to_text",
    "certificate_violations",
    "certify_sn",
    "choose_e",
    "count_irreducibles",
    "cycle_type_histogram",
    "density_scan",
    "enumerate_irreducibles",
    "factorize",
    "format_poly",
    "gcd",
    "is_irreducible",
    "is_prime",
    "is_separable",
    "long_cycle_evidence",
    "naive_factor",
    "naive_mul",
    "parse_poly",
    "pow_mod",
    "ramification_type",
    "search_constructed",
    "search_exhaustive",
    "smallest_feasible_n",
    "specialize",
    "transposition_evidence",
    "verify_certificate",
    "xgcd",
]
