"""Differential fuzzing of the factorization engine against sympy.

Hypothesis draws f * g^2 at every listed p, and f * g^p where that power
stays small (p <= 5); the squarefree stage then meets repeated factors and
a vanishing derivative. ``factorize``, ``is_irreducible`` and the
factor-degree reading behind cycle types must agree with
``sympy.polys.galoistools``. Examples are derandomized, so a run is
reproducible and its cost bounded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progressio import PrimeField, factorize, is_irreducible
from progressio.factor import _factor_degrees
from progressio.poly import Poly

gt = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ

PRIMES = (2, 3, 5, 10007, (1 << 61) - 1)


@st.composite
def shaped_inputs(draw):
    p = draw(st.sampled_from(PRIMES))
    field = PrimeField(p)

    def poly(max_degree, monic):
        n = draw(st.integers(1 if monic else 0, max_degree))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        return Poly(field, coeffs + [1 if monic else draw(st.integers(1, p - 1))])

    f, g = poly(8, False), poly(3, True)
    power = p if p <= 5 and draw(st.booleans()) else 2
    return f * g**power


@settings(max_examples=200, deadline=None, derandomize=True)
@given(f=shaped_inputs(), seed=st.integers(0, 2**64 - 1))
def test_engine_matches_sympy_on_repeated_factors(f, seed):
    p = f.field.modulus
    dense = list(reversed(f.coeffs))
    lc, ref = gt.gf_factor(dense, p, ZZ)
    ref_factors = sorted((tuple(reversed(q)), k) for q, k in ref)
    assert is_irreducible(f) == gt.gf_irreducible_p(dense, p, ZZ)
    ours = factorize(f, seed=seed)
    assert int(ours.unit) == lc % p
    assert sorted((q.coeffs, k) for q, k in ours.factors) == ref_factors
    assert _factor_degrees(list(f.coeffs), p) == sorted(
        (len(q) - 1, k) for q, k in ref_factors
    )
