"""The dispatcher's exact rational against :class:`fractions.Fraction`.

Dispatcher clocks are ``int`` while integral and a dispatcher-private
rational otherwise, built only by ``_rational``.  Every operation the
dispatcher performs on them — ``+``, ``-`` and ``*`` with ints and with
rationals, division by a sharing load, and the six comparisons in both
operand orders — must agree with ``Fraction`` exactly: an equal value, a
bit-identical ``float()``, and canonical form at every step (an ``int``
exactly when the value is integral, otherwise lowest terms with a
denominator above 1).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.dispatcher import _divide, _Rational, _rational

COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)

#: An exact operand as (numerator, denominator): an int when d == 1.
operand = st.tuples(
    st.integers(min_value=-10**9, max_value=10**9),
    st.integers(min_value=1, max_value=5_000),
)

step = st.one_of(
    st.tuples(st.sampled_from(("add", "sub", "rsub", "mul")), operand),
    st.tuples(st.just("div"), st.integers(min_value=1, max_value=8)),
)


def _build(pair):
    """The operand as the dispatcher holds it, and as a Fraction."""
    n, d = pair
    return _rational(n, d), Fraction(n, d)


def _apply(op, x, value):
    if op == "add":
        return value + x
    if op == "sub":
        return value - x
    if op == "rsub":
        return x - value
    return value * x


def _as_fraction(value) -> Fraction:
    if type(value) is int:
        return Fraction(value)
    return Fraction(value.n, value.d)


def _check(value, ref: Fraction) -> None:
    if ref.denominator == 1:
        assert type(value) is int
    else:
        assert type(value) is _Rational
        assert value.d > 1 and gcd(value.n, value.d) == 1
    assert _as_fraction(value) == ref
    assert float(value).hex() == float(ref).hex()


@settings(max_examples=300, deadline=None)
@given(start=operand, steps=st.lists(step, max_size=24),
       probes=st.lists(operand, min_size=1, max_size=4))
def test_rational_chains_match_fraction(start, steps, probes):
    value, ref = _build(start)
    _check(value, ref)
    for op, arg in steps:
        if op == "div":
            value, ref = _divide(value, arg), ref / arg
        else:
            x, x_ref = _build(arg)
            value, ref = _apply(op, x, value), _apply(op, x_ref, ref)
        _check(value, ref)
        # The probes, plus an equal value built afresh (the == case).
        for probe in probes + [(ref.numerator, ref.denominator)]:
            x, x_ref = _build(probe)
            for cmp in COMPARISONS:
                assert cmp(value, x) == cmp(ref, x_ref)
                assert cmp(x, value) == cmp(x_ref, ref)


def test_rational_is_canonical_and_prints_as_a_ratio():
    assert _rational(6, 3) == 2 and type(_rational(6, 3)) is int
    assert _rational(0, 7) == 0 and type(_rational(0, 7)) is int
    half = _rational(2, 4)
    assert (half.n, half.d) == (1, 2)
    assert repr(half) == str(half) == "1/2"
    assert repr(_rational(-3, 6)) == "-1/2"
    assert half == _rational(3, 6)
    assert half * 2 == 1 and type(half * 2) is int
    assert half + half == 1 and 1 - half == half
