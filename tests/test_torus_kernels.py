"""The integer point-set kernels against the Fraction loops they replaced.

`fraction_transform` and `fraction_pair_spectrum` are the original kernels:
one Fraction per coordinate, a Fraction matrix-vector product per point, and
a Fraction difference per ordered pair.  They are kept here, as test oracles
only.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glasnerlab.intmat import IntMat
from glasnerlab.torus import EXACT, FLOAT, TorusPointSet, _wrap_float, pair_spectrum

KERNEL = settings(max_examples=60, deadline=None)


def fraction_transform(Y: TorusPointSet, M: IntMat):
    """The points of M Y mod 1, sorted.  Float images are the rounded exact
    images; one that rounds up to 1.0 is the point 0.0."""
    images = set()
    for p in Y.points:
        exact = [Fraction(x) for x in p]
        img = tuple(v % 1 for v in M.mul_vec(exact))
        if Y.kind == FLOAT:
            img = tuple(0.0 if float(v) == 1.0 else float(v) for v in img)
        images.add(img)
    return sorted(images)


def fraction_pair_spectrum(Y: TorusPointSet):
    """h_q over ordered pairs i != j, in order of first appearance."""
    counts = {}
    for i, p in enumerate(Y.points):
        for j, r in enumerate(Y.points):
            if i == j:
                continue
            diff = [(a - b) % 1 for a, b in zip(p, r)]
            q = math.lcm(*(f.denominator for f in diff))
            counts[q] = counts.get(q, 0) + 1
    return counts


def distinct_mod_1(points):
    out, seen = [], set()
    for p in points:
        key = tuple(Fraction(x) % 1 for x in p)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


# denominators: small, prime, sharing factors, and large
DENOMINATORS = st.one_of(
    st.integers(1, 60),
    st.sampled_from([97, 101, 997, 10007, 100003, 999983]),
    st.sampled_from([12, 18, 24, 30, 36, 60, 210, 360, 2**10, 3**7, 2**5 * 3**4 * 5]),
    st.integers(1, 10**12),
)
FRACTIONS = st.builds(Fraction, st.integers(-10**13, 10**13), DENOMINATORS)
ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.integers(-2**64, 2**64),
    st.integers(2**200, 2**210),
    st.integers(-2**210, -2**200),
)
SPECIAL_FLOATS = st.sampled_from([
    0.0, -0.0, -1e-17, 1e-17, 2.0**-60, -2.0**-60, 3 * 2.0**-61, 1 - 2.0**-53,
    -(1 - 2.0**-53), 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 0.25, 1e300,
])
FLOATS = st.one_of(
    SPECIAL_FLOATS,
    st.floats(-4.0, 4.0),
    st.integers(-2**20, 2**20).map(lambda k: k * 2.0**-60),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormal
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def exact_sets(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[FRACTIONS] * d), min_size=1, max_size=12))
    return TorusPointSet.exact(distinct_mod_1(pts))


@st.composite
def float_sets(draw):
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[FLOATS] * d), min_size=1, max_size=12))
    wrapped, seen = [], set()
    for p in pts:
        key = tuple(_wrap_float(x) for x in p)
        if key not in seen:
            seen.add(key)
            wrapped.append(p)
    return TorusPointSet.floats(wrapped)


@st.composite
def matrices(draw, d):
    # a power-of-2 factor folds float points of small denominator together
    scale = draw(st.sampled_from([1, 1, 2, 2**30, 2**60]))
    return IntMat([[scale * draw(ENTRIES) for _ in range(d)] for _ in range(d)])


@KERNEL
@given(st.data())
def test_transform_matches_fraction_loop_exact(data):
    Y = data.draw(exact_sets())
    M = data.draw(matrices(Y.dim))
    img = Y.transform(M)
    assert img.kind == EXACT
    assert img.points == fraction_transform(Y, M)


@KERNEL
@given(st.data())
def test_transform_matches_fraction_loop_float(data):
    Y = data.draw(float_sets())
    M = data.draw(matrices(Y.dim))
    img = Y.transform(M)
    assert img.kind == FLOAT
    want = fraction_transform(Y, M)
    assert img.points == want
    # bit for bit, so -0.0 may not stand in for 0.0
    assert [[math.copysign(1.0, x) for x in p] for p in img.points] == [
        [1.0] * Y.dim for _ in want
    ]


@KERNEL
@given(exact_sets())
def test_pair_spectrum_matches_fraction_loop(Y):
    spec = pair_spectrum(Y)
    want = fraction_pair_spectrum(Y)
    assert list(spec.counts.items()) == list(want.items())
    assert spec.rational_pairs == len(Y) ** 2
    assert spec.k == len(Y) and spec.d == Y.dim


@KERNEL
@given(st.one_of(exact_sets(), float_sets()))
def test_integer_form_is_exact_and_reduced(Y):
    form = Y.integer_form()
    assert len(form) == len(Y)
    for (L, nums), p in zip(form, Y.points):
        assert all(0 <= x < L for x in nums)
        assert [Fraction(x, L) for x in nums] == [Fraction(v) for v in p]
    assert Y.integer_form() is form


def test_transform_exact_keeps_farey_neighbours_apart_and_ordered():
    # consecutive Farey fractions are the closest distinct values of their
    # denominators; the second coordinate decides between equal first ones
    farey = sorted({(Fraction(a, b),) for b in range(1, 13) for a in range(b)})
    Y = TorusPointSet.exact(farey[::-1])
    assert Y.transform(IntMat.identity(1)).points == farey
    pts = [(Fraction(1, 3), Fraction(1, 7)), (Fraction(1, 3), Fraction(1, 8)),
           (Fraction(1, 2), Fraction(5, 6)), (Fraction(2, 5), Fraction(0))]
    Y = TorusPointSet.exact(pts)
    assert Y.transform(IntMat.identity(2)).points == sorted(pts)


def test_transform_exact_merges_images_with_different_forms():
    # 1/6 and 2/3 differ by 1/2; times 2 both land on 1/3
    Y = TorusPointSet.exact([(Fraction(1, 6),), (Fraction(2, 3),), (Fraction(1, 5),)])
    assert Y.transform(IntMat([[2]])).points == [(Fraction(1, 3),), (Fraction(2, 5),)]


def test_transform_float_rounding_up_to_one_merges_with_zero():
    # -2^-60 mod 1 rounds to 1.0, which is the point 0.0
    Y = TorusPointSet.floats([(2.0**-60,), (0.0,), (0.5,)])
    img = Y.transform(IntMat([[-1]]))
    assert img.points == [(0.0,), (0.5,)]
    assert img.points == fraction_transform(Y, IntMat([[-1]]))


def test_transform_float_subnormal():
    Y = TorusPointSet.floats([(5e-324, 0.75), (0.25, 2.0**-1022)])
    M = IntMat([[-(2**1074) + 3, 1], [2**200 + 1, -1]])
    assert Y.transform(M).points == fraction_transform(Y, M)


def test_transform_of_an_empty_set():
    Y = TorusPointSet(2, [], EXACT)
    assert Y.transform(IntMat.identity(2)).points == []


@pytest.mark.parametrize("x, want", [
    (-1e-17, 0.0), (-0.0, 0.0), (0.0, 0.0), (-2.0**-54, 0.0), (-2.0**-53, 1 - 2.0**-53),
    (1.0, 0.0), (-1.0, 0.0), (2.5, 0.5), (-0.25, 0.75), (1e300, 0.0), (-5e-324, 0.0),
])
def test_wrap_float_lands_in_unit_interval(x, want):
    got = _wrap_float(x)
    assert 0.0 <= got < 1.0
    assert got == want and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_wrap_float_rejects_non_finite(x):
    with pytest.raises(ValueError, match=repr(x)):
        _wrap_float(x)


def test_float_set_negative_tiny_coordinate_is_zero():
    with pytest.raises(ValueError, match="distinct"):
        TorusPointSet.floats([(0.0,), (-1e-17,)])
    assert TorusPointSet.floats([(-1e-17,)]).points == [(0.0,)]
