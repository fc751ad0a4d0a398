from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seshadri.lattice import (
    CurveGeneratorSet,
    IntersectionLattice,
    LatticeError,
    extend_blowup,
    pair,
)

P2 = IntersectionLattice(rank=1, gram=((1,),), basis_labels=("H",))
F1 = IntersectionLattice(rank=2, gram=((1, 0), (0, -1)), basis_labels=("H", "E"))


def test_pair_plane():
    assert pair(P2.divisor((3,)), P2.divisor((2,))) == 6


def test_pair_f1_by_hand():
    # (3H - E).(H - E) = 3*1 - 1*1 = 2
    assert pair(F1.divisor((3, -1)), F1.divisor((1, -1))) == 2


def test_pair_zero_class():
    zero = F1.divisor((0, 0))
    assert pair(F1.divisor((5, -3)), zero) == 0


def test_pair_lattice_mismatch():
    with pytest.raises(LatticeError):
        pair(P2.divisor((1,)), F1.divisor((1, 0)))


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError):
        IntersectionLattice(rank=2, gram=((0, 1), (2, 0)), basis_labels=("a", "b"))


def test_gram_rejects_non_integers():
    # a float entry was truncated to -1 before
    with pytest.raises(LatticeError, match="-1.7"):
        IntersectionLattice(rank=2, gram=((1, 0), (0, -1.7)), basis_labels=("H", "E"))


@pytest.mark.parametrize("bad", [2.9, 2.0, Fraction(5, 2)])
def test_divisor_rejects_non_integers(bad):
    # (2.9, 1) was stored as (2, 1) before
    with pytest.raises(LatticeError, match="coordinates must be integers"):
        F1.divisor((bad, 1))


@st.composite
def gram_and_coords(draw):
    """A random symmetric integer Gram matrix of rank 1..13 with negative
    and zero entries, and two coordinate vectors, each sparse or dense."""
    n = draw(st.integers(1, 13))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = draw(st.integers(-9, 9))
    entry = st.integers(-50, 50)
    sparse = st.lists(st.tuples(st.integers(0, n - 1), entry), max_size=2)

    def coords():
        if draw(st.booleans()):
            return draw(st.lists(entry, min_size=n, max_size=n))
        vec = [0] * n
        for i, c in draw(sparse):
            vec[i] = c
        return vec

    return gram, coords(), coords()


@given(gram_and_coords())
def test_pair_matches_naive_double_sum(case):
    gram, u, v = case
    n = len(gram)
    lat = IntersectionLattice(
        rank=n, gram=tuple(map(tuple, gram)), basis_labels=tuple(f"b{i}" for i in range(n))
    )
    U, V = lat.divisor(u), lat.divisor(v)
    naive = sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
    assert pair(U, V) == naive
    assert pair(V, U) == naive
    # an equal class whose covector was never computed is still equal
    fresh = lat.divisor(u)
    assert "covector" in vars(U) and "covector" not in vars(fresh)
    assert fresh == U and hash(fresh) == hash(U)
    assert {U: 1}[fresh] == 1


def test_labels_must_be_distinct():
    with pytest.raises(LatticeError):
        IntersectionLattice(rank=2, gram=((1, 0), (0, 1)), basis_labels=("a", "a"))


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.integers(-4, 4),
)
def test_pair_symmetric_bilinear(u, v, w, k):
    U, V, W = F1.divisor(u), F1.divisor(v), F1.divisor(w)
    assert pair(U, V) == pair(V, U)
    assert pair(U + k * V, W) == pair(U, W) + k * pair(V, W)


# a class is nef against a generator set when it pairs nonnegatively
# with every generator, which is the test the nef path runs
F1_GENS = (F1.divisor((0, 1)), F1.divisor((1, -1)))  # E and H - E


def test_nef_f1_hyperplane():
    assert [pair(F1.divisor((1, 0)), C) for C in F1_GENS] == [0, 1]


def test_nef_f1_negative_case():
    # (2H - 3E).(H - E) = 2 - 3 = -1
    assert [pair(F1.divisor((2, -3)), C) for C in F1_GENS] == [3, -1]


def test_nef_zero_class():
    assert [pair(F1.divisor((0, 0)), C) for C in F1_GENS] == [0, 0]


def test_generator_set_rejects_zero_class():
    with pytest.raises(LatticeError):
        CurveGeneratorSet(labels=("zero",), rows=((0, 0),))


def test_extend_blowup_plane():
    ext = extend_blowup(P2, "Ex")
    assert ext.rank == 2
    assert ext.gram == ((1, 0), (0, -1))
    assert ext.basis_labels == ("H", "Ex")


def test_extend_blowup_f1():
    ext = extend_blowup(F1, "Ex")
    assert ext.rank == 3
    assert ext.gram == ((1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_extend_blowup_duplicate_label():
    with pytest.raises(LatticeError):
        extend_blowup(F1, "E")


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
)
def test_blowup_preserves_old_pairings(u, v):
    ext = extend_blowup(F1, "Ex")
    U, V = F1.divisor(u), F1.divisor(v)
    assert pair(ext.divisor(u + [0]), ext.divisor(v + [0])) == pair(U, V)
    e = ext.basis_vector("Ex")
    assert pair(e, e) == -1
    assert pair(e, ext.divisor(u + [0])) == 0


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_pushforward_inverts_lift(l, c):
    # the projection formula pi^*L.C = L.pi_*C, where pi_*C drops the
    # exceptional coordinate; the load-time ampleness gate relies on it
    ext = extend_blowup(F1, "Ex")
    L = F1.divisor(l)
    assert pair(ext.divisor(l + [0]), ext.divisor(c)) == pair(L, F1.divisor(c[:-1]))
