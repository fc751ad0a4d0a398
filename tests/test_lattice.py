import re
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
    assert pair(P2, (3,), (2,)) == 6


def test_pair_f1_by_hand():
    # (3H - E).(H - E) = 3*1 - 1*1 = 2
    assert pair(F1, (3, -1), (1, -1)) == 2


def test_pair_zero_class():
    assert pair(F1, (5, -3), (0, 0)) == 0


def test_pair_lattice_mismatch():
    # a row of another lattice's rank is a length error
    with pytest.raises(LatticeError, match="^coordinate length 1 differs from rank 2$"):
        pair(F1, (1,), (1, 0))


@pytest.mark.parametrize("u, v", [
    ((1, 0), (1,)),
    ((1, 0, 0), (1, 0)),
    ((1, 0), (1, 0, 5)),
    ((), (1, 0)),
], ids=["short_right", "long_left", "long_right", "empty"])
def test_pair_rejects_a_row_of_another_length(u, v):
    # a longer row would be paired on its first entries, as map stops at
    # the shorter sequence
    bad = len(u) if len(u) != 2 else len(v)
    with pytest.raises(LatticeError, match=f"^coordinate length {bad} differs from rank 2$"):
        pair(F1, u, v)


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError):
        IntersectionLattice(rank=2, gram=((0, 1), (2, 0)), basis_labels=("a", "b"))


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n))
))
def test_an_asymmetric_gram_names_its_first_pair_in_row_major_order(matrix):
    n, entries = matrix
    gram = [entries[i * n:(i + 1) * n] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if gram[i][j] != gram[j][i]]
    labels = tuple(f"e{i}" for i in range(n))
    if not pairs:
        assert IntersectionLattice(n, gram, labels).gram == tuple(map(tuple, gram))
        return
    i, j = pairs[0]
    message = f"gram matrix not symmetric at ({i},{j}): {gram[i][j]} != {gram[j][i]}"
    with pytest.raises(LatticeError, match=f"^{re.escape(message)}$"):
        IntersectionLattice(n, gram, labels)


def test_gram_rejects_non_integers():
    # a float entry was truncated to -1 before
    with pytest.raises(LatticeError, match="-1.7"):
        IntersectionLattice(rank=2, gram=((1, 0), (0, -1.7)), basis_labels=("H", "E"))


@pytest.mark.parametrize("bad", [2.9, 2.0, Fraction(5, 2)])
def test_divisor_rejects_non_integers(bad):
    # (2.9, 1) was paired as (2, 1) once; a float is refused on either side
    message = re.escape(f"coordinates must be integers, got {bad!r}")
    with pytest.raises(LatticeError, match=f"^{message}$"):
        pair(F1, (bad, 1), (1, 0))
    with pytest.raises(LatticeError, match=f"^{message}$"):
        pair(F1, (1, 0), (1, bad))


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
    naive = sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))
    assert pair(lat, u, v) == naive
    assert pair(lat, v, u) == naive


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
    assert pair(F1, u, v) == pair(F1, v, u)
    u_plus_kv = tuple(a + k * b for a, b in zip(u, v))
    assert pair(F1, u_plus_kv, w) == pair(F1, u, w) + k * pair(F1, v, w)


# a class is nef against a generator set when it pairs nonnegatively
# with every generator, which is the test the nef path runs
F1_GENS = ((0, 1), (1, -1))  # E and H - E


def test_nef_f1_hyperplane():
    assert [pair(F1, (1, 0), C) for C in F1_GENS] == [0, 1]


def test_nef_f1_negative_case():
    # (2H - 3E).(H - E) = 2 - 3 = -1
    assert [pair(F1, (2, -3), C) for C in F1_GENS] == [3, -1]


def test_nef_zero_class():
    assert [pair(F1, (0, 0), C) for C in F1_GENS] == [0, 0]


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
    assert pair(ext, u + [0], v + [0]) == pair(F1, u, v)
    e = (0, 0, 1)  # Ex, last in the blow-up layout
    assert pair(ext, e, e) == -1
    assert pair(ext, e, u + [0]) == 0


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=2),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_pushforward_inverts_lift(l, c):
    # the projection formula pi^*L.C = L.pi_*C, where pi_*C drops the
    # exceptional coordinate; the load-time ampleness gate relies on it
    ext = extend_blowup(F1, "Ex")
    assert pair(ext, l + [0], c) == pair(F1, l, c[:-1])
