"""Integer intersection lattices, their pairing and curve-generator sets.

A lattice is a symmetric integer Gram matrix with labeled basis vectors,
and a divisor class on it is a bare integer row of its rank.  A model
pairs rows through one class's `covector`, built once.  No package code
calls `pair`, the checked pairing of two rows, or `extend_blowup`: the
tests use them as the oracles of the pairing and of the blow-up layout.

Nef testing is always relative to a declared finite curve-generator set:
listing a set asserts that it generates the effective curve cone, and
that assertion is the trust boundary of the nef path.

A generator set keeps its classes as integer rows on the blow-up layout
that `extend_blowup` states.  It names no lattice: the model that lists
it checks each row's length against its own rank before pairing it.
"""

from __future__ import annotations

import operator
from typing import Sequence, Tuple

from .values import Record, as_int, as_tuple, cut, require_label, set_field, shown


class LatticeError(ValueError):
    pass


_INT = frozenset({int})  # the type of every entry of a row


def integers(values: Sequence, what: str) -> Tuple[int, ...]:
    """The values as a tuple, each of them exactly an int: a bool, an int
    subclass, a float or a fraction is an error, never converted or
    truncated, and so is a row that `as_tuple` refuses.  The one rule of a
    row: a tuple or a list is read as it is, and its first bad entry is
    looked for only to word the error."""
    row = values if type(values) in (tuple, list) else as_tuple(values, what, LatticeError)
    if not _INT.issuperset(map(type, row)):
        bad = next(v for v in row if type(v) is not int)
        raise LatticeError(f"{what} must be integers, got {shown(bad)}")
    return tuple(row)


class IntersectionLattice(Record):
    __slots__ = _fields = ("rank", "gram", "basis_labels")

    def __post_init__(self):
        rank = as_int(self.rank, "rank", LatticeError)
        if rank < 1:
            raise LatticeError(f"rank must be positive, got {cut(rank)}")
        gram = tuple(
            integers(row, "gram entries") for row in as_tuple(self.gram, "gram", LatticeError)
        )
        basis_labels = as_tuple(self.basis_labels, "basis_labels", LatticeError)
        for label in basis_labels:
            require_label(label, "a lattice", LatticeError, "basis label")
        if len(gram) != rank or any(len(row) != rank for row in gram):
            raise LatticeError(f"gram matrix is not {cut(rank)}x{cut(rank)}")
        if gram != tuple(zip(*gram)):
            # the first asymmetric pair in row-major order, for the message
            i, j = next(
                (i, j) for i in range(rank) for j in range(i + 1, rank) if gram[i][j] != gram[j][i]
            )
            raise LatticeError(
                f"gram matrix not symmetric at ({i},{j}): {cut(gram[i][j])} != {cut(gram[j][i])}"
            )
        if len(basis_labels) != rank:
            raise LatticeError("basis_labels length differs from rank")
        if len(set(basis_labels)) != rank:
            raise LatticeError("basis_labels are not distinct")
        set_field(self, "gram", gram)
        set_field(self, "basis_labels", basis_labels)

    def covector(self, row: Sequence[int]) -> Tuple[int, ...]:
        """row^T * gram, the linear form v -> row.v: row j of the
        symmetric gram gives entry j.  The caller checks the row."""
        return tuple(sum(map(operator.mul, g, row)) for g in self.gram)


def pair(lattice: IntersectionLattice, u: Sequence[int], v: Sequence[int]) -> int:
    """Intersection number u.v = u^T * gram * v of two rows on `lattice`,
    exactly.  Each row is checked first, for exact integers and for the
    lattice's rank: map stops at the shorter sequence, so a longer row
    would otherwise be paired on its first entries."""
    u, v = integers(u, "coordinates"), integers(v, "coordinates")
    for row in (u, v):
        if len(row) != lattice.rank:
            raise LatticeError(f"coordinate length {len(row)} differs from rank {lattice.rank}")
    return sum(map(operator.mul, lattice.covector(u), v))


class CurveGeneratorSet(Record):
    """Finite list of curve classes asserted to generate the effective
    curve cone, so that a nef verdict against them is a certificate.

    The classes are integer rows, one per label, on the blow-up layout of
    the model that lists the set: the model's basis, then `Ex` (see
    `extend_blowup`).  The set checks that every row is exact integers
    and not zero; it knows no rank, so the model checks each row's
    length before it pairs the row."""

    __slots__ = _fields = ("labels", "rows")

    def __post_init__(self):
        labels = as_tuple(self.labels, "generator labels", LatticeError)
        rows = as_tuple(self.rows, "generator rows", LatticeError)
        if len(labels) != len(rows):
            raise LatticeError(f"{len(labels)} generator labels for {len(rows)} classes")
        # one walk in error order: every row, read once, as each class is
        # built before its set; then each generator's label and class
        rows = tuple(integers(row, "coordinates") for row in rows)
        for label, row in zip(labels, rows):
            if type(label) is not str or not label:
                require_label(label, "a curve generator", LatticeError)
            if not any(row):
                raise LatticeError(f"generator {shown(label)} is the zero class")
        set_field(self, "labels", labels)
        set_field(self, "rows", rows)


def extend_blowup(lat: IntersectionLattice, label: str) -> IntersectionLattice:
    """Rank+1 lattice of a point blow-up.  Its layout is a contract that
    readers of blow-up rows rely on: the exceptional vector `label` comes
    last, orthogonal to the old basis, with self-intersection -1.  So a
    row's first n entries are its pushforward and minus its last entry is
    its pairing with the exceptional class."""
    if label in lat.basis_labels:
        raise LatticeError(f"duplicate basis label {shown(label)}")
    n = lat.rank
    gram = [list(row) + [0] for row in lat.gram]
    gram.append([0] * n + [-1])
    return IntersectionLattice(
        rank=n + 1,
        gram=tuple(tuple(row) for row in gram),
        basis_labels=lat.basis_labels + (label,),
    )
