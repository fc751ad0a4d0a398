"""Integer intersection lattices, divisor classes and curve-generator sets.

A lattice is a symmetric integer Gram matrix with labeled basis vectors.
Nef testing is always relative to a declared finite curve-generator set:
listing a set asserts that it generates the effective curve cone, and
that assertion is the trust boundary of the nef path.

A generator set keeps its classes as integer rows on the blow-up layout
that `extend_blowup` states.  It names no lattice: the model that lists
it checks each row's length against its own rank before pairing it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence, Tuple

from .values import as_int, require_label


class LatticeError(ValueError):
    pass


def integers(values: Sequence, what: str) -> Tuple[int, ...]:
    """The values as a tuple of ints, via operator.index, so that a float
    or a fraction is an error and never silently truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            if not hasattr(type(v), "__index__"):
                raise LatticeError(f"{what} must be integers, got {v!r}") from None
        raise


@dataclass(frozen=True)
class IntersectionLattice:
    rank: int
    gram: Tuple[Tuple[int, ...], ...]
    basis_labels: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "rank", as_int(self.rank, "rank", LatticeError))
        if self.rank < 1:
            raise LatticeError(f"rank must be positive, got {self.rank}")
        gram = tuple(integers(row, "gram entries") for row in self.gram)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "basis_labels", tuple(self.basis_labels))
        for label in self.basis_labels:
            require_label(label, "a lattice", LatticeError, "basis label")
        if len(gram) != self.rank or any(len(row) != self.rank for row in gram):
            raise LatticeError(f"gram matrix is not {self.rank}x{self.rank}")
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                if gram[i][j] != gram[j][i]:
                    raise LatticeError(
                        f"gram matrix not symmetric at ({i},{j}): "
                        f"{gram[i][j]} != {gram[j][i]}"
                    )
        if len(self.basis_labels) != self.rank:
            raise LatticeError("basis_labels length differs from rank")
        if len(set(self.basis_labels)) != self.rank:
            raise LatticeError("basis_labels are not distinct")

    def divisor(self, coords: Sequence[int]) -> "DivisorClass":
        return DivisorClass(self, coords)

    def basis_vector(self, label: str) -> "DivisorClass":
        i = self.basis_labels.index(label)
        return self.divisor(tuple(1 if j == i else 0 for j in range(self.rank)))


@dataclass(frozen=True)
class DivisorClass:
    lattice: IntersectionLattice
    coords: Tuple[int, ...]

    def __post_init__(self):
        coords, rank = integers(self.coords, "coordinates"), self.lattice.rank
        if len(coords) != rank:
            raise LatticeError(f"coordinate length {len(coords)} differs from rank {rank}")
        object.__setattr__(self, "coords", coords)

    @functools.cached_property
    def covector(self) -> Tuple[int, ...]:
        """coords^T * gram, the linear form v -> self.v, computed on first
        use (row j of the symmetric gram gives entry j).  It is not a
        field, so it takes no part in == or hash."""
        return tuple(sum(map(operator.mul, row, self.coords)) for row in self.lattice.gram)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_lattice(self, other)
        return DivisorClass(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        _require_same_lattice(self, other)
        return DivisorClass(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(k * c for c in self.coords))

    def __repr__(self) -> str:
        terms = [f"{c}*{l}" for c, l in zip(self.coords, self.lattice.basis_labels) if c]
        return "DivisorClass(" + (" + ".join(terms) if terms else "0") + ")"


def _require_same_lattice(u: DivisorClass, v: DivisorClass) -> None:
    if u.lattice != v.lattice:
        raise LatticeError("divisor classes live on different lattices")


def pair(u: DivisorClass, v: DivisorClass) -> int:
    """Intersection number u.v = u^T * gram * v, exactly: one integer
    dot product of u's cached covector with v's coordinates."""
    _require_same_lattice(u, v)
    return sum(map(operator.mul, u.covector, v.coords))


@dataclass(frozen=True)
class CurveGeneratorSet:
    """Finite list of curve classes asserted to generate the effective
    curve cone, so that a nef verdict against them is a certificate.

    The classes are integer rows, one per label, on the blow-up layout of
    the model that lists the set: the model's basis, then `Ex` (see
    `extend_blowup`).  The set checks that every row is exact integers
    and not zero; it knows no rank, so the model checks each row's
    length before it pairs the row."""

    labels: Tuple[str, ...]
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        labels, rows = tuple(self.labels), tuple(map(tuple, self.rows))
        if len(labels) != len(rows):
            raise LatticeError(f"{len(labels)} generator labels for {len(rows)} classes")
        # one pass over all rows with builtins; the row-by-row walk runs
        # only on a failing set, to raise the first error in order: each
        # row's coordinates, then each generator's label and class
        if not (
            all(labels)
            and set(map(type, labels)) <= {str}
            and set(map(type, chain.from_iterable(rows))) <= {int}
            and all(map(any, rows))
        ):
            rows = tuple(integers(row, "coordinates") for row in rows)
            for label, row in zip(labels, rows):
                require_label(label, "a curve generator", LatticeError)
                if not any(row):
                    raise LatticeError(f"generator {label!r} is the zero class")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", rows)


def extend_blowup(lat: IntersectionLattice, label: str) -> IntersectionLattice:
    """Rank+1 lattice of a point blow-up.  Its layout is a contract that
    readers of blow-up rows rely on: the exceptional vector `label` comes
    last, orthogonal to the old basis, with self-intersection -1.  So a
    row's first n entries are its pushforward and minus its last entry is
    its pairing with the exceptional class."""
    if label in lat.basis_labels:
        raise LatticeError(f"duplicate basis label {label!r}")
    n = lat.rank
    gram = [list(row) + [0] for row in lat.gram]
    gram.append([0] * n + [-1])
    return IntersectionLattice(
        rank=n + 1,
        gram=tuple(tuple(row) for row in gram),
        basis_labels=lat.basis_labels + (label,),
    )
