# Index-sets over data blocks, orderings of all nonempty index-sets, the
# partially-joint structure record (index-set, rank), its binary-multiset
# representation, and the greedy squared-Hamming dissimilarity between two
# structures.

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Integral
from typing import Iterable

# multiset of K-length 0/1 tuples, one copy per latent component
BinaryMultiset = Counter

# Orderings enumerate 2^K - 1 subsets, and identify's work grows with them:
# one identify at 20 degrees (n 100, p 60, rank 4 per block, BLAS at 1
# thread) took 0.95 s at K = 12 and 2.7 s at K = 13, one identify_path 7.2 s
# and 20 s, and a tuned fit runs two paths.
MAX_BLOCKS = 12


@dataclass(frozen=True, order=True)
class IndexSet:
    """A nonempty set of 1-based data-block indices, stored sorted ascending."""

    members: tuple[int, ...]

    def __post_init__(self):
        # int() would read 3.7 as block 3, True as block 1 and "2" as block 2
        if not all(isinstance(m, Integral) and not isinstance(m, bool) for m in self.members):
            raise ValueError(f"block indices must be integers, got {self.members!r}")
        members = tuple(sorted(set(int(m) for m in self.members)))
        if not members:
            raise ValueError("an index-set must be nonempty")
        if members[0] < 1:
            raise ValueError("block indices are 1-based")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, *members: int) -> "IndexSet":
        return cls(tuple(members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, block: int) -> bool:
        return block in self.members

    def __iter__(self):
        return iter(self.members)

    def intersects(self, other: "IndexSet") -> bool:
        return bool(set(self.members) & set(other.members))

    def indicator(self, K: int) -> tuple[int, ...]:
        return tuple(1 if k in self.members else 0 for k in range(1, K + 1))

    def label(self) -> str:
        return "|".join(str(m) for m in self.members)

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


@dataclass(frozen=True, eq=False)
class IndexOrdering:
    """All 2^K - 1 nonempty index-sets, sizes non-increasing along the sequence."""

    sets: tuple[IndexSet, ...]
    K: int

    def __post_init__(self):
        K = int(self.K)
        if not 1 <= K <= MAX_BLOCKS:
            raise ValueError(f"the number of blocks K must be between 1 and {MAX_BLOCKS}")
        sets = tuple(self.sets)
        if len(sets) != 2**K - 1:
            raise ValueError(f"an ordering for K={K} needs {2**K - 1} index-sets")
        seen = set(s.members for s in sets)
        if len(seen) != len(sets):
            raise ValueError("every index-set must appear exactly once")
        for s in sets:
            if s.members[-1] > K:
                raise ValueError(f"index-set {s} exceeds K={K}")
        sizes = [len(s) for s in sets]
        if any(a < b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("index-set sizes must be non-increasing")
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "K", K)

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)


def default_ordering(K: int) -> IndexOrdering:
    """Every nonempty subset of {1,..,K}: sizes descending, lexicographic within a size."""
    if not 1 <= K <= MAX_BLOCKS:
        raise ValueError(f"the number of blocks K must be between 1 and {MAX_BLOCKS}")
    sets = []
    for size in range(K, 0, -1):
        for combo in combinations(range(1, K + 1), size):
            sets.append(IndexSet(combo))
    return IndexOrdering(tuple(sets), K)


def ordering_from_lists(lists: Iterable[Iterable[int]], K: int) -> IndexOrdering:
    return IndexOrdering(tuple(IndexSet(tuple(s)) for s in lists), K)


@dataclass(frozen=True, eq=False)
class PartialJointStructure:
    """Sequence of (index-set, rank) pairs; rank-0 entries are kept internally."""

    entries: tuple[tuple[IndexSet, int], ...]
    K: int

    def __post_init__(self):
        entries = tuple((s, int(r)) for s, r in self.entries)
        for s, r in entries:
            if r < 0:
                raise ValueError(f"rank for {s} must be nonnegative")
            if s.members[-1] > self.K:
                raise ValueError(f"index-set {s} exceeds K={self.K}")
        object.__setattr__(self, "entries", entries)

    def rank_of(self, subset: IndexSet) -> int:
        for s, r in self.entries:
            if s == subset:
                return r
        return 0

    def block_rank(self, k: int) -> int:
        """Total number of latent components involving block k."""
        return sum(r for s, r in self.entries if k in s)

    def total_rank(self) -> int:
        return sum(r for _, r in self.entries)

    @cached_property
    def _multiset(self) -> BinaryMultiset:
        """to_binary_multiset of this structure, built once; not to be mutated."""
        return to_binary_multiset(self)


def canonical_display(structure: PartialJointStructure):
    """Entries with positive rank, in stored order."""
    return tuple((s, r) for s, r in structure.entries if r > 0)


def to_binary_multiset(structure: PartialJointStructure) -> BinaryMultiset:
    """r copies of the K-length indicator vector for every (index-set, r) entry."""
    out: BinaryMultiset = Counter()
    for s, r in structure.entries:
        if r > 0:
            out[s.indicator(structure.K)] += r
    return out


def _hamming(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(x != y for x, y in zip(a, b))


def dissimilarity(A: PartialJointStructure, B: PartialJointStructure) -> int:
    """Squared-Hamming dissimilarity between two structures.

    Identical indicator vectors cancel pairwise; every surviving vector
    contributes the squared Hamming distance to its nearest survivor on the
    other side. A vector facing an empty other side is matched against the
    all-zero vector. Symmetric, zero iff the multisets agree; the triangle
    inequality is not guaranteed.
    """
    if A.K != B.K:
        raise ValueError(f"structures disagree on K: {A.K} vs {B.K}")
    ma, mb = A._multiset, B._multiset
    rest_a = ma - mb
    rest_b = mb - ma
    total = 0
    for side, other in ((rest_a, rest_b), (rest_b, rest_a)):
        others = list(other)  # distinct vectors: copies do not change the nearest
        for vec, count in side.items():
            if others:
                d = min(_hamming(vec, o) for o in others)
            else:
                d = sum(vec)
            total += count * d * d
    return total


def structures_equal(A: PartialJointStructure, B: PartialJointStructure) -> bool:
    """Equality as binary multisets (entry order and rank-0 entries ignored)."""
    if A.K != B.K:
        return False
    return A._multiset == B._multiset


def structure_to_dict(structure: PartialJointStructure) -> dict:
    return {
        "K": structure.K,
        "entries": [
            {"blocks": list(s.members), "rank": r}
            for s, r in canonical_display(structure)
        ],
    }


def structure_to_json(structure: PartialJointStructure) -> str:
    return json.dumps(structure_to_dict(structure), indent=2)


def structure_from_dict(payload: dict) -> PartialJointStructure:
    K = int(payload["K"])
    entries = tuple(
        (IndexSet(tuple(e["blocks"])), int(e["rank"])) for e in payload["entries"]
    )
    return PartialJointStructure(entries, K)


def structure_from_json(text: str) -> PartialJointStructure:
    return structure_from_dict(json.loads(text))
