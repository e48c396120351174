"""Small Steiner systems and greedy conflict-free block partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import _kset_count, _subset_ranks, colex_unrank, mask_to_vertices, vertices_to_mask


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    for d in range(3, int(math.isqrt(q)) + 1, 2):
        if q % d == 0:
            return False
    return True


@dataclass(frozen=True)
class SteinerSystem:
    """An (n, h, k)-Steiner system: h-blocks covering every k-set exactly once.

    class_of, when present, tags each block with a parallel class index.
    The coverage is checked once, here, exhaustively, and the blocks and
    tags are stored immutable as tuples.
    """

    n: int
    h: int
    k: int
    blocks: Sequence[int]
    class_of: Sequence[int] | None = None

    def __post_init__(self):
        if not self.n > self.h >= self.k >= 1:
            raise ValueError(f"need n > h >= k >= 1, got n={self.n}, h={self.h}, k={self.k}")
        blocks = tuple(self.blocks)
        ksets = _kset_count(self.n, self.k)
        expected = ksets // math.comb(self.h, self.k)
        if len(blocks) != expected:
            raise ValueError(f"expected {expected} blocks, got {len(blocks)}")
        owner = [-1] * ksets  # k-set colex rank -> covering block
        for bi, block in enumerate(blocks):
            if block.bit_count() != self.h or block >> self.n:
                raise ValueError(f"block {bi} is not an h-subset of {{1..n}}")
            for rank in _subset_ranks(mask_to_vertices(block), self.k):
                if owner[rank] >= 0:
                    kset = mask_to_vertices(colex_unrank(rank, self.n, self.k))
                    raise ValueError(f"{self.k}-set {kset} covered by blocks {owner[rank]} and {bi}")
                owner[rank] = bi
        if -1 in owner:
            raise ValueError("some k-set is not covered by any block")
        object.__setattr__(self, "blocks", blocks)
        if self.class_of is not None:
            class_of = tuple(self.class_of)
            if len(class_of) != len(blocks):
                raise ValueError(f"expected {len(blocks)} class tags, got {len(class_of)}")
            object.__setattr__(self, "class_of", class_of)

    def parallel_classes(self) -> list[list[int]]:
        """Block indices grouped by class tag."""
        if self.class_of is None:
            raise ValueError("this system carries no class tags")
        out: dict[int, list[int]] = {}
        for bi, ci in enumerate(self.class_of):
            out.setdefault(ci, []).append(bi)
        return [out[ci] for ci in sorted(out)]


# the largest order affine_plane builds: AG(2, 37) builds and checks its
# C(37^2, 2) pairs in 0.2-0.3 s on a 2-vCPU x86-64 VM with Python 3.11
AFFINE_PLANE_MAX_Q = 37


def affine_plane(q: int) -> SteinerSystem:
    """The affine plane AG(2, q) for prime q <= AFFINE_PLANE_MAX_Q, as an
    (q^2, q, 2)-Steiner system of q+1 parallel classes of q lines each.

    Point (a, b) in GF(q)^2 is vertex a*q + b + 1. Classes 0..q-1 hold the
    lines of slope m (y = m*x + c); class q holds the vertical lines.
    """
    if q > AFFINE_PLANE_MAX_Q:
        raise ValueError(f"q must be at most {AFFINE_PLANE_MAX_Q}, got {q}")
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    blocks: list[int] = []
    class_of: list[int] = []
    for m in range(q):
        for c in range(q):
            line = [a * q + ((m * a + c) % q) + 1 for a in range(q)]
            blocks.append(vertices_to_mask(line))
            class_of.append(m)
    for c in range(q):
        line = [c * q + b + 1 for b in range(q)]
        blocks.append(vertices_to_mask(line))
        class_of.append(q)
    return SteinerSystem(n=q * q, h=q, k=2, blocks=blocks, class_of=class_of)


_FANO_BLOCKS = [
    (1, 2, 3),
    (1, 4, 5),
    (1, 6, 7),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 5, 6),
]


def _s348_blocks() -> list[tuple[int, ...]]:
    # extend each Fano line by point 8; complements of those are the rest
    blocks = [line + (8,) for line in _FANO_BLOCKS]
    for line in _FANO_BLOCKS:
        blocks.append(tuple(v for v in range(1, 8) if v not in line))
    return blocks


def builtin_design(name: str) -> SteinerSystem:
    """Hard-coded small designs: 'fano' (S(2,3,7)), 's348' (S(3,4,8)), and
    'ag23' (S(2,3,9), the affine plane of order 3)."""
    if name == "fano":
        return SteinerSystem(7, 3, 2, [vertices_to_mask(b) for b in _FANO_BLOCKS])
    if name == "s348":
        return SteinerSystem(8, 4, 3, [vertices_to_mask(b) for b in _s348_blocks()])
    if name == "ag23":
        return affine_plane(3)
    raise ValueError(f"unknown design {name!r}")


def tset_degree(system: SteinerSystem, t: int) -> int:
    """Blocks through any fixed t-set: (n-t)_(k-t) / (h-t)_(k-t)."""
    num = den = 1
    for i in range(t, system.k):
        num *= system.n - i
        den *= system.h - i
    return num // den


def partition_blocks(
    system: SteinerSystem, t: int, order: str = "given"
) -> tuple[list[list[int]], int]:
    """First-fit partition of blocks into classes whose members pairwise
    share at most t-1 vertices.

    order 'given' keeps the stored block order (class-tagged systems store
    parallel classes contiguously); 'complement-paired' places each block's
    complement right after it when present. Returns the classes (as block
    index lists) and the t-set degree, a lower bound on the class count.
    """
    if not 1 <= t <= system.k:
        raise ValueError(f"need 1 <= t <= k, got t={t}, k={system.k}")
    blocks = system.blocks
    if order == "given":
        sequence = list(range(len(blocks)))
    elif order == "complement-paired":
        full = (1 << system.n) - 1
        index_of = {b: i for i, b in enumerate(blocks)}
        # each block, then its complement; a later copy of either is dropped
        sequence = list(
            dict.fromkeys(j for i, b in enumerate(blocks) for j in (i, index_of.get(full ^ b, i)))
        )
    else:
        raise ValueError(f"unknown order {order!r}")
    classes: list[list[int]] = []
    for bi in sequence:
        b = blocks[bi]
        for cls in classes:
            if all((b & blocks[other]).bit_count() < t for other in cls):
                cls.append(bi)
                break
        else:
            classes.append([bi])
    return classes, tset_degree(system, t)
