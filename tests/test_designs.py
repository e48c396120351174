import dataclasses
import math
import time
from itertools import combinations

import pytest

from monotight.constructions import steiner_coloring
from monotight.core import colex_edges
from monotight.designs import (
    AFFINE_PLANE_MAX_Q,
    SteinerSystem,
    affine_plane,
    builtin_design,
    partition_blocks,
    tset_degree,
)


@pytest.mark.parametrize("q,classes", [(2, 3), (3, 4), (5, 6), (7, 8)])
def test_affine_plane_valid(q, classes):
    d = affine_plane(q)
    assert len(d.blocks) == q * (q + 1)
    assert len(d.parallel_classes()) == classes
    for cls in d.parallel_classes():
        assert len(cls) == q
        # a parallel class covers every point exactly once
        union = 0
        for bi in cls:
            assert union & d.blocks[bi] == 0
            union |= d.blocks[bi]
        assert union == (1 << d.n) - 1


def test_affine_plane_rejects_composite():
    with pytest.raises(ValueError):
        affine_plane(4)
    # 1 is below the least prime; 9 is the least odd composite, found by trial division
    for q in (1, 9):
        with pytest.raises(ValueError, match=f"^q must be prime, got {q}$"):
            affine_plane(q)


def test_affine_plane_past_61_vertices_builds_in_time():
    # 961 vertices: the pair masks past vertex 61 must not share hashes
    start = time.perf_counter()
    d = affine_plane(31)
    assert time.perf_counter() - start < 5.0
    assert (d.n, len(d.blocks), len(d.parallel_classes())) == (961, 992, 32)


@pytest.mark.parametrize("q", [AFFINE_PLANE_MAX_Q + 4, 100003])
def test_affine_plane_refuses_order_above_cap(q):
    # 41 and 100003 are prime; only the cap refuses them
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"at most {AFFINE_PLANE_MAX_Q}"):
        affine_plane(q)
    assert time.perf_counter() - start < 0.1


def test_fano_every_pair_once():
    d = builtin_design("fano")
    assert len(d.blocks) == 7


def test_s348_every_triple_once_and_complement_closed():
    d = builtin_design("s348")
    assert len(d.blocks) == 14
    full = (1 << 8) - 1
    blocks = set(d.blocks)
    for b in d.blocks:
        assert (full ^ b) in blocks


def test_ag23_matches_affine_plane_3():
    d = builtin_design("ag23")
    ap = affine_plane(3)
    assert (d.n, d.h, d.k) == (ap.n, ap.h, ap.k)
    assert len(d.blocks) == len(ap.blocks)


def test_validator_catches_broken_design():
    d = builtin_design("fano")
    with pytest.raises(ValueError, match=r"2-set \(2, 3\) covered by blocks 0 and 6"):
        SteinerSystem(7, 3, 2, d.blocks[:-1] + (d.blocks[0],))
    with pytest.raises(ValueError, match="expected 7 blocks, got 6"):
        SteinerSystem(7, 3, 2, d.blocks[:-1])
    with pytest.raises(ValueError, match="need n > h >= k >= 1"):
        SteinerSystem(7, 7, 2, [])
    # C(7, 0) / C(3, 0) = 1 block would cover the one 0-set
    with pytest.raises(ValueError, match="^need n > h >= k >= 1, got n=7, h=3, k=0$"):
        SteinerSystem(7, 3, 0, [0b111])
    # C(3, 1) does not divide C(7, 1): two disjoint blocks leave vertex 7 uncovered
    with pytest.raises(ValueError, match="^some k-set is not covered by any block$"):
        SteinerSystem(7, 3, 1, [0b111, 0b111000])
    for bad in (0b1111, 0b11 | 1 << 7):  # four vertices; vertex 8 of 7
        with pytest.raises(ValueError, match=r"^block 6 is not an h-subset of \{1..n\}$"):
            SteinerSystem(7, 3, 2, d.blocks[:-1] + (bad,))


@pytest.mark.parametrize(
    "field, value", [("blocks", (0b111,) * 7), ("class_of", None), ("n", 8), ("k", 3)]
)
def test_fields_cannot_be_reassigned(field, value):
    d = affine_plane(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(d, field, value)
    assert (d.n, d.h, d.k, len(d.blocks)) == (9, 3, 2, 12)
    assert len(d.parallel_classes()) == 4


def test_blocks_and_class_tags_are_tuples():
    blocks = list(affine_plane(3).blocks)
    class_of = list(affine_plane(3).class_of)
    d = SteinerSystem(9, 3, 2, blocks, class_of)
    assert (d.blocks, d.class_of) == (tuple(blocks), tuple(class_of))
    with pytest.raises(AttributeError):
        d.blocks.append(blocks[0])
    blocks[0] = blocks[1]  # the input list is copied, not kept
    assert d.blocks[0] != d.blocks[1]
    assert builtin_design("fano").class_of is None
    with pytest.raises(ValueError, match="carries no class tags"):
        builtin_design("fano").parallel_classes()
    with pytest.raises(ValueError, match="expected 12 class tags, got 11"):
        SteinerSystem(9, 3, 2, blocks=d.blocks, class_of=class_of[:-1])


@pytest.mark.parametrize("design", ["fano", "s348", "ap11"])
def test_steiner_coloring_colors_each_kset_by_its_blocks_class(design):
    # ap11 has 121 vertices, past vertex 61; fano and s348 carry no class tags
    d = affine_plane(11) if design == "ap11" else builtin_design(design)
    classes = d.parallel_classes() if d.class_of else partition_blocks(d, 1)[0]
    class_of = {b: ci for ci, cls in enumerate(classes, 1) for b in cls}
    c = steiner_coloring(d, classes)
    for kset, color in zip(colex_edges(d.n, d.k), c.colors):
        (b,) = [i for i, block in enumerate(d.blocks) if block & kset == kset]
        assert color == class_of[b]
    # the system keeps its fields only: nothing sized by C(n, k) is shown, compared or passed in
    assert repr(d) == f"SteinerSystem(n={d.n}, h={d.h}, k={d.k}, blocks={d.blocks!r}, class_of={d.class_of!r})"
    assert d == dataclasses.replace(d)


def test_partition_fano_t1():
    d = builtin_design("fano")
    classes, lb = partition_blocks(d, 1)
    assert len(classes) == 7
    assert lb == 3  # pair degree through a point: (7-1)/(3-1)


def test_partition_s348_complement_paired():
    d = builtin_design("s348")
    classes, lb = partition_blocks(d, 1, order="complement-paired")
    assert len(classes) == 7
    assert all(len(cls) == 2 for cls in classes)
    assert lb == 7
    full = (1 << 8) - 1
    for cls in classes:
        assert d.blocks[cls[0]] ^ d.blocks[cls[1]] == full


@pytest.mark.parametrize("q", [2, 3, 5])
def test_partition_affine_plane_given_order(q):
    d = affine_plane(q)
    classes, _ = partition_blocks(d, 1)
    assert len(classes) == q + 1


def test_partition_classes_are_conflict_free_and_cover():
    for name in ("fano", "s348", "ag23"):
        d = builtin_design(name)
        for t in range(1, d.k + 1):
            classes, lb = partition_blocks(d, t)
            seen = sorted(i for cls in classes for i in cls)
            assert seen == list(range(len(d.blocks)))
            for cls in classes:
                for i, j in combinations(cls, 2):
                    assert (d.blocks[i] & d.blocks[j]).bit_count() < t
            assert len(classes) >= lb


def test_tset_degree_formula():
    d = builtin_design("s348")
    # triples through a fixed vertex pair: (8-2)/(4-2)
    assert tset_degree(d, 2) == 3
    assert tset_degree(d, 1) == (7 * 6) // (3 * 2)


def test_partition_errors():
    d = builtin_design("fano")
    with pytest.raises(ValueError):
        partition_blocks(d, 0)
    with pytest.raises(ValueError):
        partition_blocks(d, 1, order="sideways")
    with pytest.raises(ValueError):
        builtin_design("petersen")
