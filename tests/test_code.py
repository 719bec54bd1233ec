import dataclasses
import functools
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from metacode import code as co
from metacode import groups as gr
from metacode import idem as id_
from metacode import shoda as sh
from metacode import units as un
from metacode.examples import build_idempotent, load_claims
from metacode.ffield import NonPrimeCharacteristic, is_prime
from helpers import (
    brute_force_min_weight, low_weight_from_parity_check,
    macwilliams_distance, parity_check, presentations, stacked_translate_code, trivial_subgroup,
)


def _row_weights(genmat):
    return np.count_nonzero(genmat, axis=1)


def test_rref_and_rank():
    M = np.array([[1, 2, 0], [2, 4, 1], [0, 0, 2]], dtype=np.int64)
    R, pivots = co.rref_mod(M, 5)
    assert co.rank_mod(M, 5) == 2
    assert pivots == [0, 2]
    H = parity_check(R, pivots, 5)
    assert not ((R @ H.T) % 5).any()


def test_ideal_to_code_identity_and_hat():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    c = co.ideal_to_code(alg, alg.one())
    assert (c.n, c.k) == (39, 39)
    assert co.min_distance(c)[0] == 1
    hg = alg.hat(gr.full_subgroup(G39))
    c = co.ideal_to_code(alg, hg)
    assert (c.n, c.k) == (39, 1)
    assert co.min_distance(c)[0] == 39  # the repetition-like code


# SHA-256 of the RREF generator matrix (int64) then the pivots (int64) of the
# five proper-H analogue codes over GF(2), in catalog order: [H:K], k, digest
ANALOGUE_1155_GENMAT_PINS = [
    (11, 50, "93f468b2036a37b34f6a5a8fcb64af9b6c2f4108c3f6ff4ed7efb100dd062eb1"),
    (33, 50, "813284873cb5e689b6c249a095364a0eef5fac59aec7b558f0777d85df65513b"),
    (7, 9, "3c027ca66113044cac2d272c0dfde5585bc56c7db2fec21d220b3aa47ce6c0cd"),
    (35, 36, "7ab97e40b1943a8e4dcaa7b4c456687ed39f3504c9ba13b00cb20db67814ddcd"),
    (77, 450, "528b79281ad67c6dbc6d6496347fcb1d5380bf659d7832028c726caadd7f5166"),
]


def test_analogue_1155_genmat_pinned():
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    alg = id_.GroupAlgebra(G, 2)
    got = []
    for pair in sh.ssp_catalog(G):
        if pair.H.order == G.order:
            continue
        e = id_.pci(alg, pair, id_.cosets_and_orbits(G, pair, 2).orbit_reps[0])
        c = co.ideal_to_code(alg, e)
        digest = hashlib.sha256(np.ascontiguousarray(c.genmat, dtype=np.int64).tobytes())
        digest.update(np.asarray(c.pivots, dtype=np.int64).tobytes())
        got.append((pair.index, c.k, digest.hexdigest()))
    assert got == ANALOGUE_1155_GENMAT_PINS


def _analogue_codes():
    """The five proper-H pci codes of G21 x G55 per q, on new group objects."""
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    pairs = [p for p in sh.ssp_catalog(G) if p.H.order != G.order]
    codes = {}
    for q in (2, 13, 17, 19):
        alg = id_.GroupAlgebra(G, q)
        for pair in pairs:
            e = id_.pci(alg, pair, id_.cosets_and_orbits(G, pair, q).orbit_reps[0])
            codes[q, pair.index] = co.ideal_to_code(alg, e)
    return G, pairs, codes


def test_analogue_codes_build_coset_geometry_once_per_subgroup(monkeypatch):
    # 20 codes: each H's coset geometry and G's generator permutations are
    # built once and shared read-only, and every code equals the one built
    # on new group objects
    built = []
    for cls, name in ((gr.Subgroup, "geometry"), (gr.FiniteGroup, "generator_perms")):
        body = getattr(cls, name).func
        counted = functools.cached_property(
            lambda obj, body=body, name=name: built.append((name, obj)) or body(obj))
        counted.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, counted)
    G, pairs, codes = _analogue_codes()
    assert len(codes) == 20 and len(pairs) == 5
    assert sorted(id(obj) for name, obj in built if name == "geometry") == sorted(id(p.H) for p in pairs)
    assert [obj for name, obj in built if name == "generator_perms"] == [G]
    monkeypatch.undo()
    fresh = _analogue_codes()[2]
    for key, c in codes.items():
        f = fresh[key]
        assert np.array_equal(c.genmat, f.genmat) and c.pivots == f.pivots, key
        assert np.array_equal(c.cosets, f.cosets) and np.array_equal(c.perms, f.perms), key
        assert c.perms is G.generator_perms
    shared = [G.generator_perms]
    for pair in pairs:
        shared += [pair.H.array, *pair.H.geometry]
        assert codes[2, pair.index].cosets is codes[19, pair.index].cosets is pair.H.geometry.labels
    for arr in shared:
        with pytest.raises(ValueError):
            arr.flat[0] = 1


def _assert_spin_matches_stacked(alg, e, what, parts=1):
    c = co.ideal_to_code(alg, e)
    genmat, pivots = stacked_translate_code(alg, getattr(e, "value", e))
    assert c.pivots == pivots, what
    assert c.genmat.dtype == genmat.dtype and np.array_equal(c.genmat, genmat), what
    # `parts` cosets of equal size, each row supported on its pivot's coset
    assert np.array_equal(np.bincount(c.cosets), np.full(parts, c.n // parts)), what
    assert (c.genmat[c.cosets[None, :] != c.cosets[c.pivots][:, None]] == 0).all(), what
    return c


def _split_of(e) -> int:
    """The number of cosets ideal_to_code splits e's code over: [G:H] when e
    is an Idempotent whose pair's H holds supp(e), else 1."""
    H = getattr(getattr(e, "pair", None), "H", None)
    inside = H is not None and all(x in H for x in e.value.support().tolist())
    return H.index if inside else 1


def test_spin_matches_stacked_translates(matrix):
    # every pci of every suite group and q
    for G, q in matrix:
        alg = id_.GroupAlgebra(G, q)
        for e in id_.pcis_for_group(alg):
            _assert_spin_matches_stacked(alg, e, (G.name, q, e.pair.label(), e.k), _split_of(e))
    # the claims: plain and unit-conjugated left idempotents, several non-central
    non_central = 0
    for claim in load_claims():
        alg = id_.GroupAlgebra(gr.group_from_spec(claim["group"]), claim["q"])
        f = build_idempotent(alg, claim["build"])
        non_central += not getattr(f, "value", f).is_central()
        _assert_spin_matches_stacked(alg, f, claim["tag"], _split_of(f))
    assert non_central == 15
    # a random element that is not idempotent, on a product with four generators
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4), gr.MetacyclicGroup(5, 4, 2))
    alg = id_.GroupAlgebra(G, 13)
    x = id_.AlgebraElement(alg, np.random.default_rng(3).integers(0, 13, G.order))
    assert x * x != x and len(G.generators()) == 4
    assert _assert_spin_matches_stacked(alg, x, "random").k > 1
    sparse = alg.element({0: 1, G.generators()[0]: 12})  # 1 - g: a proper left ideal
    assert 0 < _assert_spin_matches_stacked(alg, sparse, "1 - g").k < G.order
    # the zero element and the trivial group
    assert _assert_spin_matches_stacked(alg, alg.zero(), "zero").genmat.shape == (0, G.order)
    alg1 = id_.GroupAlgebra(gr.cyclic(1), 3)
    for x in (alg1.one(), alg1.zero()):
        _assert_spin_matches_stacked(alg1, x, "trivial group")


def test_block_path_matches_stacked_translates():
    # a proper-H pci of a product group splits over the [G:H] cosets of H
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4), gr.MetacyclicGroup(5, 4, 2))
    alg = id_.GroupAlgebra(G, 13)
    pairs = [p for p in sh.ssp_catalog(G) if p.H.order < G.order]
    for pair in pairs:
        e = id_.pci(alg, pair, id_.cosets_and_orbits(G, pair, 13).orbit_reps[0])
        assert _split_of(e) == pair.H.index > 1
        c = _assert_spin_matches_stacked(alg, e, pair.label(), pair.H.index)
        # pair = None: the same element spun over all of G, one coset
        bare = _assert_spin_matches_stacked(alg, id_.Idempotent(e.value, None, e.k, "central"),
                                            (pair.label(), "no pair"))
        assert bare.pivots == c.pivots and np.array_equal(bare.genmat, c.genmat)
    assert len(pairs) == 6
    # a unit conjugate that keeps its pair but leaves H: the whole of G, one coset
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    pair = [p for p in sh.ssp_catalog(G39) if p.H.order == 13][0]
    f = un.conjugate_idempotent(alg, id_.pci(alg, pair, 1), 1, un.alternating(alg, G39.a, 3))
    assert f.pair is pair and not all(x in pair.H for x in f.value.support().tolist())
    assert _split_of(f) == 1
    assert _assert_spin_matches_stacked(alg, f, "unit conjugate").k == 12


def test_block_path_reduces_reordered_cosets():
    # x = y*(1 - h)*(1 - h')*z for random y, z in F_q[H] spans a proper left
    # ideal of F_q[H].  Unlike a pci's block, its block need not be mapped
    # onto itself by the column order of a coset gH, and then that coset's
    # translate has an RREF of its own, and the code carries no part_perms
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4), gr.MetacyclicGroup(5, 4, 2))
    alg = id_.GroupAlgebra(G, 13)
    rng = np.random.default_rng(5)
    moved = 0
    for pair in [p for p in sh.ssp_catalog(G) if p.H.order < G.order]:
        members = np.array(pair.H.elements)
        y, z = (alg.element(dict(zip(members.tolist(), rng.integers(0, 13, len(members)).tolist())))
                for _ in range(2))
        h, h2 = (alg.one() - alg.basis(g) for g in (pair.H.gens[0], pair.H.gens[-1]))
        x = y * h * h2 * z
        c = _assert_spin_matches_stacked(alg, id_.Idempotent(x, pair, 0, "left"), pair.label(),
                                         pair.H.index)
        block = c.genmat[:, c.cosets == 0]
        block = block[block.any(axis=1)]
        own = any(not np.array_equal(co.rref_mod(block[:, np.argsort(cols)], 13)[0], block)
                  for cols in (G.mul_vec(g, members) for g in range(G.order)))
        assert (c.part_perms is None) == own, pair.label()
        moved += own
    assert moved == 3


# [H:K] = 7 pair of G1029 x G55 over GF(2): the Eq.(2) k and the Theorem 2.1
# window 2|K| <= d <= wt(e), certified at full scale.  The stacked translate
# matrix of this code would be 56595 x 56595 int64, about 25 GB.
def test_full_scale_code_spins_without_translate_matrix():
    G = gr.direct_product(gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    alg = id_.GroupAlgebra(G, 2)
    pair = [p for p in sh.ssp_catalog(G) if p.index == 7 and p.H.order != G.order][0]
    od = id_.cosets_and_orbits(G, pair, 2)
    e = id_.pci(alg, pair, od.orbit_reps[0])
    tracemalloc.start()
    try:
        c = co.ideal_to_code(alg, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 20, peak
    size = G.order // pair.H.order
    assert (c.n, c.k) == (56595, size * size * (od.o // od.stab_index)) == (56595, 9)
    d, hi, w = co.min_distance(c)
    assert d == hi == 10780
    # the group's bound ceil(n * 2 / k) = 12577 > 10780 after round 1 on set 0
    assert co._brouwer_zimmermann(c.genmat, c.pivots, 2, c.perms)[::2] == (d, c.k)
    assert 2 * pair.K.order <= d <= e.value.weight()
    assert np.count_nonzero(w) == d
    assert np.array_equal((w[c.pivots] @ c.genmat) % 2, w)


# the interval route's block rounds on the [1155, 450]_q analogue codes
# ([H:K] = 77), budget 2,000,000: (d_hi, SHA-256 of the int64 witness) per q,
# with no seed
ISU_PINS = {
    2: (8, "1ee1e66e968820aaa7b8fa2eeb48442ea487bcc374055851f6ba35ef97bb2722"),
    19: (20, "b3e54bbf663b934baaef9cecc52d03a4ac2695c0004a5bdd42cd93b70a90442e"),
}


def test_information_set_upper_pinned():
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    pair = [p for p in sh.ssp_catalog(G) if p.index == 77 and p.H.order != G.order][0]
    for q, (weight, digest) in ISU_PINS.items():
        alg = id_.GroupAlgebra(G, q)
        c = co.ideal_to_code(alg, id_.pci(alg, pair, id_.cosets_and_orbits(G, pair, q).orbit_reps[0]))
        assert c.k == 450 and co._worst_case(_row_weights(c.genmat), q) > 2_000_000
        w, word = co.min_distance(c, budget=2_000_000)[1:]
        assert word.dtype == np.int64
        assert (w, hashlib.sha256(word.tobytes()).hexdigest()) == (weight, digest), q
        assert np.count_nonzero(word) == w


def _direct_sum(blocks, zeros, q, rng):
    """(RREF genmat, pivots, column order) of the direct sum of the given
    blocks plus `zeros` all-zero columns, its columns shuffled: column j of
    the result is column order[j] of the block-diagonal matrix, whose columns
    belong to blocks 0, 1, ... and the zero columns to one more."""
    k, n = sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks) + zeros
    mat, r, c = np.zeros((k, n), dtype=np.int64), 0, 0
    for b in blocks:
        mat[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    order = rng.permutation(n)
    return *co.rref_mod(mat[:, order], q), order


def _split_direct_sum(blocks, zeros, q, rng):
    """(genmat, pivots, cosets) of `_direct_sum`, cosets[j] being the block
    of column j, the zero columns one more part."""
    genmat, pivots, order = _direct_sum(blocks, zeros, q, rng)
    cosets = np.repeat(np.arange(len(blocks) + 1), [b.shape[1] for b in blocks] + [zeros])[order]
    return genmat, pivots, cosets


def _random_direct_sums(q):
    """(genmat, pivots, cosets) of up to six random direct sums of unequal
    blocks, by `_split_direct_sum`; the zero code is skipped."""
    rng = np.random.default_rng(100 + q)
    for _ in range(6):
        blocks = []
        for _ in range(int(rng.integers(2, 5))):
            r = int(rng.integers(1, 4))
            blocks.append(rng.integers(0, q, size=(r, r + int(rng.integers(0, 5)))))
        genmat, pivots, cosets = _split_direct_sum(blocks, int(rng.integers(0, 3)), q, rng)
        if pivots:
            yield genmat, pivots, cosets


@pytest.mark.parametrize("q", [2, 3, 5, 13])
def test_information_set_upper_splits_like_one_rref(q):
    # `_interval`'s d_hi on random direct sums of unequal blocks, handed
    # their block of each column as ``cosets``, and as one part, one RREF of
    # the whole genmat, when that is small; split or not, the bound is the
    # same: with every round
    # allowed each distinct block is enumerated whole, so d_hi is the
    # brute-force d, the least over the blocks of a direct sum; with budget
    # 0 only round 1, the rows, runs, so d_hi is the lightest row.  Added: a
    # sum whose d, 3, lies below its lightest row, 4
    lighter = np.zeros((3, 11), dtype=np.int64)
    lighter[:2, :6] = [[1, 0, 1, 1, 1, 1], [0, 1, q - 1, q - 1, q - 1, 0]]
    lighter[2, 6:] = 1
    split = 0
    cases = [*_random_direct_sums(q), (lighter, [0, 1, 6], np.repeat([0, 1], [6, 5]))]
    for genmat, pivots, cosets in cases:
        n = genmat.shape[1]
        split += len(set(cosets[pivots].tolist())) > 1
        d = min(brute_force_min_weight(genmat[genmat[:, on].any(axis=1)][:, on], q)
                for on in (cosets == b for b in set(cosets[pivots].tolist())))
        if q ** len(pivots) <= 5000:
            assert d == brute_force_min_weight(genmat, q)
        for parts in (cosets, None) if q ** len(pivots) <= 5000 else (cosets,):
            code = co.LinearCode(q, n, genmat, pivots, 1, n, cosets=parts)
            for budget, want in ((10**12, d), (0, int(np.count_nonzero(genmat, axis=1).min()))):
                hi, word = co._interval(code, budget, _row_weights(code.genmat))[1:]
                assert hi == want == np.count_nonzero(word), (q, budget, genmat, parts)
                assert np.array_equal((word[pivots] @ genmat) % q, word)
    assert split >= 3


def _three_equal_parts():
    """A [21, 9, 4]_3 code: three equal parts of a [7, 3, 4]_3 block,
    unshuffled so that their blocks are equal."""
    b = np.array([[1, 0, 0, 1, 2, 2, 2], [0, 1, 0, 0, 2, 1, 1], [0, 0, 1, 1, 1, 1, 2]])
    genmat = np.zeros((9, 21), dtype=np.int64)
    for j in range(3):
        genmat[3 * j:3 * j + 3, 7 * j:7 * j + 7] = b
    assert np.array_equal(co.rref_mod(genmat, 3)[0], genmat) and brute_force_min_weight(b, 3) == 4
    return co.LinearCode(3, 21, genmat, [7 * j + i for j in range(3) for i in range(3)], 1, 21,
                         cosets=np.repeat(np.arange(3), 7))


def test_information_set_upper_runs_each_distinct_block_once(monkeypatch):
    # `_interval` on three equal parts: the block rounds 1, 2 and 3 run on
    # the first part only, then the pivot-set rounds 2 and 3 of d_lo, which
    # C(21, 4) 2^3 > 10^6 / 21 stops at w = 4
    code = _three_equal_parts()
    calls, weight_round = [], co._weight_round
    monkeypatch.setattr(co, "_weight_round",
                        lambda gamma, q, w: calls.append((gamma.shape, w)) or weight_round(gamma, q, w))
    lo, hi, word = co._interval(code, 10**6, _row_weights(code.genmat))
    assert lo == hi == 4 and not word[7:].any()
    assert [c for c in calls if c[0] == (3, 7)] == [((3, 7), 1), ((3, 7), 2), ((3, 7), 3)]
    assert calls[3:] == [((9, 21), 2), ((9, 21), 3)]


def test_interval_closes_when_the_lower_rounds_find_d():
    # a random [13, 8]_13 code whose RREF rows all weigh 6: its worst case
    # is past the budget, so it takes the interval route, whose gate still
    # lets rounds 2 and 3 run on the pivot set and find d = 3; the block
    # rounds of `_interval`, on the one part, pass their gate whenever these
    # do, so they find d too and the interval closes
    q, budget = 13, 600_000
    genmat, pivots = co.rref_mod(np.random.default_rng(101).integers(0, q, (8, 13)), q)
    assert len(pivots) == 8 and (np.count_nonzero(genmat, axis=1) == 6).all()
    assert co._worst_case(_row_weights(genmat), q) > budget >= 13 * math.comb(13, 3) * (q - 1) ** 2
    code = co.LinearCode(q, 13, genmat, pivots, 1, 13)
    lo, hi, w = co.min_distance(code, budget=budget)
    assert lo == hi == np.count_nonzero(w) == co._brouwer_zimmermann(genmat, pivots, q)[0] == 3
    assert np.array_equal((w[pivots] @ genmat) % q, w)


@pytest.mark.parametrize("q", [2, 3, 5, 13])
def test_weight_enum_lower_per_part_matches_parity_check(q):
    # `_interval`'s weight-1 and weight-2 test reads each part's rows alone; on the
    # random direct sums, with their split and as one part, it gives min(d, 3)
    # as the parity-check column test does.  Added: a part with two rows
    # proportional off the pivots (2); a row of weight 2; and three equal
    # parts, whose rows agree part by part but are not proportional (3)
    rng = np.random.default_rng(200 + q)
    a, b = int(rng.integers(1, q)), int(rng.integers(1, q))
    lam = q - 1 if q > 2 else 1
    pair = np.array([[1, 0, a, b, 1], [0, 1, lam * a % q, lam * b % q, lam]])
    heavy = np.array([[1, 0, 1, 1, 1], [0, 1, 1, q - 1, 0]]) % q
    light = np.array([[1, 0, 0, a, 0], [0, 1, 1, 1, 0]])
    cases = list(_random_direct_sums(q))
    for blocks in ([heavy, pair], [light, heavy], [heavy, heavy, heavy]):
        # block-diagonal, unshuffled, so that these rows are the RREF's
        genmat = np.zeros((2 * len(blocks), 5 * len(blocks)), dtype=np.int64)
        for j, b in enumerate(blocks):
            genmat[2 * j:2 * j + 2, 5 * j:5 * j + b.shape[1]] = b
        cases.append((genmat, [c for j in range(len(blocks)) for c in (5 * j, 5 * j + 1)],
                      np.repeat(np.arange(len(blocks)), 5)))
        assert np.array_equal(co.rref_mod(genmat, q)[0], genmat)
    seen = []
    for genmat, pivots, cosets in cases:
        n = genmat.shape[1]
        want = low_weight_from_parity_check(genmat, pivots, q)
        for parts in (cosets, None):
            code = co.LinearCode(q, n, genmat, pivots, 1, n, cosets=parts)
            assert co._interval(code, 0, _row_weights(code.genmat))[0] == want, (q, genmat, parts)
        seen.append((want, int(np.count_nonzero(genmat, axis=1).min())))
    assert seen[-3:] == [(2, 3), (2, 2), (3, 3)]


def test_interval_route_rejects_a_false_split():
    # cosets that cut a row across two parts: the per-part weight-2 test
    # would miss words that span them, so the split is refused.  Added: three
    # equal parts, a row of the second with a nonzero in the third part's
    # free columns; its block still equals the first part's, so a check of
    # the distinct blocks alone would pass that split
    rng = np.random.default_rng(3)
    genmat, pivots = co.rref_mod(rng.integers(0, 3, size=(8, 16)), 3)
    assert (genmat[:, ::2].any(axis=1) & genmat[:, 1::2].any(axis=1)).any()
    code = co.LinearCode(3, 16, genmat, pivots, 1, 16, cosets=np.arange(16) % 2)
    equal = _three_equal_parts()
    equal.genmat[3, 19] = 1
    assert np.array_equal(equal.genmat[3:6, 7:14], equal.genmat[:3, :7])
    for c in (code, equal):
        for call in (lambda: co.min_distance(c, budget=0),
                     lambda: co._interval(c, 0, _row_weights(c.genmat))):
            with pytest.raises(co.CertificateError, match="off its row's part"):
                call()
    code.cosets = None
    assert co.min_distance(code, budget=0)[0] >= 1


def test_interval_witness_check(monkeypatch):
    # every word of the repetition code has weight n: d_hi = n has a witness too
    rep = co.LinearCode(3, 5, np.ones((1, 5), dtype=np.int64), [0], 1, 5)
    assert np.array_equal(co.min_distance(rep, budget=0)[2], np.ones(5))
    # a direct sum with a zero column: min_distance checks that the interval
    # witness has weight d_hi and is a codeword, on every part and off them
    rng = np.random.default_rng(4)
    genmat, pivots, cosets = _split_direct_sum(
        [rng.integers(0, 5, size=(3, 7)), rng.integers(0, 5, size=(4, 9))], 1, 5, rng)
    n = genmat.shape[1]
    code = co.LinearCode(5, n, genmat, pivots, 1, n, cosets=cosets)
    lo, hi, w = co.min_distance(code, budget=0)
    zero = int(np.flatnonzero(cosets == 2)[0])
    moved = w.copy()
    moved[np.flatnonzero(w)[0]], moved[np.flatnonzero(w == 0)[0]] = 0, 1
    off = w.copy()
    off[zero] = 1
    for weight, word, what in ((hi - 1, w, "weight"), (hi, moved, "codeword"),
                               (hi + 1, off, "codeword")):
        monkeypatch.setattr(co, "_interval", lambda *args, weight=weight, word=word: (lo, weight, word))
        with pytest.raises(co.CertificateError, match=what):
            co.min_distance(code, budget=0)


def _small_pci_code():
    """The [18, 4]_7 pci code of M(3, 6, 2) on the pair (<a, b^2>, <b^2>):
    two parts that hold one 2 x 9 block.  Its worst case, 400, sends it to
    the interval route at budget 300, where the block stops after round 1
    at the group bound ceil(9 * 2 / 2) = 9 >= 6."""
    alg = id_.GroupAlgebra(gr.MetacyclicGroup(3, 6, 2), 7)
    c = co.ideal_to_code(alg, id_.pcis_for_group(alg)[6])
    assert (c.n, c.k, len(set(c.cosets.tolist())), c.part_perms.shape) == (18, 4, 2, (2, 9))
    assert co._worst_case(_row_weights(c.genmat), 7) == 400
    return c


def _shift(k, n):
    return np.roll(np.arange(n), k)[None, :]


def test_interval_route_rejects_bad_carried_permutations():
    # the block rounds stop at the group bound only once the carried
    # permutations pass their check on the block: a shift by one column
    # moves the block; the identity, and a shift by three (three orbits),
    # are not transitive; a row of zeros is no permutation
    c = _small_pci_code()
    assert co.min_distance(c, budget=300)[:2] == (3, 6)
    bad = ((_shift(1, 9), "onto itself"), (np.tile(np.arange(9), (2, 1)), "not transitive"),
           (_shift(3, 9), "not transitive"), (np.zeros((1, 9), dtype=np.int64), "not a permutation"))
    for part_perms, what in bad:
        with pytest.raises(co.CertificateError, match=what):
            co.min_distance(dataclasses.replace(c, part_perms=part_perms), budget=300)
    # as one part the block is the whole code, and takes G's generators, perms
    one, weights = dataclasses.replace(c, cosets=None), _row_weights(c.genmat)
    assert co._interval(one, 10**4, weights)[:2] == (3, 6)
    for perms, what in ((_shift(1, 18), "onto itself"), (np.tile(np.arange(18), (2, 1)), "not transitive")):
        with pytest.raises(co.CertificateError, match=what):
            co._interval(dataclasses.replace(one, perms=perms), 10**4, weights)


def _counted_rounds(monkeypatch):
    """Patch `_weight_round` to log (gamma's shape, w) of every call."""
    calls, weight_round = [], co._weight_round
    monkeypatch.setattr(co, "_weight_round",
                        lambda gamma, q, w: calls.append((gamma.shape, w)) or weight_round(gamma, q, w))
    return calls


def test_interval_block_rounds_stop_at_the_group_bound(monkeypatch):
    # the first [1155, 50]_2 analogue code, d_hi 42: its 10 x 231 block runs
    # round 1 only, as ceil(231 * 2 / 10) = 47 >= 42, where with its
    # permutations stripped it runs rounds 1..10
    calls = _counted_rounds(monkeypatch)
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    alg = id_.GroupAlgebra(G, 2)
    pair = next(p for p in sh.ssp_catalog(G) if p.H.order != G.order and p.index == 11)
    c = co.ideal_to_code(alg, id_.pci(alg, pair, id_.cosets_and_orbits(G, pair, 2).orbit_reps[0]))
    assert c.k == 50 and c.part_perms is pair.H.geometry.spin
    got = co.min_distance(c, budget=2_000_000)
    assert got[:2] == (3, 42) and calls == [((10, 231), 1)]
    calls.clear()
    bare = co.min_distance(dataclasses.replace(c, perms=None, part_perms=None), budget=2_000_000)
    assert bare[:2] == got[:2] and np.array_equal(bare[2], got[2])
    assert calls == [((10, 231), w) for w in range(1, 11)]
    # the [71, 35]_2 QR code of C71 is one part, whose block is the code:
    # its rounds stop before round 6, as ceil(71 * 6 / 35) = 13 >= 12, where
    # they ran rounds 1..7; then d_lo's rounds 2..4 run on the pivot set
    calls.clear()
    alg = id_.GroupAlgebra(gr.cyclic(71), 2)
    c = co.ideal_to_code(alg, id_.pcis_for_group(alg)[1])
    assert c.cosets is not None and not c.cosets.any()
    assert co.min_distance(c)[:2] == (5, 12)
    assert calls == [((35, 71), w) for w in (1, 2, 3, 4, 5, 2, 3, 4)]


def test_interval_group_bound_matches_stripped_permutations(monkeypatch):
    # every pci code of the presentations with N, M >= 2 and N * M <= 24,
    # and of G21 x G55, over the two least primes q prime to |G|: at budget
    # 300 the interval route gives the same (d_lo, d_hi, witness) with the
    # carried permutations as with them stripped, in fewer block rounds
    groups = [gr.MetacyclicGroup(*P) for P in presentations(24) if P[0] > 1 and P[1] > 1]
    groups.append(gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                                    gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")))
    calls = _counted_rounds(monkeypatch)
    codes, rounds = 0, [0, 0]
    for G in groups:
        for q in [q for q in range(2, 20) if is_prime(q) and G.order % q][:2]:
            alg = id_.GroupAlgebra(G, q)
            for e in id_.pcis_for_group(alg):
                c = co.ideal_to_code(alg, e)
                if co._worst_case(_row_weights(c.genmat), q) <= 300:
                    continue
                assert c.part_perms is not None, (G.name, q, e.pair.label())
                results = []
                for side, code in enumerate((c, dataclasses.replace(c, perms=None, part_perms=None))):
                    calls.clear()
                    results.append(co.min_distance(code, budget=300))
                    rounds[side] += len(calls)
                (lo, hi, w), (lo0, hi0, w0) = results
                assert (lo, hi) == (lo0, hi0) and np.array_equal(w, w0), (G.name, q, e.pair.label())
                codes += 1
    assert codes > 300 and rounds[0] < rounds[1], (codes, rounds)


def test_zero_code_raises():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    c = co.ideal_to_code(alg, alg.zero())
    assert c.k == 0
    with pytest.raises(co.ZeroCode):
        co.min_distance(c)


def test_exact_enumeration_matches_bruteforce():
    rng = np.random.default_rng(9)
    for q in (2, 3, 5):
        for _ in range(6):
            k, n = 3, 9
            mat = rng.integers(0, q, size=(k, n)).astype(np.int64)
            genmat, pivots = co.rref_mod(mat, q)
            if genmat.shape[0] == 0:
                continue
            c = co.LinearCode(q, n, genmat, pivots, 1, n)
            d, _, w = co.min_distance(c)
            assert d == brute_force_min_weight(genmat, q)
            assert np.count_nonzero(w) == d


def _padded_code(rng, q, k, n):
    """A random [n, k] code: k independent columns, then a zero column and
    columns from a span of rank < k with one repeated, so that information
    sets after the first have rank below k."""
    while co.rank_mod(head := rng.integers(0, q, size=(k, k)), q) < k:
        pass
    span = rng.integers(0, q, size=(k, max(1, int(rng.integers(0, k)))))
    cols = [np.zeros(k, dtype=np.int64)]
    cols += [span @ rng.integers(0, q, size=span.shape[1]) % q for _ in range(n - k - 1)]
    cols[-1] = cols[1]
    return co.rref_mod(np.hstack([head, np.array(cols).T])[:, rng.permutation(n)], q)


def _stacked_code(rng, q, k, n):
    """[I_k | Y | Y | ...] cut to n columns, in this order: the later
    information sets take copies of Y and have rank at most its width."""
    Y = rng.integers(0, q, size=(k, int(rng.integers(1, k + 1))))
    return co.rref_mod(np.hstack([np.eye(k, dtype=np.int64)] + [Y] * n)[:, :n], q)


# [14,6,3]_2 = [I_6 | Y | Y]: the second information set has rank 4 and waits
# for round 2, and the unique weight-3 word e0 + e2 + e3 is a weight-1
# message on it, so its bound holds only if it then runs round 1 too
_Y = np.array([[int(c) for c in row] for row in "1010 1111 0110 1100 1110 1101".split()])
_LATE_LOW_RANK = np.hstack([np.eye(6, dtype=np.int64), _Y, _Y])


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_brouwer_zimmermann_matches_bruteforce(q):
    rng = np.random.default_rng(100 + q)
    codes = [co.rref_mod(_LATE_LOW_RANK, 2)] if q == 2 else []
    for k in range(1, 7):
        for _ in range(6 if q**k <= 5_000 else 2 if q**k <= 20_000 else 1):
            codes += [make(rng, q, k, int(rng.integers(k + 3, 15)))
                      for make in (_padded_code, _stacked_code)]
    for genmat, pivots in codes:
        d, w, examined = co._brouwer_zimmermann(genmat, pivots, q)
        assert d == brute_force_min_weight(genmat, q), (q, genmat)
        assert np.count_nonzero(w) == d
        assert np.array_equal((w[pivots] @ genmat) % q, w)
        assert examined <= (q ** len(pivots) - 1) // (q - 1)
        assert examined <= co._worst_case(_row_weights(genmat), q)


def test_brouwer_zimmermann_work_counts():
    # codewords examined, against the (q^k - 1)/(q - 1) message classes that
    # full enumeration walks
    seen, group = {}, {}
    for claim in load_claims():
        alg = id_.GroupAlgebra(gr.group_from_spec(claim["group"]), claim["q"])
        c = co.ideal_to_code(alg, build_idempotent(alg, claim["build"]))
        seen[claim["tag"]] = co._brouwer_zimmermann(c.genmat, c.pivots, c.q)[2]
        assert seen[claim["tag"]] <= (c.q**c.k - 1) // (c.q - 1), claim["tag"]
        group[claim["tag"]] = co._brouwer_zimmermann(c.genmat, c.pivots, c.q, c.perms)[2]
    assert len(seen) == 18
    assert seen["f5-g39-improved"] <= 2_500_000
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    alg = id_.GroupAlgebra(G, 2)
    pair = [p for p in sh.ssp_catalog(G) if p.index == 7 and p.H.order != G.order][0]
    od = id_.cosets_and_orbits(G, pair, 2)
    c = co.ideal_to_code(alg, id_.pci(alg, pair, od.orbit_reps[0]))
    assert (c.n, c.k) == (1155, 9)
    d, w, examined = co._brouwer_zimmermann(c.genmat, c.pivots, 2)
    assert examined <= 2**9 - 1
    assert np.count_nonzero(w) == d
    # with the group's permutations: set 0 alone, [1155, 9, 220]_2 after round 1
    assert group["f5-g39-improved"] <= 40_000
    assert co._brouwer_zimmermann(c.genmat, c.pivots, 2, c.perms)[::2] == (d, c.k)


def _assert_group_route(c, what):
    """Brouwer-Zimmermann with the code's permutations, against the same code
    stripped of them and, when small, brute force or the MacWilliams oracle:
    the same d, a witness of weight d in the code, and no more codewords
    examined, which is at most the worst case that min_distance admits."""
    d, w, examined = co._brouwer_zimmermann(c.genmat, c.pivots, c.q, c.perms)
    d0, _, examined0 = co._brouwer_zimmermann(c.genmat, c.pivots, c.q)
    assert d == d0 and examined <= examined0 <= co._worst_case(_row_weights(c.genmat), c.q), what
    if c.q**c.k <= 1024:
        assert d == brute_force_min_weight(c.genmat, c.q), what
    elif c.q**c.k > co.DEFAULT_BUDGET >= c.q ** (c.n - c.k):  # high rate, small dual
        assert d == macwilliams_distance(c.genmat, c.pivots, c.q), what
    assert np.count_nonzero(w) == d and np.array_equal((w[c.pivots] @ c.genmat) % c.q, w), what


def test_group_route_matches_bruteforce_and_stripped(matrix):
    # every sum of pcis (the two-sided ideals, the pcis among them) of every
    # suite group and q: at [16, 8, 4]_3 of C2 x Q8 a bound one too high
    # stops at the weight-5 word found first
    for G, q in matrix:
        alg = id_.GroupAlgebra(G, q)
        pcis = [e.value.vec for e in id_.pcis_for_group(alg)]
        for r in range(1, len(pcis) + 1):
            for some in combinations(range(len(pcis)), r):
                e = id_.AlgebraElement(alg, sum(pcis[i] for i in some) % q)
                _assert_group_route(co.ideal_to_code(alg, e), (G.name, q, some))
    # the claims: plain and unit-conjugated left idempotents, several non-central
    non_central = 0
    for claim in load_claims():
        alg = id_.GroupAlgebra(gr.group_from_spec(claim["group"]), claim["q"])
        f = build_idempotent(alg, claim["build"])
        non_central += not getattr(f, "value", f).is_central()
        _assert_group_route(co.ideal_to_code(alg, f), claim["tag"])
    assert non_central == 15


def _right_translations(G):
    """Row i sends v to v[x s_i^-1], the right translate by generator s_i."""
    return G.mul_vec(np.arange(G.order)[None, :], G.inv_vec(np.array(G.generators()))[:, None])


def test_group_route_rejects_bad_permutations():
    # right translations keep a two-sided ideal and move a one-sided one
    for claim in load_claims():
        alg = id_.GroupAlgebra(gr.group_from_spec(claim["group"]), claim["q"])
        f = build_idempotent(alg, claim["build"])
        c = co.ideal_to_code(alg, f)
        c.perms = _right_translations(alg.G)
        if getattr(f, "value", f).is_central():
            assert co.min_distance(c)[0] == claim["expect"]["d"], claim["tag"]
        else:
            with pytest.raises(co.CertificateError, match="onto itself"):
                co.min_distance(c)
    # automorphisms that are not transitive: the identity, and one generator
    # of D14, whose orbits have at most 7 points
    alg = id_.GroupAlgebra(gr.dihedral(14), 3)
    c = co.ideal_to_code(alg, id_.pcis_for_group(alg)[-1])
    assert c.k == 12
    for perms in (np.tile(np.arange(c.n), (2, 1)), c.perms[:1]):
        c.perms = perms
        with pytest.raises(co.CertificateError, match="not transitive"):
            co.min_distance(c)
    c.perms = np.zeros((1, c.n), dtype=np.int64)
    with pytest.raises(co.CertificateError, match="not a permutation"):
        co.min_distance(c)


def test_automorphism_errors_survive_python_O():
    # under -O an assert guard would vanish and the bound would be credited
    # to permutations that move the code or are not transitive: on the exact
    # route, and on the interval route's block rounds (`_small_pci_code`)
    script = (
        "import numpy as np\n"
        "from metacode import code as co, groups as gr, idem as id_\n"
        "from metacode.examples import build_idempotent, load_claims\n"
        "def run(c, budget):\n"
        "    try:\n"
        "        print(co.min_distance(c, budget=budget))\n"
        "    except co.CertificateError:\n"
        "        print('raised')\n"
        "claim = [c for c in load_claims() if c['tag'] == 'f3-d14-improved'][0]\n"
        "alg = id_.GroupAlgebra(gr.group_from_spec(claim['group']), claim['q'])\n"
        "c = co.ideal_to_code(alg, build_idempotent(alg, claim['build']))\n"
        "G = alg.G\n"
        "right = G.mul_vec(np.arange(c.n)[None, :], G.inv_vec(np.array(G.generators()))[:, None])\n"
        "for perms in (right, np.tile(np.arange(c.n), (2, 1))):\n"
        "    c.perms = perms\n"
        "    run(c, co.DEFAULT_BUDGET)\n"
        "alg = id_.GroupAlgebra(gr.MetacyclicGroup(3, 6, 2), 7)\n"
        "c = co.ideal_to_code(alg, id_.pcis_for_group(alg)[6])\n"
        "for part_perms in (np.roll(np.arange(9), 1)[None, :], np.tile(np.arange(9), (2, 1))):\n"
        "    c.part_perms = part_perms\n"
        "    run(c, 300)\n"
    )
    src = str(Path(co.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 4


def test_cold_certificates_do_not_import_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on their first call;
    # certifying a claim and the interval route must not pay for it
    script = (
        "import sys\n"
        "import numpy as np\n"
        "print('numpy.ma' in sys.modules)\n"
        "from metacode import code as co\n"
        "from metacode.examples import load_claims, run_claim\n"
        "claim = [c for c in load_claims() if c['tag'] == 'f5-g39-improved'][0]\n"
        "assert run_claim(claim, co.DEFAULT_BUDGET)['status'] == 'PASS'\n"
        "genmat, pivots = co.rref_mod(np.random.default_rng(33).integers(0, 3, (8, 16)), 3)\n"
        "c = co.LinearCode(3, 16, genmat, pivots, 1, 16)\n"
        "co._brouwer_zimmermann(genmat, pivots, 3)\n"  # the perms-free search takes more sets
        "co.min_distance(c, budget=0)\n"  # the interval route and the witness check
        # runs Brouwer-Zimmermann rounds 2 and 3 on the pivot set
        "co._interval(c, 10**5, np.count_nonzero(genmat, axis=1))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(co.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    before, after = out.stdout.split()
    if before == "True":
        pytest.skip("import numpy already loads numpy.ma")
    assert after == "False"


def test_enumeration_witness_check(monkeypatch):
    # min_distance checks the enumerated witness as it checks the interval's:
    # a word of the wrong weight, and a word of weight d that is no codeword
    genmat, pivots = co.rref_mod(np.array([[1, 1, 0, 1], [0, 1, 1, 1]]), 3)
    code = co.LinearCode(3, 4, genmat, pivots, 1, 4)
    assert co.min_distance(code)[:2] == (2, 2)
    for word, what in ((np.zeros(4, dtype=np.int64), "weight"), (np.array([1, 1, 0, 0]), "codeword")):
        monkeypatch.setattr(co, "_weight_round", lambda gamma, q, w, word=word: (2, word))
        with pytest.raises(co.CertificateError, match=what):
            co.min_distance(code)


def test_certificate_errors_survive_python_O():
    # under -O an assert guard would vanish and the corrupted enumeration
    # would yield a distance: the witness check must be a raised error.  So
    # must the interval route's checks: a witness that is no codeword, and
    # cosets that cut rows across parts
    script = (
        "import numpy as np\n"
        "from metacode import code as co\n"
        "mat = np.random.default_rng(21).integers(0, 2, size=(7, 10)).astype(np.int64)\n"
        "g, piv = co.rref_mod(mat, 2)\n"
        "c = co.LinearCode(2, 10, g, piv, 1, 10)\n"
        "hi, w = co.min_distance(c, budget=0)[1:]\n"
        "bad = np.roll(w, 1) if w[0] == w[-1] else w[::-1].copy()\n"
        "print((bad[piv] @ g % 2 != bad).any())\n"  # bad is no codeword
        "interval = co._interval\n"
        "co._interval = lambda *args: (1, hi, bad)\n"
        "co._weight_round = lambda gamma, q, w: (2, np.zeros(gamma.shape[1], dtype=np.int64))\n"
        "for budget in (co.DEFAULT_BUDGET, 0):\n"
        "    try:\n"
        "        print(co.min_distance(c, budget=budget))\n"
        "    except co.CertificateError:\n"
        "        print('raised')\n"
        "co._interval = interval\n"
        "c.cosets = np.arange(10) % 2\n"
        "try:\n"
        "    print(co.min_distance(c, budget=0))\n"
        "except co.CertificateError:\n"
        "    print('raised')\n"
    )
    src = str(Path(co.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"] + ["raised"] * 3


def test_macwilliams_path_matches_enumeration():
    # codes of modest rate at the budget that once sent them to the dual
    # route: Brouwer-Zimmermann certifies them, and agrees with the
    # MacWilliams oracle
    rng = np.random.default_rng(21)
    for q in (2, 3):
        for _ in range(4):
            mat = rng.integers(0, q, size=(7, 10)).astype(np.int64)
            genmat, pivots = co.rref_mod(mat, q)
            k = genmat.shape[0]
            if k < 6:
                continue
            budget = q ** (10 - k) + 10
            assert q**k > budget
            c = co.LinearCode(q, 10, genmat, pivots, 1, 10)
            lo, hi, w = co.min_distance(c, budget=budget)
            assert lo == hi == macwilliams_distance(genmat, pivots, q) == np.count_nonzero(w)


def test_interval_mode_brackets_truth():
    # budget too small for either exact route: the interval must contain d
    rng = np.random.default_rng(33)
    co_budget = 30  # below q^k and q^(n-k)
    for _ in range(4):
        mat = rng.integers(0, 3, size=(8, 16)).astype(np.int64)
        genmat, pivots = co.rref_mod(mat, 3)
        k = genmat.shape[0]
        if k < 7:
            continue
        c = co.LinearCode(3, 16, genmat, pivots, 1, 16)
        truth = co.min_distance(co.LinearCode(3, 16, genmat, pivots, 1, 16))[0]
        lo, hi, _ = co.min_distance(c, budget=co_budget)
        assert lo <= truth <= hi


def test_parity_check_and_low_weight_bound_match_loops():
    # parity_check against the column loop it replaced; `_interval`'s d_lo
    # reads weight 1 (a row of weight 1) and 2 (a row of weight 2, or two
    # rows proportional off the pivots) from the RREF exactly, so with no
    # budget for weight 3 it returns min(d, 3), as the parity-check column
    # test does; with a budget it returns min(d, the first w it cannot afford)
    rng, extra = np.random.default_rng(17), np.random.default_rng(18)
    seen = set()
    for q in (2, 3, 5, 7, 13):
        cases = []
        for _ in range(12):
            k, n = int(rng.integers(1, 5)), int(rng.integers(6, 12))
            mat = rng.integers(0, q, size=(k, n))
            mat[:, 1] = mat[:, 0] * int(rng.integers(1, q)) % q  # a weight-2 word of the dual
            if rng.random() < 0.3:
                mat[:, 2] = 0
            cases.append((mat, False))
        for i in range(12):
            k, n = int(extra.integers(1, 4)), int(extra.integers(6, 10))
            mat = extra.integers(0, q, size=(k, n))
            if i % 2 == 0:  # an RREF row of weight 1 or 2
                w = int(extra.integers(1, 3))
                light = np.zeros((1, n), dtype=np.int64)
                light[0, extra.choice(n, w, replace=False)] = extra.integers(1, q, size=w)
                mat = np.vstack([mat, light])
            # a direct sum with a second code, columns shuffled, maybe a zero column
            second = extra.integers(0, q, size=(int(extra.integers(1, 3)), 5))
            cases.append((_direct_sum([mat, second], int(extra.integers(0, 2)), q, extra)[0], True))
        for mat, summed in cases:
            genmat, pivots = co.rref_mod(mat, q)
            if not pivots or summed and q ** len(pivots) > 5000:  # keep the brute force small
                continue
            n = genmat.shape[1]
            H = parity_check(genmat, pivots, q)
            loop = np.zeros_like(H)
            for i, c in enumerate(c for c in range(n) if c not in pivots):
                loop[i, c] = 1
                loop[i, pivots] = (-genmat[:, c]) % q
            assert np.array_equal(H, loop)
            code = co.LinearCode(q, n, genmat, pivots, 1, n)
            d = brute_force_min_weight(genmat, q)
            low = co._interval(code, 0, _row_weights(code.genmat))[0]
            assert low == min(d, 3) == low_weight_from_parity_check(genmat, pivots, q), (q, genmat)
            seen.add((low, int(np.count_nonzero(genmat, axis=1).min()) <= 2))
            # the weight-3+ loop, at a budget that lets it find d on some codes and stop on others
            budget = 10**5
            costs = {w: math.comb(n, w) * (q - 1) ** (w - 1) for w in range(3, n + 1)}
            stop = min([w for w, cost in costs.items() if cost > budget // n], default=n + 1)
            assert co._interval(code, budget, _row_weights(code.genmat))[0] == min(d, stop), (q, genmat)
            if d >= 3:
                seen.add(("found", d) if d < stop else ("stop", stop))
    # d = 1, 2 and >= 3; weight 2 both from a light row and from a proportional pair
    assert seen >= {(1, True), (2, True), (2, False), (3, False)}, seen
    # the weight-3+ loop finds d = 3, 4 and 5, and stops at w = 3, 4 and 5
    assert seen >= {(tag, w) for tag in ("found", "stop") for w in (3, 4, 5)}, seen


def test_theorem21_bounds_examples():
    OM27 = gr.ordinary_metacyclic(3, 3)
    alg = id_.GroupAlgebra(OM27, 2)
    # K = G: one-dimensional code of distance |G|
    full = gr.full_subgroup(OM27)
    e_top = id_.Idempotent(alg.hat(full), None, 0, "central")
    tb = co.theorem21_bounds(alg, full, e_top)
    assert tb.dim == 1
    assert tb.details["basis_rank"] == tb.dim
    assert tb.d_exact == 27
    c = co.ideal_to_code(alg, e_top)
    d = co.min_distance(c)[0]
    assert (c.n, c.k, d) == (27, 1, 27)
    assert tb.contains(d)
    # K = <a>: the [27, 2, 18] component; o_3(2) = 2 = phi(3): exact case
    A = gr.subgroup_closure(OM27, [OM27.a])
    pair = [p for p in sh.ssp_catalog(OM27) if p.K.elements == A.elements][0]
    e = id_.pci(alg, pair, 1)
    tb = co.theorem21_bounds(alg, A, e)
    assert tb.dim == 2 and tb.d_exact == 2 * 9
    assert tb.details["basis_rank"] == tb.dim
    c = co.ideal_to_code(alg, e)
    d = co.min_distance(c)[0]
    assert (c.n, c.k, d) == (27, 2, 18)
    assert tb.contains(d)
    with pytest.raises(co.QuotientNotCyclic):
        co.theorem21_bounds(alg, trivial_subgroup(OM27), e)


def test_theorem61_params_examples():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    tb = co.theorem61_params(G39, 2, 1, 1)
    assert tb.dim == 12
    assert tb.d_min_bound == 6 and tb.d_max_bound == 39
    G57 = gr.MetacyclicGroup(19, 3, 7)
    tb = co.theorem61_params(G57, 2, 1, 1)
    assert tb.dim == 18 and tb.d_min_bound == 6
    G20 = gr.MetacyclicGroup(5, 4, 2)
    tb = co.theorem61_params(G20, 3, 1, 1)
    assert tb.dim == 4 and tb.d_min_bound == 8 and tb.d_max_bound == 20
    # beta a multiple of p2^l: <b^beta> trivial, lambda = l
    tb = co.theorem61_params(G20, 3, 1, 4)
    assert tb.details["lambda"] == 2


def test_wedderburn_reports():
    D16 = gr.dihedral(16)
    rep = co.wedderburn_report(D16, 3)
    assert rep.total_dim == 16
    # four one-dimensional components from the abelianisation
    assert (1, 1, 4) in rep.components
    for q in (3, 5, 7, 9):
        rep = co.wedderburn_report(D16, q)
        assert rep.total_dim == 16


def test_wedderburn_refuses_a_q_that_is_no_prime_power(monkeypatch):
    # q coprime to |G| that is no field size is refused before any orbit work
    D14, C14 = gr.dihedral(14), gr.cyclic(14)
    monkeypatch.setattr(id_, "cosets_and_orbits", None)
    for q in (15, 1, 0, -1):
        for call in (lambda: id_.census(D14, q), lambda: co.wedderburn_report(D14, q),
                     lambda: co.algebra_isomorphic(D14, C14, q)):
            with pytest.raises(NonPrimeCharacteristic, match=f"q={q} is not a prime power"):
                call()


def test_algebra_isomorphic_examples():
    D16, SD16, Q16 = gr.dihedral(16), gr.semidihedral(16), gr.quaternion(16)
    assert co.algebra_isomorphic(D16, Q16, 7)
    # 7 = -1 mod 4 = 2^(n-1): not isomorphic
    assert not co.algebra_isomorphic(D16, SD16, 7)
    # 5 != -1 mod 4: isomorphic
    assert co.algebra_isomorphic(D16, SD16, 5)


def test_emit_parse_roundtrip():
    mat = np.array([[1, 1, 1, 1]], dtype=np.int64)
    c = co.LinearCode(2, 4, *co.rref_mod(mat, 2), 1, 4)
    text = co.emit_genmat(c)
    assert text.splitlines()[0] == "2 4 1"
    assert text.splitlines()[1] == "1111"
    c2 = co.parse_genmat(text)
    assert np.array_equal(c2.genmat, c.genmat)
    # best-known [12, 3, 8] matrix emitted and re-verified
    from metacode.examples import build_idempotent

    D12 = gr.dihedral(12)
    alg = id_.GroupAlgebra(D12, 5)
    f = build_idempotent(alg, {"kind": "d12_mix"})
    code = co.ideal_to_code(alg, f)
    text = co.emit_genmat(code)
    back = co.parse_genmat(text)
    assert np.array_equal(back.genmat, code.genmat)
    assert co.min_distance(back)[0] == 8


MALFORMED_GENMATS = {
    "missing row": "2 3 2\n111\n",
    "dependent rows": "2 3 2\n111\n111\n",
    "short row": "2 3 1\n11\n",
    "bad header": "2 3\n111\n",
    "not digits": "2 3 1\n1x1\n",
    "digit not below q": "2 3 1\n121\n",
    "q not prime": "4 3 1\n123\n",
    "q zero": "0 3 1\n101\n",
    "q past the digits": "11 3 1\n101\n",
}


def test_parse_genmat_rejects_malformed_text():
    for what, text in MALFORMED_GENMATS.items():
        with pytest.raises(co.GenmatFormatError):
            co.parse_genmat(text)
        assert issubclass(co.GenmatFormatError, co.CodeError), what
    for q in (9, 11):  # no prime field, or digits past 9
        big = co.LinearCode(q, 2, np.array([[1, 1]], dtype=np.int64), [0], 1, 2)
        with pytest.raises(co.GenmatFormatError):
            co.emit_genmat(big)


def test_parse_genmat_errors_survive_python_O():
    # under -O the shape and independence asserts vanished, and the first
    # five texts were read as the code [3, 1, 1..3]_2
    script = (
        "import sys\n"
        "from metacode import code as co\n"
        "for text in sys.argv[1:]:\n"
        "    try:\n"
        "        print(co.parse_genmat(text))\n"
        "    except co.GenmatFormatError:\n"
        "        print('raised')\n"
    )
    src = str(Path(co.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, *MALFORMED_GENMATS.values()],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * len(MALFORMED_GENMATS)


def test_algebra_invariants_raise_typed_errors():
    D8 = gr.dihedral(8)
    a3, a5 = id_.GroupAlgebra(D8, 3), id_.GroupAlgebra(D8, 5)
    with pytest.raises(id_.InvariantError):
        a3.one() * a5.one()
    with pytest.raises(id_.RegimeMismatch):
        build_idempotent(a3, {"kind": "c2q8_best"})


def test_central_left_right_spans_coincide():
    # for a central idempotent the left span equals the two-sided ideal:
    # right translates stay inside the row space
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    pair = [p for p in sh.ssp_catalog(G39) if p.H.order == 13][0]
    e = id_.pci(alg, pair, 1)
    c = co.ideal_to_code(alg, e)
    G = alg.G
    for g in G.generators():
        row = (e.value * alg.basis(g)).vec
        stacked = np.vstack([c.genmat, row])
        assert co.rank_mod(stacked, 2) == c.k


def test_eq2_rank_prediction(matrix):
    # rank of the two-sided ideal equals [G:H]^2 * o/[E:H] per component
    for G, q in matrix[:6]:
        alg = id_.GroupAlgebra(G, q)
        for pair in sh.ssp_catalog(G):
            od = id_.cosets_and_orbits(G, pair, q)
            e = id_.pci(alg, pair, od.orbit_reps[0])
            c = co.ideal_to_code(alg, e)
            size = G.order // pair.H.order
            assert c.k == size * size * (od.o // od.stab_index), (G.name, q, pair.label())
