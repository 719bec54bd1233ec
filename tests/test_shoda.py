import hashlib

import numpy as np
import pytest

from metacode import groups as gr
from metacode import shoda as sh
from metacode.ffield import factorize, is_prime, mult_order
from helpers import (
    oracle_action, oracle_is_normal, oracle_quotient_generator, presentations, trivial_subgroup,
)


def verified_catalog(G, bound=10_000):
    pairs = sh.ssp_catalog(G)
    for pair in pairs:
        ok, why = sh.verify_ssp(G, pair, bound)
        assert ok, f"{G.name}: {pair.label()}: {why}"
    return pairs


def test_generic_split_counts():
    G39 = gr.MetacyclicGroup(13, 3, 9, name="G39")
    assert len(verified_catalog(G39)) == 3  # 1 + l + m with m = l = 1
    D14 = gr.MetacyclicGroup(7, 2, 6, name="D14-generic")
    assert len(sh.ssp_catalog(D14)) == 3
    G = gr.MetacyclicGroup(49, 2, 48, name="49:2")
    assert len(sh.ssp_catalog(G)) == 1 + 1 + 2


def test_2group_counts():
    for order, n in ((16, 3), (32, 4), (64, 5)):
        for G in (gr.dihedral(order), gr.quaternion(order), gr.semidihedral(order)):
            pairs = sh.ssp_catalog(G)
            assert len(pairs) == 4 + (n - 1)
            for pair in pairs:
                ok, why = sh.verify_ssp(G, pair)
                assert ok, (G.name, pair.label(), why)


def _hand_catalogued(N, M, r, s):
    """Whether the hand tables that ssp_metacyclic replaced covered the
    presentation: cyclic; dihedral, quaternion or semidihedral; G_(p^(n+1));
    or split C_(p1^m) x| C_(p2^l) with faithful action."""
    if N == 1 or M == 1:
        return True
    if M == 2 and (r == N - 1 and (s == 0 and N >= 3 or N % 2 == 0 and s == N // 2)
                   or s == 0 and N >= 8 and N & (N - 1) == 0 and r == N // 2 - 1):
        return True
    fN, fM = factorize(N), factorize(M)
    if is_prime(M) and set(fN) == {M} and fN[M] >= 2 and s == 0 and r == N // M + 1:
        return True
    return len(fN) == len(fM) == 1 and fN.keys() != fM.keys() and s == 0 and mult_order(r, N) == M


def test_m2_catalogs_pinned():
    # (H, K) of every pair, in catalog order, for D_2n (n = 3..79), Q_4m
    # (m = 2..39), SD_2^k (k = 4..8), C4 presented as N = 2 quaternion and
    # the 5,250 presentations with N * M <= 100 that the hand tables covered,
    # hashed from those tables before ssp_metacyclic replaced them
    groups = ([gr.dihedral(2 * n) for n in range(3, 80)] + [gr.quaternion(4 * m) for m in range(2, 40)]
              + [gr.semidihedral(2**k) for k in range(4, 9)] + [gr.MetacyclicGroup(2, 2, 1, 1)]
              + [gr.MetacyclicGroup(*P) for P in presentations(100) if _hand_catalogued(*P)])
    assert len(groups) == 121 + 5250
    h = hashlib.sha256()
    for G in groups:
        for p in sh.ssp_catalog(G):
            h.update(repr((p.H.elements, p.K.elements)).encode())
    assert h.hexdigest() == "b5183c175950a0521fc6ea7e9106cfe5ddf9452aa3455025d3d4edc9acc3cd0b"


def test_catalog_scales_without_a_character_by_element_table():
    # C_65536 has 65536 characters: one kernel is built per cyclic subgroup
    # of the dual, not one per character; the counts are the hand tables'
    assert len(sh.ssp_catalog(gr.cyclic(2**16))) == 17
    assert len(sh.ssp_catalog(gr.MetacyclicGroup(2**15, 2, 2**15 - 1))) == 18


def test_ordinary_metacyclic_2_counts():
    G = gr.ordinary_metacyclic(2, 4)  # n = 3
    pairs = verified_catalog(G)
    assert len(pairs) == 7  # 4 + 2 + 1
    trivial_k = [p for p in pairs if p.H.order == G.N and p.K.order == 1]
    assert len(trivial_k) == 1  # (<a>, <1>) exactly once


def test_ordinary_metacyclic_p_counts():
    G27 = gr.ordinary_metacyclic(3, 3)
    pairs = verified_catalog(G27)
    assert len(pairs) == 2 + 3 * 1 + 1
    # (<a>, <a^{p^n}>) degenerates to (<a>, 1)
    bottom = [p for p in pairs if p.H.order == 9]
    assert len(bottom) == 1 and bottom[0].K.order == 1
    G125 = gr.ordinary_metacyclic(5, 3)
    assert len(verified_catalog(G125)) == 2 + 5 + 1


def test_dihedral_any_counts():
    D14 = gr.dihedral(14)
    pairs = verified_catalog(D14)
    assert len(pairs) == 3  # n = 7 odd: (G,G), (G,<a>), (<a>,<a^7>)
    D12 = gr.dihedral(12)
    pairs = verified_catalog(D12)
    assert len(pairs) == 4 + 2  # v in {3, 6}


def test_quaternion_any_counts():
    Q20 = gr.quaternion(20)  # m = 5 odd
    pairs = verified_catalog(Q20)
    assert len(pairs) == 3 + 2  # {(G,G),(G,<a>),(G,<a^2>)} + v in {5, 10}
    Q16 = gr.quaternion(16)
    assert len(verified_catalog(Q16)) == 6


def test_p5_catalogs_verified_at_p3():
    sizes = {}
    for family in (1, 2, 3, 4):
        G = sh.p5_group(family, 3)
        pairs = sh.ssp_catalog(G)
        assert G.order == 243
        for pair in pairs:
            ok, why = sh.verify_ssp(G, pair, bound=300)
            assert ok, (family, pair.label(), why)
        sizes[family] = len(pairs)
    p = 3
    assert sizes[4] == 4 + 1 + 1 + 3 * (p - 1)
    # S(G3) contains the quoted (⟨a,b^p⟩, ⟨a^{p(p-1)} b^{p(pk+1)}⟩) family
    g3_pairs = sh.ssp_catalog(sh.p5_group(3, 3))
    special = [pr for pr in g3_pairs if pr.H.order != pr.group.order]
    assert len(special) == p


def test_p5_bad_family():
    with pytest.raises(sh.BadFamilyIndex):
        sh.p5_group(5, 3)
    with pytest.raises(sh.BadFamilyIndex):
        sh.p5_group(1, 2)


def test_product_catalog():
    G1 = gr.MetacyclicGroup(13, 3, 9, name="G39")
    C5 = gr.cyclic(5)
    G = gr.direct_product(G1, C5)
    pairs = verified_catalog(G)
    assert len(pairs) == 3 * 2
    # trivial right factor leaves the catalog size unchanged
    Gt = gr.direct_product(G1, gr.cyclic(1))
    assert len(sh.ssp_catalog(Gt)) == 3


def test_product_table_shape_full_scale():
    G1 = gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    G = gr.direct_product(G1, G2)
    pairs = sh.ssp_catalog(G)
    assert len(pairs) == 5 * 3  # catalog sizes multiply


def test_coset_of_powers_by_doubling_past_the_table_bound():
    # past the Cayley-table bound G.power raises h0 to each exponent by
    # repeated squaring (D2000) or through the factors (G21 x G55); the
    # powers by doubling that coset_of reads agree with it, and every h in H
    # lies in K h0^t for its t
    G21G55 = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                               gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    for G, top in ((gr.dihedral(2000), 1000), (G21G55, 77)):
        assert G.order ** 2 > gr._GRID_CELLS
        pairs = sh.ssp_catalog(G)
        for pair in pairs:
            powers = G.powers([pair.h0], pair.index)[0]
            assert powers.tolist() == G.power(pair.h0, np.arange(pair.index)).tolist(), pair.label()
            moved = G.mul_vec(pair.H.array, G.inv_vec(powers[pair.coset_of]))
            assert set(moved.tolist()) <= set(pair.K.elements), pair.label()
        assert max(pair.index for pair in pairs) == top


def test_c2q8_catalog():
    G = gr.c2_x_q8()
    pairs = verified_catalog(G)
    assert len(pairs) == 10
    # the sorted (H, K) set of the hand table that the product rule replaced,
    # hashed from that table
    table = sorted((p.H.elements, p.K.elements) for p in pairs)
    assert hashlib.sha256(repr(table).encode()).hexdigest() == \
        "5274437b6ce86394e22bff50603762a0a751281ac776dc7e5e09f31b61f00593"


def test_product_sharing_a_prime_catalog():
    # G21 x G21: each of the 3 x 3 products of factor pairs gives one pair,
    # except index 3 with index 3, one per unit of (Z/3)* (G acts trivially
    # on G21/<a>), and index 7 with index 7, one per class of (Z/7)* under
    # the exponents 1, 2, 4 of b acting on <a>
    G21 = gr.MetacyclicGroup(7, 3, 2, name="G21")
    G = gr.direct_product(G21, G21)
    pairs = verified_catalog(G)
    assert len(pairs) == 7 + 2 + 2
    assert [p.index for p in pairs] == [1, 3, 7, 3, 3, 3, 21, 7, 21, 7, 7]


def test_verify_ssp_rejects():
    D8 = gr.dihedral(8)
    A = gr.subgroup_closure(D8, [D8.a])
    B = gr.subgroup_closure(D8, [D8.b])
    triv = trivial_subgroup(D8)
    full = gr.full_subgroup(D8)
    ok, _ = sh.verify_ssp(D8, sh.ShodaPair(full, full))
    assert ok
    ok, _ = sh.verify_ssp(D8, sh.ShodaPair(A, triv))
    assert ok
    ok, why = sh.verify_ssp(D8, sh.ShodaPair(B, triv))
    assert not ok and "normal" in why
    with pytest.raises(sh.TooLarge):
        sh.verify_ssp(D8, sh.ShodaPair(A, triv), bound=4)


def test_catalogued_H_is_generated_by_its_gens(matrix):
    # ideal_to_code spins the block of a pci under pair.H.gens alone, and
    # structured products and conj_mask read K.gens in place of K; the suite
    # groups and G21 x G55, whose pcis the benchmark turns into codes
    analogue = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                                 gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    for G in {G.name: G for G, _q in matrix + [(analogue, 2)]}.values():
        for pair in sh.ssp_catalog(G):
            for S in (pair.H, pair.K):
                assert S.gens and gr.subgroup_closure(G, S.gens) == S, (G.name, pair.label())


def test_pair_action_data_and_h0_match_scalar_oracles():
    # normaliser against oracle_action and h0 against the scalar scan of
    # H.elements, on every pair of the presentations with N, M >= 2 and
    # N*M <= 24, C2 x Q8 and G21 x G55; the pairs whose K is not normal in G,
    # M(4,4,3,2)'s (<a, b^2>, <ab^2>) among them, take the sweep of all of G
    groups = [gr.MetacyclicGroup(*nmrs) for nmrs in presentations(24) if min(nmrs[:2]) >= 2]
    groups += [gr.c2_x_q8(), gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                                               gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))]
    checked, swept = 0, []
    for G in groups:
        for pair in sh.ssp_catalog(G):
            assert pair.h0 == oracle_quotient_generator(G, pair.H, pair.K), (G.name, pair.label())
            N, t_of_N = oracle_action(G, pair)
            got = pair.normaliser
            assert (got.order, got.exps.tolist()) == (len(N), sorted(set(t_of_N))), (G.name, pair.label())
            if not oracle_is_normal(G, pair.K):
                swept.append((G.name, pair.label()))
            checked += 1
    assert ("M(4,4,r=3,s=2)", "(<a, b^2> (order 8), <a*b^2> (order 2))") in swept
    assert checked > 1300
