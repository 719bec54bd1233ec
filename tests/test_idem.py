import functools
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metacode import ffield as ff
from metacode import groups as gr
from metacode import idem as id_
from metacode import shoda as sh
from helpers import (
    count_pcis, oracle_action, oracle_unit_orbits, presentations, sum_idempotents, trivial_subgroup,
)


def find_pair(G, H_order, index=None):
    for pair in sh.ssp_catalog(G):
        if pair.H.order == H_order and (index is None or pair.index == index):
            return pair
    raise KeyError


def test_algebra_requires_semisimplicity():
    with pytest.raises(id_.NotSemisimple):
        id_.GroupAlgebra(gr.dihedral(14), 7)
    with pytest.raises(id_.NotSemisimple):
        id_.GroupAlgebra(gr.dihedral(14), 9)  # algebra elements live over primes


def test_hat_examples():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    assert alg.hat(trivial_subgroup(G39)) == alg.one()
    hg = alg.hat(gr.full_subgroup(G39))
    assert hg * hg == hg
    A = gr.subgroup_closure(G39, [G39.a])
    ha = alg.hat(A)  # |<a>| = 13 = 1 mod 2: plain sum of the a-powers
    assert sorted(ha.support().tolist()) == sorted(A.elements)
    assert set(int(v) for v in ha.vec[list(A.elements)]) == {1}
    assert ha * ha == ha


def test_hat_not_coprime_is_guarded():
    # In a semisimple algebra every subgroup order divides |G| and is
    # automatically a unit mod q; the guard still exists for direct callers.
    alg = id_.GroupAlgebra(gr.dihedral(14), 3)
    forged = gr.Subgroup(alg.G, list(range(12)))  # not a subgroup: order 12
    with pytest.raises(ff.NotCoprime):
        alg.hat(forged)


def naive_product(G, a, b, q):
    """a * b by Python-int convolution over the two supports."""
    out = [0] * G.order
    for g in a.support().tolist():
        for h in b.support().tolist():
            out[G.mul(g, h)] += int(a.vec[g]) * int(b.vec[h])
    return [c % q for c in out]


def test_mul_matches_naive_convolution():
    import random

    rng = random.Random(5)
    for G in (gr.quaternion(16), gr.c2_x_q8()):
        alg = id_.GroupAlgebra(G, 3)
        for _ in range(20):
            a = alg.element({rng.randrange(16): rng.randrange(3) for _ in range(5)})
            b = alg.element({rng.randrange(16): rng.randrange(3) for _ in range(5)})
            assert (a * b).vec.tolist() == naive_product(G, a, b, 3), G.name
    # q = 2^31 - 1 with coefficients near q: an int64 sum of three unreduced
    # products already overflows
    G, q = gr.quaternion(16), 2**31 - 1
    alg = id_.GroupAlgebra(G, q)
    for wa, wb in ((12, 16), (16, 12)):
        a = alg.element({g: q - 1 - rng.randrange(1000) for g in rng.sample(range(16), wa)})
        b = alg.element({g: q - 1 - rng.randrange(1000) for g in rng.sample(range(16), wb)})
        assert (a * b).vec.tolist() == naive_product(G, a, b, q)


def test_mul_spanning_several_grid_blocks(monkeypatch):
    import random

    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    q = 13
    alg = id_.GroupAlgebra(G, q)
    rng = random.Random(7)
    small, large = (
        alg.element({g: rng.randrange(1, q) for g in rng.sample(range(G.order), size)})
        for size in (70, 100)
    )
    calls = []
    grid = G.grid

    def spy(xs, ys):
        blocks = list(grid(xs, ys))
        calls.append((len(xs), len(ys), len(blocks)))
        return iter(blocks)

    monkeypatch.setattr(G, "grid", spy)
    assert (small * large).vec.tolist() == naive_product(G, small, large, q)
    assert (large * small).vec.tolist() == naive_product(G, large, small, q)
    # left translates of `large`, then right translates of `large`; two blocks each
    assert calls == [(70, G.order, 2), (G.order, 70, 2)]


def test_structured_mul_matches_dense():
    G = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G, 2)
    pair = find_pair(G, 13)
    e = id_.pci(alg, pair, 1)
    assert e.value.parts is not None
    x = alg.element({3: 1, 17: 1, 30: 1})
    structured = id_._mul_structured(e.value.parts, x)
    dense = id_.AlgebraElement(alg, e.value.vec.copy()) * x
    assert structured == dense


def test_cyclotomic_cosets():
    cosets = id_.cyclotomic_cosets(7, 2)
    assert {c.members for c in cosets} == {(1, 2, 4), (3, 5, 6)}
    assert id_.cyclotomic_cosets(1, 5)[0].members == (0,)
    with pytest.raises(ff.NotCoprime):
        id_.cyclotomic_cosets(15, 3)


def test_cosets_and_orbits_match_scalar_walks(matrix):
    # the action data against oracle_action, and cosets, orbits, reps and
    # stabiliser index against the scalar walks of oracle_unit_orbits fed the
    # oracle's per-element exponents, on every pair of the suite groups and
    # G21 x G55
    analogue = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                                 gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    checked = 0
    for G in {G.name: G for G, _q in matrix + [(analogue, 2)]}.values():
        for pair in sh.ssp_catalog(G):
            N, t_of_N = oracle_action(G, pair)
            got = pair.normaliser
            assert (got.order, got.exps.tolist()) == (len(N), sorted(set(t_of_N))), (G.name, pair.label())
            for q in (2, 3, 5, 7, 13):
                if math.gcd(q, G.order) != 1:
                    continue
                od = id_.cosets_and_orbits(G, pair, q)
                cosets, orbits, counts = oracle_unit_orbits(od.m, q, t_of_N)
                assert [c.members for c in od.cosets] == cosets, (G.name, pair.label(), q)
                assert [c.rep for c in od.cosets] == [c[0] for c in cosets]
                assert od.orbits == orbits and od.orbit_reps == [o[0] for o in orbits]
                assert od.stab_index == counts[0] // pair.H.order
                checked += 1
    assert checked > 200


def test_orbits_d14_f2_single_orbit():
    # q-cosets {1,2,4} and {3,5,6} merge under k -> -k since -1 = 2^3 mod 7
    D14 = gr.dihedral(14)
    pair = find_pair(D14, 7)
    od = id_.cosets_and_orbits(D14, pair, 2)
    assert od.m == 7 and len(od.cosets) == 2
    assert len(od.orbits) == 1 and od.orbit_reps == [1]


def test_orbits_g39_f2_stabiliser():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    pair = find_pair(G39, 13)
    od = id_.cosets_and_orbits(G39, pair, 2)
    assert od.o == 12 and len(od.orbits) == 1
    assert od.stab_index == 3  # [E : H] = 3, so the component is M3(F_{2^4})


def test_orbits_with_a_noncyclic_exponent_group():
    # N/H = {1, 4, 11, 14} mod 15 is C2 x C2, so no t_b generates it and
    # omega0 is None
    G = gr.direct_product(gr.dihedral(6), gr.dihedral(10))
    pair = sh.ssp_catalog(G)[8]
    assert (pair.H.order, pair.K.order) == (15, 1)
    od = id_.cosets_and_orbits(G, pair, 7)
    assert (od.h0, od.m, od.o) == (22, 15, 4)
    assert [c.members for c in od.cosets] == [(1, 4, 7, 13), (2, 8, 11, 14)]
    assert od.orbits == [(1, 2)] and od.orbit_reps == [1]
    assert od.stab_index == 2 and od.action_exps == (1, 4, 11, 14)
    assert od.omega0 is None


def test_orbits_refuse_a_pair_whose_kernel_is_not_h():
    # (1, 1) in C3 is no strong Shoda pair: all of C3 acts trivially on
    # H/K, so |N| = 3 is not |H| times the one exponent
    C3 = gr.cyclic(3)
    T = trivial_subgroup(C3)
    with pytest.raises(id_.InvariantError):
        id_.cosets_and_orbits(C3, sh.ShodaPair(T, T), 2)


def test_orbit_trivial_character():
    D14 = gr.dihedral(14)
    pair = find_pair(D14, 14, index=1)
    od = id_.cosets_and_orbits(D14, pair, 3)
    assert od.m == 1 and len(od.orbits) == 1


def test_epsilon_examples():
    D16 = gr.dihedral(16)
    alg = id_.GroupAlgebra(D16, 3)
    top = find_pair(D16, 16, index=1)
    assert id_.epsilon(alg, top, 0) == alg.hat(gr.full_subgroup(D16))
    # q = 3 = -1 mod 4: the j = 2 row evaluates to <a^4>^ - <a^2>^
    pair_j2 = find_pair(D16, 8, index=4)
    eps = id_.epsilon(alg, pair_j2, 1)
    K4 = gr.subgroup_closure(D16, [D16.encode(4, 0)])
    K2 = gr.subgroup_closure(D16, [D16.encode(2, 0)])
    assert eps == alg.hat(K4) - alg.hat(K2)
    # epsilon is idempotent for every catalog pair
    for pair in sh.ssp_catalog(D16):
        e = id_.epsilon(alg, pair, 1)
        assert e * e == e


def test_pci_suite_census_identity(matrix):
    for G, q in matrix:
        rows = id_.census(G, q)
        assert sum(r.dim for r in rows) == G.order, (G.name, q)


def test_left_idempotents():
    D16 = gr.dihedral(16)
    alg = id_.GroupAlgebra(D16, 3)
    B = gr.subgroup_closure(D16, [D16.b])
    one = id_.Idempotent(alg.one(), None, 0, "central")
    f1, f2 = id_.left_idempotents(alg, one, B)
    assert f1.value == alg.hat(B) and f2.value == alg.one() - alg.hat(B)
    for pair in sh.ssp_catalog(D16):
        od = id_.cosets_and_orbits(D16, pair, 3)
        for k in od.orbit_reps:
            e = id_.pci(alg, pair, k)
            g1, g2 = id_.left_idempotents(alg, e, B)
            assert g1.value * g1.value == g1.value
            assert g2.value * g2.value == g2.value
            assert g1.value + g2.value == e.value
            assert (g1.value * g2.value).weight() == 0


def test_census_matches_table_footnote_counts():
    # For 2 <= j <= n the k-choices give phi(2^j)/o distinct idempotents when
    # -1 is a power of q mod 2^j, and phi(2^j)/(2o) otherwise.
    for q in (3, 5, 7):
        D16 = gr.dihedral(16)
        for pair in sh.ssp_catalog(D16):
            if pair.H.order < 16:
                m = pair.index
                od = id_.cosets_and_orbits(D16, pair, q)
                o = ff.mult_order(q, m)
                qpowers = {pow(q, t, m) for t in range(o)}
                phi = m // 2
                expected = phi // o if (m - 1) in qpowers else phi // (2 * o)
                assert len(od.orbits) == expected, (q, m)


def test_normaliser_data_is_computed_once_per_pair(monkeypatch):
    # census over four q calls conj_mask for the first q only and evaluates
    # each pair's normaliser once; every OrbitData equals one computed on a
    # fresh copy of its pair
    G = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                          gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    pairs = sh.ssp_catalog(G)
    sweeps, conj_mask = [], G.conj_mask
    monkeypatch.setattr(G, "conj_mask", lambda ss, target, xs: sweeps.append(len(xs)) or conj_mask(ss, target, xs))
    evaluated, body = [], sh.ShodaPair.normaliser.func
    counted = functools.cached_property(lambda pair: evaluated.append(pair) or body(pair))
    counted.__set_name__(sh.ShodaPair, "normaliser")
    monkeypatch.setattr(sh.ShodaPair, "normaliser", counted)
    qs = (2, 13, 17, 19)
    counts = []
    for q in qs:
        id_.census(G, q, pairs)
        counts.append(len(sweeps))
    assert counts == [counts[0]] * len(qs)
    assert sorted(map(id, evaluated)) == sorted(map(id, pairs))
    monkeypatch.undo()
    for pair in pairs:
        assert "normaliser" in vars(pair)
        fresh = sh.ShodaPair(pair.H, pair.K)
        for q in qs:
            assert id_.cosets_and_orbits(G, pair, q) == id_.cosets_and_orbits(G, fresh, q), (pair.label(), q)
    N = pairs[-1].normaliser
    with pytest.raises(ValueError):
        N.exps[0] = 0


def test_count_pcis_totals(matrix):
    for G, q in matrix:
        info = count_pcis(G, q)
        assert info["total_dim"] == G.order
        top_label = [p for p in sh.ssp_catalog(G) if p.index == 1][0].label()
        assert info["per_pair"][top_label] == 1  # (G, G) contributes exactly 1


def test_set_level_determinism_under_root_relabeling():
    # changing the primitive root xi to xi^u relabels the trace table,
    # T_u[t] = T[u t mod m], so pci(k) becomes pci(u k): the choice permutes
    # but does not change the SET of pcis of a pair
    for G, q in ((gr.dihedral(16), 3), (gr.MetacyclicGroup(13, 3, 9), 5)):
        alg = id_.GroupAlgebra(G, q)
        checked = 0
        for pair in sh.ssp_catalog(G):
            m = pair.index
            if m <= 2:
                continue
            u = next(u for u in range(2, m) if math.gcd(u, m) == 1)
            reps = id_.cosets_and_orbits(G, pair, q).orbit_reps
            base = {id_.pci(alg, pair, k).value.key() for k in reps}
            assert {id_.pci(alg, pair, u * k % m).value.key() for k in reps} == base
            checked += 1
        assert checked


def test_p5_pci_sets_pinned():
    # the sorted int64 pci vectors of the four order-3^5 groups at q = 2, 5, 7,
    # hashed from the hand tables that ssp_metacyclic replaced: its pairs
    # differ from theirs, its pcis may not
    h = hashlib.sha256()
    for family in (1, 2, 3, 4):
        G = sh.p5_group(family, 3)
        for q in (2, 5, 7):
            for key in sorted(e.value.key() for e in id_.pcis_for_group(id_.GroupAlgebra(G, q))):
                h.update(key)
    assert h.hexdigest() == "0554c1e66fdc13709f78cb00cd61820a6ee0b51da403243196f8430d2497f6f6"


def check_catalog_oracles(G):
    """At the least prime q coprime to |G|: each pair passes verify_ssp and its
    H and K are the closures of their gens; the census dimensions sum to |G|
    with one row per pci; the pcis sum to one and are pairwise orthogonal."""
    q = next(q for q in range(2, G.order + 2) if ff.is_prime(q) and G.order % q)
    pairs = sh.ssp_catalog(G)
    for pair in pairs:
        ok, why = sh.verify_ssp(G, pair)
        assert ok, (G.name, pair.label(), why)
        for S in (pair.H, pair.K):
            assert gr.subgroup_closure(G, S.gens) == S, (G.name, pair.label())
    rows = id_.census(G, q, pairs)
    assert sum(r.dim for r in rows) == G.order, G.name
    alg = id_.GroupAlgebra(G, q)
    idems = id_.pcis_for_group(alg, pairs)
    assert len(idems) == len(rows), G.name
    assert sum_idempotents(alg, idems) == alg.one(), G.name
    for k, e in enumerate(idems):
        for f in idems[k + 1:]:
            assert (e.value * f.value).weight() == 0, (G.name, e.pair.label(), f.pair.label())


def test_every_small_presentation_meets_the_oracles():
    groups = [gr.MetacyclicGroup(*P) for P in presentations(24) if P[0] > 1 and P[1] > 1]
    assert len(groups) == 213
    for G in groups:
        check_catalog_oracles(G)


@pytest.mark.slow
def test_every_presentation_to_order_100_meets_the_oracles():
    groups = [gr.MetacyclicGroup(*P) for P in presentations(100) if P[0] > 1 and P[1] > 1]
    assert len(groups) == 4052
    for G in groups:
        check_catalog_oracles(G)


@pytest.mark.slow
def test_census_of_c999999_finishes():
    # census dedupes its rows by one key per pair: hashing H's and K's
    # million-element tuples once per orbit rep took 88 s of the 95 s this
    # census once took; it takes about 6 s on a 2-core Xeon, and peaks at
    # about 880 MB.  Run in a child so that a hang fails at the bound
    script = (
        "from metacode import groups as gr, idem as id_\n"
        "rows = id_.census(gr.group_from_spec('C:999999'), 2)\n"
        "print(len(rows), sum(r.dim for r in rows))\n"
    )
    src = str(Path(id_.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["7743", "999999"]


def _products_sharing_a_prime():
    C, dp = gr.cyclic, gr.direct_product
    G21 = gr.MetacyclicGroup(7, 3, 2, name="G21")
    return [dp(C(2), C(2)), dp(C(2), gr.dihedral(8)), dp(C(4), C(12)), dp(C(12), C(4)),
            dp(C(3), G21), dp(gr.dihedral(8), gr.quaternion(8)), dp(C(6), C(10)),
            gr.ProductGroup(dp(C(2), C(2)), C(2), name="(C2 x C2) x C2"),
            gr.ProductGroup(C(2), dp(C(2), C(2)), name="C2 x (C2 x C2)")]


@pytest.mark.parametrize("G", _products_sharing_a_prime(), ids=lambda G: G.name)
def test_products_sharing_a_prime_meet_the_oracles(G):
    # In C4 x C12, the index-4 pair of C4 with the index-12 pair of C12 has
    # class c = 3 of (Z/4)*; its kernel takes b = 7, the least unit mod 12
    # that is 3 mod 4, since b = 3 is no unit mod 12 and gives a wrong kernel
    check_catalog_oracles(G)


@pytest.mark.slow
def test_every_small_product_sharing_a_prime_meets_the_oracles():
    factors = [gr.MetacyclicGroup(*P) for P in presentations(8) if P[0] * P[1] > 1]
    products = [gr.direct_product(A, B) for A in factors for B in factors
                if A.order * B.order <= 48 and math.gcd(A.order, B.order) > 1]
    assert len(products) == 1467
    for G in products:
        check_catalog_oracles(G)


def test_closed_form_regime_mismatch():
    # K is normal in H but not in G, so the G-conjugates of epsilon are not
    # epsilons of (H, K) and the closed form does not apply
    G = sh.p5_group(1, 3)
    alg = id_.GroupAlgebra(G, 2)
    pair = sh.ShodaPair(gr.subgroup_closure(G, [G.encode(2, 1), G.encode(0, 3)]),
                        gr.subgroup_closure(G, [G.encode(8, 22), G.encode(0, 9)]))
    assert pair.label() == "(<a^2*b, b^3> (order 81), <a^8*b^22, b^9> (order 27))"
    assert pair.H.is_normal_in_G and not pair.K.is_normal_in_G
    with pytest.raises(id_.RegimeMismatch):
        id_.pci_table_closed_form(alg, pair, id_.cosets_and_orbits(G, pair, 2).orbit_reps[0])


# (h0, orbit_reps, stab_index, action_exps, omega0, SHA-256 of the int64 pci
# vectors of all orbit reps, concatenated) for each catalogued pair of the
# order-1155 analogue G21 x G55, in catalog order
ANALOGUE_1155_PINS = {
    2: [
        (0, [0], 1, (0,), 1,
         "1f358c99146d40e7b82bae1cfff6113eb0d82ba5dd9efbfed63ba9c3e417ce6f"),
        (1, [1], 1, (1,), 1,
         "f5022aca8e6e5a417a855590afb17e809ca08b46befc4001192a790e7320e7c5"),
        (5, [1], 5, (1, 3, 4, 5, 9), 1,
         "52225c794043523d486c5214690ef7a79929c6016d583dfdc34d20c01f2f368d"),
        (55, [1], 1, (1,), 1,
         "80cc4775bf9a7d11879dfd125f7a5f47fb7ab0f2438100d3d1db46ef7dc7a050"),
        (56, [1, 7], 1, (1,), 1,
         "d95ac113963b330181ed51b724bf634df03c602dc0c2d00d2def694c2da00e50"),
        (60, [1, 5], 5, (1, 4, 16, 25, 31), 1,
         "a992d2f3921e9a79661718ba7a8123b09b07510d7d54c40195566afd2ada08e2"),
        (165, [1, 3], 3, (1, 2, 4), 1,
         "5c56940fb9de86ab1313944a47088ac14685c63246a4bf278e410e34e4b8dbb8"),
        (166, [1, 3], 3, (1, 11, 16), 1,
         "aecddbcf13bd076c5463eb800f65d65ead6caa15604bfd80722cf1d79284a899"),
        (170, [1, 3], 15, (1, 4, 9, 15, 16, 23, 25, 36, 37, 53, 58, 60, 64, 67, 71), 1,
         "2d33a3f3f01d60ea0210777623dbbd31915a8dd81dce9fc7e75deb6c79f2731e"),
    ],
    13: [
        (0, [0], 1, (0,), 1,
         "7daf4c7726e1b05ce9e79842d6f79c5e10dc09cde8b54feaee826b1a3bcffb31"),
        (1, [1], 1, (1,), 1,
         "39d1e2404c626331cf196e34559a58baaacd3eae289ff0ec1c51bf1547e2ba6d"),
        (5, [1], 5, (1, 3, 4, 5, 9), 1,
         "87196a267c2345fc842a95ad26197368547b258eb43635b38da794d121c92ed3"),
        (55, [1, 2], 1, (1,), 1,
         "06c78990c21305fe59b06c4b260506e191e1c090e2a785160f52259f193bf728"),
        (56, [1, 2], 1, (1,), 1,
         "f87b40d833abea6b88672ba18a6286873c08753c4a25dfa6b96c5c41aa898155"),
        (60, [1, 2], 5, (1, 4, 16, 25, 31), 1,
         "0d84409d57770c7252d214948e7142c2b505c07cb2e8e6b563e7e59af1405d0d"),
        (165, [1], 1, (1, 2, 4), 3,
         "50f1fece358bbda08df5b7005b57d39af070cc951fd37d18c3f48722285274f3"),
        (166, [1, 2], 1, (1, 11, 16), 3,
         "b38d4177aab310942b32d693f451104a1c2c34692c7e0b0b6cd9484839e86bcd"),
        (170, [1, 2], 5, (1, 4, 9, 15, 16, 23, 25, 36, 37, 53, 58, 60, 64, 67, 71), 3,
         "ae92696d89c981545c2bdb6afb05db96f52bc6bcda77f3e04510116b26fc9e1d"),
    ],
}


@pytest.mark.parametrize("q", sorted(ANALOGUE_1155_PINS))
def test_analogue_1155_orbit_data_and_pcis_pinned(q):
    G1 = gr.MetacyclicGroup(7, 3, 4, name="G21")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    G = gr.direct_product(G1, G2)
    alg = id_.GroupAlgebra(G, q)
    pairs = sh.ssp_catalog(G)
    assert len(pairs) == len(ANALOGUE_1155_PINS[q])
    for pair, pin in zip(pairs, ANALOGUE_1155_PINS[q]):
        od = id_.cosets_and_orbits(G, pair, q)
        digest = hashlib.sha256()
        for k in od.orbit_reps:
            digest.update(id_.pci(alg, pair, k).value.vec.tobytes())
        got = (od.h0, od.orbit_reps, od.stab_index, od.action_exps, od.omega0, digest.hexdigest())
        assert got == pin, pair.label()
