import json
import random

import numpy as np
import pytest

import helpers
from metacode import groups as gr
from metacode import idem as id_
from metacode import shoda as sh


def test_d8_multiplication():
    D8 = gr.dihedral(8)
    # (a b)(a) = b since b a = a^-1 b
    assert D8.mul(D8.encode(1, 1), D8.encode(1, 0)) == D8.encode(0, 1)
    g = D8.encode(3, 1)
    assert D8.mul(D8.identity, g) == g


def test_q16_folding():
    Q16 = gr.quaternion(16)
    assert Q16.mul(Q16.b, Q16.b) == Q16.encode(4, 0)  # b^2 = a^4


def test_presentation_validation():
    with pytest.raises(gr.InconsistentPresentation):
        gr.MetacyclicGroup(4, 2, 2, 0)  # 2^2 != 1 mod 4, and gcd(2,4) != 1
    with pytest.raises(gr.InconsistentPresentation):
        gr.MetacyclicGroup(8, 2, 3, 1)  # s(r-1) = 2 != 0 mod 8


def test_associativity_and_inverses_random():
    rng = random.Random(11)
    for G in (gr.dihedral(14), gr.quaternion(16), gr.MetacyclicGroup(13, 3, 9),
              gr.c2_x_q8()):
        for _ in range(60):
            g1, g2, g3 = (rng.randrange(G.order) for _ in range(3))
            assert G.mul(G.mul(g1, g2), g3) == G.mul(g1, G.mul(g2, g3))
            assert G.mul(g1, G.inv(g1)) == G.identity
        allv = np.arange(G.order, dtype=np.int64)
        assert np.array_equal(
            G.mul_vec(allv, G.inv_vec(allv)), np.zeros(G.order, dtype=np.int64)
        )


def test_vectorised_tables_agree_with_scalar():
    g1155 = gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                              gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    rng = random.Random(3)
    for G in (gr.MetacyclicGroup(9, 3, 4, name="OM27"), gr.c2_x_q8(), g1155):
        ys = [rng.randrange(G.order) for _ in range(min(G.order, 300))]
        rows = gr._GRID_CELLS // len(ys)
        xs = [rng.randrange(G.order) for _ in range(rows + 3)]  # two blocks
        starts = []
        for start, block in G.grid(xs, ys):
            assert block.size <= gr._GRID_CELLS
            starts.append(start)
            for i, x in enumerate(xs[start:start + len(block)]):
                assert block[i].tolist() == [G.mul(x, y) for y in ys]
        assert starts == [0, rows]
        for x in rng.sample(range(G.order), 5):
            conj = G.conj_table(x)
            assert conj.tolist() == [helpers.scalar_conjugate(G, h, x) for h in range(G.order)]


def test_subgroup_closure():
    D8 = gr.dihedral(8)
    triv = gr.subgroup_closure(D8, [D8.identity])
    assert triv.order == 1
    H = gr.subgroup_closure(D8, [D8.encode(2, 0), D8.b])
    assert H.order == 4
    G39 = gr.MetacyclicGroup(13, 3, 9)
    A = gr.subgroup_closure(G39, [G39.a])
    assert A.order == 13 and A.is_normal_in_G
    assert gr.cyclic_quotient_generator(G39, A, helpers.trivial_subgroup(G39)) is not None


def test_quotient_is_cyclic():
    D8 = gr.dihedral(8)
    full = gr.full_subgroup(D8)
    assert gr.quotient_is_cyclic(D8, full) == D8.identity
    A = gr.subgroup_closure(D8, [D8.a])
    g = gr.quotient_is_cyclic(D8, A)
    assert g is not None and g not in A
    triv = helpers.trivial_subgroup(D8)
    assert gr.quotient_is_cyclic(D8, triv) is None  # D8 is not cyclic
    B = gr.subgroup_closure(D8, [D8.b])
    with pytest.raises(gr.NotNormal):
        gr.cyclic_quotient_generator(D8, gr.full_subgroup(D8), B)


def test_conjugate_normalizer_center():
    D8 = gr.dihedral(8)
    g = D8.encode(1, 0)
    assert helpers.scalar_conjugate(D8, g, D8.identity) == g
    assert helpers.scalar_conjugate(D8, g, D8.b) == D8.encode(3, 0)  # b^-1 a b = a^3
    Q16 = gr.quaternion(16)
    Z = gr.center(Q16)
    assert sorted(Z.elements) == sorted([Q16.identity, Q16.encode(4, 0)])
    B = gr.subgroup_closure(D8, [D8.b])
    N = gr.normalizer(D8, B)
    assert B.order < N.order < D8.order


def test_direct_product():
    G1 = gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    G = gr.direct_product(G1, G2)
    assert G.order == 56595
    triv = gr.cyclic(1)
    Gt = gr.direct_product(gr.dihedral(8), triv)
    assert Gt.order == 8
    assert gr.direct_product(gr.cyclic(2), gr.quaternion(8)).order == 16  # factors may share a prime
    assert gr.c2_x_q8().order == 16


def test_group_from_spec(tmp_path):
    assert gr.group_from_spec({"N": 7, "M": 2, "r": 6, "s": 0}).name.startswith("M(7")
    Q16 = gr.group_from_spec({"N": 8, "M": 2, "r": 7, "s": 4})
    assert Q16.mul(Q16.b, Q16.b) == Q16.encode(4, 0)
    with pytest.raises(gr.InconsistentPresentation):
        gr.group_from_spec({"N": 4, "M": 2, "r": 2, "s": 0})
    with pytest.raises(gr.SchemaError):
        gr.group_from_spec({"M": 2})
    assert gr.group_from_name("D:16").order == 16
    assert gr.group_from_name("Q:16").s == 4
    assert gr.group_from_name("SD:16").r == 3
    assert gr.group_from_name("OM:3^3").r == 4
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"product": [
        {"N": 13, "M": 3, "r": 9}, {"N": 5, "M": 1, "r": 1}], "name": "G39xC5"}))
    G = gr.load_group_file(path)
    assert G.order == 195


@pytest.mark.parametrize("text, match", [
    ('{"N": 7', "not valid JSON"),
    ('{"N": "x", "M": 2}', "'N' must be an integer, got 'x'"),
    ('{"N": 7, "M": 2.5}', "'M' must be an integer"),
    ('{"N": 7, "M": 2, "r": [6]}', "'r' must be an integer"),
    ('{"N": 7, "M": 2, "s": true}', "'s' must be an integer"),
    (b'{"N": 7, "M": 2, "name": "\xff"}', "g.json: cannot read"),  # not UTF-8
    (None, "g.json: cannot read"),  # a directory
])
def test_malformed_group_file_is_a_schema_error(tmp_path, text, match):
    path = tmp_path / "g.json"
    if text is None:
        path.mkdir()
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(gr.SchemaError, match=match):
        gr.load_group_file(path)


def test_family_orders_by_enumeration():
    for n in (3, 4, 5):
        order = 2 ** (n + 1)
        for G in (gr.dihedral(order), gr.quaternion(order), gr.semidihedral(order),
                  gr.ordinary_metacyclic(2, n + 1)):
            assert G.order == order
            seen = {G.identity}
            frontier = [G.identity]
            while frontier:
                nxt = []
                for x in frontier:
                    for g in G.generators():
                        y = G.mul(x, g)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            assert len(seen) == order


def test_generic_family_faithfulness():
    from metacode.ffield import mult_order

    G = gr.MetacyclicGroup(13, 3, 9)
    assert mult_order(G.r, G.N) == G.M  # faithful action for the Eq-3 family


def analogue_1155():
    G1 = gr.MetacyclicGroup(7, 3, 4, name="G21")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    return gr.direct_product(G1, G2)


def _candidate_pairs(G):
    """The catalogued pairs plus pairs that fail each strong Shoda condition."""
    top, triv = gr.full_subgroup(G), helpers.trivial_subgroup(G)
    pairs = [(p.H, p.K) for p in sh.ssp_catalog(G)]
    out = list(pairs) + [(K, H) for H, K in pairs] + [(top, triv)]
    for g in G.generators():
        cyc = gr.subgroup_closure(G, [g])
        out += [(top, cyc), (cyc, triv)]
    return out


def test_conjugation_layer_matches_scalar_oracle(matrix):
    groups = {G.name: G for G, _q in matrix}
    groups["G21 x G55"] = analogue_1155()
    for G in groups.values():
        assert gr.center(G).elements == tuple(helpers.oracle_center(G)), G.name
        for H, K in _candidate_pairs(G):
            where = (G.name, H, K)
            assert H.is_normal_in_G == helpers.oracle_is_normal(G, H), where
            assert gr.normalizer(G, K).elements == tuple(helpers.oracle_normalizer(G, K)), where
            expect = helpers.oracle_quotient_generator(G, H, K)
            if expect == "not normal":
                with pytest.raises(gr.NotNormal):
                    gr.cyclic_quotient_generator(G, H, K)
            else:
                assert gr.cyclic_quotient_generator(G, H, K) == expect, where
            if expect not in ("not normal", None):
                N = gr.normalizer(G, K)
                assert gr.centralizer_mod(G, N, expect, K) == \
                    helpers.oracle_centralizer_mod(G, N, expect, K), where
            pair = sh.ShodaPair(H, K)
            assert sh.verify_ssp(G, pair) == helpers.oracle_verify_ssp(G, H, K), where


def test_subgroup_closure_matches_scalar_bfs(matrix):
    groups = {G.name: G for G, _q in matrix}
    groups["G21 x G55"] = analogue_1155()
    for G in groups.values():
        gen_sets = [G.generators(), [G.identity], G.generators() + G.generators()[:1]]
        gen_sets += [list(S.gens) for p in sh.ssp_catalog(G) for S in (p.H, p.K) if S.gens]
        for gens in gen_sets:
            S = gr.subgroup_closure(G, gens)
            assert list(S.elements) == helpers.oracle_closure(G, gens), (G.name, gens)
            assert S.gens == tuple(dict.fromkeys(gens))


def _sample_subgroups(G):
    """Trivial, whole, each catalogued H and K, and each generator's closure."""
    out = [helpers.trivial_subgroup(G), gr.full_subgroup(G)]
    out += [S for p in sh.ssp_catalog(G) for S in (p.H, p.K)]
    return out + [gr.subgroup_closure(G, [g]) for g in G.generators()]


def test_orbit_labels_give_cosets_and_transitivity(matrix):
    groups = {G.name: G for G, _q in matrix}
    groups["G21 x G55"] = analogue_1155()
    for G in groups.values():
        xs = np.arange(G.order)
        for S in _sample_subgroups(G):
            where = (G.name, S)
            ss = np.array(S.gens or S.elements)
            # x -> x s has the left cosets xS as orbits, x -> s x the right cosets Sx
            left = gr.orbit_labels(G.mul_vec(xs[None, :], ss[:, None]))
            right = gr.orbit_labels(G.mul_vec(ss[:, None], xs[None, :]))
            assert left.tolist() == helpers.oracle_coset_labels(G, S, "left"), where
            assert right.tolist() == helpers.oracle_coset_labels(G, S, "right"), where
            assert (not left.any()) == (S.order == G.order), where


def test_orbit_labels_match_scalar_search_on_random_permutations():
    rng = np.random.default_rng(5)
    for n in (1, 2, 9, 60, 500):
        for rows in (1, 2, 3):
            # a few random cycles each, so some points stay fixed and orbits vary
            perms = np.tile(np.arange(n), (rows, 1))
            for p in perms:
                for _ in range(rng.integers(0, 4)):
                    cycle = rng.choice(n, size=rng.integers(1, min(n, 40) + 1), replace=False)
                    p[cycle] = p[np.roll(cycle, 1)]
            assert gr.orbit_labels(perms).tolist() == helpers.oracle_orbit_labels(perms.tolist())


def test_structured_product_of_generator_less_subgroups(matrix):
    # each pci, and hat(S) for subgroups normal in G or not, with the parts'
    # subgroups stripped of their generators: right cosets from all elements
    for G, q in matrix[::4]:
        alg = id_.GroupAlgebra(G, q)
        x = id_.AlgebraElement(alg, np.random.default_rng(G.order).integers(0, q, G.order))
        elems = [e.value for e in id_.pcis_for_group(alg)]
        elems += [alg.hat(S) for S in _sample_subgroups(G) if S.order % q]
        for e in elems:
            bare = tuple((gr.Subgroup(G, K.elements), terms) for K, terms in e.parts)
            dense = id_.AlgebraElement(alg, e.vec) * x
            assert id_._mul_structured(bare, x) == dense, (G.name, q, e.parts)
            assert id_._mul_structured(e.parts, x) == dense, (G.name, q, e.parts)


def test_cyclic_quotient_generator_not_normal_d8():
    D8 = gr.dihedral(8)
    B = gr.subgroup_closure(D8, [D8.b])
    assert helpers.oracle_quotient_generator(D8, gr.full_subgroup(D8), B) == "not normal"
    with pytest.raises(gr.NotNormal):
        gr.cyclic_quotient_generator(D8, gr.full_subgroup(D8), B)
    assert sh.verify_ssp(D8, sh.ShodaPair(gr.full_subgroup(D8), B)) == \
        (False, "K is not normal in H")


def test_power_matches_repeated_multiplication():
    for G in (gr.quaternion(16), gr.c2_x_q8(), analogue_1155()):
        xs = np.arange(G.order, dtype=np.int64)
        ref = np.full(G.order, G.identity, dtype=np.int64)
        for n in range(12):
            assert np.array_equal(G.power(xs, n), ref), (G.name, n)
            assert G.power(5 % G.order, n) == ref[5 % G.order]
            ref = G.mul_vec(ref, xs)
        x = 7 % G.order
        assert np.array_equal(G.power(x, np.arange(4)),
                              [G.identity, x, G.mul(x, x), G.mul(G.mul(x, x), x)])
        assert G.power(x, -1) == G.inv(x)
        assert G.element_order(x) == helpers.oracle_element_order(G, x)


def test_small_group_tables_match_the_arithmetic():
    # every presentation with N, M >= 2 and N*M <= 24, C2 x Q8, G21 and G55:
    # mul_vec on all of G x G, inv_vec on all of G and power for exponents
    # -3..2|G|+1, read from the tables, equal walks of scalar mul and inv
    small = [gr.MetacyclicGroup(*nmrs) for nmrs in helpers.presentations(24) if min(nmrs[:2]) >= 2]
    small += [gr.c2_x_q8(), analogue_1155().left, analogue_1155().right]
    for G in small:
        xs = np.arange(G.order)
        assert G.mul_vec(xs[:, None], xs[None, :]).tolist() == \
            [[G.mul(x, y) for y in G.elements()] for x in G.elements()], G.name
        assert G.inv_vec(xs).tolist() == [G.inv(x) for x in G.elements()], G.name
        ks = np.arange(-3, 2 * G.order + 2)
        want = []
        for x in G.elements():
            up, down = [G.identity], [G.identity]
            while len(up) < ks[-1] + 1:
                up.append(G.mul(up[-1], x))
            while len(down) < 4:
                down.append(G.mul(down[-1], G.inv(x)))
            want.append([up[k] if k >= 0 else down[-k] for k in ks])
        assert G.power(xs[:, None], ks[None, :]).tolist() == want, G.name
        assert all(f"_{t}_table" in vars(G) for t in ("mul", "inv", "pow")), G.name
    assert len(small) > 200


def test_product_power_goes_through_the_factors(monkeypatch):
    # past the table bound (x1, x2)^n = (x1^n, x2^n): G21 x G55 reads both
    # factors' tables, G1029 x G55 squares on G1029; exponents -3..2|G|+1
    # on a sample of elements, as scalars and broadcast, equal walks of
    # scalar mul and inv.  No power multiplies on the product itself
    big = gr.direct_product(gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029"),
                            gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    rng = np.random.default_rng(30)
    for G in (analogue_1155(), big):
        assert G.order ** 2 > gr._GRID_CELLS
        monkeypatch.setattr(G, "_mul_vec", lambda xs, ys: pytest.fail("power multiplied on the product"))
        xs = np.concatenate([[G.identity, G.generators()[-1]], rng.integers(1, G.order, 2)])
        ks = np.arange(-3, 2 * G.order + 2)
        want = []
        for x in xs.tolist():
            up, down = [G.identity], [G.identity]
            while len(up) < ks[-1] + 1:
                up.append(G.mul(up[-1], x))
            while len(down) < 4:
                down.append(G.mul(down[-1], G.inv(x)))
            want.append([up[k] if k >= 0 else down[-k] for k in ks])
        assert G.power(xs[:, None], ks[None, :]).tolist() == want, G.name
        for x, row in zip(xs.tolist(), want):
            assert G.power(x, ks).tolist() == row
            for i in (0, 2, 3, 4, len(ks) - 1):
                got = G.power(x, int(ks[i]))
                assert type(got) is int and got == row[i], (G.name, x, ks[i])
        for i in (1, 5, len(ks) // 2):
            assert G.power(xs, int(ks[i])).tolist() == [row[i] for row in want]
        assert not any(f"_{t}_table" in vars(G) for t in ("mul", "inv", "pow")), G.name


def test_groups_past_the_table_bound_hold_no_table():
    # G1029 x G55 multiplies through its factors: G55 (55^2 <= _GRID_CELLS)
    # reads its tables, G1029 and D2000 keep their index arithmetic
    big = gr.direct_product(gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029"),
                            gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55"))
    for G in (big, gr.dihedral(2000)):
        assert G.order ** 2 > gr._GRID_CELLS
        xs = np.arange(G.order)
        assert not G.mul_vec(xs, G.inv_vec(xs)).any()
        assert G.power(xs[:7], 3).tolist() == [G.mul(G.mul(x, x), x) for x in range(7)]
    for G in (big, big.left, gr.dihedral(2000)):
        assert not any(f"_{t}_table" in vars(G) for t in ("mul", "inv", "pow")), G.name
    assert "_mul_table" in vars(big.right) and "_inv_table" in vars(big.right)
