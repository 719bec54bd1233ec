"""Acceptance criteria, one test per criterion, each printing a PASS line."""

import math
import time

import numpy as np
import pytest

from metacode import code as co
from metacode import ffield as ff
from metacode import groups as gr
from metacode import idem as id_
from metacode import shoda as sh
from metacode import units as un
from metacode.examples import run_examples
from conftest import suite_groups
from helpers import odd_prime_powers_leq, oracle_vanishes, phi_all_vanish


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


# -- 1: idempotent suite -------------------------------------------------------


def test_criterion_1_idempotent_suite():
    t0 = time.time()
    for G, q in suite_groups():
        alg = id_.GroupAlgebra(G, q)
        idems = id_.pcis_for_group(alg)
        for e in idems:
            assert e.value.is_idempotent(), (G.name, q, e)
            assert e.value.is_central(), (G.name, q, e)
        for i, e in enumerate(idems):
            for f in idems[i + 1 :]:
                assert (e.value * f.value).weight() == 0, (G.name, q)
        assert id_.sum_idempotents(alg, idems) == alg.one(), (G.name, q)
        total = sum(r.dim for r in id_.census(G, q))
        assert total == G.order, (G.name, q)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s, budget is 10s"
    _report(1, f"17-algebra idempotent suite in {elapsed:.1f}s")


# -- 2: closed forms == Eq.(1) -------------------------------------------------


def test_criterion_2_closed_form_oracle():
    # every catalogued family: the suite matrix, extra instances that realise
    # the branches the matrix cannot (q = +1/-1 mod 4 and both
    # subgroup-membership splits), D8 and Q8, the order-1155 analogue and the
    # four order-3^5 groups, whose catalogs hold pairs with K not normal in G
    instances = suite_groups() + [
        (gr.ordinary_metacyclic(2, 4), 5),   # 1+2^(n-1) in <q> mod 2^n
        (gr.ordinary_metacyclic(3, 3), 17),  # 1+p^(n-1) not in <q> mod p^n
        (gr.dihedral(32), 7),                # -1 in <q> mod 2^j at j = 3
        # semidihedral rows (b acts by a -> a^(N/2 - 1)) and deeper 2-power tables
        (gr.semidihedral(16), 7),
        (gr.semidihedral(32), 7),
        (gr.quaternion(32), 17),
        (gr.dihedral(64), 17),
        (gr.dihedral(8), 3),
        (gr.dihedral(8), 5),
        (gr.quaternion(8), 3),
        (gr.quaternion(8), 7),
        (gr.direct_product(gr.MetacyclicGroup(7, 3, 4, name="G21"),
                           gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")), 2),
    ] + [(sh.p5_group(f, 3), 2) for f in (1, 2, 3, 4)]
    checked = refused = 0
    branches = set()
    for G, q in instances:
        alg = id_.GroupAlgebra(G, q)
        for pair in sh.ssp_catalog(G):
            od = id_.cosets_and_orbits(G, pair, q)
            normal = pair.normaliser.order == G.order
            for k in od.orbit_reps:
                if not normal:
                    with pytest.raises(id_.RegimeMismatch):
                        id_.pci_table_closed_form(alg, pair, k)
                    refused += 1
                    continue
                ref = id_.pci(alg, pair, k)
                closed = id_.pci_table_closed_form(alg, pair, k)
                assert np.array_equal(closed.value.vec, ref.value.vec), (
                    G.name, q, pair.label(), k,
                )
                checked += 1
        branches.add((q % 4 == 1, G.name.split("^")[0] if "OM" in G.name else "DQ"))
    assert checked >= 252 and refused == 2
    assert {b[0] for b in branches} == {True, False}  # both q = +-1 mod 4
    _report(2, f"{checked} rows equal the conjugate-sum construction exactly, "
               f"{refused} with K not normal in G refused")


# -- 3: trace predicate sweeps -------------------------------------------------


def test_criterion_3_trace_predicates():
    t0 = time.time()
    disagreements = []

    # 2-power sweep: odd prime powers q <= 100, i <= 10
    for q in odd_prime_powers_leq(100):
        for i in range(1, 11):
            pred = ff.trace_vanishes_2power(q, i)
            if pred != oracle_vanishes(q, 2**i, 1):
                disagreements.append(("2power", q, i))

    # two odd primes: p1 < p2 <= 13 with p1 not dividing p2 - 1, j <= 3
    pairs = [
        (p1, p2)
        for p1 in (3, 5, 7, 11)
        for p2 in (5, 7, 11, 13)
        if p1 < p2 and (p2 - 1) % p1 != 0
    ]
    for q in (2, 3, 5):
        for p1, p2 in pairs:
            if math.gcd(q, p1 * p2) != 1:
                continue
            for j1 in (1, 2, 3):
                for j2 in (1, 2, 3):
                    m = p1**j1 * p2**j2
                    if ff.uniform_trace_vanishes(q, m):
                        # predicate and oracle are both k-free True here;
                        # the cyclotomic residue certifies every unit k
                        assert phi_all_vanish(q, m), (q, p1, p2, j1, j2)
                        assert ff.trace_vanishes_two_odd_primes(q, p1, p2, j1, j2, 1)
                        continue
                    for k in range(1, m):
                        if math.gcd(k, m) != 1:
                            continue
                        pred = ff.trace_vanishes_two_odd_primes(q, p1, p2, j1, j2, k)
                        if pred != oracle_vanishes(q, m, k):
                            disagreements.append(("5.1", q, p1, p2, j1, j2, k))

    # mixed 2 * p: odd q, p <= 13, j <= 3
    for q in (3, 5, 7):
        for p in (3, 5, 7, 11, 13):
            if math.gcd(q, 2 * p) != 1:
                continue
            for j1 in (1, 2, 3):
                for j2 in (1, 2, 3):
                    m = 2**j1 * p**j2
                    if ff.uniform_trace_vanishes(q, m):
                        assert phi_all_vanish(q, m), (q, p, j1, j2)
                        assert ff.trace_vanishes_2p(q, p, j1, j2, 1)
                        continue
                    for k in range(1, m):
                        if math.gcd(k, m) != 1:
                            continue
                        pred = ff.trace_vanishes_2p(q, p, j1, j2, k)
                        if pred != oracle_vanishes(q, m, k):
                            disagreements.append(("5.2", q, p, j1, j2, k))

    elapsed = time.time() - t0
    assert not disagreements, disagreements[:10]
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"
    _report(3, f"trace predicate sweeps, zero disagreements, {elapsed:.1f}s")


# -- 4: isomorphism criterion ---------------------------------------------------


def test_criterion_4_isomorphism():
    for n in (3, 4, 5):
        order = 2 ** (n + 1)
        D, SD, Q = gr.dihedral(order), gr.semidihedral(order), gr.quaternion(order)
        for q in (3, 5, 7, 9, 11, 13, 17, 31):
            assert co.algebra_isomorphic(D, Q, q), (n, q)
            predicted = q % 2 ** (n - 1) != 2 ** (n - 1) - 1
            assert co.algebra_isomorphic(D, SD, q) == predicted, (n, q)
    _report(4, "F_qD = F_qQ always; F_qD = F_qSD iff q != -1 mod 2^(n-1)")


# -- 5: published code parameters ------------------------------------------------


def test_criterion_5_paper_code_parameters(code_registry):
    t0 = time.time()
    results = run_examples()
    failures = [r for r in results if r["status"] == "FAIL"]
    assert not failures, failures
    for r in results:
        code_registry[r["tag"]] = r
    elapsed = time.time() - t0
    assert elapsed < 600.0
    audits = [r for r in results if r["status"] == "AUDIT-DISCREPANCY"]
    _report(
        5,
        f"{len(results)} published code parameters reproduced exactly "
        f"({len(audits)} audit discrepancies) in {elapsed:.1f}s",
    )


# -- 6: theorem bound audits -----------------------------------------------------


def test_criterion_6_bound_audits():
    audited = 0
    for G, q in suite_groups():
        alg = id_.GroupAlgebra(G, q)
        for pair in sh.ssp_catalog(G):
            od = id_.cosets_and_orbits(G, pair, q)
            for k in od.orbit_reps:
                e = id_.pci(alg, pair, k)
                c = co.ideal_to_code(alg, e)
                if c.k == 0 or q**c.k > 100_000_000 and q ** (c.n - c.k) > 100_000_000:
                    continue
                d = co.min_distance(c)[0]
                if pair.H.order == G.order:
                    tb = co.theorem21_bounds(alg, pair.K, e)
                    assert c.k == tb.dim, (G.name, q, pair.label())
                    assert tb.details["basis_rank"] == tb.dim
                    assert tb.contains(d), (G.name, q, pair.label(), d, tb)
                else:
                    # proper-H components: the generalised coset bound
                    # 2|K| <= d <= wt(e) plus the Eq.(2) dimension
                    size = G.order // pair.H.order
                    assert c.k == size * size * (od.o // od.stab_index)
                    assert 2 * pair.K.order <= d <= e.value.weight(), (
                        G.name, q, pair.label(), d,
                    )
                audited += 1

    # ordinary metacyclic 2-group corollary: dim and window for e_{2^n,k}
    G16 = gr.ordinary_metacyclic(2, 4)
    alg = id_.GroupAlgebra(G16, 3)
    pair = [p for p in sh.ssp_catalog(G16) if p.H.order < 16][0]
    od = id_.cosets_and_orbits(G16, pair, 3)
    e = id_.pci(alg, pair, od.orbit_reps[0])
    c = co.ideal_to_code(alg, e)
    o = ff.mult_order(3, 8)
    member = (1 + 4) in {pow(3, t, 8) for t in range(o)}
    assert c.k == (2 * o if member else 4 * o)
    d = co.min_distance(c)[0]
    sign, i0, _ = ff.two_adic_branch(3)
    n = 3
    hi = (2**i0 - 2) if i0 < n else 2**i0
    assert 2 <= d <= hi, (d, hi)
    audited += 1

    # odd ordinary metacyclic corollary: e_{p^n,k} dimension and window
    for q in (2, 5):
        G27 = gr.ordinary_metacyclic(3, 3)
        alg = id_.GroupAlgebra(G27, q)
        pair = [p for p in sh.ssp_catalog(G27) if p.H.order == 9][0]
        od = id_.cosets_and_orbits(G27, pair, q)
        e = id_.pci(alg, pair, od.orbit_reps[0])
        c = co.ideal_to_code(alg, e)
        o = ff.mult_order(q, 9)
        omega0 = od.omega0
        assert c.k == 3 * o * math.gcd(omega0, 3)
        d = co.min_distance(c)[0]
        i0p = ff.odd_prime_i0(q, 3)
        hi = 3**2 if 2 <= i0p else 3**i0p
        assert 2 <= d <= hi, (q, d, hi)
        audited += 1

    # Theorem 6.1 audits for the worked beta-cut codes
    t61 = [
        (gr.MetacyclicGroup(13, 3, 9, name="G39"), 2, 6),
        (gr.MetacyclicGroup(13, 3, 9, name="G39"), 5, 6),
        (gr.MetacyclicGroup(19, 3, 7, name="G57"), 2, 6),
        (gr.MetacyclicGroup(5, 4, 2, name="G20"), 3, 8),
        (gr.dihedral(14), 3, 4),
        (gr.dihedral(14), 5, None),
    ]
    for G, q, expect_d in t61:
        alg = id_.GroupAlgebra(G, q)
        pair = [p for p in sh.ssp_catalog(G) if p.H.order == G.N][0]
        e = id_.pci(alg, pair, 1)
        f = un.conjugate_idempotent(alg, e, 1)
        c = co.ideal_to_code(alg, f)
        tb = co.theorem61_params(G, q, 1, 1)
        assert c.k == tb.dim, (G.name, q)
        d = co.min_distance(c)[0]
        if expect_d is not None:
            assert d == expect_d
        assert tb.contains(d), (G.name, q, d, tb)
        audited += 1
    _report(6, f"{audited} dimension formulas and distance windows audited")


# -- 7: unit suite ----------------------------------------------------------------


def test_criterion_7_unit_suite():
    checked = []
    # every constructor verifies value * inverse = identity
    G39 = gr.MetacyclicGroup(13, 3, 9, name="G39")
    alg2 = id_.GroupAlgebra(G39, 2)
    units = [
        un.bicyclic(alg2, G39.b, G39.a),
        un.bicyclic(alg2, G39.b, G39.a, mirrored=True),
        un.alternating(alg2, G39.a, 3),
    ]
    alg3 = id_.GroupAlgebra(gr.MetacyclicGroup(5, 4, 2, name="G20"), 3)
    units.append(un.bass(alg3, alg3.G.a, 2, 4))
    units.append(
        un.unit_from_element(alg3, alg3.element({0: 1, alg3.G.a: 1}))
    )
    for u in units:
        assert u.verify(), u.kind
        checked.append(u.kind)

    # corner units and the distance monotonicity on the worked instances
    instances = [
        (gr.dihedral(14), 3, "constructed"),
        (gr.dihedral(14), 5, "constructed"),
        (G39, 2, "alternating"),
        (G39, 5, "constructed"),
        (gr.MetacyclicGroup(19, 3, 7, name="G57"), 2, "alternating"),
        (gr.MetacyclicGroup(5, 4, 2, name="G20"), 3, "adhoc"),
    ]
    for G, q, kind in instances:
        alg = id_.GroupAlgebra(G, q)
        pair = [p for p in sh.ssp_catalog(G) if p.H.order == G.N][0]
        e = id_.pci(alg, pair, 1)
        B = gr.subgroup_closure(G, [G.b])
        if kind == "alternating":
            u = un.alternating(alg, G.a, 3)
            f = un.conjugate_idempotent(alg, e, 1, u)
        elif kind == "adhoc":
            u = un.unit_from_element(alg, alg.element({G.identity: 1, G.a: 1}))
            f = un.conjugate_idempotent(alg, e, 1, u)
        else:
            u = un.constructed_unit(alg, e, 1, 1, B)
            assert (u.value * u.inverse) == e.value
            bh = alg.hat(B)
            f = id_.Idempotent(
                e.value * (bh + (bh * alg.basis(G.a)) * (alg.one() - bh)),
                e.pair, e.k, "left",
            )
        base = un.conjugate_idempotent(alg, e, 1)
        assert f.value * f.value == f.value
        c0 = co.ideal_to_code(alg, base)
        c1 = co.ideal_to_code(alg, f)
        assert c0.k == c1.k, (G.name, q)  # conjugation preserves the rank
        d0 = co.min_distance(c0)[0]
        d1 = co.min_distance(c1)[0]
        assert d0 <= d1, (G.name, q, d0, d1)
        checked.append(f"{kind}@{G.name}/F{q}")
    _report(7, f"unit invertibility and distance monotonicity: {len(checked)} checks")


# -- 8: the order-56595 regime and its scaled analogue -----------------------------


@pytest.fixture(scope="module")
def big_product():
    G1 = gr.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    return gr.direct_product(G1, G2)


def test_criterion_8_full_scale(big_product):
    G = big_product
    assert G.order == 56595
    alg = id_.GroupAlgebra(G, 2)
    worst = 0.0
    count = 0
    for pair in sh.ssp_catalog(G):
        od = id_.cosets_and_orbits(G, pair, 2)
        t0 = time.time()
        e = id_.pci(alg, pair, od.orbit_reps[0])
        assert e.value.is_idempotent(), pair.label()
        assert e.value.is_central(), pair.label()
        worst = max(worst, time.time() - t0)
        count += 1
    assert count == 15
    assert worst < 60.0, f"slowest idempotent check took {worst:.1f}s"
    _report(8, f"full-scale |G|=56595: {count} pci families verified, "
               f"worst {worst:.1f}s (budget 60s each); see analogue test")


def test_criterion_8_scaled_analogue():
    # the 7^1 analogue of the order-56595 construction: full census plus
    # dimension identities and interval-certified distance windows
    G1 = gr.MetacyclicGroup(7, 3, 4, name="G21")
    G2 = gr.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    G = gr.direct_product(G1, G2)
    assert G.order == 1155
    alg = id_.GroupAlgebra(G, 2)
    idems = id_.pcis_for_group(alg)
    for e in idems:
        assert e.value.is_idempotent() and e.value.is_central()
    assert id_.sum_idempotents(alg, idems) == alg.one()
    rows = id_.census(G, 2)
    assert sum(r.dim for r in rows) == 1155
    assert len(rows) == len(idems)

    # dimension pattern of the five proper-H families (j1 = 1 scale)
    expectations = {
        (7, "G2-full"): 9,     # (<a1> x G2, K1 x G2):    M3(F_2)
        (35, "a2"): 36,        # (<a1> x G2, K1 x <a2>):  M3(F_{2^4})
        (11, "G1-full"): 50,   # (G1 x <a2>, G1 x 1):     M5(F_4)
        (33, "a1"): 50,        # (G1 x <a2>, <a1> x 1):   M5(F_4)
        (77, "bottom"): 450,   # (<a1> x <a2>, K1 x 1):   M15(F_4)
    }
    measured = {}
    windows_checked = 0
    for pair in sh.ssp_catalog(G):
        if pair.H.order == G.order:
            continue
        od = id_.cosets_and_orbits(G, pair, 2)
        e = id_.pci(alg, pair, od.orbit_reps[0])
        c = co.ideal_to_code(alg, e)
        size = G.order // pair.H.order
        assert c.k == size * size * (od.o // od.stab_index)
        measured[pair.index] = c.k
        # distance window by interval certificate: the coset lower bound
        # 2|K| and wt(e) must be consistent with the measured interval
        lo, hi, _ = co.min_distance(c, budget=2_000_000, seed=1)
        w_lo, w_hi = 2 * pair.K.order, e.value.weight()
        assert lo <= w_hi and w_lo <= hi, (pair.label(), (lo, hi), (w_lo, w_hi))
        windows_checked += 1
    assert sorted(measured.values()) == sorted(expectations.values())
    _report(8, f"scaled analogue |G|=1155: census exact, dims {sorted(measured.values())}, "
               f"{windows_checked} interval-window consistency checks")


# -- 9: the order-p^5 catalogs and decompositions ----------------------------------


def test_criterion_9_p5_families():
    t0 = time.time()
    p = 3

    def expected_multiset(family, q):
        delta = (p - 1) // ff.mult_order(q, p)
        o1, o2, o3, o4 = (ff.mult_order(q, p**j) for j in (1, 2, 3, 4))
        comps = []

        def add(size, deg, mult):
            comps.extend([(size, deg)] * mult)

        add(1, 1, 1)
        add(1, o1, delta * (p + 1))
        if family == 1:
            add(1, o2, delta * p)
            add(1, o3, delta * p)
            add(p, o1, delta)
            add(p, o3 // p, delta * (p - 1))
            add(p, o2 // p, delta * (p - 1))
        elif family == 2:
            add(1, o2, delta * p)
            add(p, o2 // p, delta * (p - 1))
            add(p, o1, delta)
            add(p * p, o3 // (p * p), delta)
        elif family == 3:
            add(1, o2, delta * p * (p + 1))
            add(p, o3 // p, delta * p)
        else:
            add(1, o2, delta * p)
            add(1, o3, delta * p)
            add(p, o4 // p, delta)
        return tuple(sorted(comps))

    reports = {}
    for family in (1, 2, 3, 4):
        G = sh.p5_group(family, p)
        pairs = sh.ssp_catalog(G)
        for pair in pairs:
            ok, why = sh.verify_ssp(G, pair, bound=300)
            assert ok, (family, pair.label(), why)
        for q in (2, 5, 7):
            alg = id_.GroupAlgebra(G, q)
            idems = id_.pcis_for_group(alg, pairs)
            for e in idems:
                assert e.value.is_idempotent() and e.value.is_central()
            assert id_.sum_idempotents(alg, idems) == alg.one()
            rep = co.wedderburn_report(G, q)
            flat = tuple(
                sorted((s, d) for (s, d, mult) in rep.components for _ in range(mult))
            )
            assert flat == expected_multiset(family, q), (family, q)
            reports[(family, q)] = flat
    for q in (2, 5, 7):
        assert len({reports[(f, q)] for f in (1, 2, 3, 4)}) == 4
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(9, f"p^5 catalogs verified; four decompositions match and are "
               f"pairwise distinct for q in (2,5,7); {elapsed:.1f}s")
