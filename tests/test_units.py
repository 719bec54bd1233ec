import pytest

from metacode import code as co
from metacode import groups as gr
from metacode import idem as id_
from metacode import shoda as sh
from metacode import units as un


def faithful_pci(G, q):
    alg = id_.GroupAlgebra(G, q)
    pair = [p for p in sh.ssp_catalog(G) if p.H.order == G.N][0]
    return alg, id_.pci(alg, pair, 1)


def test_bicyclic_units():
    D8 = gr.dihedral(8)
    alg = id_.GroupAlgebra(D8, 3)
    # h = identity: h-tilde = 1 and the unit degenerates to 1
    u = un.bicyclic(alg, D8.b, D8.identity)
    assert u.value == alg.one() and u.verify()
    u = un.bicyclic(alg, D8.b, D8.a)
    assert u.verify()
    # the middle term is nilpotent of square zero
    mid = u.value - alg.one()
    assert (mid * mid).weight() == 0
    um = un.bicyclic(alg, D8.b, D8.a, mirrored=True)
    assert um.verify()


@pytest.mark.parametrize("G,q", [(gr.dihedral(14), 5), (gr.dihedral(16), 3), (gr.quaternion(16), 3)])
def test_mirrored_bicyclic_unit(G, q):
    # b(a, b~) = 1 + (1 - b) a b~ and its mirror 1 + b~ a (1 - b): both are
    # units with the inverse 1 - (middle term), and they differ
    alg = id_.GroupAlgebra(G, q)
    u = un.bicyclic(alg, G.a, G.b)
    um = un.bicyclic(alg, G.a, G.b, mirrored=True)
    ht = un.group_sum(alg, G.b)
    mid = ht * alg.basis(G.a) * (alg.one() - alg.basis(G.b))
    assert um.value == alg.one() + mid and um.inverse == alg.one() - mid
    for unit in (u, um):
        assert unit.value * unit.inverse == alg.one() == unit.inverse * unit.value
    assert mid.weight() > 0 and um.value != u.value


def test_bass_units():
    G = gr.MetacyclicGroup(5, 4, 2)  # a has order 5
    alg = id_.GroupAlgebra(G, 3)
    u = un.bass(alg, G.a, 1, 1)
    assert u.value == alg.one()
    u = un.bass(alg, G.a, 2, 4)  # 2^4 = 16 = 1 mod 5
    assert u.verify()
    assert (1 - 2**4) % 5 == 0  # integrality of the rational coefficient
    with pytest.raises(un.BadParameters):
        un.bass(alg, G.a, 2, 3)  # 2^3 = 3 != 1 mod 5


def test_alternating_units():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg = id_.GroupAlgebra(G39, 2)
    u1 = un.alternating(alg, G39.a, 1)
    assert u1.value == alg.one()
    # u = 1 + a + a^2, k1 = 9 odd, inverse u_9(a^3)
    u = un.alternating(alg, G39.a, 3)
    assert u.value.weight() == 3 and u.verify()
    assert (3 * 9) % 13 == 1
    assert u.inverse.weight() == 9
    with pytest.raises(un.WrongCharacteristic):
        un.alternating(id_.GroupAlgebra(G39, 5), G39.a, 3)


@pytest.mark.parametrize("p,k", [(7, 3), (7, 5), (13, 3), (13, 5), (19, 3), (19, 5)])
def test_alternating_inverse_parity_rule(p, k):
    r = 2
    while pow(r, 3, p) != 1 or r == 1:
        r += 1
    G = gr.MetacyclicGroup(p, 3, r)
    alg = id_.GroupAlgebra(G, 2)
    assert un.alternating(alg, G.a, k).verify()


def test_constructed_unit():
    for q in (3, 5):
        D14 = gr.dihedral(14)
        alg, e = faithful_pci(D14, q)
        B = gr.subgroup_closure(D14, [D14.b])
        u = un.constructed_unit(alg, e, 1, 1, B)
        assert (u.value * u.inverse) == e.value  # the corner identity is e
        assert (u.inverse * u.value) == e.value
        assert u.verify()
    with pytest.raises(un.BadParameters):
        un.constructed_unit(alg, e, 0, 1, B)


def test_unit_from_element():
    G = gr.MetacyclicGroup(5, 4, 2)
    alg = id_.GroupAlgebra(G, 3)
    x = alg.element({G.identity: 1, G.a: 1})  # 1 + a
    u = un.unit_from_element(alg, x)
    assert u.verify()
    with pytest.raises(un.BadParameters):
        un.unit_from_element(alg, alg.hat(gr.subgroup_closure(G, [G.a])))


def test_conjugate_idempotent_basics():
    G39 = gr.MetacyclicGroup(13, 3, 9)
    alg, e = faithful_pci(G39, 2)
    f = un.conjugate_idempotent(alg, e, 1)
    assert f.kind == "left"
    assert f.value * f.value == f.value
    u = un.alternating(alg, G39.a, 3)
    fu = un.conjugate_idempotent(alg, e, 1, u)
    assert fu.value * fu.value == fu.value
    # conjugation preserves the code dimension
    c0 = co.ideal_to_code(alg, f)
    c1 = co.ideal_to_code(alg, fu)
    assert c0.k == c1.k == 12
    # degenerate beta: b^3 = 1 so <b^3> is trivial and e^3 = e
    f3 = un.conjugate_idempotent(alg, e, 3)
    assert f3.value == e.value


def test_unit_conjugation_never_decreases_distance_on_instances():
    # d(e^beta) <= d(e^{beta u}) on the worked instances
    cases = [
        (gr.MetacyclicGroup(13, 3, 9), 2, lambda alg, G: un.alternating(alg, G.a, 3)),
        (gr.MetacyclicGroup(19, 3, 7), 2, lambda alg, G: un.alternating(alg, G.a, 3)),
        (
            gr.MetacyclicGroup(5, 4, 2),
            3,
            lambda alg, G: un.unit_from_element(
                alg, alg.element({G.identity: 1, G.a: 1})
            ),
        ),
    ]
    for G, q, mk in cases:
        alg, e = faithful_pci(G, q)
        u = mk(alg, G)
        base = co.ideal_to_code(alg, un.conjugate_idempotent(alg, e, 1))
        conj = co.ideal_to_code(alg, un.conjugate_idempotent(alg, e, 1, u))
        co.min_distance(base)
        co.min_distance(conj)
        assert base.d_lo <= conj.d_lo, (G.name, q)
