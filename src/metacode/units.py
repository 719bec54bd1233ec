"""Bicyclic, Bass, alternating, and corner units; conjugated idempotents."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ffield import rref_mod
from .groups import Subgroup, subgroup_closure
from .idem import AlgebraElement, GroupAlgebra, Idempotent


class UnitError(Exception):
    pass


class BadParameters(UnitError):
    pass


class WrongCharacteristic(UnitError):
    pass


@dataclass
class UnitElement:
    value: AlgebraElement
    inverse: AlgebraElement
    kind: str
    identity: AlgebraElement  # 1, or the component identity e for corner units

    def verify(self) -> bool:
        return (
            self.value * self.inverse == self.identity
            and self.inverse * self.value == self.identity
        )


def group_sum(alg: GroupAlgebra, g: int) -> AlgebraElement:
    """g-tilde = 1 + g + ... + g^(order-1), without normalisation."""
    return power_sum(alg, g, alg.G.element_order(g))


def power_sum(alg: GroupAlgebra, g: int, k: int) -> AlgebraElement:
    """1 + g + ... + g^(k-1)."""
    powers = alg.G.power(g, np.arange(k))
    return AlgebraElement(alg, np.bincount(powers, minlength=alg.G.order))


def bicyclic(alg: GroupAlgebra, g: int, h: int, mirrored: bool = False) -> UnitElement:
    """b(g, h~) = 1 + (1-h) g h~ (or the mirrored 1 + h~ g (1-h))."""
    G = alg.G
    ht = group_sum(alg, h)
    one = alg.one()
    diff = one - alg.basis(h)
    mid = (ht * alg.basis(g)) * diff if mirrored else (diff * alg.basis(g)) * ht
    return UnitElement(one + mid, one - mid, "bicyclic", one)


def bass(alg: GroupAlgebra, x: int, k: int, m: int) -> UnitElement:
    """u_{k,m}(x) = (1 + x + ... + x^(k-1))^m + ((1-k^m)/n) x~."""
    n = alg.G.element_order(x)
    if math.gcd(k, n) != 1:
        raise BadParameters(f"k={k} not coprime to order {n}")
    if pow(k, m, n) != 1:
        raise BadParameters(f"k^m = {pow(k, m, n)} != 1 mod {n}")
    if n % alg.q == 0:
        raise BadParameters(f"order {n} not invertible mod {alg.q}")

    def u(base: int, kk: int) -> AlgebraElement:
        head = power_sum(alg, base, kk)
        acc = alg.one()
        for _ in range(m):
            acc = acc * head
        scalar = ((1 - kk**m) // n) % alg.q
        return acc + group_sum(alg, base).scaled(scalar)

    l = pow(k, -1, n)
    return UnitElement(u(x, k), u(alg.G.power(x, k), l), "bass", alg.one())


def alternating(alg: GroupAlgebra, g: int, k: int) -> UnitElement:
    """u_k(g) = 1 + g + ... + g^(k-1) in characteristic 2, with parity inverse."""
    if alg.q != 2:
        raise WrongCharacteristic("alternating units live in characteristic 2")
    n = alg.G.element_order(g)
    if n % 2 == 0:
        raise BadParameters("g must have odd order")
    if math.gcd(k, 2 * n) != 1:
        raise BadParameters(f"k={k} not coprime to 2*{n}")
    k1 = pow(k, -1, n)
    inv = power_sum(alg, alg.G.power(g, k), k1)
    if k1 % 2 == 0:
        inv = inv + group_sum(alg, g)
    return UnitElement(power_sum(alg, g, k), inv, "alternating", alg.one())


def constructed_unit(
    alg: GroupAlgebra,
    e: Idempotent,
    s: int,
    k: int,
    B: Subgroup,
) -> UnitElement:
    """e + s B^ a^k (1 - B^) e: a unit of the corner algebra with identity e."""
    if s % alg.q == 0:
        raise BadParameters("s must be nonzero in GF(q)")
    G = alg.G
    bh = alg.hat(B)
    mid = ((bh * alg.basis(G.power(G.a, k), s)) * (alg.one() - bh)) * e.value
    return UnitElement(e.value + mid, e.value - mid, "constructed", e.value)


def unit_from_element(alg: GroupAlgebra, x: AlgebraElement) -> UnitElement:
    """Invert an explicit algebra element by solving the linear system x*y = 1.

    Used for ad-hoc conjugators like 1 + a that carry no closed-form inverse;
    the groups involved are small, so exact elimination is cheap.
    """
    G, q = alg.G, alg.q
    n = G.order
    A = np.empty((n, n), dtype=np.int64)  # (x*y)[g] = sum_h x[g h^-1] y[h]
    for start, block in G.grid(G.elements(), G.inv_vec(np.arange(n))):
        A[start:start + len(block)] = x.vec[block]
    rhs = np.zeros((n, 1), dtype=np.int64)
    rhs[G.identity, 0] = 1
    R, pivots = rref_mod(np.hstack([A, rhs]), q)
    if len(pivots) != n or n in pivots:
        raise BadParameters("element is not invertible")
    y = np.zeros(n, dtype=np.int64)
    y[pivots] = R[: len(pivots), n]
    inv = AlgebraElement(alg, y)
    u = UnitElement(x, inv, "adhoc", alg.one())
    if not u.verify():
        raise BadParameters("inverse verification failed")
    return u


def conjugate_idempotent(
    alg: GroupAlgebra, e: Idempotent, beta: int, u: Optional[UnitElement] = None
) -> Idempotent:
    """The unit conjugate u (e <b^beta>^) u^-1; u = None gives the plain cut.

    This orientation reproduces all the published example parameters; the
    opposite one loses distance on the order-57 instance.
    """
    G = alg.G
    B = subgroup_closure(G, [G.power(G.b, beta)])
    f = e.value * alg.hat(B)
    if u is not None:
        f = (u.value * f) * u.inverse
    return Idempotent(f, e.pair, e.k, "left")
