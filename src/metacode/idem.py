"""Cyclotomic orbits and synthesis of primitive central idempotents."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ffield import (
    factorize,
    is_prime,
    mult_order,
    odd_prime_i0,
    trace_table,
    two_power_i_star,
    make_field,
    prime_power,
    NotCoprime,
)
from .groups import FiniteGroup, Subgroup, orbit_labels
from .shoda import ShodaPair, ssp_catalog


class AlgebraError(Exception):
    pass


class NotSemisimple(AlgebraError):
    pass


class RegimeMismatch(AlgebraError):
    pass


class InvariantError(AlgebraError):
    """An invariant the construction guarantees failed to hold."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise InvariantError(what)


class GroupAlgebra:
    """The semisimple group algebra F_q G for prime q coprime to |G|."""

    def __init__(self, G: FiniteGroup, q: int):
        if not is_prime(q):
            raise NotSemisimple(
                f"algebra elements are implemented over prime fields, got q={q}"
            )
        if math.gcd(q, G.order) != 1:
            raise NotSemisimple(f"gcd(q={q}, |G|={G.order}) != 1")
        self.G = G
        self.q = q
        self.field = make_field(q)

    def __repr__(self):
        return f"F{self.q}[{self.G.name}]"

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.G.order, dtype=np.int64))

    def one(self) -> "AlgebraElement":
        vec = np.zeros(self.G.order, dtype=np.int64)
        vec[self.G.identity] = 1
        return AlgebraElement(self, vec)

    def basis(self, g: int, coeff: int = 1) -> "AlgebraElement":
        vec = np.zeros(self.G.order, dtype=np.int64)
        vec[g] = coeff % self.q
        return AlgebraElement(self, vec)

    def element(self, coeffs: Dict[int, int]) -> "AlgebraElement":
        vec = np.zeros(self.G.order, dtype=np.int64)
        for g, c in coeffs.items():
            vec[g] = (vec[g] + c) % self.q
        return AlgebraElement(self, vec)

    def hat(self, S: Subgroup) -> "AlgebraElement":
        """(1/|S|) sum of S; the averaging idempotent S-hat."""
        if len(S.elements) % self.q == 0:
            raise NotCoprime(f"|S| = {len(S.elements)} not invertible mod {self.q}")
        inv = pow(len(S.elements), -1, self.q)
        vec = np.zeros(self.G.order, dtype=np.int64)
        vec[list(S.elements)] = inv
        return AlgebraElement(self, vec, parts=((S, {self.G.identity: 1}),))


Parts = Tuple[Tuple[Subgroup, Dict[int, int]], ...]


class AlgebraElement:
    """Dense coefficient vector over GF(q) indexed by group elements.

    `parts` is optional provenance of the form sum_i hat(K_i) * w_i with
    sparse w_i; it enables the O(parts * |G|) product used by the
    large-scale idempotency checks and is carried only where exact.
    """

    __slots__ = ("alg", "vec", "parts")

    def __init__(self, alg: GroupAlgebra, vec: np.ndarray, parts: Optional[Parts] = None):
        self.alg = alg
        self.vec = vec % alg.q
        self.parts = parts

    # -- basics ---------------------------------------------------------------
    def support(self) -> np.ndarray:
        return np.nonzero(self.vec)[0]

    def weight(self) -> int:
        return int(np.count_nonzero(self.vec))

    def key(self) -> bytes:
        return self.vec.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraElement) and np.array_equal(self.vec, other.vec)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        G, terms = self.alg.G, []
        for g in self.support()[:8]:
            c = int(self.vec[g])
            terms.append(f"{c}*{G.elem_label(int(g))}" if c != 1 else G.elem_label(int(g)))
        more = "" if self.weight() <= 8 else f" + ... ({self.weight()} terms)"
        return " + ".join(terms) + more if terms else "0"

    # -- linear structure -------------------------------------------------------
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        parts = None
        if self.parts is not None and other.parts is not None:
            parts = self.parts + other.parts
        return AlgebraElement(self.alg, (self.vec + other.vec) % self.alg.q, parts)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.alg, (self.vec - other.vec) % self.alg.q)

    def scaled(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.alg, (self.vec * (c % self.alg.q)) % self.alg.q)

    # -- multiplicative structure -----------------------------------------------
    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require(self.alg is other.alg, "factors belong to different algebras")
        G, q = self.alg.G, self.alg.q
        if self.parts is not None and self.weight() > 4 * len(self.parts) * 8:
            return _mul_structured(self.parts, other)
        sa, sb = self.support(), other.support()
        if len(sa) <= len(sb):
            out = _left_translates(G, q, sa, self.vec[sa], other.vec)
        else:
            # (self * other)[x] = sum over h of other[h] * self[x h^-1]
            out = np.empty(G.order, dtype=np.int64)
            cs = other.vec[sb]
            for start, block in G.grid(G.elements(), G.inv_vec(sb)):
                out[start:start + len(block)] = (self.vec[block] * cs % q).sum(axis=1) % q
        return AlgebraElement(self.alg, out)

    def conjugate(self, x: int) -> "AlgebraElement":
        """x^-1 * self * x."""
        G = self.alg.G
        tab = G.conj_table(x)
        vec = np.empty_like(self.vec)
        vec[tab] = self.vec
        parts = None
        if self.parts is not None:
            tab = tab.tolist()
            parts = tuple(
                (
                    Subgroup(G, [tab[s] for s in K.elements], gens=[tab[s] for s in K.gens]),
                    {tab[h]: c for h, c in terms.items()},
                )
                for K, terms in self.parts
            )
        return AlgebraElement(self.alg, vec, parts)

    def is_central(self) -> bool:
        G = self.alg.G
        return all(self.conjugate(g) == self for g in G.generators())

    def is_idempotent(self) -> bool:
        if self.parts is not None:
            return _mul_structured(self.parts, self) == self
        return self * self == self


def _left_translates(G: FiniteGroup, q: int, hs, cs, vec: np.ndarray) -> np.ndarray:
    """sum_i cs[i] * hs[i] * vec: the weighted sum of the left translates of vec.

    Each product is reduced before the sum, so the sum stays exact in int64
    for every q with (q - 1)^2 < 2^63.
    """
    out = np.zeros(G.order, dtype=np.int64)
    cs = np.asarray(cs, dtype=np.int64) % q
    for start, block in G.grid(G.inv_vec(np.asarray(hs, dtype=np.int64)), G.elements()):
        c = cs[start:start + len(block), None]
        out = (out + (c * vec[block] % q).sum(axis=0)) % q
    return out


def _mul_structured(parts: Parts, x: AlgebraElement) -> AlgebraElement:
    """(sum_i hat(K_i) * w_i) * x, exact, in O(sum_i |w_i|) vector passes."""
    alg = x.alg
    G, q = alg.G, alg.q
    out = np.zeros(G.order, dtype=np.int64)
    for K, terms in parts:
        y = _left_translates(G, q, list(terms), list(terms.values()), x.vec)
        # the right cosets K*g: the orbits of left multiplication by K
        ids = orbit_labels(G.mul_vec(np.array(K.gens or K.elements)[:, None], G.elements()))
        sums = np.bincount(ids, weights=y.astype(np.float64))
        coset_sums = np.rint(sums).astype(np.int64) % q
        inv = pow(len(K.elements), -1, q)
        out = (out + inv * coset_sums[ids]) % q
    return AlgebraElement(alg, out)


# ---------------------------------------------------------------------------
# cyclotomic cosets and the conjugation action on them


@dataclass(frozen=True)
class CyclotomicCoset:
    m: int
    rep: int
    members: Tuple[int, ...]


def _unit_orbits(m: int, xs: Sequence[int]) -> List[np.ndarray]:
    """The orbits of t -> t x, x in xs, on the units of Z/m, each sorted and
    listed by least member (the units of Z/1 are {0})."""
    t = np.arange(m, dtype=np.int64)
    units = t[np.gcd(t, m) == 1]
    labels = orbit_labels(np.outer(np.array(xs, dtype=np.int64) % m, t) % m)[units]
    order = np.argsort(labels, kind="stable")
    return np.split(units[order], np.flatnonzero(np.diff(labels[order])) + 1)


def cyclotomic_cosets(m: int, q: int) -> List[CyclotomicCoset]:
    """q-cosets of the generators of a cyclic group of order m."""
    if math.gcd(q, m) != 1:  # t -> t q would not permute the units
        raise NotCoprime(f"gcd(q={q}, m={m}) != 1")
    return [CyclotomicCoset(m, int(c[0]), tuple(c.tolist())) for c in _unit_orbits(m, [q])]


@dataclass
class OrbitData:
    pair: ShodaPair
    q: int
    m: int
    h0: int
    o: int
    cosets: List[CyclotomicCoset]
    orbits: List[Tuple[int, ...]]  # orbits of coset reps under the * action
    orbit_reps: List[int]
    stab_index: int  # [E : H], equal across orbits
    action_exps: Tuple[int, ...]  # the distinct t with x^-1 h0 x = h0^t mod K, x in N: N/H
    omega0: Optional[int]  # least w >= 1 with t_b^w in <q>, t_b generating N/H (cyclic N/H only)


def cosets_and_orbits(G: FiniteGroup, pair: ShodaPair, q: int) -> OrbitData:
    H = pair.H
    m = pair.index
    h0 = pair.h0
    if h0 is None:
        raise AlgebraError(f"H/K is not cyclic for {pair.label()}")
    o = mult_order(q, m)
    order, exps = pair.normaliser
    exps = exps.tolist()
    # the exponents are N/H: every check on the stabilisers follows from this
    _require(order == H.order * len(exps), "N acts on H/K with a kernel other than H")

    cosets = cyclotomic_cosets(m, q)
    rep_of = np.zeros(m, dtype=np.int64)  # unit -> its coset's rep
    for c in cosets:
        rep_of[list(c.members)] = c.rep
    # the orbits of the cosets under the * action: the orbits of <q, exps>
    orbits = [tuple(orb[rep_of[orb] == orb].tolist()) for orb in _unit_orbits(m, [q] + exps)]
    orbit_reps = [o_[0] for o_ in orbits]
    _require(len({len(o_) for o_ in orbits}) <= 1, "orbits of one pair must have equal size")

    # [E:H] = |exps cap <q>|; when N/H is cyclic, generated by t_b, an orbit
    # holds the least w with t_b^w in <q> cosets
    stab_index = int(np.count_nonzero(rep_of[exps] == rep_of[1 % m]))
    omega0 = len(orbits[0]) if any(mult_order(t, m) == len(exps) for t in exps) else None

    return OrbitData(
        pair=pair,
        q=q,
        m=m,
        h0=h0,
        o=o,
        cosets=cosets,
        orbits=orbits,
        orbit_reps=orbit_reps,
        stab_index=stab_index,
        action_exps=tuple(exps),
        omega0=omega0,
    )


# ---------------------------------------------------------------------------
# idempotent synthesis


@dataclass
class Idempotent:
    value: AlgebraElement
    pair: Optional[ShodaPair]
    k: int
    kind: str  # "central" | "left"

    def __repr__(self):
        tag = f"{self.pair.label()} k={self.k}" if self.pair else "ad hoc"
        return f"Idempotent[{self.kind}; {tag}; wt={self.value.weight()}]"


def epsilon(alg: GroupAlgebra, pair: ShodaPair, k: int) -> AlgebraElement:
    """The building-block idempotent from one cyclotomic class of H/K."""
    q = alg.q
    m = pair.index
    if math.gcd(m, q) != 1:
        raise NotCoprime(f"[H:K] = {m} not invertible mod {q}")
    h0 = pair.h0
    _require(h0 is not None, "pair does not have cyclic quotient")
    tt = trace_table(alg.field, m)[:, 0].tolist()  # alg.field is GF(q), q prime
    inv_m = pow(m % q, -1, q)
    return _assemble(alg, pair.K, h0, m, {t: tt[(k * t) % m] * inv_m % q for t in range(m)})


def pci(alg: GroupAlgebra, pair: ShodaPair, k: int) -> Idempotent:
    """Sum of the distinct G-conjugates of epsilon: the central idempotent."""
    G = alg.G
    eps = epsilon(alg, pair, k)
    seen = {eps.key(): eps}
    frontier = [eps]
    while frontier:
        nxt = []
        for e in frontier:
            for g in G.generators():
                c = e.conjugate(g)
                if c.key() not in seen:
                    seen[c.key()] = c
                    nxt.append(c)
        frontier = nxt
    conjugates = list(seen.values())
    total = conjugates[0]
    for c in conjugates[1:]:
        total = total + c
    return Idempotent(total, pair, k, "central")


def pcis_for_pair(alg: GroupAlgebra, pair: ShodaPair) -> List[Idempotent]:
    od = cosets_and_orbits(alg.G, pair, alg.q)
    return [pci(alg, pair, k) for k in od.orbit_reps]


def pcis_for_group(alg: GroupAlgebra, pairs: Optional[Sequence[ShodaPair]] = None) -> List[Idempotent]:
    """All pcis from the catalog, deduplicated by coefficient vector."""
    if pairs is None:
        pairs = ssp_catalog(alg.G)
    out: List[Idempotent] = []
    seen = set()
    for pair in pairs:
        for idem in pcis_for_pair(alg, pair):
            key = idem.value.key()
            if key not in seen:
                seen.add(key)
                out.append(idem)
    return out


def left_idempotents(
    alg: GroupAlgebra, e: Idempotent, B: Subgroup
) -> Tuple[Idempotent, Idempotent]:
    """Split e into the left pair e*B-hat and e*(1 - B-hat)."""
    bh = alg.hat(B)
    f1 = e.value * bh
    f2 = e.value * (alg.one() - bh)
    return (
        Idempotent(f1, e.pair, e.k, "left"),
        Idempotent(f2, e.pair, e.k, "left"),
    )


def sum_idempotents(alg: GroupAlgebra, idems: Sequence[Idempotent]) -> AlgebraElement:
    total = alg.zero()
    for e in idems:
        total = total + e.value
    return total


# ---------------------------------------------------------------------------
# the closed form from the action of G on H/K


def _i0_for(q: int, p: int) -> int:
    # largest level with a surviving trace: the truncation threshold
    if p == 2:
        return two_power_i_star(q)
    return odd_prime_i0(q, p)


def _truncated_indices(m: int, p: int, j: int, i0: int) -> List[int]:
    if j <= i0:
        return list(range(m))
    step = p ** (j - i0)
    return [t * step for t in range(p**i0)]


def _assemble(
    alg: GroupAlgebra,
    K: Subgroup,
    g0: int,
    m: int,
    coeffs: Dict[int, int],
) -> AlgebraElement:
    """sum_t coeffs[t] * hat(K) * g0^(-t), coefficients already scaled by 1/m."""
    G, q = alg.G, alg.q
    ts = np.array([t for t in range(m) if coeffs.get(t, 0) % q], dtype=np.int64)
    cs = np.array([coeffs[t] % q for t in ts.tolist()], dtype=np.int64)
    hs = G.power(g0, -ts)
    vec = np.zeros(G.order, dtype=np.int64)  # the cosets K g0^-t are disjoint
    vec[G.mul_vec(np.array(K.elements)[None, :], hs[:, None])] = (cs * pow(K.order, -1, q))[:, None]
    return AlgebraElement(alg, vec % q, parts=((K, dict(zip(hs.tolist(), cs.tolist()))),))


def pci_table_closed_form(alg: GroupAlgebra, pair: ShodaPair, k: int) -> Idempotent:
    """Closed-form route to the pci from the action of G on H/K = <h0 K>.

    When H and K are normal in G, the G-conjugates of epsilon(H, K, k) are
    the epsilon(H, K, k tau) for tau in T, one exponent per class of the
    action exponents of G modulo <q>, so the pci is hat(K) * sum_{t in I}
    c_t h0^(-t) with c_t = (1/m) sum_{tau in T} tr(xi_m^(k tau t)).  For
    m = [H:K] = p^j the traces vanish off I = `_truncated_indices(m, p, j,
    _i0_for(q, p))`; otherwise I = range(m).  RegimeMismatch when H or K is
    not normal in G.
    """
    q, m = alg.q, pair.index
    order, exps = pair.normaliser
    if order != alg.G.order:
        raise RegimeMismatch(f"{pair.label()}: H or K is not normal in G")
    rep_of = {u: c.rep for c in cyclotomic_cosets(m, q) for u in c.members}
    T = {rep_of[t] for t in exps.tolist()}
    I = range(m)
    if len(f := factorize(m)) == 1:
        ((p, j),) = f.items()
        I = _truncated_indices(m, p, j, _i0_for(q, p))
    tt = trace_table(alg.field, m)[:, 0].tolist()
    inv_m = pow(m % q, -1, q)
    coeffs = {t: sum(tt[k * tau * t % m] for tau in T) * inv_m % q for t in I}
    return Idempotent(_assemble(alg, pair.K, pair.h0, m, coeffs), pair, k, "central")


# ---------------------------------------------------------------------------
# census (integer-only; also valid for prime-power q)


@dataclass
class ComponentRow:
    pair: ShodaPair
    k: int
    matrix_size: int  # [G:H]
    field_degree: int  # o / [E:H]
    dim: int  # matrix_size^2 * field_degree


def census(G: FiniteGroup, q: int, pairs: Optional[Sequence[ShodaPair]] = None) -> List[ComponentRow]:
    """Wedderburn component parameters per inequivalent pci, by orbit count."""
    prime_power(q)  # NonPrimeCharacteristic unless GF(q) exists
    if math.gcd(q, G.order) != 1:
        raise NotSemisimple(f"gcd(q={q}, |G|={G.order}) != 1")
    if pairs is None:
        pairs = ssp_catalog(G)
    rows: List[ComponentRow] = []
    seen = set()
    for pair in pairs:
        od = cosets_and_orbits(G, pair, q)
        size = G.order // pair.H.order
        _require(od.o % od.stab_index == 0, "stabiliser index does not divide the orbit degree")
        deg = od.o // od.stab_index
        for rep in od.orbit_reps:
            key = (pair.H.elements, pair.K.elements, rep)
            if key in seen:
                continue
            seen.add(key)
            rows.append(ComponentRow(pair, rep, size, deg, size * size * deg))
    return rows
