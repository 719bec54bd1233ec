"""Cyclotomic orbits and synthesis of primitive central idempotents."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ffield import (
    coset_order,
    factorize,
    is_prime,
    mult_order,
    odd_prime_i0,
    trace_table,
    two_power_i_star,
    make_field,
    NotCoprime,
)
from .groups import FiniteGroup, Subgroup, full_subgroup, orbit_labels
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
    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.alg, self.vec.copy(), self.parts)

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

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.alg, (-self.vec) % self.alg.q)

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


def cyclotomic_cosets(m: int, q: int) -> List[CyclotomicCoset]:
    """q-cosets of the generators of a cyclic group of order m."""
    if m == 1:
        return [CyclotomicCoset(1, 0, (0,))]
    seen = set()
    out = []
    for k in range(1, m):
        if math.gcd(k, m) != 1 or k in seen:
            continue
        orbit = []
        t = k
        while t not in seen:
            seen.add(t)
            orbit.append(t)
            t = (t * q) % m
        out.append(CyclotomicCoset(m, min(orbit), tuple(sorted(orbit))))
    return out


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
    action_exps: Tuple[int, ...]  # the t with x^-1 h0 x = h0^t mod K, x in N
    omega0: Optional[int]  # least w >= 1 with t_b^w in <q> (cyclic N/H only)


def cosets_and_orbits(G: FiniteGroup, pair: ShodaPair, q: int) -> OrbitData:
    H = pair.H
    m = pair.index
    h0 = pair.h0
    if h0 is None:
        raise AlgebraError(f"H/K is not cyclic for {pair.label()}")
    o = mult_order(q, m)
    N, t_of_N, x0 = pair.normaliser
    exps = sorted(set(t_of_N.tolist()))

    cosets = cyclotomic_cosets(m, q)
    by_rep = {c.rep: c for c in cosets}
    member_rep = {s: c.rep for c in cosets for s in c.members}

    unseen = set(by_rep)
    orbits: List[Tuple[int, ...]] = []
    for rep in sorted(by_rep):
        if rep not in unseen:
            continue
        orbit = set()
        frontier = [rep]
        unseen.discard(rep)
        while frontier:
            r = frontier.pop()
            orbit.add(r)
            for t in exps:
                r2 = member_rep[(r * t) % m] if m > 1 else 0
                if r2 in unseen:
                    unseen.discard(r2)
                    frontier.append(r2)
        orbits.append(tuple(sorted(orbit)))
    orbit_reps = [min(o_) for o_ in orbits]

    # stabiliser index [E:H] from the first orbit (all agree; checked)
    stab_indices = []
    for rep in orbit_reps:
        count = int(np.isin(rep * t_of_N % m, by_rep[rep].members).sum())
        _require(count % H.order == 0, "stabiliser count is not a multiple of |H|")
        stab_indices.append(count // H.order)
    _require(len(set(stab_indices)) <= 1, "orbits of one pair must have equal stabilisers")
    _require(len({len(o_) for o_ in orbits}) <= 1, "orbits of one pair must have equal size")

    # omega0: least w with t_b^w in <q> mod m, from a generator x0 of N/H when
    # it is cyclic
    omega0 = 1
    if m > 1:
        omega0 = None if x0 is None else coset_order(int(t_of_N[np.searchsorted(N, x0)]), q, m)

    return OrbitData(
        pair=pair,
        q=q,
        m=m,
        h0=h0,
        o=o,
        cosets=cosets,
        orbits=orbits,
        orbit_reps=orbit_reps,
        stab_index=stab_indices[0] if stab_indices else 1,
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
# closed forms from the family tables


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
    """Family-table route to the pci: truncated ranges and merged traces.

    Covers the dihedral/quaternion 2-power tables and the ordinary
    metacyclic family for p = 2 and odd p.  RegimeMismatch outside.
    """
    G, q = alg.G, alg.q
    fam = pair.family
    H, K = pair.H, pair.K
    m = pair.index
    if m == 1:
        top = full_subgroup(G)
        return Idempotent(alg.hat(top), pair, k, "central")
    tt = trace_table(alg.field, m)[:, 0].tolist()
    inv_m = pow(m % q, -1, q)

    if fam in ("dihedral", "quaternion", "2group"):
        N = getattr(G, "N", 0)
        if N < 8 or N & (N - 1) or q % 2 == 0:
            raise RegimeMismatch("2-power dihedral/quaternion table needs N=2^n>=8, odd q")
        if H.order == G.order:
            if m != 2:
                raise RegimeMismatch("(G,K) rows of the 2-group tables have index <= 2")
            g0 = pair.h0
            coeffs = {t: (tt[(k * t) % m] * inv_m) % q for t in range(m)}
            return Idempotent(_assemble(alg, K, g0, m, coeffs), pair, k, "central")
        # (⟨a⟩, ⟨a^{2^j}⟩) rows
        j = factorize(m).get(2, 0)
        if 2**j != m:
            raise RegimeMismatch("a-type rows of the 2-group tables have 2-power index")
        i0 = _i0_for(q, 2)
        idxs = _truncated_indices(m, 2, j, i0)
        merged = coset_order(-1, q, m) > 1  # -1 is not in <q> mod m
        coeffs = {}
        for t in idxs:
            tr = tt[(k * t) % m]
            if merged:
                tr = (tr + tt[(-k * t) % m]) % q
            if tr:
                coeffs[t] = (tr * inv_m) % q
        g0 = pair.h0
        return Idempotent(_assemble(alg, K, g0, m, coeffs), pair, k, "central")

    if fam == "OM":
        p = G.M
        i0 = _i0_for(q, p)
        j = factorize(m).get(p, 0)
        if p**j != m:
            raise RegimeMismatch("ordinary metacyclic rows have p-power index")
        g0 = pair.h0
        idxs = _truncated_indices(m, p, j, i0)
        if H.order == G.order:
            coeffs = {}
            for t in idxs:
                tr = tt[(k * t) % m]
                if tr:
                    coeffs[t] = (tr * inv_m) % q
            return Idempotent(_assemble(alg, K, g0, m, coeffs), pair, k, "central")
        # (⟨a⟩, 1) row: sum over the transversal T of <r^omega0> in <r>
        r = G.r % m
        coeffs: Dict[int, int] = {}
        for tau in (pow(r, i, m) for i in range(coset_order(r, q, m))):
            for t in idxs:
                tr = tt[(k * tau * t) % m]
                if tr:
                    coeffs[t] = (coeffs.get(t, 0) + tr * inv_m) % q
        coeffs = {t: c for t, c in coeffs.items() if c % q}
        return Idempotent(_assemble(alg, K, g0, m, coeffs), pair, k, "central")

    raise RegimeMismatch(f"no closed-form table covers family {fam!r}")


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
