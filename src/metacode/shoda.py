"""Strong Shoda pairs of metacyclic groups and their products, plus a verifier."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .ffield import is_prime, mult_order
from .groups import (
    FiniteGroup,
    GroupError,
    MetacyclicGroup,
    NotNormal,
    ProductGroup,
    Subgroup,
    centralizer_mod,
    cyclic_quotient_generator,
    normalizer,
)


class NotGenericFamily(GroupError):
    pass


class BadFamilyIndex(GroupError):
    pass


class TooLarge(GroupError):
    pass


class Normaliser(NamedTuple):
    """The q-independent action data of a pair (H, K) with cyclic H/K: x -> t
    with x^-1 h0 x in K h0^t maps N = N_G(H) cap N_G(K) into (Z/m)*, with
    kernel H for a strong Shoda pair, so N/H is the group exps."""

    order: int  # |N|
    exps: np.ndarray  # the distinct t_x, x in N, sorted


@dataclass(frozen=True)
class ShodaPair:
    H: Subgroup
    K: Subgroup

    @property
    def group(self) -> FiniteGroup:
        return self.H.group

    @property
    def index(self) -> int:
        """[H:K], the order of the cyclic quotient."""
        return self.H.order // self.K.order

    @cached_property
    def h0(self) -> Optional[int]:
        """`cyclic_quotient_generator` of H/K (None when not cyclic), computed
        once per pair; raises NotNormal when K is not normal in H."""
        return cyclic_quotient_generator(self.group, self.H, self.K)

    @cached_property
    def coset_of(self) -> np.ndarray:
        """Per element h of H, by position in H.elements, the t with h in K h0^t."""
        G, K = self.group, self.K
        ts = np.arange(self.index)
        # the cosets K h0^t tile H: t by element of G, then read at H's elements
        by_element = np.empty(G.order, dtype=np.int64)
        h0_ts = G.powers([self.h0], self.index)[0]
        by_element[G.mul_vec(K.array[None, :], h0_ts[:, None])] = ts[:, None]
        coset_of = by_element[self.H.array]
        coset_of.flags.writeable = False  # shared by every caller
        return coset_of

    @cached_property
    def normaliser(self) -> Normaliser:
        """|N| for N = N_G(H) cap N_G(K) and the exponents of its action on
        H/K = <h0 K>, computed once per pair; needs h0.  When G's generators
        normalise H and K, N = G and, x -> t_x being a homomorphism, the t_x
        of the generators generate the exponents; otherwise N comes from a
        sweep of all of G."""
        G, H, K = self.group, self.H, self.K
        if H.is_normal_in_G and K.is_normal_in_G:
            xs = np.array(G.generators(), dtype=np.int64)
            order = G.order
        else:
            all_idx = np.arange(G.order, dtype=np.int64)
            mask = G.conj_mask(H.gens or H.elements, H.array, all_idx)
            mask &= G.conj_mask(K.gens or K.elements, K.array, all_idx)
            xs = np.flatnonzero(mask)
            order = len(xs)
        ts = set(self.coset_of[np.searchsorted(H.array, G.conj_vec(self.h0, xs))].tolist())
        m = self.index
        exps, new = set(), {1 % m}
        while new:
            exps |= new
            new = {e * t % m for e in new for t in ts} - exps
        exps = np.array(sorted(exps), dtype=np.int64)
        exps.flags.writeable = False  # shared by every caller
        return Normaliser(order, exps)

    def label(self) -> str:
        return f"({self.H!r}, {self.K!r})"


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


# ---------------------------------------------------------------------------
# metacyclic groups


def _word_gens(G: MetacyclicGroup, u: int, v: int, elements: List[int]) -> Tuple[int, ...]:
    """(a^u, a^i b^v) for the subgroup with these sorted elements, which meets
    <a> in <a^u> and has v the least j > 0 of its a^i b^j (u = N, v = M when
    there is none); i is the least such i, and the identity is dropped."""
    gens = [G.encode(u, 0)] if u < G.N else []
    if v < G.M:
        gens.append(next(x for x in elements if x % G.M == v))
    return tuple(gens) or (G.identity,)


def ssp_metacyclic(G: MetacyclicGroup) -> List[ShodaPair]:
    """S(G) for any metacyclic presentation, one pair per rational pci
    (Olivieri, del Rio & Simon 2004, Thm 4.7).

    With o = ord_N(r), A = C_G(a) = <a, b^o> is maximal abelian and holds G';
    the subgroups between A and G are B_e = {a^i b^j : e | j} for e | o, with
    B_e' = <a^gcd(r^e - 1, N)>.  The pairs are (B_d, K) for K the kernels of
    the linear characters of B_d / B_d' for which d is the least e | o with
    B_e' <= K <= B_e, one K per class under conjugation by b (a fixes each),
    the class's least element tuple.  Sorted by (-|H|, -|K|, -|K cap <a>|,
    K.elements).
    """
    N, M, r, s = G.N, G.M, G.r, G.s
    o = mult_order(r, N) if N > 1 else 1
    g_of = {e: math.gcd(pow(r, e, N) - 1, N) for e in _divisors(o)}  # B_e' = <a^g_of[e]>
    r_inv = pow(r, -1, N) if N > 1 else 0
    idx = np.arange(G.order, dtype=np.int64)
    pairs: List[Tuple[Tuple, ShodaPair]] = []
    for d, g in g_of.items():
        B = idx[idx % d == 0]  # B_d: d | M, so d | i M + j exactly when d | j
        i, jd = np.divmod(B, M)
        jd //= d
        members = B.tolist()
        H = Subgroup(G, members, gens=_word_gens(G, 1, d, members))
        # the characters a^i b^j -> al i + be j/d mod L of B_d / B_d': al
        # kills a^g, and b^M = a^s asks (M/d) be = s al
        L, c = g * M // d, math.gcd(M // d, g * M // d)
        al = L // math.gcd(g, L) * np.arange(math.gcd(g, L), dtype=np.int64)
        al = al[s * al % c == 0]
        be = s * al % L // c * pow(M // d // c, -1, L // c) % (L // c)
        al, be = np.repeat(al, c), (be[:, None] + L // c * np.arange(c)).ravel()
        # the kernel meets <a> in <a^u> and lies in B_e iff e | v
        w = np.gcd(al, L)
        u, v = L // w, np.minimum(d * w // np.gcd(be, w), M)
        keep = np.ones(len(al), dtype=bool)
        for e in [e for e in g_of if e < d]:
            keep &= (v % e != 0) | (g_of[e] % u != 0)
        codes = np.sort((al * L + be)[keep])
        label, reps = np.full(len(codes), -1), []
        while len(codes) and label[pos := int(label.argmin())] < 0:
            # one character per kernel: label the generators k chi of <chi>
            a1, b1 = divmod(int(codes[pos]), L)
            n = L // math.gcd(a1, b1, L)
            ks = np.arange(n, dtype=np.int64)
            ks = ks[np.gcd(ks, n) == 1]
            label[np.searchsorted(codes, a1 * ks % L * L + b1 * ks % L)] = len(reps)
            reps.append((a1, b1))
        # conjugation by b sends the kernel of (al, be) to that of (al / r, be)
        ra, rb = np.array(reps, dtype=np.int64).reshape(-1, 2).T
        conj = label[np.searchsorted(codes, ra * r_inv % L * L + rb)].tolist()
        done = set()
        for k, (a1, b1) in enumerate(reps):
            if k in done:
                continue
            orbit = [k]
            while conj[orbit[-1]] != k:
                orbit.append(conj[orbit[-1]])
            done.update(orbit)
            least = min(B[(reps[x][0] * i + reps[x][1] * jd) % L == 0].tolist() for x in orbit)
            w = math.gcd(a1, L)
            uk, vk = L // w, min(d * w // math.gcd(b1, w), M)
            K = Subgroup(G, least, gens=_word_gens(G, uk, vk, least))
            pairs.append(((-H.order, -K.order, uk, least), ShodaPair(H, K)))
    return [pair for _, pair in sorted(pairs, key=lambda kp: kp[0])]


# ---------------------------------------------------------------------------
# order-p^5 metacyclic families


def p5_group(family: int, p: int) -> MetacyclicGroup:
    """The four non-abelian metacyclic groups of order p^5 (odd p).

    The source presentations use b a b^-1 = a^t; our convention stores
    r = t^-1 mod N so that b^-1 a b = a^r.
    """
    if family not in (1, 2, 3, 4):
        raise BadFamilyIndex(f"family must be 1..4, got {family}")
    if p == 2 or not is_prime(p):
        raise BadFamilyIndex("p must be an odd prime")
    if family == 1:
        N, M, t, s = p**2, p**3, p + 1, 0
    elif family == 2:
        N, M, t, s = p**3, p**2, p + 1, p**2
    elif family == 3:
        N, M, t, s = p**3, p**2, p**2 + 1, p**2
    else:
        N, M, t, s = p**4, p, p**3 + 1, p
    r = pow(t, -1, N)
    return MetacyclicGroup(N, M, r, s, name=f"P5_{family}(p={p})")


# ---------------------------------------------------------------------------
# direct products


def ssp_product(G: ProductGroup) -> List[ShodaPair]:
    """S(G1 x G2) from S(G1) and S(G2) (Olivieri, del Rio & Simon 2004).

    Every irreducible character of G1 x G2 is induced from psi1 x psi2 on
    H = H1 x H2, with psi_i linear of kernel K_i.  For m_i = [H_i:K_i],
    g = gcd(m1, m2) and l = lcm(m1, m2), the kernels of psi1 x psi2^b, b a
    unit mod m2, are L_c = {(k1 h01^i, k2 h02^j) : i l/m1 + b j l/m2 = 0 mod l},
    one per c = b mod g in (Z/g)*; the action exponents of the factor pairs
    move c, so each pair (H1, K1), (H2, K2) gives one (H, L_c) per class, c
    its least member and b the least unit mod m2 with b = c mod g.  With
    g = 1 that is (H, K1 x K2).  Sorted as the factor pairs, then by c.
    """
    pairs2 = ssp_catalog(G.right)
    out = []
    for sp1 in ssp_catalog(G.left):
        for sp2 in pairs2:
            H = _product_subgroup(G, sp1.H, sp2.H)
            K = _product_subgroup(G, sp1.K, sp2.K)
            m1, m2 = sp1.index, sp2.index
            g = math.gcd(m1, m2)
            if g == 1:
                out.append(ShodaPair(H, K))
                continue
            l = m1 * m2 // g
            t1 = sp1.coset_of * (l // m1)
            t2 = sp2.coset_of * (l // m2)
            S = {1}  # the subgroup of (Z/g)* that the action exponents generate
            if g > 2:  # (Z/2)* is trivial
                acts = {e % g for sp in (sp1, sp2) for e in sp.normaliser.exps.tolist()}
                while len(grown := S | {s * e % g for s in S for e in acts}) > len(S):
                    S = grown
            seen = set()
            for c in range(1, g):
                if math.gcd(c, g) > 1 or c in seen:
                    continue
                seen |= {c * s % g for s in S}
                b = next(b for b in range(c, m2, g) if math.gcd(b, m2) == 1)
                inside = (t1[:, None] + b * t2[None, :]) % l == 0
                # (h01^i, h02^(m2/g)) in L_c generates L_c modulo K1 x K2
                diag = G.pair(G.left.power(sp1.h0, -b * (m1 // g) % m1),
                              G.right.power(sp2.h0, m2 // g))
                gens = tuple(x for x in K.gens if x != G.identity) + (diag,)
                L = Subgroup(G, H.array[inside.ravel()].tolist(), gens=gens)
                out.append(ShodaPair(H, L))
    return out


def _product_subgroup(G: ProductGroup, S1: Subgroup, S2: Subgroup) -> Subgroup:
    n2 = G.right.order
    elems = [x1 * n2 + x2 for x1 in S1.elements for x2 in S2.elements]
    gens = [g * n2 for g in S1.gens] + list(S2.gens)
    return Subgroup(G, elems, gens=tuple(g for g in gens if g != 0) or (0,))


# ---------------------------------------------------------------------------
# dispatcher and verifier


def ssp_catalog(G: FiniteGroup) -> List[ShodaPair]:
    """The paper's S(G): metacyclic groups and direct products of catalogued groups."""
    if isinstance(G, ProductGroup):
        return ssp_product(G)
    if not isinstance(G, MetacyclicGroup):
        raise NotGenericFamily(f"{G.name} is not a catalogued group")
    return ssp_metacyclic(G)


def verify_ssp(G: FiniteGroup, pair: ShodaPair, bound: int = 10_000):
    """Exhaustive check of the strong Shoda pair conditions.

    Returns (True, "") or (False, reason).  Raises TooLarge above the bound
    (verification skipped, not failed).
    """
    if G.order > bound:
        raise TooLarge(f"|G| = {G.order} exceeds verification bound {bound}")
    H, K = pair.H, pair.K
    if not set(K.elements) <= set(H.elements):
        return False, "K is not contained in H"
    if not H.is_normal_in_G:
        return False, "H is not normal in G"
    try:
        h0 = pair.h0
    except NotNormal:
        return False, "K is not normal in H"
    if h0 is None:
        return False, "H/K is not cyclic"
    N = normalizer(G, K)
    cent = centralizer_mod(G, N, h0, K)
    if set(cent) != set(H.elements):
        return False, "H/K is not maximal abelian in N_G(K)/K"
    return True, ""
