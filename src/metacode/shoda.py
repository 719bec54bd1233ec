"""Strong Shoda pair catalogs for the treated families, plus a verifier."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .ffield import factorize, is_prime, mult_order
from .groups import (
    FiniteGroup,
    GroupError,
    MetacyclicGroup,
    NotCoprimeOrders,
    NotNormal,
    ProductGroup,
    Subgroup,
    centralizer_mod,
    cyclic_quotient_generator,
    full_subgroup,
    normalizer,
    subgroup_closure,
    trivial_subgroup,
)


class NotGenericFamily(GroupError):
    pass


class BadFamilyIndex(GroupError):
    pass


class TooLarge(GroupError):
    pass


class Normaliser(NamedTuple):
    """The q-independent action data of a pair (H, K) with cyclic H/K."""

    elements: np.ndarray  # N = N_G(H) cap N_G(K), sorted indices
    exps: np.ndarray  # per element x of N, the t with x^-1 h0 x in K h0^t
    # the first generator of N/H, None if not cyclic; the identity when N = H
    # or when m = 1
    x0: Optional[int]


@dataclass(frozen=True)
class ShodaPair:
    H: Subgroup
    K: Subgroup
    family: str

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
    def normaliser(self) -> Normaliser:
        """N = N_G(H) cap N_G(K), the exponent of its action on H/K = <h0 K>
        and a generator of N/H, computed once per pair; needs h0."""
        G, H, K, h0 = self.group, self.H, self.K, self.h0
        m = self.index
        coset_of = np.full(G.order, -1, dtype=np.int64)  # h in K h0^t has label t
        ts = np.arange(m)
        coset_of[G.mul_vec(np.array(K.elements)[None, :], G.power(h0, ts)[:, None])] = ts[:, None]
        all_idx = np.arange(G.order, dtype=np.int64)
        mask = G.conj_mask(H.gens or H.elements, H.elements, all_idx)
        mask &= G.conj_mask(K.gens or K.elements, K.elements, all_idx)
        N = np.flatnonzero(mask)
        x0 = G.identity
        if m > 1 and len(N) > H.order:  # N normalises H, so H is normal in N
            x0 = cyclic_quotient_generator(G, Subgroup(G, N.tolist()), H)
        exps = coset_of[G.conj_vec(h0, N)]
        N.flags.writeable = exps.flags.writeable = False  # shared by every caller
        return Normaliser(N, exps, x0)

    def label(self) -> str:
        return f"({self.H!r}, {self.K!r})"


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


# ---------------------------------------------------------------------------
# catalogs


def ssp_cyclic(G: MetacyclicGroup) -> List[ShodaPair]:
    """All pairs (G, K) of a cyclic group: every subgroup qualifies."""
    if G.N > 1 and G.M > 1:
        raise NotGenericFamily(f"{G.name} is not presented as a cyclic group")
    gen = G.a if G.N > 1 else G.b
    top = full_subgroup(G)
    out = []
    for d in _divisors(G.order):
        K = subgroup_closure(G, [G.power(gen, d)])
        out.append(ShodaPair(top, K, "cyclic"))
    return out


def _ab(G: MetacyclicGroup, i: int, j: int) -> int:
    """The word a^i b^j with proper folding of b^M = a^s (floor semantics)."""
    fold = j // G.M
    return G.encode(i + G.s * fold, j - fold * G.M)


def ssp_m2(G: MetacyclicGroup) -> List[ShodaPair]:
    """S(G) for the M = 2 families: dihedral D_2N (r = N - 1, s = 0, N >= 3),
    generalised quaternion (r = N - 1, s = N/2; N = 2 gives C4) and
    semidihedral (r = N/2 - 1, s = 0, N = 2^n >= 8), in one list: (G, G),
    (G, <a>), for even N the kernels of G/<a^2> with cyclic quotient, and
    (<a>, <a^v>) for each v | N with v > 2."""
    N, r, s = G.N, G.r, G.s
    if G.M == 2 and r == N - 1 and s == 0 and N >= 3:
        family = "dihedral"
    elif G.M == 2 and r == N - 1 and N % 2 == 0 and s == N // 2:
        family = "quaternion"
    elif G.M == 2 and s == 0 and N >= 8 and N & (N - 1) == 0 and r == N // 2 - 1:
        family = "2group"
    else:
        raise NotGenericFamily(f"{G.name} is not dihedral, quaternion or semidihedral")
    top = full_subgroup(G)
    A = subgroup_closure(G, [G.a])
    out = [ShodaPair(top, top, family), ShodaPair(top, A, family)]
    if N % 2 == 0:  # G/<a^2> is C4 when s is odd, else C2 x C2 with two such kernels
        for more in [[]] if s % 2 else [[_ab(G, 0, 1)], [_ab(G, 1, 1)]]:
            out.append(ShodaPair(top, subgroup_closure(G, [_ab(G, 2, 0)] + more), family))
    for v in [v for v in _divisors(N) if v > 2]:
        out.append(ShodaPair(A, subgroup_closure(G, [_ab(G, v, 0)]), family))
    return out


def ssp_ordinary_metacyclic(G: MetacyclicGroup) -> List[ShodaPair]:
    """S(G_{p^(n+1)}): the maximal-cyclic ordinary metacyclic family."""
    p = G.M
    if not is_prime(p):
        raise NotGenericFamily(f"{G.name}: M = {p} is not prime")
    n = factorize(G.N).get(p, 0)
    if p**n != G.N or n < 2 or G.s != 0 or G.r != p ** (n - 1) + 1:
        raise NotGenericFamily(f"{G.name} is not the G_(p^(n+1)) family")
    top = full_subgroup(G)
    A = subgroup_closure(G, [G.a])
    out = [ShodaPair(top, top, "OM"), ShodaPair(top, A, "OM")]
    for j in range(1, n):
        for i in range(p):
            K = subgroup_closure(G, [_ab(G, p**j, 0), _ab(G, i * p ** (j - 1), 1)])
            out.append(ShodaPair(top, K, "OM"))
    out.append(ShodaPair(A, trivial_subgroup(G), "OM"))
    return out


def ssp_generic_split(G: MetacyclicGroup) -> List[ShodaPair]:
    """S(G) for split C_{p1^m} x| C_{p2^l} with faithful action."""
    f1, f2 = factorize(G.N), factorize(G.M)
    if len(f1) != 1 or len(f2) != 1 or f1.keys() == f2.keys() or G.s != 0:
        raise NotGenericFamily(f"{G.name} is not the split two-prime family")
    ((p1, m),), ((p2, l),) = f1.items(), f2.items()
    if mult_order(G.r, G.N) != G.M:
        raise NotGenericFamily(f"{G.name}: action of b is not faithful")
    top = full_subgroup(G)
    A = subgroup_closure(G, [G.a])
    out = [ShodaPair(top, top, "generic")]
    for j2 in range(1, l + 1):
        K = subgroup_closure(G, [G.a, _ab(G, 0, p2**j2 % G.M)])
        out.append(ShodaPair(top, K, "generic"))
    for j1 in range(1, m + 1):
        out.append(ShodaPair(A, subgroup_closure(G, [_ab(G, p1**j1 % G.N, 0)]), "generic"))
    return out


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


def ssp_p5(family: int, p: int) -> List[ShodaPair]:
    """The quoted S(G_i) lists of the order-p^5 families."""
    G = p5_group(family, p)
    top = full_subgroup(G)

    def sg(*words: Tuple[int, int]) -> Subgroup:
        return subgroup_closure(G, [_ab(G, i, j) for i, j in words])

    out: List[ShodaPair] = []
    fam = f"p5_{family}"
    if family == 1:
        for i in range(3):
            out.append(ShodaPair(top, sg((1, 0), (0, p**i)), fam))
        for i in range(p):
            out.append(ShodaPair(top, sg((i, 1), (p, 0)), fam))
        for i in range(p):
            out.append(ShodaPair(top, sg((1, i * p), (p, 0)), fam))
        for i in range(1, p):
            out.append(ShodaPair(top, sg((1, -i * p * p), (p, 0)), fam))
        H = sg((2, 1), (0, p))
        for i in range(1, p):
            out.append(ShodaPair(H, sg((i * p, p * p)), fam))
        for i in range(p):
            if i == 2:
                continue
            out.append(ShodaPair(H, sg((i * p, p), (0, p * p)), fam))
        out.append(ShodaPair(H, sg((2 * p + 2, 1 - 2 * p), (0, p * p)), fam))
    elif family == 2:
        for i in range(3):
            out.append(ShodaPair(top, sg((1, 0), (0, p**i)), fam))
        for k in range(p):
            out.append(ShodaPair(top, sg((k, 1), (p, 0)), fam))
        for k in range(1, p):
            out.append(ShodaPair(top, sg((1, k * p), (p, 0)), fam))
        # k = p-1 fails the cyclic-quotient condition (checked at p = 3, 5);
        # the bespoke pair below covers the remaining component.
        H1 = sg((-1, 1), (p, 0))
        for k in range(p - 1):
            out.append(ShodaPair(H1, sg((k * p, p), (0, p * p)), fam))
        H2 = sg((-1, 1), (0, p))
        out.append(ShodaPair(H2, sg((-1, 1 - 2 * p), (0, p * p)), fam))
        out.append(ShodaPair(sg((1, p * p - p)), sg((0, 0)), fam))
    elif family == 3:
        for k in range(p * p):
            out.append(ShodaPair(top, sg((k, 1), (0, p * p)), fam))
        for k in range(1, p):
            out.append(ShodaPair(top, sg((1, k * p), (0, p * p)), fam))
        for k in range(p):
            out.append(ShodaPair(top, sg((k, 1), (p, 0)), fam))
        for i in range(3):
            out.append(ShodaPair(top, sg((1, 0), (0, p**i)), fam))
        H = sg((1, 0), (0, p))
        for k in range(p):
            out.append(ShodaPair(H, sg((p * (p - 1), p * (p * k + 1))), fam))
    else:
        for i in range(4):
            out.append(ShodaPair(top, sg((1, -1), (0, p**i)), fam))
        out.append(ShodaPair(top, sg((0, 1)), fam))
        out.append(ShodaPair(sg((p, 0), (-1, 2)), sg((0, 0)), fam))
        for k in range(1, p):
            for i in range(3):
                out.append(ShodaPair(top, sg((1, k * p**i - 1)), fam))
    return out


# ---------------------------------------------------------------------------
# direct products


def ssp_product(
    G: ProductGroup, pairs1: List[ShodaPair], pairs2: List[ShodaPair]
) -> List[ShodaPair]:
    """Componentwise pairs (H1 x H2, K1 x K2) for coprime factors."""
    if not G.coprime:
        raise NotCoprimeOrders(f"{G.name}: factors share an order factor")
    out = []
    for sp1 in pairs1:
        for sp2 in pairs2:
            H = _product_subgroup(G, sp1.H, sp2.H)
            K = _product_subgroup(G, sp1.K, sp2.K)
            out.append(ShodaPair(H, K, "product"))
    return out


def _product_subgroup(G: ProductGroup, S1: Subgroup, S2: Subgroup) -> Subgroup:
    n2 = G.right.order
    elems = [x1 * n2 + x2 for x1 in S1.elements for x2 in S2.elements]
    gens = [g * n2 for g in S1.gens] + list(S2.gens)
    return Subgroup(G, elems, gens=tuple(g for g in gens if g != 0) or (0,))


def ssp_c2_q8(G: ProductGroup) -> List[ShodaPair]:
    """S(C2 x Q8): the (G, K)-type kernels plus the two (⟨a,c⟩, ·) pairs.

    The C2 factor is written c; the Q8 factor carries a, b.  The (G, K)
    entries are the kernels of the seven order-2 characters of G/⟨a²⟩; the
    verifier accepts the full list exhaustively.
    """
    if not (
        isinstance(G.left, MetacyclicGroup)
        and G.left.order == 2
        and isinstance(G.right, MetacyclicGroup)
        and (G.right.N, G.right.M, G.right.r, G.right.s) == (4, 2, 3, 2)
    ):
        raise NotGenericFamily(f"{G.name} is not C2 x Q8")
    q8 = G.right
    c = G.pair(1, 0)
    a = G.pair(0, q8.a)
    b = G.pair(0, q8.b)
    ab = G.mul(a, b)
    a2 = G.mul(a, a)
    top = full_subgroup(G)
    kernels = [
        [a, b],
        [a, c],
        [b, c],
        [ab, c],
        [a, G.mul(b, c)],
        [b, G.mul(a, c)],
        [ab, G.mul(b, c)],
    ]
    out = [ShodaPair(top, top, "C2xQ8")]
    for gens in kernels:
        out.append(ShodaPair(top, subgroup_closure(G, gens + [a2]), "C2xQ8"))
    H = subgroup_closure(G, [a, c])
    out.append(ShodaPair(H, subgroup_closure(G, [c]), "C2xQ8"))
    out.append(ShodaPair(H, subgroup_closure(G, [G.mul(a2, c)]), "C2xQ8"))
    return out


# ---------------------------------------------------------------------------
# dispatcher and verifier


def ssp_catalog(G: FiniteGroup) -> List[ShodaPair]:
    """The paper's S(G) for any catalogued family."""
    if isinstance(G, ProductGroup):
        try:
            return ssp_c2_q8(G)
        except NotGenericFamily:
            pass
        if not G.coprime:
            raise NotGenericFamily(
                f"{G.name}: only coprime products (or C2 x Q8) are catalogued"
            )
        return ssp_product(G, ssp_catalog(G.left), ssp_catalog(G.right))
    if not isinstance(G, MetacyclicGroup):
        raise NotGenericFamily(f"{G.name} is not a catalogued group")
    if G.M == 1 or G.N == 1:
        return ssp_cyclic(G)
    for builder in (
        ssp_m2,
        ssp_ordinary_metacyclic,
        _ssp_p5_match,
        ssp_generic_split,
    ):
        try:
            return builder(G)
        except NotGenericFamily:
            continue
    raise NotGenericFamily(f"no catalog matches {G.name} (N={G.N}, M={G.M}, r={G.r}, s={G.s})")


def _ssp_p5_match(G: MetacyclicGroup) -> List[ShodaPair]:
    order = G.order
    p = round(order ** (1 / 5))
    if p < 3 or p**5 != order or not is_prime(p):
        raise NotGenericFamily("not order p^5")
    for family in (1, 2, 3, 4):
        ref = p5_group(family, p)
        if (ref.N, ref.M, ref.r, ref.s) == (G.N, G.M, G.r, G.s):
            return ssp_p5(family, p)
    raise NotGenericFamily("no p^5 presentation matches")


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
