"""Independent oracles and sweep utilities shared by the test modules."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from metacode.ffield import (
    ExtFieldCtx,
    FieldCtx,
    extension_for_root,
    factorize,
    make_field,
    mult_order,
    rel_trace,
    rref_mod,
)
from metacode.groups import Subgroup
from metacode.idem import census

ORACLE_FIELD_CAP = 140


def odd_prime_powers_leq(bound: int) -> List[int]:
    out = []
    for q in range(3, bound + 1, 2):
        f = factorize(q)
        if len(f) == 1:
            out.append(q)
    return out


def presentations(bound: int):
    """Every valid (N, M, r, s) of a MetacyclicGroup with N * M <= bound, r and
    s reduced mod N."""
    for N in range(1, bound + 1):
        for M in range(1, bound // N + 1):
            for r in range(N):
                if math.gcd(r, N) == 1 and pow(r, M, N) == 1 % N:
                    yield from ((N, M, r, s) for s in range(N) if s * (r - 1) % N == 0)


def base_field_of(q: int) -> FieldCtx:
    ((p, e),) = factorize(q).items()
    return make_field(p, e)


@lru_cache(maxsize=None)
def _ext_for(q: int, m: int):
    return extension_for_root(base_field_of(q), m)


def direct_trace_vanishes(q: int, m: int, k: int) -> bool:
    """The direct rel_trace oracle: tr(xi_m^k) == 0 in GF(q^o)."""
    ext = _ext_for(q, m)
    value = rel_trace(ext, ext.pow(ext.xi, k % m))
    return all(v == 0 for v in value)


def base_part(ext: ExtFieldCtx, a) -> Optional[np.ndarray]:
    """The GF(q) row of an element of the extension when it lies in GF(q), else None."""
    a = ext._vec(a)
    return None if a[ext.base.e:].any() else a[:ext.base.e]


BaseElem = Tuple[int, ...]


def as_tuple(row) -> BaseElem:
    """A coefficient row of GF(q) as the tuple TupleField computes on."""
    return tuple(int(v) for v in row)


class TupleField:
    """GF(p^e) on coefficient tuples, low degree first, with schoolbook
    arithmetic reducing by ctx.modulus: the independent oracle for the
    coefficient rows that ffield computes on."""

    def __init__(self, ctx: FieldCtx):
        self.p = ctx.p
        self.e = ctx.e
        self.q = ctx.q
        self.modulus = as_tuple(ctx.modulus)

    # -- elements ----------------------------------------------------------
    def zero(self) -> BaseElem:
        return (0,) * self.e

    def one(self) -> BaseElem:
        return (1,) + (0,) * (self.e - 1)

    def scalar(self, c: int) -> BaseElem:
        return (c % self.p,) + (0,) * (self.e - 1)

    def element_by_counter(self, n: int) -> BaseElem:
        """Counter order matches lex order on coefficient tuples (c0 first)."""
        digits = []
        for _ in range(self.e):
            digits.append(n % self.p)
            n //= self.p
        return tuple(reversed(digits))

    # -- arithmetic ----------------------------------------------------------
    def add(self, a: BaseElem, b: BaseElem) -> BaseElem:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a: BaseElem, b: BaseElem) -> BaseElem:
        p, e = self.p, self.e
        if e == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        mod = self.modulus
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d] % p
            if c:
                for j in range(e):
                    prod[d - e + j] -= c * mod[j]
            prod[d] = 0
        return tuple(v % p for v in prod[:e])

    def pow(self, a: BaseElem, n: int) -> BaseElem:
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: BaseElem) -> BaseElem:
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.q - 2)

    # -- GF(q)[y]/(f), elements tuples of o coefficients, low degree first --
    def ring_mul(self, f, a, b):
        """a * b mod the monic f (o + 1 coefficients): schoolbook product,
        then each top coefficient c cancelled by subtracting c y^(d-o) f."""
        o = len(f) - 1
        prod = [self.zero()] * (2 * o - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = self.add(prod[i + j], self.mul(x, y))
        neg = self.scalar(-1)
        for d in range(2 * o - 2, o - 1, -1):
            c = self.mul(neg, prod[d])
            for j in range(o + 1):
                prod[d - o + j] = self.add(prod[d - o + j], self.mul(c, f[j]))
        return tuple(prod[:o])

    def ring_pow(self, f, a, n: int):
        result = (self.one(),) + (self.zero(),) * (len(f) - 2)
        base = a
        while n:
            if n & 1:
                result = self.ring_mul(f, result, base)
            base = self.ring_mul(f, base, base)
            n >>= 1
        return result


def _fold_axis(arr: np.ndarray, p: int, j: int, axis: int, char: int) -> np.ndarray:
    """Reduce exponent-count array modulo the p^j-th cyclotomic polynomial.

    Phi_{p^j}(x) = sum_{t<p} x^(t p^(j-1)), so x^d with d >= (p-1)p^(j-1)
    folds down as x^d = -sum_{t<p-1} x^(d - (p-1-t) p^(j-1)).
    """
    arr = np.swapaxes(arr, 0, axis).copy()
    step = p ** (j - 1)
    phi = (p - 1) * step
    for d in range(arr.shape[0] - 1, phi - 1, -1):
        coef = arr[d].copy()
        if not coef.any():
            continue
        for t in range(p - 1):
            arr[d - phi + t * step] = (arr[d - phi + t * step] - coef) % char
        arr[d] = 0
    return np.swapaxes(arr, 0, axis)


def phi_all_vanish(q: int, m: int) -> bool:
    """Exact check that the q-orbit sum of xi_m^k vanishes for EVERY unit k.

    Works in GF(char)[x] by reducing sum_j x^(q^j mod m) modulo the m-th
    cyclotomic polynomial (componentwise over the prime-power parts of m);
    a zero residue annihilates every primitive m-th root in any embedding.
    """
    ((char, _),) = factorize(q).items()
    fac = sorted(factorize(m).items())
    assert 1 <= len(fac) <= 2, "oracle handles one- and two-prime moduli"
    o = mult_order(q, m)
    exps = []
    t = 1 % m
    for _ in range(o):
        exps.append(t)
        t = (t * q) % m
    if len(fac) == 1:
        (p, j) = fac[0]
        arr = np.zeros((m, 1), dtype=np.int64)
        for e in exps:
            arr[e, 0] += 1
        arr %= char
        arr = _fold_axis(arr, p, j, 0, char)
        return not arr.any()
    (p1, j1), (p2, j2) = fac
    A, B = p1**j1, p2**j2
    arr = np.zeros((A, B), dtype=np.int64)
    for e in exps:
        arr[e % A, e % B] += 1
    arr %= char
    arr = _fold_axis(arr, p1, j1, 0, char)
    arr = _fold_axis(arr, p2, j2, 1, char)
    return not arr.any()


def oracle_vanishes(q: int, m: int, k: int) -> bool:
    """Exact oracle for the vanishing of the q-orbit sum of xi_m^k.

    A zero cyclotomic residue proves vanishing at every primitive root, so
    no field is built for those cells; the remaining (k-dependent) cells
    have small orbit order and are resolved by the direct trace.
    """
    if phi_all_vanish(q, m):
        return True
    o = mult_order(q, m)
    assert o <= ORACLE_FIELD_CAP, (
        f"oracle gap: q={q}, m={m} is k-dependent yet needs degree {o}"
    )
    return direct_trace_vanishes(q, m, k)


def oracle_coprime(F: TupleField, a, b) -> bool:
    """Euclid on GF(q) tuples with TupleField arithmetic: is gcd(a, b) a
    nonzero constant?  a and b list coefficient rows, low degree first."""
    def trim(f):
        while f and f[-1] == F.zero():
            f.pop()
        return f

    a, b = (trim([as_tuple(row) for row in f]) for f in (a, b))
    while len(b) > 1:
        while len(a) >= len(b):
            t, s = F.mul(F.scalar(-1), F.mul(a[-1], F.inv(b[-1]))), len(a) - len(b)
            a[s:] = [F.add(x, F.mul(t, y)) for x, y in zip(a[s:], b)]
            trim(a)
        a, b = b, a
    return len(b) == 1


def oracle_xi(ext: ExtFieldCtx) -> Tuple[np.ndarray, int]:
    """(xi, n) by the plain counter walk: xi is w^s, s = (q^o - 1)/m, for the
    first w in counter order whose power has exact order m, and n is w's
    counter.  The least significant base-q digit of n is the y^(o-1)
    coefficient, so n < q are the multiples c y^(o-1), c in GF(q)*."""
    m, q, o = ext.m, ext.q, ext.o
    if m == 1:
        return ext.one(), 0
    TF, s = TupleField(ext.base), (ext.order - 1) // m
    for n in range(1, ext.order):
        rows, counter = [], n
        for _ in range(o):
            counter, digit = divmod(counter, q)
            rows.append(TF.element_by_counter(digit))
        w = np.array(rows[::-1], dtype=np.int64)
        xi = ext.pow(w, s)
        if not any(ext.is_one(ext.pow(xi, m // ell)) for ell in factorize(m)):
            return xi, n
    raise AssertionError(f"no element of order {m}")


def oracle_irreducible(F: TupleField, f) -> bool:
    """Trial division: the monic f (coefficient tuples, low degree first) of
    degree d is irreducible iff no monic g of degree 1..d/2 leaves remainder 0."""
    d, neg = len(f) - 1, F.scalar(-1)
    for deg in range(1, d // 2 + 1):
        for n in range(F.q**deg):
            g = [F.element_by_counter(n // F.q**i % F.q) for i in range(deg)] + [F.one()]
            r = list(f)
            for top in range(d, deg - 1, -1):  # cancel r[top] with r[top] y^(top-deg) g
                c = F.mul(neg, r[top])
                for j in range(deg + 1):
                    r[top - deg + j] = F.add(r[top - deg + j], F.mul(c, g[j]))
            if all(x == F.zero() for x in r[:deg]):
                return False
    return True


def oracle_rref(rows, p):
    """(RREF rows, pivots) mod p by Gauss-Jordan on Python ints."""
    M, pivots = [[int(x) % p for x in row] for row in rows], []
    for c in range(len(M[0]) if M else 0):
        j = next((j for j in range(len(pivots), len(M)) if M[j][c]), None)
        if j is None:
            continue
        r = len(pivots)
        M[r], M[j] = M[j], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        M = [row if i == r else [(x - row[c] * y) % p for x, y in zip(row, M[r])]
             for i, row in enumerate(M)]
        pivots.append(c)
    return M[:len(pivots)], pivots


def brute_force_min_weight(genmat: np.ndarray, q: int) -> int:
    """Plain full enumeration over all messages (test-scale oracle)."""
    k, n = genmat.shape
    best = n + 1
    for idx in range(1, q**k):
        msg = np.empty(k, dtype=np.int64)
        v = idx
        for pos in range(k - 1, -1, -1):
            msg[pos] = v % q
            v //= q
        w = int(np.count_nonzero((msg @ genmat) % q))
        if w < best:
            best = w
    return best


def parity_check(genmat: np.ndarray, pivots: List[int], p: int) -> np.ndarray:
    """Parity-check matrix of the code with RREF generator matrix genmat."""
    k, n = genmat.shape
    free = np.delete(np.arange(n), pivots)  # np.setdiff1d would import numpy.ma
    H = np.zeros((n - k, n), dtype=np.int64)
    H[np.arange(n - k), free] = 1
    H[:, pivots] = (-genmat[:, free].T) % p
    return H


def macwilliams_distance(genmat: np.ndarray, pivots: List[int], q: int) -> int:
    """Minimum distance of the code with RREF genmat from the MacWilliams
    transform of its dual weight distribution, all q^(n-k) dual codewords
    enumerated (one per scalar class, each counted q - 1 times)."""
    k, n = genmat.shape
    r = n - k
    H = parity_check(genmat, pivots, q).astype(np.float64)
    B = [1] + [0] * n
    for lead in range(r):  # dual words whose message has its first nonzero, a 1, at lead
        width = r - lead - 1
        for start in range(0, q**width, 1 << 16):
            idx = np.arange(start, min(start + (1 << 16), q**width))
            digits = (idx[:, None] // q ** np.arange(width - 1, -1, -1) % q).astype(np.float64)
            words = (digits @ H[lead + 1:] + H[lead]) % q
            for w, count in zip(*np.unique(np.count_nonzero(words, axis=1), return_counts=True)):
                B[int(w)] += int(count) * (q - 1)
    assert sum(B) == q**r, "dual weight distribution does not sum to q^(n-k)"
    # A_w = q^-r sum_j B_j K_w(j), with the Krawtchouk values K_w(j) =
    # sum_s (-1)^s (q-1)^(w-s) C(j, s) C(n-j, w-s) from their three-term
    # recurrence in w: (w+1) K_{w+1} = (w + (q-1)(n-w) - q j) K_w - (q-1)(n-w+1) K_{w-1}
    A, K, K1 = [], [1] * (n + 1), [(q - 1) * (n - j) - j for j in range(n + 1)]
    for w in range(n + 1):
        acc = sum(b * K[j] for j, b in enumerate(B) if b)
        assert acc % q**r == 0, f"MacWilliams transform is not integral at weight {w}"
        A.append(acc // q**r)
        K, K1 = K1, [((w + 1 + (q - 1) * (n - w - 1) - q * j) * K1[j] - (q - 1) * (n - w) * K[j])
                     // (w + 2) for j in range(n + 1)]
    assert A[0] == 1 and min(A) >= 0 and sum(A) == q**k, "MacWilliams transform is not a distribution"
    return next(w for w in range(1, n + 1) if A[w])


def low_weight_from_parity_check(genmat: np.ndarray, pivots: List[int], q: int) -> int:
    """min(d, 3) from the columns of the parity check, the interval route's
    weight-1 and weight-2 test before it read the rows of genmat."""
    H = parity_check(genmat, pivots, q)
    n = H.shape[1]
    # w = 1: a zero column of H
    if not H.any(axis=0).all():
        return 1
    # w = 2: two proportional columns, equal once each is scaled by the
    # inverse of its first nonzero entry
    lead, which = np.unique(H[(H != 0).argmax(axis=0), np.arange(n)], return_inverse=True)
    inv = np.array([pow(int(a), -1, q) for a in lead])
    cols = np.ascontiguousarray((H * inv[which] % q).T)
    return 2 if len({col.tobytes() for col in cols}) < n else 3


def count_pcis(G, q: int):
    """Per-pair pci counts and the summed dimension of the census rows."""
    rows = census(G, q)
    per_pair = {}
    for r in rows:
        per_pair[r.pair.label()] = per_pair.get(r.pair.label(), 0) + 1
    return {"per_pair": per_pair, "total_dim": sum(r.dim for r in rows)}


def sum_idempotents(alg, idems):
    """The sum of the idempotents' values in alg."""
    total = alg.zero()
    for e in idems:
        total = total + e.value
    return total


def trivial_subgroup(G) -> Subgroup:
    return Subgroup(G, [G.identity], gens=(G.identity,))


def stacked_translate_code(alg, e):
    """(genmat, pivots): the RREF of all |G| translates g*e stacked into one
    n x n matrix, row g being (g*e)[x] = e[g^-1 x]."""
    G = alg.G
    n = G.order
    rows = np.empty((n, n), dtype=np.int64)
    for start, block in G.grid(G.inv_vec(np.arange(n)), G.elements()):
        rows[start:start + len(block)] = e.vec[block]
    return rref_mod(rows, alg.q)


# ---------------------------------------------------------------------------
# scalar group oracles: one G.mul / G.inv at a time, no index tables


def scalar_conjugate(G, g: int, x: int) -> int:
    return G.mul(G.mul(G.inv(x), g), x)


def _conjugates_land(G, ss, target, x: int) -> bool:
    return all(scalar_conjugate(G, s, x) in target for s in ss)


def oracle_is_normal(G, S) -> bool:
    elems = set(S.elements)
    return all(_conjugates_land(G, S.gens or S.elements, elems, x) for x in G.generators())


def oracle_normalizer(G, S) -> List[int]:
    elems = set(S.elements)
    return [x for x in G.elements() if _conjugates_land(G, S.gens or S.elements, elems, x)]


def oracle_center(G) -> List[int]:
    gens = G.generators()
    return [x for x in G.elements() if all(G.mul(x, g) == G.mul(g, x) for g in gens)]


def oracle_centralizer_mod(G, N, h0: int, K) -> List[int]:
    """x in N with the commutator (h0 x)^-1 (x h0) in K."""
    kset = set(K.elements)
    return [x for x in N.elements if G.mul(G.inv(G.mul(h0, x)), G.mul(x, h0)) in kset]


def oracle_quotient_generator(G, H, K):
    """First h of H.elements whose coset hK has order [H:K], or "not normal"."""
    kset = set(K.elements)
    if not all(_conjugates_land(G, K.gens or K.elements, kset, x) for x in H.gens or H.elements):
        return "not normal"
    target = H.order // K.order
    for h in H.elements:
        t, o = h, 1
        while t not in kset:
            t, o = G.mul(t, h), o + 1
        if o == target:
            return h
    return None


def oracle_verify_ssp(G, H, K):
    """The strong Shoda pair verdict and reason, one conjugate at a time."""
    if not set(K.elements) <= set(H.elements):
        return False, "K is not contained in H"
    if not oracle_is_normal(G, H):
        return False, "H is not normal in G"
    h0 = oracle_quotient_generator(G, H, K)
    if h0 == "not normal":
        return False, "K is not normal in H"
    if h0 is None:
        return False, "H/K is not cyclic"
    N = oracle_normalizer(G, K)
    cent = oracle_centralizer_mod(G, type(H)(G, N), h0, K)
    if set(cent) != set(H.elements):
        return False, "H/K is not maximal abelian in N_G(K)/K"
    return True, ""


def oracle_element_order(G, x: int) -> int:
    t, o = x, 1
    while t != G.identity:
        t, o = G.mul(t, x), o + 1
    return o


def oracle_closure(G, gens) -> List[int]:
    """Sorted elements of <gens>, one scalar product at a time."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        frontier = [y for y in {G.mul(x, g) for x in frontier for g in gens} if y not in seen]
        seen.update(frontier)
    return sorted(seen)


def oracle_coset_labels(G, S, side: str) -> List[int]:
    """Label of each g's left coset gS (side "left") or right coset Sg
    ("right"), cosets numbered in the order of their least elements."""
    labels, count = [-1] * G.order, 0
    for g in G.elements():
        if labels[g] < 0:
            for s in S.elements:
                labels[G.mul(g, s) if side == "left" else G.mul(s, g)] = count
            count += 1
    return labels


def oracle_orbit_labels(perms) -> List[int]:
    """Orbit label of each point under the rows of perms, orbits numbered by
    least point: a scalar search from each unlabelled point."""
    labels, count = [-1] * len(perms[0]), 0
    for x in range(len(labels)):
        if labels[x] < 0:
            labels[x], todo = count, [x]
            while todo:
                y = todo.pop()
                for p in perms:
                    if labels[p[y]] < 0:
                        labels[p[y]] = count
                        todo.append(p[y])
            count += 1
    return labels


def oracle_action(G, pair) -> Tuple[List[int], List[int]]:
    """N = N_G(H) cap N_G(K) and, per x in N, the t with x^-1 h0 x in K h0^t,
    by a walk over the cosets K h0^t: the action data of ShodaPair.normaliser
    before it is reduced to |N| and the distinct t."""
    H, K, h0 = pair.H, pair.K, pair.h0
    N = sorted(set(oracle_normalizer(G, H)) & set(oracle_normalizer(G, K)))
    kset, powers = set(K.elements), [G.identity]
    while len(powers) < pair.index:
        powers.append(G.mul(powers[-1], h0))
    t_of_N = []
    for x in N:
        y = scalar_conjugate(G, h0, x)
        t_of_N.append(next(t for t, g in enumerate(powers) if G.mul(y, G.inv(g)) in kset))
    return N, t_of_N


def oracle_unit_orbits(m: int, q: int, t_of_N) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, ...]], List[int]]:
    """The q-cosets of the units of Z/m, the orbits of their least members
    under r -> (the rep of r t), t in t_of_N, and per orbit the count of t
    with r t in r's coset, by scalar walks: the cosets, orbits and
    stabiliser counts of idem.cosets_and_orbits."""
    if m == 1:
        return [(0,)], [(0,)], [len(t_of_N)]
    seen, cosets = set(), []
    for k in range(1, m):
        if math.gcd(k, m) != 1 or k in seen:
            continue
        coset, t = [], k
        while t not in seen:
            seen.add(t)
            coset.append(t)
            t = t * q % m
        cosets.append(tuple(sorted(coset)))
    rep_of = {s: c[0] for c in cosets for s in c}
    exps = sorted(set(t_of_N))
    unseen, orbits = {c[0] for c in cosets}, []
    for rep in sorted(unseen):
        if rep not in unseen:
            continue
        orbit, frontier = set(), [rep]
        unseen.discard(rep)
        while frontier:
            r = frontier.pop()
            orbit.add(r)
            for t in exps:
                r2 = rep_of[r * t % m]
                if r2 in unseen:
                    unseen.discard(r2)
                    frontier.append(r2)
        orbits.append(tuple(sorted(orbit)))
    counts = [sum(rep_of[o[0] * t % m] == o[0] for t in t_of_N) for o in orbits]
    return cosets, orbits, counts
