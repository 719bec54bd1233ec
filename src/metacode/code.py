"""Linear codes from idempotents: rank, exact and certified distances, bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ffield import (
    coset_order, factorize, is_prime, matmul_mod, mult_order, odd_prime_i0, rank_mod, rref_mod,
    v_adic,
)
from .groups import FiniteGroup, Subgroup, full_subgroup, orbit_labels, quotient_is_cyclic
from .idem import GroupAlgebra, Idempotent, InvariantError, census
DEFAULT_BUDGET = 500_000_000


class CodeError(Exception):
    pass


class ZeroCode(CodeError):
    pass


class QuotientNotCyclic(CodeError):
    pass


class CertificateError(CodeError):
    """An internal check of a distance certificate failed."""


class GenmatFormatError(CodeError):
    """Generator-matrix text that is malformed or outside the digit format."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CertificateError(what)


# ---------------------------------------------------------------------------
# codes


@dataclass
class LinearCode:
    q: int
    n: int
    genmat: np.ndarray  # k x n, RREF
    pivots: List[int]
    d_lo: int
    d_hi: int
    witness: Optional[np.ndarray] = None
    provenance: Dict = field(default_factory=dict)
    # coordinate permutations that map the code onto itself, row i sending v
    # to v[perms[i]]; min_distance checks them before it relies on them
    perms: Optional[np.ndarray] = None
    # column c lies in part cosets[c]: a claimed direct-sum split, which
    # min_distance checks against genmat before it reads the code part by
    # part (no nonzero off its row's part); None is one part
    cosets: Optional[np.ndarray] = None
    # permutations of one part's columns, in ascending order, that map every
    # part's block onto itself: S's generators (Subgroup.geometry.spin) when
    # every coset holds the spun block; _interval checks them on each
    # distinct block before it relies on them.  None carries none
    part_perms: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        return self.genmat.shape[0]

    def __repr__(self):
        d = str(self.d_lo) if self.d_lo == self.d_hi else f"{self.d_lo}..{self.d_hi}"
        return f"[{self.n}, {self.k}, {d}]_{self.q}"


def ideal_to_code(alg: GroupAlgebra, e, provenance: Optional[Dict] = None) -> LinearCode:
    """The left ideal A*e as a linear code, built from one block.

    S is the pair's H when e is an `Idempotent` whose pair's H has generators
    and holds supp(e), as every pci's does, and G otherwise.  A*e is then the
    direct sum of the blocks g*(F_q[S]*e), one on each left coset gS: the
    [G:H] of the Eq. (2) dimension.  The block is spun out of e on S's columns
    (the MeatAxe spin; Parker 1984), with no |S| x |S| array: each round maps
    the rows the last one added by S's generators, (s*v)[x] = v[s^-1 x], and
    folds what the basis does not reduce to zero into it, until a round adds
    no rank.  Each coset's translate is taken in RREF in its column order.
    That is the block itself when the coset keeps the block's column order,
    or when one product shows the reordered rows v still in the block's row
    space (v = v[pivots] @ block), an RREF being unique; otherwise it is
    row-reduced (no reordered coset of the 20 `analogue1155` pci codes is).
    The RREF of a direct sum is the union of its summands' RREFs, so the
    rows sorted by pivot are the RREF of all |G| stacked translates g*e:
    every row's pivot is known before any row is written, and each row is
    written once, in its place.  The cosets, their columns and the spin
    permutations depend on S alone and come from `Subgroup.geometry`, built
    once per subgroup.  The code carries ``cosets``, each column's coset,
    and ``perms``, G's generators' permutations of all n columns, for
    `min_distance`; both are read-only arrays that every code of S shares.
    When no coset has an RREF of its own, every part's block is the spun
    one, which S's generators map onto itself, so the code also carries
    ``part_perms``, their permutations of a part's columns (`geo.spin`).
    """
    G, q = alg.G, alg.q
    S = full_subgroup(G)  # one coset
    if isinstance(e, Idempotent):
        H, e = getattr(e.pair, "H", None), e.value
        if H is not None and H.gens and all(x in H for x in e.support().tolist()):
            S = H
    geo, members = S.geometry, S.array  # x in S is the block's column searchsorted(members, x)
    m = len(members)
    block, pivots, is_free = np.zeros((0, m), dtype=np.int64), [], np.ones(m, dtype=bool)
    new = e.vec[members][None, :]
    while True:
        # reduced against the basis the images vanish on its pivots: keep the rest
        free = is_free.nonzero()[0]
        cand = matmul_mod(new[:, pivots], block[:, free], q, new[:, free]) if pivots else new
        R, piv = rref_mod(cand, q)
        if not piv:
            break
        new = np.zeros((len(piv), m), dtype=np.int64)
        new[:, free] = R
        piv = free[piv].tolist()
        if pivots:
            block = matmul_mod(block[:, piv], new, q, block)
        block, pivots = np.concatenate([block, new]), pivots + piv
        is_free[piv] = False
        new = new[:, geo.spin].transpose(1, 0, 2).reshape(-1, m)
    # every row's lead first: coset c's rows are the block on its columns
    # cols[c], unless a reordered coset's translate has an RREF of its own
    lead, own = geo.cols[:, pivots], {}
    for c in geo.moved.tolist():
        translate = block[:, geo.at[c]]
        if matmul_mod(translate[:, pivots], block, q, translate).any():
            own[c], piv = rref_mod(translate, q)
            lead[c] = geo.cols[c, piv]
    # then each coset's rows go straight to their places in pivot order
    order = np.argsort(lead, axis=None)
    row = np.argsort(order).reshape(lead.shape)  # row[c, i]: where coset c's row i goes
    genmat = np.zeros((lead.size, G.order), dtype=np.int64)
    genmat[row[:, :, None], geo.cols[:, None, :]] = block
    for c, R in own.items():
        genmat[row[c][:, None], geo.cols[c]] = R
    return LinearCode(q, G.order, genmat, lead.ravel()[order].tolist(), 1, G.order,
                      provenance=dict(provenance or {}, side="left"), perms=G.generator_perms,
                      cosets=geo.labels, part_perms=None if own else geo.spin)


# ---------------------------------------------------------------------------
# minimum distance


def min_distance(
    code: LinearCode,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Tuple[int, int, np.ndarray]:
    """``(d_lo, d_hi, witness)``, also stored on ``code``: exact when affordable.

    Routes: Brouwer-Zimmermann enumeration over disjoint information sets
    (exact) when its worst case, `_worst_case`, is at most ``budget``
    codewords; otherwise an interval from `_interval`, one pass over the
    parts of the code's direct-sum split ``cosets`` (for a pci one part per
    left coset of its pair's H): d_lo reads weights 1 and 2 off the RREF
    rows (and, from weight 3 up while the budget allows, runs
    Brouwer-Zimmermann rounds on the pivot set), and d_hi is the lightest
    word of Brouwer-Zimmermann rounds on each distinct part block, which
    find d whenever d_lo's rounds do.  High-rate codes whose RREF rows are
    all heavy can therefore get an interval even when their dual is small.
    Every route is deterministic: ``seed`` is ignored, and kept only so that
    callers which pass it still run.  Failed internal checks raise
    `CertificateError`: the witness of either route, checked once on the
    whole code, of weight other than d_hi or outside the row space, and a
    nonzero of genmat off its row's part.

    A code from `ideal_to_code` carries ``perms``, the coordinate permutations
    of G's generators, under which the ideal is invariant.  The enumeration
    then needs only the pivot set P (|P| = k): once its rounds 1..w are done,
    a codeword lighter than all seen is unseen with all its G-images, so it
    has w + 1 nonzeros on every translate gP; the n translates cover each
    coordinate k times, so its weight is at least ceil(n(w + 1)/k), and the
    search stops when that reaches the lightest weight seen.  The
    permutations are checked first (invariance, transitivity); a failure
    raises `CertificateError`.  The interval route's block rounds stop at
    the same bound, ceil(c w / r) for an r x c block after its rounds
    1..w - 1, with ``perms`` on a block that is the whole code and, on the
    parts of a pci code, the ``part_perms`` that `ideal_to_code` carries,
    H's generators on a part's columns; each distinct block checks them
    before it relies on them.  A code that carries neither, such as one from
    `parse_genmat`, runs every round its budget allows.
    """
    if code.k == 0:
        raise ZeroCode("zero-dimensional code has no distance")
    genmat, pivots, q = code.genmat, code.pivots, code.q
    weights = np.count_nonzero(genmat, axis=1)
    if _worst_case(weights, q) <= budget:
        lo, witness, _ = _brouwer_zimmermann(genmat, pivots, q, code.perms)
        hi = lo
    else:
        lo, hi, witness = _interval(code, budget, weights)
    on = np.flatnonzero(witness[pivots])  # the nonzero message symbols
    _check(np.count_nonzero(witness) == hi, "the witness does not have weight d_hi")
    _check(np.array_equal(witness[pivots][on] @ genmat[on] % q, witness), "the witness is not a codeword")
    code.d_lo, code.d_hi, code.witness = lo, hi, witness
    return lo, hi, witness


def _worst_case(weights: np.ndarray, q: int) -> int:
    """Codewords `_brouwer_zimmermann` examines at most on an RREF genmat
    with these row weights: the messages of rounds 1..min(k, max(1, rho - 1))
    on the pivot set, rho the lightest row weight.  Round 1 sees every row,
    so the pivot set alone proves the minimum by round rho - 1, and the
    search takes more sets only when its projection says they cost less."""
    k, rho = len(weights), int(weights.min())
    total, size = 0, k  # size = C(k, w) (q-1)^(w-1), the messages of round w
    for w in range(1, min(k, max(1, rho - 1)) + 1):
        total, size = total + size, size * (k - w) * (q - 1) // (w + 1)
    return total


_BZ_ROWS = 1 << 14  # codewords per enumeration block
_BZ_CELLS = 1 << 20  # and symbols per block, for long codes


def _brouwer_zimmermann(
    genmat: np.ndarray, pivots: List[int], q: int, perms: Optional[np.ndarray] = None
) -> Tuple[int, np.ndarray, int]:
    """(d, witness, codewords examined) for the code with RREF genmat.

    Disjoint information sets P_0 = pivots, P_1, ... of rank r_j <= k, each
    an RREF with the columns no earlier set took ordered first.  Round w
    enumerates the messages of weight w, first nonzero symbol 1, on each
    searched set's systematic generator matrix; a set waits while w <= k - r_j
    and then catches up on the rounds it skipped.  Once set j has run rounds
    1..w_j, a codeword not yet seen has at least max(0, w_j + 1 - (k - r_j))
    nonzero symbols on P_j; the search stops when the sum reaches the lightest
    weight seen, or set 0 has run round k.  At the end of each round it goes
    on with the first s sets for the s whose projected count (at the lightest
    weight so far, which can only fall) is least and keeps the total within
    (q^k - 1)/(q - 1); the current s always does, so the total never passes
    it.  The next set is built only when that choice takes it at full rank.
    Zimmermann (1996); Grassl (2006).

    perms, when given, are coordinate permutations that map the code onto
    itself and generate a group Gamma transitive on the n coordinates
    (`_check_automorphisms` raises CertificateError otherwise).  Then the
    search also stops once ceil(n (w_0 + 1) / k) reaches the lightest weight:
    a codeword c lighter than every one seen is unseen, and so is each of its
    images under Gamma, so c has at least w_0 + 1 nonzeros on every translate
    gamma P_0; summed over Gamma, which puts each coordinate in k |Gamma| / n
    of them, k wt(c) >= n (w_0 + 1).
    """
    if perms is not None:
        _check_automorphisms(genmat, pivots, q, perms)
    k, n = genmat.shape
    size = [math.comb(k, w) * (q - 1) ** max(0, w - 1) for w in range(k + 1)]
    left = [sum(size[w:]) for w in range(k + 2)]  # codewords of rounds w..k on one set
    gammas, ranks, done = [genmat], [k], [0]  # per set: systematic generator, rank, last round
    free = np.delete(np.arange(n), pivots)
    free = free[genmat[:, free].any(axis=0)]  # zero columns join no set
    best, word, examined = n + 1, None, 0

    def bound(r: int, w: int) -> int:  # on a rank-r set, for codewords unseen after rounds 1..w
        return max(0, w + 1 - (k - r))

    def after(s: int, w: int, j: int) -> Tuple[int, int]:  # next step when s sets are searched
        return (w, j + 1) if j + 1 < s and bound(ranks[j + 1], w) else (w + 1, 0)

    def stops(dn: List[int]) -> bool:  # a bound meets the lightest weight, or set 0 is done
        return (sum(map(bound, ranks, dn)) >= best or dn[0] == k
                or perms is not None and -(-n * (dn[0] + 1) // k) >= best)

    def cost(s: int, w: int, j: int) -> int:  # codewords s sets take from set j of round w on
        dn, total = done + [0] * (len(ranks) - len(done)), 0
        while True:
            total, dn[j] = total + left[dn[j] + 1] - left[w + 1], w
            if stops(dn):
                return total
            w, j = after(s, w, j)

    def pick(w: int, j: int) -> int:
        return min(range(1, len(ranks) + 1), key=lambda s: (
            examined + (c := cost(s, *after(s, w, j))) > left[1], c, s))

    s, w, j = 1, 1, 0  # the first s sets are searched; set j runs round w next
    while True:
        for v in range(done[j] + 1, w + 1):
            weight, cw = _weight_round(gammas[j], q, v)
            if weight < best:
                best, word = weight, cw
        examined, done[j] = examined + left[done[j] + 1] - left[w + 1], w
        if stops(done):
            break
        if after(s, w, j)[0] > w:  # end of round w
            if len(free):
                ranks.append(min(k, len(free)))  # the next set's rank, at most
                if pick(w, j) < len(ranks):
                    ranks.pop()
                else:
                    order = np.concatenate([free, np.delete(np.arange(n), free)])
                    R, piv = rref_mod(genmat[:, order], q)
                    piv = [c for c in piv if c < len(free)]  # the new set is free[piv]
                    free = np.delete(free, piv)
                    gammas.append(R[:, np.argsort(order)])  # identity there, rows >= r vanish on free
                    ranks[-1] = len(piv)
                    done.append(0)
            s = pick(w, j)
        w, j = after(s, w, j)
    return best, word, examined


def _check_automorphisms(genmat: np.ndarray, pivots: List[int], q: int, perms: np.ndarray) -> None:
    """CertificateError unless each row of perms permutes the n coordinates,
    maps the code with RREF genmat onto itself, and together they are
    transitive on the coordinates."""
    n = genmat.shape[1]
    _check(perms.ndim == 2 and perms.shape[1] == n and (np.sort(perms, axis=1) == np.arange(n)).all(),
           "a carried automorphism is not a permutation of the coordinates")
    moved = np.take(genmat, perms, axis=1).reshape(-1, n)  # v[perm] for each row v and perm
    _check(not matmul_mod(moved[:, pivots], genmat, q, moved).any(),
           "a carried permutation does not map the code onto itself")
    _check(not orbit_labels(perms).any(),
           "the carried permutations are not transitive on the coordinates")


def _weight_round(gamma: np.ndarray, q: int, w: int) -> Tuple[int, np.ndarray]:
    """Lightest codeword m @ gamma over the C(k, w) (q-1)^(w-1) messages m of
    weight w with first nonzero symbol 1."""
    k, n = gamma.shape
    messages = math.comb(k, w) * (q - 1) ** (w - 1)
    acc_t = np.min_scalar_type(2 * q - 1)  # unsigned; holds the sum of two reduced terms
    # row a*k + i is a * gamma[i] (q*k*n entries); weight 1 needs only a = 1
    table = (np.arange(q if w > 1 else 2)[:, None, None] * gamma % q).astype(acc_t).reshape(-1, n)
    # binom[i, c] = C(c, i) unranks supports in the combinatorial number system
    binom = np.array([[math.comb(c, i) for c in range(k)] for i in range(w + 1)])
    best, word, rows = n + 1, None, max(1, min(_BZ_ROWS, _BZ_CELLS // n))
    for start in range(0, messages, rows):
        sup, pat = np.divmod(np.arange(start, min(start + rows, messages)), (q - 1) ** (w - 1))
        acc = np.zeros((len(sup), n), dtype=acc_t)
        for i in range(w, 0, -1):  # support c_w > ... > c_1; c_1 has coefficient 1
            c = np.searchsorted(binom[i], sup, side="right") - 1
            sup -= binom[i, c]
            pat, a = np.divmod(pat, q - 1) if i > 1 else (pat, 0)
            acc += table[c + (a + 1) * k]
            np.minimum(acc, acc - q, out=acc)  # acc - q wraps past acc unless acc >= q
        weights = np.count_nonzero(acc, axis=1)
        i = int(np.argmin(weights))
        if weights[i] < best:
            best, word = int(weights[i]), acc[i].astype(np.int64)
    return best, word


def _interval(code: LinearCode, budget: int, weights: np.ndarray) -> Tuple[int, int, np.ndarray]:
    """(d_lo, d_hi, witness), given genmat's row weights, in one pass over
    the parts of the code's direct-sum split ``cosets`` that hold a pivot.
    Part b's block is genmat[own == b][:, part == b], the rows whose pivot
    lies in b on b's columns: an RREF whose pivots are an information set
    of the part.
    CertificateError when a block misses a nonzero of its rows, on every
    part, equal ones too: rows of different parts must have disjoint
    supports for the per-part steps below to be sound.  Equal blocks have
    the same words, so only the first part with each content goes on.

    d_lo: a codeword is fixed by its pivot symbols, so weight 1 is a row of
    weight 1, and weight 2 a row of weight 2 or two rows of one part
    proportional off the pivots, read off each block's free columns.  From
    w = 3 on, while C(n, w) (q-1)^(w-1) <= budget / n, Brouwer-Zimmermann
    rounds up to w on the pivot set (`_weight_round`; round 1 is the rows)
    see every codeword of weight <= w.

    d_hi: round w on a block gives its lightest word of message weight w,
    and no unseen word is lighter than w + 1.  A block runs rounds
    w = 1, 2, ... while w <= r and C(r, w) (q-1)^(w-1) <= budget / c for its
    r x c shape (round 1, its rows, always), and stops before round w once
    the lightest word seen, on any block, weighs at most w.  A block that
    carries coordinate permutations (``perms`` when it is the whole code,
    ``part_perms`` otherwise) also stops before round w >= 2 once
    ceil(c w / r) reaches that weight: a word of the block lighter than every
    word seen is unseen with all its images, so it has at least w nonzeros
    on every translate of the block's pivot set, and its weight is at least
    c w / r (the group bound of `_brouwer_zimmermann`).  Only a strictly
    lighter word replaces the witness, so the stop changes neither d_hi nor
    the witness.  Before it relies on them `_check_automorphisms` checks the
    permutations on the block, once per distinct block, and raises
    CertificateError unless they map it onto itself and are transitive.  The
    witness is that word on its part's columns."""
    q, n, genmat, pivots = code.q, code.n, code.genmat, code.pivots
    part = np.zeros(n, dtype=np.int64) if code.cosets is None else code.cosets
    own = part[pivots]
    free = np.ones(n, dtype=bool)
    free[pivots] = False
    lo, hi, word, seen = int(weights.min()), n + 1, None, set()
    for b in np.flatnonzero(np.bincount(own)).tolist():
        rows, cols = own == b, part == b
        block = genmat[rows][:, cols]
        _check((np.count_nonzero(block, axis=1) == weights[rows]).all(),
               "a nonzero of genmat lies off its row's part")
        if (key := (block.shape, block.tobytes())) in seen:
            continue
        seen.add(key)
        if lo > 2:
            # proportional free rows are equal once each is scaled by the
            # inverse of its first nonzero entry; hashing beats np.unique's sort
            rest = block[:, free[cols]]
            lead = rest[np.arange(len(rest)), (rest != 0).argmax(axis=1)]
            scaled = rest * np.array([pow(a, -1, q) for a in lead.tolist()])[:, None] % q
            if len({row.tobytes() for row in scaled}) < len(rest):
                lo = 2
        r, c = block.shape
        perms = code.perms if cols.all() else code.part_perms
        for w in range(1, r + 1):
            if hi <= w or w > 1 and math.comb(r, w) * (q - 1) ** (w - 1) > budget // c:
                break
            if w > 1 and perms is not None and -(-c * w // r) >= hi:
                _check_automorphisms(block, np.flatnonzero(~free[cols]), q, perms)
                break
            weight, cw = _weight_round(block, q, w)
            if weight < hi:
                hi, word = weight, np.zeros(n, dtype=np.int64)
                word[cols] = cw
    if lo > 2:
        w, ran = 3, 1  # rounds 1..ran have run on the pivot set
        while math.comb(n, w) * (q - 1) ** (w - 1) <= budget // n:
            while ran < w:
                ran += 1
                lo = min(lo, _weight_round(genmat, q, ran)[0])
            if lo <= w:
                break
            w += 1
        lo = min(lo, w)
    return lo, hi, word


# ---------------------------------------------------------------------------
# theorem audits


@dataclass
class TheoremBounds:
    source: str
    dim: int
    d_min_bound: int
    d_max_bound: int
    d_exact: Optional[int] = None
    details: Dict = field(default_factory=dict)

    def contains(self, d: int) -> bool:
        if self.d_exact is not None and d != self.d_exact:
            return False
        return self.d_min_bound <= d <= self.d_max_bound


def theorem21_bounds(alg: GroupAlgebra, K: Subgroup, e: Idempotent) -> TheoremBounds:
    """Dimension, basis, and 2|K| <= d <= wt(e) for (G, K)-type codes.

    ``details["basis_rank"]`` is the rank of the claimed basis {e, e*g0, ...,
    e*g0^(dim-1)} for every index t = [G : K].  For K = G the code is the
    repetition code [|G|, 1, |G|]: the basis is the single row e, and the
    generic lower bound 2|K| is replaced by |G|, so the window is exact at |G|.
    """
    G, q = alg.G, alg.q
    g0 = quotient_is_cyclic(G, K)
    if g0 is None:
        raise QuotientNotCyclic("G/K is not cyclic")
    t = G.order // K.order
    dim = mult_order(q, t)
    rows, cur = [], e.value
    for _ in range(dim):
        rows.append(cur.vec)
        cur = cur * alg.basis(g0)
    details: Dict = {"index": t, "basis_rank": rank_mod(np.array(rows), q)}
    if t == 1:
        # K = G: the averaging idempotent spans the repetition code
        return TheoremBounds("thm-2.1", 1, G.order, G.order, G.order, details)
    wt = e.value.weight()
    d_exact = None
    f = factorize(t)
    if len(f) == 1 and t % 2 == 1:
        ((p, j),) = f.items()
        if dim == p ** (j - 1) * (p - 1):
            d_exact = 2 * K.order
    return TheoremBounds("thm-2.1", dim, 2 * K.order, wt, d_exact, details)


def theorem61_params(G, q: int, j1: int, beta: int) -> TheoremBounds:
    """Predicted dimension and distance window for e_{p1^j1,k} <b^beta>^ codes."""
    f1, f2 = factorize(G.N), factorize(G.M)
    if len(f1) != 1 or len(f2) != 1:
        raise CodeError("Eq.(3)-shaped group required: N and M prime powers")
    ((p1, m),), ((p2, l),) = f1.items(), f2.items()
    o = mult_order(q, p1**j1)
    lam = v_adic(math.gcd(beta, p2**l), p2) if beta % p2**l else l
    omega0 = coset_order(G.r, q, p1**j1)
    lam0 = v_adic(math.gcd(omega0, p2**l), p2) if omega0 % p2**l else l
    dim = o * p2 ** (lam + lam0)
    i01 = odd_prime_i0(q, p1)
    lo = 2 * p1 ** (m - j1) * p2 ** (l - lam)
    hi = (p1**m if j1 <= i01 else p1 ** (m - j1 + i01)) * p2 ** (l - lam)
    return TheoremBounds(
        "thm-6.1", dim, lo, hi, details={"lambda": lam, "lambda0": lam0, "omega0": omega0}
    )


# ---------------------------------------------------------------------------
# algebra structure reports


@dataclass
class WedderburnReport:
    q: int
    group_name: str
    components: List[Tuple[int, int, int]]  # (matrix size, field degree, multiplicity)
    total_dim: int

    def multiset(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(sorted(self.components))


def wedderburn_report(G: FiniteGroup, q: int) -> WedderburnReport:
    rows = census(G, q)
    tally: Dict[Tuple[int, int], int] = {}
    for r in rows:
        tally[(r.matrix_size, r.field_degree)] = tally.get((r.matrix_size, r.field_degree), 0) + 1
    comps = [(size, deg, mult) for (size, deg), mult in sorted(tally.items())]
    total = sum(r.dim for r in rows)
    if total != G.order:
        raise InvariantError(f"Wedderburn dimension {total} != |G| = {G.order}")
    return WedderburnReport(q, G.name, comps, total)


def algebra_isomorphic(G1: FiniteGroup, G2: FiniteGroup, q: int) -> bool:
    """Componentwise comparison of the two Wedderburn decompositions."""
    return wedderburn_report(G1, q).multiset() == wedderburn_report(G2, q).multiset()


# ---------------------------------------------------------------------------
# generator-matrix serialisation


def _check_digit_field(q: int) -> None:
    if not (q <= 7 and is_prime(q)):
        raise GenmatFormatError(f"digit format covers prime fields up to q = 7, got q = {q}")


def emit_genmat(code: LinearCode) -> str:
    """Header `q n k`, then k rows of GF(q) digits (prime fields q <= 7)."""
    _check_digit_field(code.q)
    lines = [f"{code.q} {code.n} {code.k}"]
    for row in code.genmat:
        lines.append("".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_genmat(text: str) -> LinearCode:
    """Inverse of `emit_genmat`; malformed text raises GenmatFormatError.

    Library API on purpose, with no CLI command: it loads a matrix that
    `metacode code genmat` or another tool wrote."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 3 or not all(v.isdecimal() for v in head):
        raise GenmatFormatError(f"header must be 'q n k', got {' '.join(head)!r}")
    q, n, k = (int(v) for v in head)
    _check_digit_field(q)
    body = lines[1:]
    if len(body) != k or any(len(ln) != n or not ln.isdecimal() for ln in body):
        raise GenmatFormatError(f"expected {k} rows of {n} digits")
    if any(int(ch) >= q for ln in body for ch in ln):
        raise GenmatFormatError(f"a digit is not below q = {q}")
    rows = np.array([[int(ch) for ch in ln] for ln in body], dtype=np.int64).reshape(k, n)
    genmat, pivots = rref_mod(rows, q)
    if genmat.shape[0] != k:
        raise GenmatFormatError("rows of a generator matrix must be independent")
    return LinearCode(q, n, genmat, pivots, 1, n)
