"""Linear codes from idempotents: rank, exact and certified distances, bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from .ffield import (
    coset_order, factorize, is_prime, matmul_mod, mult_order, odd_prime_i0, rank_mod, rref_mod,
    rref_stack, v_adic,
)
from .groups import FiniteGroup, Subgroup, orbit_labels, quotient_is_cyclic
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
# GF(p) linear algebra (echelon forms live in ffield)


def parity_check(genmat: np.ndarray, pivots: List[int], p: int) -> np.ndarray:
    """Parity-check matrix of the code with RREF generator matrix genmat."""
    k, n = genmat.shape
    free = np.delete(np.arange(n), pivots)  # np.setdiff1d would import numpy.ma
    H = np.zeros((n - k, n), dtype=np.int64)
    H[np.arange(n - k), free] = 1
    H[:, pivots] = (-genmat[:, free].T) % p
    return H


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
    # column c lies in part cosets[c], and the code is the direct sum of its
    # parts on these column sets; None is one part
    cosets: Optional[np.ndarray] = None

    @property
    def k(self) -> int:
        return self.genmat.shape[0]

    @property
    def params(self) -> Tuple[int, int, Optional[int]]:
        d = self.d_lo if self.d_lo == self.d_hi else None
        return (self.n, self.k, d)

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
    no rank.  Each coset's translate is row-reduced in its column order; the
    RREF of a direct sum is the union of its summands' RREFs, so the rows
    sorted by pivot are the RREF of all |G| stacked translates g*e.  The code
    carries ``cosets``, each column's coset, and ``perms``, G's generators'
    permutations of all n columns, for `min_distance`.
    """
    G, q = alg.G, alg.q
    n = G.order
    gens, members = G.generators(), np.arange(n)  # S = G: one coset
    if isinstance(e, Idempotent):
        H, e = getattr(e.pair, "H", None), e.value
        if H is not None and H.gens and all(x in H for x in e.support().tolist()):
            gens, members = list(H.gens), np.array(H.elements, dtype=np.int64)
    m = len(members)  # x in S is the block's column searchsorted(members, x)
    # row i permutes the block as generator s_i of S: (s_i*v)[x] = v[spin[i, x]]
    spin = np.searchsorted(members, G.mul_vec(G.inv_vec(np.array(gens))[:, None], members[None, :]))
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
        new = new[:, spin].transpose(1, 0, 2).reshape(-1, m)
    genmat, lead = np.zeros((n // m * len(pivots), n), dtype=np.int64), []
    # the left cosets gS, numbered by least element: the running maximum of
    # the labels first reaches c at the least element of coset c
    cosets = orbit_labels(G.mul_vec(np.arange(n)[None, :], np.array(gens)[:, None]))
    top = np.maximum.accumulate(cosets)
    for g in np.searchsorted(top, np.arange(top[-1] + 1)):
        cols = G.mul_vec(g, members)
        at = np.argsort(cols)
        R, piv = (block, pivots) if (np.diff(cols) > 0).all() else rref_mod(block[:, at], q)
        genmat[len(lead):len(lead) + len(piv), cols[at]] = R
        lead += cols[at][piv].tolist()
    order = np.argsort(lead)
    # row i is the permutation of G's generator s_i: (s_i*v)[x] = v[perms[i, x]]
    perms = G.mul_vec(G.inv_vec(np.array(G.generators()))[:, None], np.arange(n)[None, :])
    return LinearCode(q, n, genmat[order], [lead[i] for i in order], 1, n,
                      provenance=dict(provenance or {}, side="left"), perms=perms, cosets=cosets)


# ---------------------------------------------------------------------------
# minimum distance


def min_distance(
    code: LinearCode,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> Tuple[int, int, Optional[np.ndarray]]:
    """``(d_lo, d_hi, witness)``, also stored on ``code``: exact when affordable.

    Routes: Brouwer-Zimmermann enumeration over disjoint information sets
    (exact) when its worst case, `_worst_case`, is at most ``budget``
    codewords; otherwise an interval: d_lo reads weights 1 and 2 off the
    RREF rows (and searches weight 3 up on the parity check while the budget
    allows), and d_hi is the lightest word over seeded random information
    sets, row-reduced per part of the code's direct-sum split ``cosets``: for
    a pci one part per left coset of its pair's H.  High-rate codes
    whose RREF rows are all heavy can therefore get an interval even when
    their dual is small.  The witness has weight d_hi.  Failed internal
    checks (witness weight and membership) raise `CertificateError`.

    A code from `ideal_to_code` carries ``perms``, the coordinate permutations
    of G's generators, under which the ideal is invariant.  The enumeration
    then needs only the pivot set P (|P| = k): once its rounds 1..w are done,
    a codeword lighter than all seen is unseen with all its G-images, so it
    has w + 1 nonzeros on every translate gP; the n translates cover each
    coordinate k times, so its weight is at least ceil(n(w + 1)/k), and the
    search stops when that reaches the lightest weight seen.  The
    permutations are checked first (invariance, transitivity); a failure
    raises `CertificateError`.
    """
    if code.k == 0:
        raise ZeroCode("zero-dimensional code has no distance")
    if _worst_case(code.genmat, code.q) <= budget:
        lo, witness, _ = _brouwer_zimmermann(code.genmat, code.pivots, code.q, code.perms)
        hi = lo
    else:
        lo = _weight_enum_lower(code, budget)
        hi, witness = _information_set_upper(code, budget, seed)
    code.d_lo, code.d_hi, code.witness = lo, hi, witness
    return lo, hi, witness


def _worst_case(genmat: np.ndarray, q: int) -> int:
    """Codewords `_brouwer_zimmermann` examines at most on the RREF genmat:
    the messages of rounds 1..min(k, max(1, rho - 1)) on the pivot set, rho
    the lightest row weight.  Round 1 sees every row, so the pivot set alone
    proves the minimum by round rho - 1, and the search takes more sets only
    when its projection says they cost less."""
    k = genmat.shape[0]
    rho = int(np.count_nonzero(genmat, axis=1).min())
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
    _check(np.count_nonzero(word) == best and np.array_equal((word[pivots] @ genmat) % q, word),
           "enumerated witness is not a codeword of weight d")
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


def _kernel_vector(mat: np.ndarray, p: int) -> Optional[np.ndarray]:
    """A nonzero kernel vector of mat (columns = unknowns), or None."""
    R, pivots = rref_mod(mat, p)
    ncols = mat.shape[1]
    free = np.delete(np.arange(ncols), pivots)
    if not len(free):
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[free[0]] = 1
    x[pivots] = (-R[:, free[0]]) % p
    return x


def _weight_enum_lower(code: LinearCode, budget: int) -> int:
    """Largest w+1 such that no nonzero codeword has weight <= w.  A codeword
    is fixed by its pivot symbols, so weight 1 is a row of weight 1, and
    weight 2 a row of weight 2 or two rows proportional off the pivots."""
    q, n, genmat = code.q, code.n, code.genmat
    weights = np.count_nonzero(genmat, axis=1)
    if weights.min() <= 2:
        return int(weights.min())
    # proportional free parts are equal once each is scaled by the inverse
    # of its first nonzero entry
    rest = genmat[:, np.delete(np.arange(n), code.pivots)]
    lead = rest[np.arange(len(rest)), (rest != 0).argmax(axis=1)].tolist()
    inv = np.array([pow(a, -1, q) for a in lead])
    rows = np.ascontiguousarray(rest * inv[:, None] % q)
    if len({row.tobytes() for row in rows}) < len(rows):  # hashing beats np.unique(axis=0)'s sort
        return 2
    w, H = 3, None
    while math.comb(n, w) * (q - 1) ** (w - 1) <= budget // max(1, n):
        H = parity_check(genmat, code.pivots, q) if H is None else H
        for support in combinations(range(n), w):
            sub = H[:, support]
            word = _kernel_vector(sub, q)  # None when the w columns are independent
            if word is not None and np.count_nonzero(word) == w:
                return w
        w += 1
    return w


def _information_set_upper(code: LinearCode, budget: int, seed: int):
    """Lightest word over the rows of randomly permuted RREFs and random
    combinations of rows.  The RREF of a direct sum is the union of its
    summands' RREFs, so a trial's RREF is its parts' on ``cosets``, each
    row-reduced on its columns in the trial's order: one `rref_stack` takes
    every trial's parts of one shape.  Each trial offers its rows in pivot
    order, then its random words, and the first lightest counts."""
    q, n, k = code.q, code.n, code.k
    rng = np.random.default_rng(seed)
    trials = max(8, min(64, budget // max(1, k * n * n)))
    perms, coeffs = [], []
    for _ in range(trials):  # the draws of one trial after another
        perms.append(rng.permutation(n))
        coeffs += [rng.integers(0, q, size=k) for _ in range(16)]
    perms = np.array(perms)
    part = np.zeros(n, dtype=np.int64) if code.cosets is None else code.cosets
    # cols[t] lists the columns part by part, each part's in trial t's order,
    # and place[t] their positions in that order
    place = np.argsort(part[perms], axis=1, kind="stable")
    cols = np.take_along_axis(perms, place, axis=1)
    size = np.bincount(part)
    start = np.cumsum(size) - size
    rows = [np.flatnonzero(part[code.pivots] == b) for b in range(len(size))]
    shapes: Dict[Tuple[int, int], List[int]] = {}
    for b in range(len(size)):
        if len(rows[b]):
            shapes.setdefault((len(rows[b]), int(size[b])), []).append(b)
    # key = weight * n + pivot position, least at the first lightest row in pivot order
    keys, found = [], []
    for (r, c), parts in shapes.items():
        at = start[parts][:, None] + np.arange(c)  # (parts, c) positions in cols[t]
        mats = code.genmat[np.array([rows[b] for b in parts])[None, :, :, None],
                           cols[:, at][:, :, None]]  # (trials, parts, r, c)
        R, piv = rref_stack(mats.reshape(-1, r, c), q)
        R, piv = R.reshape(trials, len(parts), r, c), piv.reshape(trials, len(parts), r)
        lead = np.take_along_axis(place[:, at], piv, axis=2)
        keys.append((np.count_nonzero(R, axis=3) * n + lead).reshape(trials, -1))
        found += [(R, at, j, i) for j in range(len(parts)) for i in range(r)]
    keys = np.concatenate(keys, axis=1)
    first = keys.argmin(axis=1)
    # a few random combinations of rows per trial, multiplied out together;
    # the first lightest nonzero word counts
    words = matmul_mod(np.array(coeffs), code.genmat, q)
    weights = np.count_nonzero(words, axis=1)
    weights[weights == 0] = n + 1
    weights = weights.reshape(trials, 16)
    lightest = weights.argmin(axis=1)
    best_w, best = n, None
    for t in range(trials):
        if keys[t, first[t]] // n < best_w:
            R, at, j, i = found[first[t]]
            best_w, best = int(keys[t, first[t]]) // n, np.zeros(n, dtype=np.int64)
            best[cols[t, at[j]]] = R[t, j, i]
        if weights[t, lightest[t]] < best_w:
            best_w, best = int(weights[t, lightest[t]]), words[16 * t + lightest[t]].copy()
    return best_w, best


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
