"""Finite fields GF(p^e), root-of-unity extensions, and trace predicates.

GF(q), q = p^e, is GF(p)[x]/(F) with F the lex-least monic irreducible of
degree e (F = x when e = 1); its elements are int64 rows of e coefficients
over GF(p), low degree first, and a polynomial over GF(q) is an array of
such rows, low degree first.  The extension GF(q^o) carrying an m-th root
of unity xi is GF(q)[y]/(f) with f the lex-least monic irreducible of
degree o over GF(q).  Its elements are flat int64 vectors of length o*e
over GF(p), entry j*e + s being the coefficient of x^s y^j.  A product is
one np.convolve and one matmul with the reduction matrix of f, and a
relative trace is one matmul with the trace functional.  Both modulus
searches, for F and for f, are the same Ben-Or irreducibility test over the
same enumeration, its gcds one Euclid on the Python-int counter codes of
the coefficients; the steps whose y^(q^i) is still a monomial take that
gcd directly, before any ring arithmetic.  xi is the first w^s, s =
(q^o - 1)/m, w in counter order, of order m; the candidates come in blocks
of GF(q)-multiples, each walked at one multiple and tested at the others
together in closed form.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np


class FieldError(Exception):
    pass


class NonPrimeCharacteristic(FieldError):
    pass


class NotCoprime(FieldError):
    pass


class EvenQ(FieldError):
    pass


class HypothesisViolated(FieldError):
    pass


class FieldTooLarge(FieldError):
    pass


# Largest extension degree we materialise as an explicit field.  Beyond this,
# traces of composite-order roots are assembled from coprime-degree subfields.
DIRECT_DEGREE_CAP = 200

# Largest table of power matrices (q x (d+1) x e x e entries) that the modulus
# search builds to drop candidates with a root.
_ROOT_TABLE_CELLS = 1 << 20

# Largest q x q sum and product tables of GF(p^e), e > 1, that the Ben-Or gcd
# builds; the modulus search over a larger GF(p^e) raises FieldTooLarge.
_GCD_TABLE_CELLS = 1 << 20

# Most (multiple, candidate) cells that ExtFieldCtx._block_xi's closed-form
# scan holds at once.
_XI_SCAN_ROWS = 1 << 16

# Largest p whose (p-1)^2 is an int64: the echelon forms' exact range.
_INT64_PRODUCT_P = math.isqrt(2**63 - 1) + 1


# ---------------------------------------------------------------------------
# elementary number theory


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> Dict[int, int]:
    """Prime factorisation by trial division (inputs here stay desk-sized)."""
    if n < 1:
        raise ValueError(f"can only factorise positive integers, got {n}")
    out: Dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def v_adic(n: int, p: int) -> int:
    if n == 0 or p < 2:
        raise ValueError(f"v_adic needs n != 0 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mult_order(q: int, m: int) -> int:
    """Least o >= 1 with q^o = 1 mod m.

    The order divides the Carmichael exponent lambda(m), the lcm over the
    prime powers of m of p^(a-1)(p-1) (2^(a-2) for 2^a, a >= 3); each prime
    l of lambda(m) is stripped while q^(o/l) is still 1 mod m.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    if math.gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    lam = 1
    for p, a in factorize(m).items():
        lam_pa = 2 ** (a - 2) if p == 2 and a >= 3 else p ** (a - 1) * (p - 1)
        lam = lam * lam_pa // math.gcd(lam, lam_pa)
    o = lam
    for ell in factorize(lam):
        while o % ell == 0 and pow(q, o // ell, m) == 1:
            o //= ell
    return o


def coset_order(r: int, q: int, m: int) -> int:
    """Order of r<q> in (Z/m)^*/<q>: the least w >= 1 with r^w in <q> mod m.

    The w with r^w in <q> are the multiples of the least one, which so
    divides ord_m(r): each prime l is stripped from ord_m(r) while r^(w/l)
    stays in <q>.  Membership is a baby-step giant-step search over the
    o = ord_m(q) powers of q, with b = isqrt(o) + 1 baby steps q^i, i < b,
    met by x q^(-b k) for k <= (o - 1) / b.
    """
    if math.gcd(r, m) != 1:  # a unit r has r^w = 1 in <q> for some w
        raise NotCoprime(f"gcd({r}, {m}) != 1")
    o = mult_order(q, m)
    b = math.isqrt(o) + 1
    baby = {pow(q, i, m) for i in range(b)}
    giant = pow(q, -b, m)

    def in_qgrp(x: int) -> bool:
        for _ in range((o - 1) // b + 1):
            if x in baby:
                return True
            x = x * giant % m
        return False

    w = mult_order(r % m, m)
    for ell in factorize(w):
        while w % ell == 0 and in_qgrp(pow(r, w // ell, m)):
            w //= ell
    return w


# ---------------------------------------------------------------------------
# GF(p) linear algebra


def ref_mod(mat: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Row echelon form mod p; returns (nonzero rows, pivot columns).
    FieldTooLarge for p > 3037000500, where int64 products of entries wrap."""
    if p > _INT64_PRODUCT_P:
        raise FieldTooLarge(f"GF({p}) products are past exact int64 arithmetic")
    M = mat % p  # a new array
    nrows, ncols = M.shape
    pivots: List[int] = []
    r = c = 0
    while r < nrows and c < ncols:
        nz = M[r:, c].nonzero()[0]
        if len(nz) == 0:
            # a zero run: the next column with a nonzero in rows r.., found in
            # windows of 8, 16, 32, ... columns, so a long run costs a few
            # scans and a rank-deficient matrix stops soon after its last pivot
            c, width = c + 1, 8
            while c < ncols and not (hit := M[r:, c:c + width].any(axis=0)).any():
                c, width = c + width, 2 * width
            if c < ncols:
                c += int(hit.argmax())
            continue
        piv = r + int(nz[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        if M[r, c] != 1:
            M[r, c:] = (M[r, c:] * pow(int(M[r, c]), -1, p)) % p
        hot = r + 1 + M[r + 1:, c].nonzero()[0]  # rows below, all zero left of c
        if len(hot):
            M[hot, c:] = (M[hot, c:] - np.outer(M[hot, c], M[r, c:])) % p
        pivots.append(c)
        r, c = r + 1, c + 1
    return M[:r].copy(), pivots  # a view would keep all nrows rows alive


def rref_mod(mat: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p."""
    R, pivots = ref_mod(mat, p)
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        above = R[:i, c]
        hot = np.nonzero(above)[0]
        if len(hot):
            R[hot, c:] = (R[hot, c:] - np.outer(above[hot], R[i, c:])) % p
    return R, pivots


def rank_mod(mat: np.ndarray, p: int) -> int:
    return len(ref_mod(mat, p)[1])


def matmul_mod(A: np.ndarray, B: np.ndarray, p: int, c: Optional[np.ndarray] = None) -> np.ndarray:
    """A @ B mod p, or c - A @ B mod p when c is given, exact, for 2-D
    integer arrays with entries in [0, p); c has the product's shape.

    The products run in float64 BLAS over slabs of the inner dimension, each
    short enough that the running total t, reduced after every slab, keeps
    |t| below 2^53 - p: then t and floor(t / p) are exact.  FieldTooLarge
    when not even one term fits, that is for p > 94906265 ((p-1)^2 near 2^53).
    """
    slab = (2**53 - 2 * p) // max(1, (p - 1) ** 2)
    if slab < 1:
        raise FieldTooLarge(f"GF({p}) products are past exact float64 sums")
    A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    # over an empty inner axis the product is the zero array of its shape
    out = A[:, :0] @ B[:0] if c is None else np.array(c, dtype=np.float64)
    step, quo = np.add if c is None else np.subtract, np.empty_like(out)
    for s in range(0, A.shape[1], slab):
        step(out, A[:, s:s + slab] @ B[s:s + slab], out=out)
        np.floor(np.divide(out, p, out=quo), out=quo)  # np.remainder takes 5x longer
        out -= np.multiply(quo, p, out=quo)
    return out.astype(np.int64)


# ---------------------------------------------------------------------------
# GF(p^e) contexts


class FieldCtx:
    """GF(p^e) with the lexicographically least monic irreducible modulus.

    Elements are int64 coefficient rows over GF(p), low degree first, length
    e; modulus is the (e+1,) row of F.  Two contexts with equal (p, e) are
    bit-identical by construction.
    """

    def __init__(self, p: int, e: int, modulus: np.ndarray):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self.modulus.flags.writeable = False
        # _xmul[s][t] = x^(s+t) mod the modulus, for s < 2e - 1 and t < e, so
        # c @ _xmul[s] is c * x^s for a coefficient vector c
        xp = np.zeros((3 * e - 2, e), dtype=np.int64)
        xp[:e] = np.eye(e, dtype=np.int64)
        low = modulus[:e]
        for k in range(e, 3 * e - 2):
            xp[k, 1:] = xp[k - 1, :-1]
            xp[k] = (xp[k] - xp[k - 1, e - 1] * low) % p
        self._xmul = np.stack([xp[s : s + e] for s in range(2 * e - 1)])

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    @cached_property
    def _code_weights(self) -> np.ndarray:
        """rows @ _code_weights is the counter code of each coefficient row.

        Counter order is lex order on the rows, c0 most significant."""
        return self.p ** np.arange(self.e - 1, -1, -1, dtype=np.int64)

    def _rows(self, codes) -> np.ndarray:
        """The elements with these counter codes, one row each: the inverse
        of rows @ _code_weights."""
        return np.asarray(codes, dtype=np.int64)[..., None] // self._code_weights % self.p

    def _mul_mats(self, b: np.ndarray) -> np.ndarray:
        """(..., e, e) multiplication matrices of the rows b: a @ M is a * b."""
        e = self.e
        return (b @ self._xmul[:e].reshape(e, e * e) % self.p).reshape(b.shape[:-1] + (e, e))

    def _pow_rows(self, a: np.ndarray, n: int) -> np.ndarray:
        """a^n for every row of the (N, e) array a, n >= 0, by square-and-multiply."""
        out, mats = np.zeros_like(a), self._mul_mats(a)
        out[:, 0] = 1
        for bit in bin(n)[2:]:
            out = np.einsum("ns,nst->nt", out, self._mul_mats(out)) % self.p
            if bit == "1":
                out = np.einsum("ns,nst->nt", out, mats) % self.p
        return out

    @cached_property
    def _code_tables(self) -> Tuple[List[List[int]], List[List[int]], List[int]]:
        """(add, mul, neg_inv) of GF(q) on counter codes, as Python lists:
        add[a][b], mul[a][b] and neg_inv[a] are the codes of a + b, a * b and
        -1/a (neg_inv[0] is 0).  FieldTooLarge when the q x q tables are past
        _GCD_TABLE_CELLS."""
        q, p, e = self.q, self.p, self.e
        if q * q > _GCD_TABLE_CELLS:
            raise FieldTooLarge(f"GF({p}^{e}) is past the {_GCD_TABLE_CELLS}-cell gcd tables")
        els = self._rows(np.arange(q))
        w = self._code_weights
        mul = (els @ self._mul_mats(els) % p @ w).T  # (els @ mats)[b, a] = a * b
        add = (els[:, None] + els[None, :]) % p @ w
        inv = np.argmax(mul == w[0], axis=1)  # w[0] is the code of 1
        return add.tolist(), mul.tolist(), ((-els[inv]) % p @ w).tolist()


_FIELD_CACHE: Dict[Tuple[int, int], FieldCtx] = {}


def make_field(p: int, e: int = 1) -> FieldCtx:
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if e < 1:
        raise FieldError(f"extension degree must be >= 1, got {e}")
    key = (p, e)
    ctx = _FIELD_CACHE.get(key)
    if ctx is None:
        if e == 1:
            modulus = np.array([0, 1], dtype=np.int64)  # x, the degree-1 convention
        else:
            modulus = _ring(make_field(p), e).modulus[:, 0].copy()
        ctx = _FIELD_CACHE[key] = FieldCtx(p, e, modulus)
    return ctx


# ---------------------------------------------------------------------------
# GF(q)[y]/(f) in matrix form
#
# For a monic f of degree o over GF(q), q = p^e, an element of GF(q)[y]/(f)
# is a flat int64 vector of length o*e over GF(p): entry j*e + s is the
# coefficient of x^s y^j.  A product packs each GF(q) coefficient into a
# width-(2e-1) block (for e = 1 the flat vector is its own packing) so that
# one np.convolve forms the bivariate product without carries; entry
# j*(2e-1) + s of that product is the coefficient of x^s y^j, and one matmul
# with the reduction matrix, whose row j*(2e-1) + s is x^s y^j mod (modulus,
# f), reduces it back to a flat vector, kept in float64 between the
# products of a power.


ExtElem = np.ndarray


def _sqm_products(n: int) -> int:
    """Ring products square-and-multiply spends on a^n, n >= 1."""
    return n.bit_length() + bin(n).count("1") - 2


def _base_digits(n: int, q: int) -> List[int]:
    """The base-q digits of n >= 0, least significant first (none for 0)."""
    digits = []
    while n:
        n, d = divmod(n, q)
        digits.append(d)
    return digits


def _horner_products(digits: List[int]) -> int:
    """NumPy products _pow_digits spends on a^s, s given by its base-q digits,
    each matrix counting as one: per distinct nonzero digit d below the top
    one, a^d and two matrices; a^top; one vector-matrix product per digit
    below the top one."""
    return len(digits) - 1 + _sqm_products(digits[-1]) + sum(
        _sqm_products(d) + 2 for d in set(digits[:-1]) if d)


class _QuotientRing:
    """GF(q)[y]/(f) for a monic f of degree o >= 1, given as (o+1, e) rows."""

    def __init__(self, base: FieldCtx, f: np.ndarray):
        self.base = base
        self.p = base.p
        self.o = f.shape[0] - 1
        self.n = self.o * base.e
        self.modulus = f
        self.modulus.flags.writeable = False

    @cached_property
    def _red(self) -> np.ndarray:
        """((2o-1)(2e-1), o*e) reduction matrix: row j*(2e-1)+s is x^s y^j mod f.

        It is float64 so that products use BLAS.  Every sum they form has at
        most (2o-1)(2e-1) terms below p^2, so they are exact below 2^53.
        """
        base, o, e, p = self.base, self.o, self.base.e, self.p
        if (2 * o - 1) * (2 * e - 1) * (p - 1) ** 2 >= 2**53:
            raise FieldTooLarge(f"degree {o} over GF({p}^{e}) is past exact float64 products")
        # c @ lead is c * (f - y^o) for c in GF(q): subtracting it cancels c y^o
        lead = np.einsum("iv,tvu->tiu", self.modulus[:o], base._xmul[:e]).reshape(e, o * e) % p
        ypow = np.zeros((2 * o - 1, o, e), dtype=np.int64)  # y^j mod f
        ypow[np.arange(o), np.arange(o), 0] = 1
        for j in range(o, 2 * o - 1):
            ypow[j, 1:] = ypow[j - 1, :-1]
            ypow[j] = (ypow[j] - (ypow[j - 1, o - 1] @ lead).reshape(o, e)) % p
        # row (j, s) is x^s times each coefficient of y^j: one matmul, then
        # reorder the axes (j, i, s, u) to (j, s, i, u)
        xmul = base._xmul.transpose(1, 0, 2).reshape(e, -1)
        red = (ypow.reshape(-1, e) @ xmul % p).reshape(2 * o - 1, o, 2 * e - 1, e)
        return red.transpose(0, 2, 1, 3).reshape(-1, self.n).astype(np.float64)

    @cached_property
    def _trace_map(self) -> np.ndarray:
        """(o*e, e) matrix of the relative trace to GF(q) over GF(p).

        tau_j = tr(y^j) is the trace of multiplication by y^j, the sum over
        i of the y^i-coefficient of y^(i+j) mod f; row j*e + s is x^s tau_j.
        """
        o, e = self.o, self.base.e
        ypow = self._red.reshape(2 * o - 1, 2 * e - 1, o, e)[:, 0].astype(np.int64)
        i = np.arange(o)
        tau = ypow[i[:, None] + i[None, :], i[None, :]].sum(axis=1)
        return np.einsum("jt,stu->jsu", tau, self.base._xmul[:e]).reshape(self.n, e) % self.p

    def _mulmat(self, a) -> np.ndarray:
        """(n, n) float64 matrix of multiplication by a: b @ _mulmat(a) is a * b.

        Row j*e + s is a * x^s y^j: the packed a shifted by j(2e-1) + s
        places, reduced by _red in one product.  A row has at most o*e
        nonzero terms, fewer than _red's rows, so the product is exact.
        """
        o, e, red = self.o, self.base.e, self._red
        w, L = 2 * e - 1, red.shape[0]
        Q = np.zeros(2 * L - 1)  # the last block's top e - 1 entries are zero
        Q[L - 1:L - 1 + (o - 1) * w + e] = self._pack(a)[:(o - 1) * w + e]
        # row (j, s) reads Q from L - 1 - (j*w + s) >= o*w - e >= 0 on
        st = Q.itemsize
        rows = np.lib.stride_tricks.as_strided(Q[L - 1:], shape=(o, e, L), strides=(-w * st, -st, st))
        return rows.reshape(self.n, L) @ red % self.p

    @cached_property
    def _frob(self) -> np.ndarray:
        """(n, n) float64 matrix of a -> a^q: row j*e + s is x^s (y^q)^j.

        x lies in GF(q), so x^q = x; entries and sums stay below 2^53 as
        in _mulmat."""
        o, e, p = self.o, self.base.e, self.p
        yq = np.zeros((o, self.n))  # (y^q)^j
        yq[0, 0] = 1
        if o > 1:
            y = self.zero()
            y[e] = 1
            M = self._mulmat(self.pow(y, self.base.q))
            for j in range(1, o):
                yq[j] = yq[j - 1] @ M % p
        # x^s times each GF(q) coefficient u of (y^q)^j: _xmul[s] acts on its row
        frob = np.einsum("jiu,suv->jsiv", yq.reshape(o, o, e), self.base._xmul[:e]) % p
        return frob.reshape(self.n, self.n)

    def _vec(self, a) -> np.ndarray:
        """An element as a flat vector; its (o, e) coefficient rows are accepted."""
        return np.asarray(a, dtype=np.int64).reshape(self.n) % self.p

    def _pack(self, a) -> np.ndarray:
        """a reduced, each GF(q) coefficient in a (2e-1)-block."""
        return self._spread(self._vec(a))

    def _spread(self, a: np.ndarray) -> np.ndarray:
        """The reduced flat a in (2e-1)-blocks: a itself for e = 1, else a float64 copy."""
        e = self.base.e
        if e == 1:
            return a
        out = np.zeros((self.o, 2 * e - 1))
        out[:, :e] = a.reshape(self.o, e)
        return out.ravel()

    def _product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The reduced float64 flat vector of a * b, both packed."""
        red = self._red
        return np.convolve(a, b)[: red.shape[0]] % self.p @ red % self.p

    def zero(self) -> ExtElem:
        return np.zeros(self.n, dtype=np.int64)

    def one(self) -> ExtElem:
        out = self.zero()
        out[0] = 1
        return out

    def add(self, a, b) -> ExtElem:
        return (self._vec(a) + self._vec(b)) % self.p

    def mul(self, a, b) -> ExtElem:
        return self._product(self._pack(a), self._pack(b)).astype(np.int64)

    def pow(self, a, n: int) -> ExtElem:
        if n == 0:
            return self.one()
        result = self._vec(a)
        a = self._spread(result)
        for bit in bin(n)[3:]:
            square = self._spread(result)
            result = self._product(square, square)
            if bit == "1":
                result = self._product(self._spread(result), a)
        return result.astype(np.int64)

    def _pow_digits(self, a, digits: List[int]) -> ExtElem:
        """a^s from the base-q digits of s >= 1, least significant first, by
        Horner's rule from the top: r <- r^q a^d is r @ (F M_{a^d}), F =
        _frob, one vector-matrix product per digit below the top one and one
        matrix per distinct digit."""
        p = self.p
        mats = {d: self._frob @ self._mulmat(self.pow(a, d)) % p if d else self._frob
                for d in set(digits[:-1])}
        r = self.pow(a, digits[-1]).astype(np.float64)
        for d in reversed(digits[:-1]):
            r = r @ mats[d] % p
        return r.astype(np.int64)

    def _powers(self, a, m: int) -> np.ndarray:
        """(m, n) int64 rows a^t, t < m, by doubling: P[k:2k] = P[:k] @ M_{a^k}
        with M_{a^2k} = M_{a^k}^2, about 2 log2 m matrix products where the
        sequential powers take m - 2 ring products.  Timed against those for
        q <= 9, m <= 203, o <= 100: never slower from m = 3 on, and 1.3-9x
        faster from m = 13 on."""
        p = self.p
        powers = np.empty((m, self.n))
        powers[0] = self.one()
        powers[1:2] = self._vec(a)  # nothing when m = 1
        if m > 2:
            M, k = self._mulmat(a), 2
            while k < m:
                M = M @ M % p
                powers[k:2 * k] = powers[:min(k, m - k)] @ M % p
                k *= 2
        return powers.astype(np.int64)

    def is_one(self, a) -> bool:
        a = self._vec(a)
        return bool(a[0] == 1 and not a[1:].any())


def _trim(a: List[int]) -> List[int]:
    """Drop the zero leading coefficients of a polynomial listed low first."""
    while a and not a[-1]:
        a.pop()
    return a


def _coprime(base: FieldCtx, a: np.ndarray, b: np.ndarray) -> bool:
    """True iff gcd(a, b) over GF(q)[y] is a nonzero constant; a, b are (rows, e).

    One Euclid on Python ints, each coefficient its counter code: plain
    arithmetic mod p for e = 1, the base field's code tables for e > 1.
    """
    p, w = base.p, base._code_weights
    a, b = _trim((a @ w).tolist()), _trim((b @ w).tolist())
    if base.e == 1:
        while len(b) > 1:
            scale = p - pow(b[-1], -1, p)  # -1 / lead(b)
            while len(a) >= len(b):
                t, s = a[-1] * scale % p, len(a) - len(b)  # a + t y^s b cancels lead(a)
                a[s:] = [(x + t * y) % p for x, y in zip(a[s:], b)]
                _trim(a)
            a, b = b, a
    else:
        add, mul, neg_inv = base._code_tables
        while len(b) > 1:
            scale = neg_inv[b[-1]]
            while len(a) >= len(b):
                row, s = mul[mul[a[-1]][scale]], len(a) - len(b)
                a[s:] = [add[x][row[y]] for x, y in zip(a[s:], b)]
                _trim(a)
            a, b = b, a
    return len(b) == 1


def _is_irreducible(ring: _QuotientRing, rootless: bool) -> bool:
    """Ben-Or test: f of degree d is irreducible over GF(q) iff
    gcd(y^(q^i) - y, f) = 1 for every i <= d/2.

    i = 1 is skipped when f is known to have no root in GF(q) (rootless),
    as that gcd tests exactly that.  While q^i < d, y^(q^i) - y is already
    reduced mod f, so its gcd is taken directly, without the reduction
    matrix, products or powers: a candidate that fails there never builds
    `_red`.  Past that range the first y^(q^(i-1)) is a row of `_red` while
    q^(i-1) < 2d - 1, a power only beyond; the differences are multiplied
    together and one gcd is taken per block of steps, the blocks doubling
    (i, i+1..2i, ...): a reducible f usually fails in the first blocks, an
    irreducible one costs log d gcds.
    """
    base, f, d = ring.base, ring.modulus, ring.o
    q, e = base.q, base.e
    i = 2 if rootless else 1
    while q**i < d:  # so i <= d/2
        diff = np.zeros((q**i + 1, e), dtype=np.int64)
        diff[q**i, 0], diff[1, 0] = 1, base.p - 1
        if not _coprime(base, diff, f):
            return False
        i += 1
    if i > d // 2:
        return True
    ypow, k = ring._red[::2 * e - 1], q ** (i - 1)  # rows (j, 0): y^j mod f, j < 2d - 1
    h, acc, check = (ypow[k] if k < 2 * d - 1 else ring.pow(ypow[1], k)), ring.one(), i
    for i in range(i, d // 2 + 1):
        h = ring.pow(h, q)
        acc = ring.mul(acc, h - ypow[1])
        if i == check or i == d // 2:
            if not _coprime(base, acc.reshape(d, e), f):
                return False
            acc, check = ring.one(), 2 * i
    return True


def _irreducible(base: FieldCtx, d: int) -> _QuotientRing:
    """GF(q)[y]/(f), f the lex-least monic irreducible of degree d over GF(q).

    Lex order compares the constant coefficient first, each coefficient in
    the base field's counter order; candidates with zero constant term are
    divisible by y, so enumeration starts at c0 = 1.  Candidates with a root
    in GF(q) have a linear factor and are dropped before the Ben-Or test:
    f(x) for every x at once is one product with the multiplication
    matrices of all powers x^i (skipped when that table is too large).
    The ring returned is the one the Ben-Or test of f built.
    """
    q, p, e = base.q, base.p, base.e
    f = np.zeros((d + 1, e), dtype=np.int64)
    f[d, 0] = 1
    if d == 1:
        return _QuotientRing(base, f)  # y itself, the degree-1 convention
    if e > 1:
        base._code_tables  # FieldTooLarge now, not after the first candidates
    pow_mats = None  # pow_mats[x, i] is the matrix of x^i, so f(x) = sum_i f[i] @ pow_mats[x, i]
    if q * (d + 1) * e * e <= _ROOT_TABLE_CELLS:
        mul_x = base._mul_mats(base._rows(np.arange(q)))
        powers = np.zeros((q, d + 1, e), dtype=np.int64)
        powers[:, 0, 0] = 1
        for i in range(1, d + 1):
            powers[:, i] = np.einsum("xs,xst->xt", powers[:, i - 1], mul_x) % p
        pow_mats = base._mul_mats(powers)
    for c0 in range(1, q):
        f[0] = base._rows(c0)
        for rest in range(q ** (d - 1)):
            # rest's digits fill c_{d-1}, c_{d-2}, ... from least significant
            rest_digits = _base_digits(rest, q)
            f[1:d] = 0
            f[d - len(rest_digits):d] = base._rows(rest_digits[::-1])
            if pow_mats is not None:
                values = np.einsum("is,xist->xt", f, pow_mats) % p
                if not values.any(axis=1).all():
                    continue  # a root, so a linear factor
            ring = _QuotientRing(base, f.copy())
            if _is_irreducible(ring, pow_mats is not None):
                return ring
    raise FieldError("no irreducible found")  # unreachable


_RING_CACHE: Dict[Tuple[int, int, int], _QuotientRing] = {}


def _ring(base: FieldCtx, o: int) -> _QuotientRing:
    """The ring of the lex-least modulus of degree o over base, one per (p, e, o)."""
    key = (base.p, base.e, o)
    ring = _RING_CACHE.get(key)
    if ring is None:
        ring = _RING_CACHE[key] = _irreducible(base, o)
    return ring


# ---------------------------------------------------------------------------
# extension contexts carrying a root of unity


class ExtFieldCtx(_QuotientRing):
    """GF(q^o) over a FieldCtx base, with xi a fixed element of order m.

    o is the multiplicative order of q modulo m, so GF(q^o) is the least
    extension containing an m-th root of unity.  Elements are flat GF(p)
    vectors of length o*e (see _QuotientRing); modulus is the ring's
    (o+1, e) rows of f.
    """

    def __init__(self, ring: _QuotientRing, m: int):
        super().__init__(ring.base, ring.modulus)
        self.ring = ring
        self.m = m
        self.q = ring.base.q
        self.order = self.q**self.o
        self.xi: ExtElem = self._find_xi()
        self.xi.flags.writeable = False

    def __repr__(self):
        return f"GF({self.base.q}^{self.o}) with xi_{self.m}"

    # one reduction matrix, trace map and Frobenius matrix per modulus, shared
    # by every m
    _red = property(lambda self: self.ring._red)
    _trace_map = property(lambda self: self.ring._trace_map)
    _frob = property(lambda self: self.ring._frob)

    def _find_xi(self) -> ExtElem:
        """The first w^s, s = (q^o - 1)/m, w in counter order, of exact order m.

        Every such power has order dividing m, so only the maximal proper
        divisors m/l are tried per candidate; xi^m = 1 is checked once, on
        the element returned.  Counter order mirrors the base-field lex rule
        across rows: the least significant base-q digit of the counter is
        the y^(o-1) coefficient, so block L, the counters of L digits, holds
        the w whose top nonzero coefficient is at y^(o-L).  _block_xi tests
        the blocks in turn, up to the first with more than 2^20 powers.  w^s
        is _pow_digits where that takes fewer NumPy products than
        square-and-multiply, a matrix counting as one, and
        square-and-multiply otherwise; both give the same element."""
        m = self.m
        if m == 1:
            return self.one()
        q, o, s = self.q, self.o, (self.order - 1) // m
        digits = _base_digits(s, q)
        by_digits = _horner_products(digits) < _sqm_products(s)
        power = (lambda w: self._pow_digits(w, digits)) if by_digits else (lambda w: self.pow(w, s))
        blocks = (self._block_xi(L, power, factorize(m)) for L in range(1, o + 1) if q ** (L - 1) <= 1 << 20)
        xi = next((xi for xi in blocks if xi is not None), None)
        if xi is None:
            raise FieldError(f"no element of order {m} found")  # unreachable
        if not self.is_one(self.pow(xi, m)):
            raise FieldError(f"the element found for xi_{m} has xi^{m} != 1")
        return xi

    def _block_xi(self, L: int, power, ells: Dict[int, int]) -> Optional[ExtElem]:
        """The first xi in block L, or None when the block holds none.

        Its candidates are d w, d in GF(q)*, for the q^(L-1) w whose y^(o-L)
        coefficient is c0, the element of counter code 1 (1 for prime q); d
        = 1 gives the first q^(L-1) of the walk, tested one by one by W = w^s.
        Closed form (Lidl & Niederreiter, ch. 2): (d w)^s = d^s W, and its
        (m/l)-th power is d^E z_l, with z_l = W^(m/l) and E = (q^o - 1)/l mod
        (q - 1), as d^(q-1) = 1.  That is 1 only when z_l is a scalar lambda
        and d^E lambda = 1, so when no w passes at d = 1 one scan over the
        other d and every w replaces (q - 2) q^(L-1) powers; a w with z_l = 1
        at E = 0 fails at every d, is left out, and needs no further z_l.
        The scan takes the leading coefficients c = d c0 in counter order, in
        chunks that double up to _XI_SCAN_ROWS cells, so a large q scans
        little when an early c passes, and keeps the least d w that passes."""
        base, q, o, e, p = self.base, self.q, self.o, self.base.e, self.p
        T, Es = q ** (L - 1), [(self.order - 1) // ell % (q - 1) for ell in ells]
        kept = []  # (nonzero rows of w, W, lambda per l: 0, which no d^E cancels, if z_l is no scalar)
        for k in range(T):
            w = np.zeros((o, e), dtype=np.int64)
            w[o - L:] = base._rows(_base_digits(T + k, q)[::-1])  # c0, then k's digits
            W, z = power(w), []
            for ell, E in zip(ells, Es):
                z.append(self.pow(W, self.m // ell))
                if not E and self.is_one(z[-1]):
                    break
            else:
                if not any(self.is_one(x) for x in z):
                    return W
                kept.append((w[o - L:], W, [x[:e] * (not x[e:].any()) for x in z]))
        if not kept:
            return None
        rows, Ws, lams = zip(*kept)
        lam, codes = base._mul_mats(np.array(lams)), q ** np.arange(L - 1, -1, -1)
        by_c0_inv = base._mul_mats(base._pow_rows(base._rows([1]), q - 2)[0])
        cap = max(1, _XI_SCAN_ROWS // len(Ws))
        lo, size = 2, min(64, cap)
        while lo < q:
            ds = base._rows(np.arange(lo, min(q, lo + size))) @ by_c0_inv % p
            fails = np.zeros((len(ds), len(Ws)), dtype=bool)
            for j, E in enumerate(Es):
                d_lam = np.einsum("cs,tsu->ctu", base._pow_rows(ds, E), lam[:, j]) % p
                fails |= (d_lam[..., 0] == 1) & ~d_lam[..., 1:].any(axis=2)
            if not fails.all():
                i = (~fails).any(axis=1).argmax()
                keys = np.array(rows) @ base._mul_mats(ds[i]) % p @ base._code_weights @ codes
                k = np.where(fails[i], q**L, keys).argmin()  # the least d w that passes
                d_s = base._pow_rows(ds[i][None], (self.order - 1) // self.m % (q - 1))[0]
                return (Ws[k].reshape(o, e) @ base._mul_mats(d_s) % p).ravel()
            lo, size = lo + size, min(2 * size, cap)
        return None


_EXT_CACHE: Dict[Tuple[int, int, int], ExtFieldCtx] = {}


def extension_for_root(ctx: FieldCtx, m: int) -> ExtFieldCtx:
    """GF(q^o) with o = ord_m(q), carrying a fixed primitive m-th root xi."""
    if math.gcd(ctx.q, m) != 1:
        raise NotCoprime(f"gcd(q={ctx.q}, m={m}) != 1")
    key = (ctx.p, ctx.e, m)
    ext = _EXT_CACHE.get(key)
    if ext is None:
        ext = _EXT_CACHE[key] = ExtFieldCtx(_ring(ctx, mult_order(ctx.q, m)), m)
    return ext


def rel_trace(ext: ExtFieldCtx, x) -> np.ndarray:
    """tr_{GF(q^o)/GF(q)}(x) = sum of x^(q^j), j < o: a length-e row of GF(q)."""
    return ext._vec(x) @ ext._trace_map % ext.p


# ---------------------------------------------------------------------------
# trace tables for roots of unity
#
# trace_table(ctx, m)[t] = tr(xi_m^t) as a GF(q) coefficient row.  When the
# required extension degree exceeds DIRECT_DEGREE_CAP the table is assembled
# from a coprime split m = m1*m2 with gcd(o_m1(q), o_m2(q)) = 1, where the
# trace factors as a product of subfield traces.

_TRACE_CACHE: Dict[Tuple[int, int, int], np.ndarray] = {}


def trace_table(ctx: FieldCtx, m: int) -> np.ndarray:
    """The read-only (m, e) array of tr(xi_m^t), t < m; cached per (q, m)."""
    if math.gcd(ctx.q, m) != 1:
        raise NotCoprime(f"gcd(q={ctx.q}, m={m}) != 1")
    key = (ctx.p, ctx.e, m)
    table = _TRACE_CACHE.get(key)
    if table is None:
        if mult_order(ctx.q, m) <= DIRECT_DEGREE_CAP:
            table = _trace_table_direct(ctx, m)
        else:
            table = _trace_table_split(ctx, m)
        table.flags.writeable = False
        _TRACE_CACHE[key] = table
    return table


def _trace_table_direct(ctx: FieldCtx, m: int) -> np.ndarray:
    ext = extension_for_root(ctx, m)
    return ext._powers(ext.xi, m) @ ext._trace_map % ctx.p


def _coprime_split(q: int, m: int) -> Optional[Tuple[int, int]]:
    """Split m = m1*m2, coprime, with coprime trace degrees, if possible."""
    parts = [p**a for p, a in factorize(m).items()]
    if len(parts) < 2:
        return None
    for mask in range(1, 1 << (len(parts) - 1)):
        m1 = 1
        for i, pk in enumerate(parts):
            if mask >> i & 1:
                m1 *= pk
        m2 = m // m1
        o1, o2 = mult_order(q, m1), mult_order(q, m2)
        if math.gcd(o1, o2) == 1:
            return m1, m2
    return None


def _trace_table_split(ctx: FieldCtx, m: int) -> np.ndarray:
    split = _coprime_split(ctx.q, m)
    if split is None:
        raise FieldTooLarge(
            f"trace table for m={m} needs degree {mult_order(ctx.q, m)} over GF({ctx.q})"
        )
    m1, m2 = split
    t = np.arange(m)
    mats2 = ctx._mul_mats(trace_table(ctx, m2))
    return np.einsum("ts,tsu->tu", trace_table(ctx, m1)[t % m1], mats2[t % m2]) % ctx.p


# ---------------------------------------------------------------------------
# trace-vanishing predicates
#
# The q-orbit sum S_k = sum_j xi_M^(k q^j) vanishes for EVERY unit k exactly
# when <q> mod M contains the full kernel of U(M) -> U(M/p) for some prime p
# with p^2 | M (the kernel then has order p and each orbit fibre is a full
# geometric sum of p-th roots).  Equivalently: o_M(q) = p * o_{M/p}(q).
# Outside that regime the sum is a Gauss period whose vanishing genuinely
# depends on k, so the predicates resolve those cells by an exact trace.


def uniform_trace_vanishes(q: int, M: int) -> bool:
    """The structural all-k vanishing criterion for the q-orbit sum mod M."""
    if math.gcd(q, M) != 1:
        raise NotCoprime(f"gcd({q}, {M}) != 1")
    o = mult_order(q, M)
    for p in factorize(M):
        if M % (p * p) == 0 and o == p * mult_order(q, M // p):
            return True
    return False


def two_adic_branch(q: int) -> Tuple[int, int, int]:
    """Write odd q = sign + 2^i0 * c with c odd and i0 >= 2."""
    if q % 2 == 0:
        raise EvenQ(f"q={q} must be odd")
    if q < 3:
        raise ValueError("q must be an odd prime power >= 3")
    if q % 4 == 1:
        i0 = v_adic(q - 1, 2)
        return 1, i0, (q - 1) >> i0
    i0 = v_adic(q + 1, 2)
    return -1, i0, (q + 1) >> i0


def trace_vanishes_2power(q: int, i: int) -> bool:
    """Whether tr(xi_{2^i}) = 0 over GF(q), q odd.

    For q = 1 + 2^i0 c the threshold is i > i0; for q = -1 + 2^i0 c it is
    i = 2 or i > i0 + 1.  (The -1 branch threshold is one step later than
    the source lemma prints; the direct-trace sweeps adjudicate.)
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    sign, i0, _ = two_adic_branch(q)
    if sign == 1:
        return i > i0
    return i == 2 or i > i0 + 1


def odd_prime_i0(q: int, p: int) -> int:
    """Largest j with ord_{p^j}(q) = ord_p(q), for an odd prime p."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p={p} must be an odd prime")
    if math.gcd(q, p) != 1:
        raise NotCoprime(f"gcd({q}, {p}) != 1")
    return v_adic(q ** mult_order(q, p) - 1, p)


def two_power_i_star(q: int) -> int:
    """Largest i with tr(xi_{2^i}) != 0 over GF(q) (excluding the i=2 zero)."""
    sign, i0, _ = two_adic_branch(q)
    return i0 if sign == 1 else i0 + 1


def _orbit_sum_is_zero(q: int, M: int, k: int) -> bool:
    """Exact per-k resolution via the trace table (small fields only here)."""
    tab = trace_table(make_field(*prime_power(q)), M)
    return all(v == 0 for v in tab[k % M])


def prime_power(q: int) -> Tuple[int, int]:
    """(p, e) with q = p^e; NonPrimeCharacteristic unless q is a prime power >= 2."""
    fac = factorize(q) if q >= 2 else {}
    if len(fac) != 1:
        raise NonPrimeCharacteristic(f"q={q} is not a prime power")
    ((p, e),) = fac.items()
    return p, e


def trace_vanishes_two_odd_primes(
    q: int, p1: int, p2: int, j1: int, j2: int, k: int
) -> bool:
    """Vanishing of the q-orbit sum of xi_{p1^j1 p2^j2}^k (two odd primes).

    The structural criterion settles the all-k vanishing cells (which,
    under the p1 | (p2-1) exclusion, are exactly j1 > i0_1 or j2 > i0_2);
    remaining cells are k-dependent Gauss periods resolved exactly.
    """
    if not (is_prime(p1) and is_prime(p2)) or p1 % 2 == 0 or p2 % 2 == 0:
        raise ValueError("p1, p2 must be odd primes")
    if not p1 < p2:
        raise ValueError("need p1 < p2")
    if (p2 - 1) % p1 == 0:
        raise HypothesisViolated(f"{p1} divides {p2}-1; fall back to direct traces")
    n = p1**j1 * p2**j2
    if math.gcd(q, p1 * p2) != 1:
        raise NotCoprime(f"gcd({q}, {p1 * p2}) != 1")
    if math.gcd(k, n) != 1:
        raise ValueError("k must be coprime to p1^j1 p2^j2")
    if j1 < 1 or j2 < 1:
        raise ValueError("j1, j2 must be >= 1")
    if uniform_trace_vanishes(q, n):
        return True
    return _orbit_sum_is_zero(q, n, k)


def trace_vanishes_2p(q: int, p: int, j1: int, j2: int, k: int) -> bool:
    """Vanishing of the q-orbit sum of xi_{2^j1 p^j2}^k (mixed 2*p case)."""
    if not is_prime(p) or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if q % 2 == 0:
        raise EvenQ(f"q={q} must be odd")
    if math.gcd(q, 2 * p) != 1:
        raise NotCoprime(f"gcd({q}, {2 * p}) != 1")
    if math.gcd(k, 2**j1 * p**j2) != 1:
        raise ValueError("k must be coprime to 2^j1 p^j2")
    if j1 < 1 or j2 < 1:
        raise ValueError("j1, j2 must be >= 1")
    M = 2**j1 * p**j2
    if uniform_trace_vanishes(q, M):
        return True
    return _orbit_sum_is_zero(q, M, k)
