import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import pytest

from metacode import ffield as ff
from helpers import (
    TupleField,
    as_tuple,
    base_field_of,
    base_part,
    direct_trace_vanishes,
    oracle_coprime,
    oracle_irreducible,
    oracle_rref,
    oracle_vanishes,
    oracle_xi,
    phi_all_vanish,
)


def least_rootless_monic(p, e):
    """Independent oracle: monic polynomials of degree e in lex order (c0
    first), the first without a root in GF(p).  For e <= 3 a polynomial
    without a root is irreducible, so this is the lex-least irreducible."""
    for low in itertools.product(range(p), repeat=e):
        f = low + (1,)
        if all(sum(c * x**i for i, c in enumerate(f)) % p for x in range(p)):
            return f
    raise AssertionError


def test_make_field_prime_conventions():
    assert np.array_equal(ff.make_field(3, 1).modulus, (0, 1))  # modulus x for prime fields
    assert ff.make_field(2).q == 2
    with pytest.raises(ff.NonPrimeCharacteristic):
        ff.make_field(6)


@pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (2, 3)])
def test_make_field_lex_least_modulus(p, e):
    assert np.array_equal(ff.make_field(p, e).modulus, least_rootless_monic(p, e))


def test_make_field_idempotent():
    assert ff.make_field(5, 3) is ff.make_field(5, 3)
    assert np.array_equal(ff.make_field(7, 2).modulus, ff.make_field(7, 2).modulus)


@pytest.mark.parametrize(
    "q,m,o", [(2, 7, 3), (2, 1, 1), (5, 13, 4), (9, 1, 1), (3, 8, 2)]
)
def test_mult_order(q, m, o):
    assert ff.mult_order(q, m) == o


def test_is_prime_matches_a_sieve():
    n = 10_000
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for f in range(2, math.isqrt(n) + 1):
        sieve[f * f::f] = False
    assert [ff.is_prime(v) for v in range(-3, n)] == [False] * 3 + sieve.tolist()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# SHA-256 over (extension modulus, xi, trace table) for every m <= 64 coprime
# to q, and over make_field(p, e).modulus for p <= 13, 2 <= e <= 6.  Changes
# to the field arithmetic must leave every bit of these unchanged.
PINNED_EXTENSION_DIGESTS = {
    2: "4ad7093b0ad7ba1dea6b60e05d2d9657c50af59a1793a76ec4d729d66392dde3",
    3: "a0e078793e1c46aced2fc088adebf938fba04939b3778e6de6a1853eaffd6187",
    4: "4c3ce38bf46d19836afa76721244e9050ff767b6a8b757b563348054dd45dc47",
    5: "9a7c99740dfc56cf40c55ab9fed6a2451ea476161b72d00ddacb25d7f99d0d95",
    7: "f70f9082949ff1098973cbf7a736c862f717ae6e6b98485cff61de32abcd014e",
    9: "0e9624dab26dd836b3dacab032fa8fc223fa8e8b633c3bce34d25e7384d3ebe3",
}
PINNED_BASE_MODULI_DIGEST = "fc7e805ddf0bf6f2795f9dc5f9c541e02d3188dd541814dc3b776f9cd643069d"


def _extension_digest(q):
    ctx = base_field_of(q)
    arrays = []
    for m in range(1, 65):
        if math.gcd(q, m) != 1:
            continue
        E = ff.extension_for_root(ctx, m)
        arrays += [E.modulus, E.xi, ff.trace_table(ctx, m)]
    return _digest(arrays)


@pytest.mark.parametrize("q", sorted(PINNED_EXTENSION_DIGESTS))
def test_extension_bit_identity(q):
    assert _extension_digest(q) == PINNED_EXTENSION_DIGESTS[q]


def test_base_moduli_bit_identity():
    moduli = [
        ff.make_field(p, e).modulus
        for p in (2, 3, 5, 7, 11, 13)
        for e in range(2, 7)
    ]
    assert _digest(moduli) == PINNED_BASE_MODULI_DIGEST


def test_typed_errors():
    with pytest.raises(ValueError):
        ff.factorize(0)
    with pytest.raises(ValueError):
        ff.v_adic(0, 3)
    with pytest.raises(ValueError):
        ff.odd_prime_i0(5, 2)
    with pytest.raises(ValueError):
        ff.odd_prime_i0(5, 9)
    for q in (6, 1, 0, -1):
        with pytest.raises(ff.NonPrimeCharacteristic):
            ff.prime_power(q)
    assert ff.prime_power(9) == (3, 2)
    big = 100_000_007  # (big - 1)^2 alone passes 2^53, the float64 exactness bound
    assert ff.is_prime(big) and ff.mult_order(big, 3) == 2
    with pytest.raises(ff.FieldTooLarge):
        ff.extension_for_root(ff.make_field(big), 3)


def test_typed_errors_survive_python_O():
    # an assert guard vanishes under -O, and factorize(0) and v_adic(0, p)
    # would then loop forever: the guards must be raised errors
    script = (
        "from metacode import ffield as ff\n"
        "for f, args in ((ff.factorize, (0,)), (ff.v_adic, (0, 3))):\n"
        "    try:\n"
        "        f(*args)\n"
        "    except ValueError:\n"
        "        print('raised')\n"
    )
    src = str(Path(ff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "raised"]


def test_mult_order_of_large_moduli_returns_at_once():
    # a loop over the powers of q takes about 2^58 steps at m = 2^60, and one
    # up to m steps at a large prime m; run in a child so a hang fails cleanly
    script = (
        "from metacode import ffield as ff\n"
        "m = 2**31 - 1\n"
        "o = ff.mult_order(3, m)\n"
        "assert pow(3, o, m) == 1 and all(pow(3, o // l, m) != 1 for l in ff.factorize(o))\n"
        "print(ff.mult_order(3, 2**60), ff.mult_order(7, 2**40), ff.mult_order(2, 3**30), o)\n"
    )
    src = str(Path(ff.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    o60, o40, o3, _ = map(int, out.stdout.split())
    assert (o60, o40, o3) == (2**58, 2**37, 2 * 3**29)


def test_mult_order_not_coprime():
    with pytest.raises(ff.NotCoprime):
        ff.mult_order(3, 9)


def test_extension_for_root_examples():
    F2 = ff.make_field(2)
    E = ff.extension_for_root(F2, 7)
    assert E.o == 3
    assert E.is_one(E.pow(E.xi, 7))
    for t in range(1, 7):
        assert not E.is_one(E.pow(E.xi, t))

    trivial = ff.extension_for_root(ff.make_field(5), 1)
    assert trivial.o == 1 and trivial.is_one(trivial.xi)

    F3 = ff.make_field(3)
    E4 = ff.extension_for_root(F3, 4)
    assert E4.o == 2
    assert E4.is_one(E4.pow(E4.xi, 4)) and not E4.is_one(E4.pow(E4.xi, 2))

    with pytest.raises(ff.NotCoprime):
        ff.extension_for_root(F2, 6)


def test_rel_trace_basics():
    F2 = ff.make_field(2)
    E, TF = ff.extension_for_root(F2, 7), TupleField(F2)
    assert as_tuple(ff.rel_trace(E, E.one())) == TF.scalar(E.o)
    assert as_tuple(ff.rel_trace(E, E.zero())) == TF.zero()
    # brute force: expand xi + xi^2 + xi^4 in the polynomial basis and sum
    brute = E.add(E.xi, E.add(E.pow(E.xi, 2), E.pow(E.xi, 4)))
    assert np.array_equal(ff.rel_trace(E, E.xi), base_part(E, brute))  # brute lies in GF(2)


def test_rel_trace_linear_and_frobenius_invariant():
    rng = random.Random(7)
    F3 = ff.make_field(3)
    E, TF = ff.extension_for_root(F3, 13), TupleField(F3)  # GF(3^3)
    tr = lambda x: as_tuple(ff.rel_trace(E, x))  # noqa: E731
    for _ in range(40):
        coeffs = [tuple([rng.randrange(3)]) for _ in range(E.o)]
        x = tuple(coeffs)
        y = tuple(tuple([rng.randrange(3)]) for _ in range(E.o))
        c = rng.randrange(3)
        lhs = tr(E.add(x, y))
        rhs = TF.add(tr(x), tr(y))
        assert lhs == rhs
        # scalar multiples commute with the trace
        cx = tuple(TF.mul(TF.scalar(c), row) for row in x)
        assert tr(cx) == TF.mul(TF.scalar(c), tr(x))
        # tr(x^q) = tr(x)
        assert tr(E.pow(x, E.q)) == tr(x)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
def test_xi_exact_order_small_sweep(q):
    ctx = base_field_of(q)
    for m in range(1, 65):
        if math.gcd(q, m) != 1:
            continue
        E = ff.extension_for_root(ctx, m)
        assert E.is_one(E.pow(E.xi, m))
        for ell in ff.factorize(m):
            assert not E.is_one(E.pow(E.xi, m // ell))


@pytest.mark.slow
@pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
def test_xi_exact_order_full_sweep(q):
    ctx = base_field_of(q)
    checked, unsplittable = 0, []
    for m in range(65, 513):
        if math.gcd(q, m) != 1:
            continue
        if ff.mult_order(q, m) > 300:
            try:
                ff.trace_table(ctx, m)
            except ff.FieldTooLarge:
                unsplittable.append(m)  # needs an unsplittable huge field
                continue
            checked += 1
            continue
        E = ff.extension_for_root(ctx, m)
        assert E.is_one(E.pow(E.xi, m))
        for ell in ff.factorize(m):
            assert not E.is_one(E.pow(E.xi, m // ell))
        checked += 1
    assert checked, f"every m was unsplittable: {unsplittable}"
    print(f"q={q}: {checked} m checked, unsplittable: {unsplittable}")


def test_trace_table_matches_rel_trace():
    F2 = ff.make_field(2)
    tab = ff.trace_table(F2, 7)
    E = ff.extension_for_root(F2, 7)
    for t in range(7):
        assert np.array_equal(tab[t], ff.rel_trace(E, E.pow(E.xi, t)))


def test_trace_tables_are_read_only():
    F2 = ff.make_field(2)
    tab = ff.trace_table(F2, 7)
    before = tab.copy()
    with pytest.raises(ValueError):
        tab[3] = (1,)
    assert ff.trace_table(F2, 7) is tab and np.array_equal(tab, before)
    E = ff.extension_for_root(F2, 7)
    for frozen in (E.modulus, E.xi, F2.modulus, ff.make_field(3, 2).modulus):
        with pytest.raises(ValueError):
            frozen[0] = 1


def test_trace_table_split_is_a_relabelled_trace_table(monkeypatch):
    # The coprime-split table uses the CRT root xi_m1 * xi_m2, which is some
    # unit power of the direct table's root: the tables agree after one
    # relabeling of the exponent.  Its rows are the tuple-oracle products
    # (over GF(9) both factors have entries outside GF(3)).
    for q, m1, m2 in ((2, 7, 11), (9, 7, 5)):
        F, TF, m = base_field_of(q), TupleField(base_field_of(q)), m1 * m2
        direct = ff.trace_table(F, m)  # under the direct cap
        t1, t2 = ff.trace_table(F, m1), ff.trace_table(F, m2)
        with monkeypatch.context() as mp:
            mp.setattr(ff, "DIRECT_DEGREE_CAP", max(ff.mult_order(q, m1), ff.mult_order(q, m2)))
            mp.setattr(ff, "_TRACE_CACHE", {})
            split = ff.trace_table(F, m)
        assert split.shape == (m, F.e) and not split.flags.writeable
        for t in range(m):
            assert as_tuple(split[t]) == TF.mul(as_tuple(t1[t % m1]), as_tuple(t2[t % m2])), (q, t)
        matches = [
            u
            for u in range(1, m)
            if math.gcd(u, m) == 1 and np.array_equal(split, direct[np.arange(m) * u % m])
        ]
        assert matches, f"split table must be a relabelling of the direct table (q = {q})"


def test_two_adic_branch():
    assert ff.two_adic_branch(5) == (1, 2, 1)
    assert ff.two_adic_branch(3) == (-1, 2, 1)
    assert ff.two_adic_branch(7) == (-1, 3, 1)
    assert ff.two_adic_branch(17) == (1, 4, 1)
    with pytest.raises(ff.EvenQ):
        ff.two_adic_branch(4)


def test_trace_vanishes_2power_examples():
    assert ff.trace_vanishes_2power(5, 3) is True
    assert ff.trace_vanishes_2power(3, 2) is True
    assert ff.trace_vanishes_2power(7, 3) is False
    assert not direct_trace_vanishes(7, 8, 1)


def test_lemma_2power_sweep_quick():
    for q in (3, 5, 7, 9, 11, 13):
        for i in range(1, 7):
            m = 2**i
            assert ff.trace_vanishes_2power(q, i) == oracle_vanishes(q, m, 1), (q, i)


def test_two_odd_prime_predicate_examples():
    # hypothesis violated: p1 | p2 - 1 must raise
    with pytest.raises(ff.HypothesisViolated):
        ff.trace_vanishes_two_odd_primes(2, 3, 7, 1, 1, 1)
    # the caller's fallback for such pairs is the direct trace
    assert direct_trace_vanishes(2, 21, 1) in (True, False)
    # vanishing direction: j beyond the i0 threshold
    assert ff.trace_vanishes_two_odd_primes(2, 3, 5, 2, 1, 1) is True
    assert oracle_vanishes(2, 45, 1) is True


def test_two_odd_prime_known_nonuniform_cell():
    # Gauss-period effect: at (q=2, p1=3, p2=5, j=(1,1)) the vanishing is
    # genuinely k-dependent, so the predicate resolves cells exactly.
    results = {
        k: ff.trace_vanishes_two_odd_primes(2, 3, 5, 1, 1, k)
        for k in range(1, 15)
        if math.gcd(k, 15) == 1
    }
    assert set(results.values()) == {True, False}
    for k, v in results.items():
        assert v == oracle_vanishes(2, 15, k)


def test_2p_predicate_examples():
    # the 2-adic special column: q = 3 with p = 7, j1 = 2 vanishes
    assert ff.trace_vanishes_2p(3, 7, 2, 1, 1) == oracle_vanishes(3, 28, 1)
    assert ff.trace_vanishes_2p(5, 3, 1, 1, 1) == oracle_vanishes(5, 6, 1)
    # deep j1 is structural for q = 3, p = 7 (the 2-part order doubles)
    assert ff.trace_vanishes_2p(3, 7, 4, 1, 1) is True
    assert oracle_vanishes(3, 112, 1) is True
    # but not for q = 7, p = 3: the order is stuck at 2, a k-dependent cell
    assert ff.trace_vanishes_2p(7, 3, 4, 1, 1) == oracle_vanishes(7, 48, 1) is False
    with pytest.raises(ff.EvenQ):
        ff.trace_vanishes_2p(2, 3, 1, 1, 1)


def test_uniform_structural_criterion_consistency():
    for q, m in [(3, 8), (3, 16), (5, 8), (2, 9), (2, 45), (3, 20)]:
        if ff.uniform_trace_vanishes(q, m):
            assert phi_all_vanish(q, m), (q, m)


def test_phi_residue_agrees_with_direct_traces_small():
    # cross-validate the cyclotomic-residue oracle against real field
    # traces wherever the extension is small
    for q in (2, 3, 5, 7):
        for m in (4, 8, 9, 15, 16, 21, 25, 27, 35, 45):
            if math.gcd(q, m) != 1 or ff.mult_order(q, m) > 12:
                continue
            all_zero = all(
                direct_trace_vanishes(q, m, k)
                for k in range(1, m)
                if math.gcd(k, m) == 1
            )
            assert phi_all_vanish(q, m) == all_zero, (q, m)


def test_fast_mult_order_matches_naive():
    for q in (2, 3, 5, 7, 9, 11):
        for m in range(1, 200):
            if math.gcd(q, m) != 1:
                continue
            o, t = 1, q % m
            while t != 1 and m > 1:
                t = (t * q) % m
                o += 1
            naive = 1 if m == 1 else o
            assert ff.mult_order(q, m) == naive, (q, m)


def test_coset_order_matches_the_power_loop(qs=(2, 3, 5, 9, 13, 29)):
    # least w >= 1 with r^w in <q> mod m, by walking the powers of r
    for m in range(1, 400):
        for q in qs:
            if math.gcd(q, m) != 1:
                continue
            qgrp = {pow(q, j, m) for j in range(m + 1)}
            for r in range(-3, 60):
                if math.gcd(r, m) != 1:
                    continue
                w = 1
                while pow(r, w, m) not in qgrp:
                    w += 1
                assert ff.coset_order(r, q, m) == w, (r, q, m)
    with pytest.raises(ff.NotCoprime):
        ff.coset_order(3, 2, 9)


@pytest.mark.slow
def test_coset_order_matches_the_power_loop_for_every_q_below_30():
    test_coset_order_matches_the_power_loop(range(2, 30))


def test_coset_order_does_not_list_the_subgroup():
    # <5> mod 2^22 has 2^20 elements, which the walk lists as a set of about
    # 70 MB; mod 2^k, k >= 3, <5> is the residues 1 mod 4, so 3 and -1 are
    # not in it and their squares are
    tracemalloc.start()
    try:
        got = [ff.coset_order(r, 5, 2**22) for r in (3, -1, 9, 5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [2, 2, 1, 1]
    assert peak < 1 << 20, peak


def _slab(p):
    """Inner-dimension slab of matmul_mod: slab * (p-1)^2 <= 2^53 - 2p."""
    return (2**53 - 2 * p) // (p - 1) ** 2


def _python_matmul_mod(A, B, p, c=None):
    out = [[sum(int(a) * int(b) for a, b in zip(row, col)) for col in zip(*B)] for row in A]
    if c is not None:
        out = [[int(x) - y for x, y in zip(crow, row)] for crow, row in zip(c, out)]
    return np.array([[v % p for v in row] for row in out], dtype=np.int64)


@pytest.mark.parametrize("p", [2, 13, 50_000_017, 94_906_249])
def test_matmul_mod_matches_python_ints_across_slab_boundaries(p):
    # 94906249 is the largest prime with one term per slab; 50000017 has 3
    rng = np.random.default_rng(p % 1000)
    slab = _slab(p)
    inners = [1, 7, 40] if slab > 40 else [slab, slab + 1, 2 * slab + 1, 3 * slab]
    for inner in inners:
        for fill in ("max", "random"):
            if fill == "max":  # every product (p-1)^2: the sums sit at the bound
                A = np.full((3, inner), p - 1, dtype=np.int64)
                B = np.full((inner, 4), p - 1, dtype=np.int64)
            else:
                A = rng.integers(0, p, size=(3, inner))
                B = rng.integers(0, p, size=(inner, 4))
            C = rng.integers(0, p, size=(3, 4))
            got = ff.matmul_mod(A, B, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, _python_matmul_mod(A, B, p)), (inner, fill)
            assert np.array_equal(ff.matmul_mod(A, B, p, C), _python_matmul_mod(A, B, p, C))
    assert ff.matmul_mod(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64),
                         p).tolist() == [[0] * 3] * 2


def test_matmul_mod_field_too_large():
    # 94906297 is the least prime with (p-1)^2 + 2p > 2^53: not one term fits
    p = 94_906_297
    assert ff.is_prime(p) and _slab(p) == 0 and _slab(94_906_249) == 1
    with pytest.raises(ff.FieldTooLarge):
        ff.matmul_mod(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), p)
    with pytest.raises(ff.FieldTooLarge):
        ff.matmul_mod(np.ones((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int64), 2**31 - 1)


def test_echelon_forms_past_int64_products_raise():
    # 3037000493 is the largest prime with (p-1)^2 an int64, 3037000507 the
    # least without; at p = 4294967311 rref_mod returned a wrong RREF
    rng = np.random.default_rng(7)
    for p in (3_037_000_507, 4_294_967_311):
        mat = rng.integers(0, p, (3, 4))
        for echelon in (ff.ref_mod, ff.rref_mod, ff.rank_mod):
            with pytest.raises(ff.FieldTooLarge):
                echelon(mat, p)
    p = 3_037_000_493
    assert ff.is_prime(p) and (p - 1) ** 2 < 2**63 <= 3_037_000_506 ** 2
    mats = [rng.integers(0, p, (3, 4)) for _ in range(4)]
    mats.append(np.full((3, 4), p - 1) - np.eye(3, 4, dtype=int))  # entries p - 1 and p - 2
    for mat in mats:
        want, wp = oracle_rref(mat.tolist(), p)
        R, piv = ff.rref_mod(mat, p)
        assert (R.tolist(), piv) == (want, wp)


@pytest.mark.parametrize("p", [2, 13, 65521])
def test_rref_mod_matches_python_elimination_across_zero_runs(p):
    # runs of 0..300 columns with no nonzero in the rows below the last
    # pivot: before the first pivot, between pivots while rows above are
    # nonzero there (combinations of earlier columns), and at the end; two
    # all-zero rows trail each matrix
    rng = np.random.default_rng(p)
    for run in (0, 1, 7, 8, 9, 63, 64, 65, 300):
        head = rng.integers(0, p, (6, 3))
        mats = [np.concatenate([np.zeros((6, run), dtype=np.int64), head], axis=1),
                np.concatenate([head, head @ rng.integers(0, p, (3, run)) % p,
                                rng.integers(0, p, (6, 2))], axis=1),
                np.concatenate([head, np.zeros((6, run), dtype=np.int64)], axis=1)]
        for mat in mats:
            mat = np.concatenate([mat, np.zeros((2, mat.shape[1]), dtype=np.int64)])
            want, wp = oracle_rref(mat.tolist(), p)
            R, piv = ff.rref_mod(mat, p)
            assert (R.tolist(), piv) == (want, wp), (p, run)
            assert ff.rank_mod(mat, p) == len(wp)


@pytest.mark.parametrize("p,e,degrees", [(2, 1, range(2, 12)), (3, 1, range(2, 8)),
                                          (2, 2, range(2, 7)), (3, 2, range(2, 5)),
                                          (5, 1, range(2, 6)), (7, 1, range(2, 5))])
def test_irreducible_root_filter_keeps_the_lex_least_modulus(monkeypatch, p, e, degrees):
    base = ff.make_field(p, e)
    filtered = [ff._irreducible(base, d).modulus for d in degrees]
    monkeypatch.setattr(ff, "_ROOT_TABLE_CELLS", 0)  # no table: Ben-Or on every candidate
    for d, f in zip(degrees, filtered):
        assert np.array_equal(f, ff._irreducible(base, d).modulus), (p, e, d)


def _poly_mul(F, a, b):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return np.array(out, dtype=np.int64).reshape(-1, F.e)


@pytest.mark.parametrize("q", [2, 3, 5, 13, 4, 9, 25])
def test_coprime_matches_a_tuple_euclid(q):
    F, TF, rng = base_field_of(q), TupleField(base_field_of(q)), random.Random(q)
    verdicts = set()
    for trial in range(40):
        def poly(deg, lead):  # lead 0 or not 1 too, to test the trim and the scaling
            return [TF.element_by_counter(rng.randrange(q)) for _ in range(deg)] + [lead]
        a, b = poly(rng.randint(0, 12), TF.element_by_counter(rng.randrange(q))), poly(rng.randint(1, 12), TF.one())
        if trial % 2:  # plant a common factor of degree 1..3
            g = poly(rng.randint(1, 3), TF.element_by_counter(rng.randrange(1, q)))
            a, b = _poly_mul(TF, a, g), _poly_mul(TF, b, g)
        a, b = (np.array(f, dtype=np.int64).reshape(-1, F.e) for f in (a, b))
        says = ff._coprime(F, a, b)
        assert says == oracle_coprime(TF, a, b), (q, a.tolist(), b.tolist())
        assert not (trial % 2 and says), "a planted common factor"
        verdicts.add(says)
    assert verdicts == {True, False}


def test_modulus_search_past_the_gcd_tables_fails_at_once(monkeypatch):
    F = ff.make_field(2, 11)  # the search for F itself runs over GF(2)
    assert F.q ** 2 > ff._GCD_TABLE_CELLS and len(F.modulus) == 12
    monkeypatch.setattr(ff, "_is_irreducible", lambda *args: pytest.fail("a candidate was tested"))
    with pytest.raises(ff.FieldTooLarge):
        ff.extension_for_root(F, 3)  # degree 2 over GF(2^11)
    assert ff.extension_for_root(F, 23).o == 1  # y needs no search


def test_extensions_with_one_modulus_share_one_ring():
    F2 = ff.make_field(2)
    E9, E21 = ff.extension_for_root(F2, 9), ff.extension_for_root(F2, 21)
    assert E9.o == E21.o == 6 and np.array_equal(E9.modulus, E21.modulus)
    assert E9._red is E21._red and E9._trace_map is E21._trace_map
    assert not np.array_equal(E9.xi, E21.xi)


def test_modulus_search_builds_one_ring_per_modulus(monkeypatch):
    # GF(2^6) and the extension of GF(2) for m = 9 have the same modulus:
    # one search, and the extension uses the ring that the search returned
    for cache in ("_FIELD_CACHE", "_RING_CACHE", "_EXT_CACHE"):
        monkeypatch.setattr(ff, cache, {})
    found, search = [], ff._irreducible
    monkeypatch.setattr(ff, "_irreducible", lambda base, d: found.append(search(base, d)) or found[-1])
    F64 = ff.make_field(2, 6)
    E9 = ff.extension_for_root(ff.make_field(2), 9)
    assert len(found) == 1 and E9.ring is found[0]
    assert np.array_equal(F64.modulus, E9.modulus[:, 0])


def test_find_xi_checks_the_order_of_the_element_it_returns():
    # over the reducible (y + 1)^2 the first candidate is y, which passes the
    # divisor check but has y^3 = y != 1: a field never offers such an
    # element, and the guard must catch it
    ring = ff._QuotientRing(ff.make_field(2), np.array([[1], [0], [1]]))
    with pytest.raises(ff.FieldError):
        ff.ExtFieldCtx(ring, 3)


# modulus degrees the xi oracle builds per q: every m < 90 for q <= 5
XI_ORACLE_DEGREE = {2: 200, 3: 200, 4: 200, 5: 200, 7: 24, 9: 24, 13: 12, 25: 8, 27: 8}
# m past 90 whose xi lies past the first block with a leading counter digit
# of 2 or more: no candidate of its block with digit 1 passes, and the scan
# over the other leading coefficients picks it (leading 1 + x for q = 9)
XI_PAST_THE_WALK = {4: (129,), 9: (206,)}


@pytest.mark.parametrize("q", sorted(XI_ORACLE_DEGREE))
def test_find_xi_matches_the_counter_walk(q):
    # the first block, c y^(o-1) for c in GF(q)*, is tested in closed form;
    # the counter walk tests every candidate by its power
    ctx, kinds, scanned = base_field_of(q), set(), set()
    for m in [*range(1, 90), *XI_PAST_THE_WALK.get(q, ())]:
        if math.gcd(q, m) != 1 or ff.mult_order(q, m) > XI_ORACLE_DEGREE[q]:
            continue
        E = ff.extension_for_root(ctx, m)
        xi, n = oracle_xi(E)
        assert np.array_equal(E.xi, xi), (q, m, n)
        kinds.add((E.o == 1, n < q))
        if n >= q and ff._base_digits(n, q)[-1] >= 2:
            scanned.add(m)
    # o = 1; xi inside the first block with o > 1; and past it, where the walk takes over
    assert {(True, True), (False, True), (False, False)} <= kinds, kinds
    # and past it with a leading digit of 2 or more, found by the scan of its block
    assert scanned == set(XI_PAST_THE_WALK.get(q, ())), scanned


def test_find_xi_scans_no_block_whose_multiples_all_fail(monkeypatch):
    # over GF(1000003) every c y of xi_8's first block has z_2 = 1 at E = 0
    # (see test_pci_list_at_a_large_prime_q_finishes), so the block is left
    # without a scan over its q - 2 other multiples; in the second, 1 fails
    # and 1 + y passes
    monkeypatch.setattr(ff, "_EXT_CACHE", {})
    monkeypatch.setattr(ff.FieldCtx, "_pow_rows", lambda *args: pytest.fail("a scan ran"))
    E = ff.extension_for_root(ff.make_field(1_000_003), 8)
    assert E.o == 2 and np.array_equal(E.xi, E.pow([1, 1], (E.order - 1) // 8))


@pytest.mark.parametrize("q,top", [(2, 7), (3, 7), (4, 4), (7, 4)])
def test_is_irreducible_matches_trial_division(monkeypatch, q, top):
    # degrees on both sides of q^i = d, where y^(q^i) stops being a monomial;
    # rootless skips i = 1, so it is asked only of f without a root.  The
    # first y^(q^(i-1)) of the products is a row of _red below 2d - 1 and a
    # power past it: only q = 7 gets there, rootless at d = 4 (7 >= 2*4 - 1).
    # Every step multiplies once after its power, so a run with more powers
    # than products took that power
    calls = []
    for name in ("pow", "mul"):
        method = getattr(ff._QuotientRing, name)
        monkeypatch.setattr(ff._QuotientRing, name,
                            lambda self, a, b, _m=method, _n=name: calls.append(_n) or _m(self, a, b))

    def is_irreducible(rows, rootless):
        calls.clear()
        verdict = ff._is_irreducible(ff._QuotientRing(base, rows.copy()), rootless)
        powered.add(calls.count("pow") > calls.count("mul"))
        return verdict

    base, TF = base_field_of(q), TupleField(base_field_of(q))
    verdicts, powered = set(), set()
    for d in range(2, top + 1):
        for n in range(q**d):
            f = [TF.element_by_counter(n // q**i % q) for i in range(d)] + [TF.one()]
            want = oracle_irreducible(TF, f)
            rows = np.array(f, dtype=np.int64).reshape(d + 1, base.e)
            assert is_irreducible(rows, False) == want, (q, f)
            rootless = all(_poly_value(TF, f, TF.element_by_counter(x)) != TF.zero() for x in range(q))
            if rootless:
                assert is_irreducible(rows, True) == want, (q, f)
            verdicts.add((rootless, want))
    assert verdicts == {(False, False), (True, False), (True, True)}
    assert (True in powered) == (q == 7), powered


def _poly_value(F, f, x):
    out = F.zero()
    for c in reversed(f):
        out = F.add(F.mul(out, x), c)
    return out


# rings GF(p^e)[y]/(f) for the matrix paths: e in {1, 2}, o = 1, p in {2, 3, 13},
# and a large prime, whose base-q digits are nearly all distinct
MATRIX_RINGS = [(2, 1, 1), (2, 1, 5), (2, 2, 3), (3, 1, 1), (3, 1, 4), (3, 2, 1), (3, 2, 3),
                (13, 1, 1), (13, 1, 3), (13, 2, 2), (1_000_003, 1, 2)]


@pytest.mark.parametrize("p,e,o", MATRIX_RINGS)
def test_matrix_products_match_ring_products_and_tuples(p, e, o):
    base = ff.make_field(p, e)
    ring, TF = ff._ring(base, o), TupleField(base)
    f = tuple(as_tuple(row) for row in ring.modulus)
    as_rows = lambda a: tuple(as_tuple(row) for row in np.reshape(a, (o, e)))  # noqa: E731
    rng = np.random.default_rng(p * 100 + e * 10 + o)
    q = base.q
    for _ in range(6):
        a, b = rng.integers(0, p, ring.n), rng.integers(0, p, ring.n)
        M = ring._mulmat(a)
        assert M.shape == (ring.n, ring.n)
        ab = (b @ M % p).astype(np.int64)
        assert np.array_equal(ab, ring.mul(a, b))
        assert as_rows(ab) == TF.ring_mul(f, as_rows(a), as_rows(b))
        aq = (a @ ring._frob % p).astype(np.int64)
        assert np.array_equal(aq, ring.pow(a, q))
        assert as_rows(aq) == TF.ring_pow(f, as_rows(a), q)
        # one digit, zero digits, the top digit q - 1, and a long exponent
        for s in (1, q - 1, q, q * q + 1, (q - 1) * (q**2 + 1), (q**o - 1) // 2 + 7, 3 * q**(o + 2) + q - 1):
            got = ring._pow_digits(a, ff._base_digits(s, q))
            assert got.dtype == np.int64
            assert np.array_equal(got, ring.pow(a, s)), s
            assert as_rows(got) == TF.ring_pow(f, as_rows(a), s), s
        for m in (1, 2, 3, 4, 7, 16, 23):
            P = ring._powers(a, m)
            assert P.shape == (m, ring.n) and P.dtype == np.int64
            assert all(np.array_equal(P[t], ring.pow(a, t)) for t in range(m)), m


@pytest.mark.parametrize("p,e,o", [(2, 1, 5), (3, 1, 4), (13, 1, 3), (1_000_003, 1, 2),
                                   (2, 2, 3), (3, 2, 3), (13, 2, 2)])
def test_ring_products_reduce_their_inputs(p, e, o):
    # mul and pow take entries past p, negative ones (Ben-Or multiplies by
    # h - y, with -1 entries), float64 rows of _red and (o, e) coefficient
    # rows, and give the product of the reduced flat vectors
    base = ff.make_field(p, e)
    ring, TF = ff._ring(base, o), TupleField(base)
    f = tuple(as_tuple(row) for row in ring.modulus)
    as_rows = lambda a: tuple(as_tuple(row) for row in np.reshape(a, (o, e)))  # noqa: E731
    rng = np.random.default_rng(p * 100 + e * 10 + o)
    for _ in range(4):
        a, b = rng.integers(0, p, ring.n), rng.integers(0, p, ring.n)
        ab = TF.ring_mul(f, as_rows(a), as_rows(b))
        powers = {n: TF.ring_pow(f, as_rows(a), n) for n in (1, 2, 5, p + 1)}
        shift = rng.integers(-3, 4, (2, ring.n)) * p
        for x, y in [(a + shift[0], b + shift[1]), (a - p, b - p),
                     ((a + p).astype(np.float64), b.astype(np.float64)),
                     ((a + shift[0]).reshape(o, e), (b - p).reshape(o, e))]:
            got = ring.mul(x, y)
            assert got.dtype == np.int64 and as_rows(got) == ab
            for n, want in powers.items():
                got = ring.pow(x, n)
                assert got.dtype == np.int64 and as_rows(got) == want, n


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_doubled_xi_powers_match_sequential_products(q):
    ctx = base_field_of(q)
    for m in range(1, 65):
        if math.gcd(q, m) != 1:
            continue
        E = ff.extension_for_root(ctx, m)
        seq = [E.one()]
        for _ in range(1, m):
            seq.append(E.mul(seq[-1], E.xi))
        assert np.array_equal(E._powers(E.xi, m), np.array(seq)), m


# calls counts the powers w^s: one per candidate of each block walked at the
# leading digit 1, the other leading digits taking none
@pytest.mark.parametrize("q,m,picked,powers", [
    pytest.param(17, 7, "pow", 3, id="17-7-pow"),  # o = 6: U, then 2 in block 2; 35 products against 30
    # o = 18: U, all 5 of block 2 and 3 in block 3; 29 products against 52
    pytest.param(5, 54, "_pow_digits", 9, id="5-54-_pow_digits"),
    pytest.param(1_000_037, 87, "pow", 1, id="1000037-87-pow"),  # o = 2: xi in the first block; 50 either way
])
def test_find_xi_takes_the_power_with_fewer_products(monkeypatch, q, m, picked, powers):
    s, calls = (q**ff.mult_order(q, m) - 1) // m, []
    monkeypatch.setattr(ff, "_EXT_CACHE", {})

    def counted(name):
        method = getattr(ff._QuotientRing, name)

        def call(self, a, n):
            if name == "_pow_digits" or n == s:
                calls.append(name)
            return method(self, a, n)
        return call

    for name in ("pow", "_pow_digits"):
        monkeypatch.setattr(ff._QuotientRing, name, counted(name))
    E = ff.extension_for_root(ff.make_field(q), m)
    assert len(calls) == powers and set(calls) == {picked}
    assert E.is_one(E.pow(E.xi, m)) and not any(E.is_one(E.pow(E.xi, m // ell)) for ell in ff.factorize(m))
