"""Metacyclic group presentations, subgroup machinery, and direct products."""

from __future__ import annotations

import json
import math
import re
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .ffield import factorize

# entries per block of FiniteGroup.grid, which bounds the temporary arrays of
# every product-table pass whatever the group order; also the bound on the
# |G| x |G| tables a group keeps, so a group with |G|^2 <= _GRID_CELLS
# (|G| <= 256) multiplies, inverts and raises to powers by one gather
_GRID_CELLS = 1 << 16


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only because several callers share it."""
    arr.flags.writeable = False
    return arr


class GroupError(Exception):
    pass


class InconsistentPresentation(GroupError):
    pass


class NotNormal(GroupError):
    pass


class SchemaError(GroupError):
    pass


class FiniteGroup:
    """Finite group with elements 0..order-1 and vectorised index arithmetic."""

    name: str
    order: int

    def mul(self, x: int, y: int) -> int:
        raise NotImplementedError

    def inv(self, x: int) -> int:
        raise NotImplementedError

    def _mul_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mul_vec(self, xs, ys) -> np.ndarray:
        """xs * ys for index arrays or scalars that broadcast: a gather from
        the Cayley table when |G|^2 <= _GRID_CELLS, else the group's own
        index arithmetic."""
        if self.order * self.order > _GRID_CELLS:
            return self._mul_vec(xs, ys)
        return self._mul_table[xs, ys]

    def inv_vec(self, xs) -> np.ndarray:
        """The inverse of each index in xs, from a table under the same bound."""
        if self.order * self.order > _GRID_CELLS:
            return self._inv_vec(xs)
        return self._inv_table[xs]

    @cached_property
    def _mul_table(self) -> np.ndarray:
        idx = np.arange(self.order, dtype=np.int64)
        return self._mul_vec(idx[:, None], idx[None, :])

    @cached_property
    def _inv_table(self) -> np.ndarray:
        return self._inv_vec(np.arange(self.order, dtype=np.int64))

    def generators(self) -> List[int]:
        raise NotImplementedError

    def elem_label(self, x: int) -> str:
        return str(x)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def grid(self, xs, ys):
        """The product table xs × ys in row blocks: yields (start, block) with
        block[i, j] = xs[start + i] * ys[j] and at most _GRID_CELLS entries
        per block (at least one row)."""
        xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
        rows = max(1, _GRID_CELLS // max(len(ys), 1))
        for start in range(0, len(xs), rows):
            yield start, self.mul_vec(xs[start:start + rows, None], ys[None, :])

    def conj_table(self, x: int) -> np.ndarray:
        """Indices of x^-1 * h * x for h = 0..order-1, cached when x is a generator."""
        cache = self.__dict__.setdefault("_conj_tables", {})
        t = cache.get(x)
        if t is None:
            t = self.conj_vec(np.arange(self.order), x)
            if x in self.generators():
                cache[x] = t
        return t

    def powers(self, xs, m: int) -> np.ndarray:
        """Row i holds xs[i]^0, ..., xs[i]^(m-1), m >= 1, by doubling:
        x^(k+j) = x^k x^j, so about m products per x in log2(m) passes."""
        xs = np.asarray(xs, dtype=np.int64)
        table = np.empty((len(xs), m), dtype=np.int64)
        table[:, 0] = self.identity
        k = 1
        while k < m:
            xk = self.mul_vec(table[:, k - 1], xs)
            w = min(k, m - k)
            table[:, k:k + w] = self.mul_vec(xk[:, None], table[:, :w])
            k += w
        return table

    @cached_property
    def _pow_table(self) -> np.ndarray:
        # column k holds x^k for every x, k < |G|
        return self.powers(np.arange(self.order), self.order)

    def power(self, x, n):
        """x^n; x and n may be scalars or arrays that broadcast.  A gather from
        a table of x^k, k < |G|, under the Cayley-table bound, else the
        group's own `_power`."""
        if self.order * self.order <= _GRID_CELLS:
            out = self._pow_table[x, np.asarray(n) % self.order]
        else:
            out = self._power(np.asarray(x, dtype=np.int64), np.asarray(n, dtype=np.int64))
        return int(out) if np.ndim(out) == 0 else out

    def _power(self, base: np.ndarray, n: np.ndarray) -> np.ndarray:
        """x^n by repeated squaring."""
        if (n < 0).any():
            base, n = np.where(n < 0, self.inv_vec(base), base), np.abs(n)
        out = np.full(np.broadcast_shapes(base.shape, n.shape), self.identity, dtype=np.int64)
        while n.any():
            out = np.where(n & 1, self.mul_vec(out, base), out)
            n = n >> 1
            base = self.mul_vec(base, base) if n.any() else base
        return out

    @cached_property
    def generator_perms(self) -> np.ndarray:
        """Row i permutes the coordinates of F_q G as generator s_i of G acting
        on the left: (s_i v)[x] = v[perms[i, x]]; built on first use."""
        return _read_only(self.mul_vec(self.inv_vec(np.array(self.generators()))[:, None],
                                       np.arange(self.order)[None, :]))

    def element_order(self, x: int) -> int:
        o = self.order
        for p in factorize(o):
            while o % p == 0 and self.power(x, o // p) == self.identity:
                o //= p
        return o

    def conj_vec(self, g, xs) -> np.ndarray:
        """x^-1 g x, with g and xs scalars or arrays that broadcast."""
        xs = np.asarray(xs, dtype=np.int64)
        return self.mul_vec(self.mul_vec(self.inv_vec(xs), g), xs)

    def conj_mask(self, ss: Iterable[int], target: Sequence[int], xs) -> np.ndarray:
        """For each x in xs, whether x^-1 s x lies in target for every s in ss."""
        inside = np.zeros(self.order, dtype=bool)
        inside[np.asarray(target, dtype=np.int64)] = True
        mask = np.ones(len(xs), dtype=bool)
        for s in ss:
            mask &= inside[self.conj_vec(s, xs)]
        return mask


class MetacyclicGroup(FiniteGroup):
    """<a, b | a^N = 1, b^M = a^s, b^-1 a b = a^r>, elements a^i b^j.

    Element index is i*M + j.  The non-split families (generalised quaternion,
    the order-p^5 groups G2..G4) are handled through the folding exponent s.
    """

    def __init__(self, N: int, M: int, r: int, s: int = 0, name: str = ""):
        if N < 1 or M < 1:
            raise InconsistentPresentation("N and M must be positive")
        r %= N if N > 1 else 1
        s %= N if N > 1 else 1
        if N == 1:
            r, s = 0, 0
        if N > 1:
            if math.gcd(r, N) != 1:
                raise InconsistentPresentation(f"r={r} not a unit mod N={N}")
            if pow(r, M, N) != 1:
                raise InconsistentPresentation(f"r^M = {pow(r, M, N)} != 1 mod {N}")
            if (s * (r - 1)) % N != 0:
                raise InconsistentPresentation(f"s(r-1) = {s * (r - 1)} != 0 mod {N}")
        self.N = N
        self.M = M
        self.r = r
        self.s = s
        self.order = N * M
        self.name = name or f"M({N},{M},r={r},s={s})"
        self._rpow = np.array(
            [pow(r, j, N) if N > 1 else 0 for j in range(M)], dtype=np.int64
        )
        self._rpow_inv = np.array(
            [pow(int(v), -1, N) if N > 1 else 0 for v in self._rpow], dtype=np.int64
        )

    def __repr__(self):
        return self.name

    @property
    def a(self) -> int:
        return self.M if self.N > 1 else 0

    @property
    def b(self) -> int:
        return 1 if self.M > 1 else 0

    def generators(self) -> List[int]:
        gens = []
        if self.N > 1:
            gens.append(self.a)
        if self.M > 1:
            gens.append(self.b)
        return gens or [0]

    def decode(self, x: int) -> Tuple[int, int]:
        return divmod(x, self.M)

    def encode(self, i: int, j: int) -> int:
        return (i % self.N) * self.M + (j % self.M)

    def mul(self, x: int, y: int) -> int:
        i1, j1 = divmod(x, self.M)
        i2, j2 = divmod(y, self.M)
        jj = j1 + j2
        i = (i1 + i2 * int(self._rpow[j1]) + self.s * (jj // self.M)) % self.N
        return i * self.M + jj % self.M

    def inv(self, x: int) -> int:
        i, j = divmod(x, self.M)
        j2 = (self.M - j) % self.M
        carry = 1 if j > 0 else 0
        rinv = pow(int(self._rpow[j]), -1, self.N) if self.N > 1 else 0
        i2 = (-(i + self.s * carry) * rinv) % self.N
        return i2 * self.M + j2

    def _mul_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        i1, j1 = np.divmod(xs, self.M)
        i2, j2 = np.divmod(ys, self.M)
        jj = j1 + j2
        i = (i1 + i2 * self._rpow[j1] + self.s * (jj // self.M)) % self.N
        return i * self.M + jj % self.M

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        i, j = np.divmod(xs, self.M)
        j2 = (self.M - j) % self.M
        carry = (j > 0).astype(np.int64)
        if self.N > 1:
            i2 = (-(i + self.s * carry) * self._rpow_inv[j]) % self.N
        else:
            i2 = i * 0
        return i2 * self.M + j2

    def elem_label(self, x: int) -> str:
        i, j = divmod(x, self.M)
        if i == 0 and j == 0:
            return "1"
        parts = []
        if i:
            parts.append("a" if i == 1 else f"a^{i}")
        if j:
            parts.append("b" if j == 1 else f"b^{j}")
        return "*".join(parts)


class ProductGroup(FiniteGroup):
    """Direct product; element index is idx_left * |right| + idx_right."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup, name: str = ""):
        self.left = left
        self.right = right
        self.order = left.order * right.order
        self.name = name or f"{left.name} x {right.name}"

    def __repr__(self):
        return self.name

    def mul(self, x: int, y: int) -> int:
        n2 = self.right.order
        x1, x2 = divmod(x, n2)
        y1, y2 = divmod(y, n2)
        return self.left.mul(x1, y1) * n2 + self.right.mul(x2, y2)

    def inv(self, x: int) -> int:
        n2 = self.right.order
        x1, x2 = divmod(x, n2)
        return self.left.inv(x1) * n2 + self.right.inv(x2)

    def _mul_vec(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        n2 = self.right.order
        x1, x2 = np.divmod(xs, n2)
        y1, y2 = np.divmod(ys, n2)
        return self.left.mul_vec(x1, y1) * n2 + self.right.mul_vec(x2, y2)

    def _inv_vec(self, xs: np.ndarray) -> np.ndarray:
        n2 = self.right.order
        x1, x2 = np.divmod(xs, n2)
        return self.left.inv_vec(x1) * n2 + self.right.inv_vec(x2)

    def _power(self, base: np.ndarray, n: np.ndarray) -> np.ndarray:
        # (x1, x2)^n = (x1^n, x2^n), each factor by its own table or route
        n2 = self.right.order
        x1, x2 = np.divmod(base, n2)
        return self.left.power(x1, n) * n2 + self.right.power(x2, n)

    def generators(self) -> List[int]:
        n2 = self.right.order
        gens = [g * n2 for g in self.left.generators() if g != self.left.identity]
        gens += [g for g in self.right.generators() if g != self.right.identity]
        return gens or [0]

    def pair(self, x1: int, x2: int) -> int:
        return x1 * self.right.order + x2

    def elem_label(self, x: int) -> str:
        x1, x2 = divmod(x, self.right.order)
        return f"({self.left.elem_label(x1)}, {self.right.elem_label(x2)})"


def direct_product(G1: FiniteGroup, G2: FiniteGroup) -> ProductGroup:
    return ProductGroup(G1, G2)


# ---------------------------------------------------------------------------
# subgroups


class CosetGeometry(NamedTuple):
    """The left cosets gS of a subgroup S, which every code built on S's
    block shares whatever q is.  Coset c is numbered by its least element
    g_c; block column j is the element S.array[j], and the translate g_c s
    of it lands in column g_c s of F_q G."""

    labels: np.ndarray  # (|G|,) the coset of each element
    cols: np.ndarray  # (cosets, |S|) coset c's columns, ascending
    at: np.ndarray  # (cosets, |S|) block column that lands in cols[c, i]
    moved: np.ndarray  # the cosets c whose at[c] is not the identity
    spin: np.ndarray  # (gens, |S|) (s_i v)[x] = v[spin[i, x]] on S's columns


class Subgroup:
    """Explicit subgroup: full sorted element list plus lazy flags and
    cached arrays, all read-only because every caller shares them."""

    def __init__(self, group: FiniteGroup, elements: Iterable[int], gens=()):
        self.group = group
        self.elements = tuple(sorted(elements))
        self.gens = tuple(gens)
        self._set = frozenset(self.elements)
        self._is_normal: Optional[bool] = None

    def __repr__(self):
        gens = ", ".join(self.group.elem_label(g) for g in self.gens) or "1"
        return f"<{gens}> (order {self.order})"

    def __contains__(self, x: int) -> bool:
        return x in self._set

    def __eq__(self, other):
        return isinstance(other, Subgroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // self.order

    @property
    def is_normal_in_G(self) -> bool:
        if self._is_normal is None:
            G = self.group
            self._is_normal = bool(
                G.conj_mask(self.gens or self.elements, self.array, G.generators()).all()
            )
        return self._is_normal

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as one sorted int64 array."""
        return _read_only(np.array(self.elements, dtype=np.int64))

    @cached_property
    def geometry(self) -> CosetGeometry:
        """The left cosets of S, built on first use.  S = G is one coset,
        spun by G's generators."""
        G, members = self.group, self.array
        if self.order == G.order:
            cols = members[None, :]  # 0..|G|-1: the columns and their identity `at`
            return CosetGeometry(_read_only(np.zeros(G.order, dtype=np.int64)), cols,
                                 cols, np.zeros(0, dtype=np.int64), G.generator_perms)
        gens = np.array(self.gens or self.elements, dtype=np.int64)
        # the running maximum of the labels first reaches c at g_c
        labels = orbit_labels(G.mul_vec(np.arange(G.order)[None, :], gens[:, None]))
        top = np.maximum.accumulate(labels)
        cols = G.mul_vec(np.searchsorted(top, np.arange(top[-1] + 1))[:, None], members[None, :])
        at = np.argsort(cols, axis=1)
        moved = np.flatnonzero((at != np.arange(len(members))).any(axis=1))
        spin = np.searchsorted(members, G.mul_vec(G.inv_vec(gens)[:, None], members[None, :]))
        return CosetGeometry(*map(_read_only, (labels, np.take_along_axis(cols, at, axis=1),
                                              at, moved, spin)))


def orbit_labels(perms) -> np.ndarray:
    """Label of each point 0..n-1's orbit under the group that the rows p of
    perms (x -> p[x]) generate, orbits numbered by least point.  Per row, the
    roots of x and p[x] are joined, larger under smaller, and parents jump to
    roots until stable; the rows are swept until none joins anything (hooking
    plus pointer jumping; Shiloach & Vishkin, 1982).  So a root is the least
    point of its tree."""
    perms = np.asarray(perms, dtype=np.int64)
    parent = np.arange(perms.shape[1])
    joined = True
    while joined:
        joined = False
        for p in perms:
            image = parent[p]
            apart = parent != image
            if apart.any():
                joined = True
                x, y = parent[apart], image[apart]
                parent[np.maximum(x, y)] = np.minimum(x, y)
                while ((jumped := parent[parent]) != parent).any():
                    parent = jumped
    return (np.cumsum(parent == np.arange(len(parent))) - 1)[parent]


def subgroup_closure(G: FiniteGroup, gens: Sequence[int]) -> Subgroup:
    """Least subgroup containing gens: the orbit of the identity under right
    multiplication by gens."""
    if len(gens) == 0:
        raise ValueError("gens must be nonempty")
    labels = orbit_labels(G.mul_vec(np.arange(G.order)[None, :], np.array(gens)[:, None]))
    members = np.flatnonzero(labels == labels[G.identity])
    return Subgroup(G, members.tolist(), gens=tuple(dict.fromkeys(gens)))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    """G as a subgroup of itself, built once per group, with its cached arrays."""
    whole = G.__dict__.get("_whole")
    if whole is None:
        whole = G.__dict__["_whole"] = Subgroup(G, range(G.order), gens=tuple(G.generators()))
    return whole


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    mask = G.conj_mask(H.gens or H.elements, H.array, G.elements())
    return Subgroup(G, np.flatnonzero(mask).tolist(), gens=())


def centralizer_mod(G: FiniteGroup, N: Subgroup, h0: int, K: Subgroup) -> List[int]:
    """Elements x of N with [x, h0] in K (centraliser of h0K in N/K).

    [x, h0] = x^-1 h0^-1 x h0 lies in K exactly when x^-1 h0 x lies in h0 K.
    """
    return N.array[G.conj_mask([h0], G.mul_vec(h0, K.array), N.array)].tolist()


def center(G: FiniteGroup) -> Subgroup:
    mask = np.logical_and.reduce([G.conj_mask([g], [g], G.elements()) for g in G.generators()])
    return Subgroup(G, np.flatnonzero(mask).tolist(), gens=())


def cyclic_quotient_generator(
    G: FiniteGroup, H: Subgroup, K: Subgroup
) -> Optional[int]:
    """The first h of H.elements with <h K> = H/K, or None if H/K is not cyclic.

    K must be normal in H; raises NotNormal otherwise.  The least o >= 1 with
    h^o in K is m = [H:K] exactly when h^m lies in K and h^(m/p) does not, for
    every prime p | m.  H is scanned in chunks of doubling size, so an early
    h costs a few small power calls and all of H about log2 |H| of them.
    """
    if not G.conj_mask(K.gens or K.elements, K.array, H.gens or H.elements).all():
        raise NotNormal("K is not normal in H")
    m = H.order // K.order
    if m == 0:  # K is larger than H
        return None
    in_K = np.zeros(G.order, dtype=bool)
    in_K[K.array] = True
    ns = [m] + [m // p for p in factorize(m)]
    start, size = 0, 1
    while start < H.order:
        hs = H.array[start:start + size]
        lands = in_K[G.power(hs[:, None], ns)]
        first = np.flatnonzero(lands[:, 0] & ~lands[:, 1:].any(axis=1))
        if len(first):
            return int(hs[first[0]])
        start, size = start + size, 2 * size
    return None


def quotient_is_cyclic(G: FiniteGroup, K: Subgroup) -> Optional[int]:
    """Generator coset representative of G/K when cyclic, else None."""
    return cyclic_quotient_generator(G, full_subgroup(G), K)


# ---------------------------------------------------------------------------
# named constructors and JSON specs


def dihedral(two_n: int) -> MetacyclicGroup:
    if two_n % 2 or two_n < 2:
        raise SchemaError(f"dihedral order must be even, got {two_n}")
    n = two_n // 2
    return MetacyclicGroup(n, 2, n - 1 if n > 1 else 0, 0, name=f"D{two_n}")

def quaternion(four_m: int) -> MetacyclicGroup:
    if four_m % 4 or four_m < 8:
        raise SchemaError(f"generalised quaternion order must be 4m >= 8, got {four_m}")
    n = four_m // 2
    return MetacyclicGroup(n, 2, n - 1, n // 2, name=f"Q{four_m}")


def semidihedral(order: int) -> MetacyclicGroup:
    if order < 16 or order & (order - 1):
        raise SchemaError(f"semidihedral order must be 2^(n+1) >= 16, got {order}")
    n = order // 2
    return MetacyclicGroup(n, 2, n // 2 - 1, 0, name=f"SD{order}")


def ordinary_metacyclic(p: int, n_plus_1: int) -> MetacyclicGroup:
    """G_{p^(n+1)} = <a, b | a^{p^n} = b^p = 1, b^-1 a b = a^{p^(n-1)+1}>."""
    n = n_plus_1 - 1
    if n < 2:
        raise SchemaError("ordinary metacyclic family needs order p^(n+1), n >= 2")
    N = p**n
    return MetacyclicGroup(N, p, p ** (n - 1) + 1, 0, name=f"OM{p}^{n_plus_1}")


def cyclic(n: int) -> MetacyclicGroup:
    return MetacyclicGroup(n, 1, 1 % n if n > 1 else 0, 0, name=f"C{n}")


def c2_x_q8() -> ProductGroup:
    G = direct_product(cyclic(2), quaternion(8))
    G.name = "C2xQ8"
    return G


_NAMED = {
    "D": lambda v: dihedral(int(v)),
    "Q": lambda v: quaternion(int(v)),
    "SD": lambda v: semidihedral(int(v)),
    "C": lambda v: cyclic(int(v)),
}


def group_from_name(text: str) -> FiniteGroup:
    text = text.strip()
    if text == "C2xQ8":
        return c2_x_q8()
    m = re.fullmatch(r"OM:(\d+)\^(\d+)", text)
    if m:
        p, k = int(m.group(1)), int(m.group(2))
        return ordinary_metacyclic(p, k)
    m = re.fullmatch(r"(D|Q|SD|C):(\d+)", text)
    if m:
        return _NAMED[m.group(1)](m.group(2))
    raise SchemaError(f"unknown group name {text!r}")


def group_from_spec(obj) -> FiniteGroup:
    """Build a group from a JSON-style dict, a named string, or pass through."""
    if isinstance(obj, FiniteGroup):
        return obj
    if isinstance(obj, str):
        return group_from_name(obj)
    if not isinstance(obj, dict):
        raise SchemaError(f"cannot interpret group spec {obj!r}")
    if "product" in obj:
        specs = obj["product"]
        if not isinstance(specs, list) or len(specs) != 2:
            raise SchemaError("product spec needs exactly two factors")
        G1, G2 = group_from_spec(specs[0]), group_from_spec(specs[1])
        G = direct_product(G1, G2)
        if "name" in obj:
            G.name = str(obj["name"])
        return G
    ints = {}
    for key, default in (("N", None), ("M", None), ("r", 1), ("s", 0)):
        if key not in obj and default is None:
            raise SchemaError(f"missing group key {key!r}")
        ints[key] = value = obj.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"group key {key!r} must be an integer, got {value!r}")
    return MetacyclicGroup(**ints, name=str(obj.get("name", "")))


def load_group_file(path) -> FiniteGroup:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read a group spec ({exc})") from None
    return group_from_spec(spec)
