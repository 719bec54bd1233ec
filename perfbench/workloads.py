"""The four benchmark workloads: inputs, layer calls, output checks.

Each workload builds its inputs in `setup`, then `run(inst)` makes the timed
calls into the public functions of ffield / shoda / idem / examples / code
for one instance, each call wrapped in a span named after it.  `check`
runs untimed afterwards: it compares the outputs with the digests pinned in
reference.json, tests the invariants the paper relies on, and adds to the
work counters.  `summary` gives the values that reference.json pins.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from typing import Dict, List

import numpy as np

from metacode import code, examples, ffield, groups, idem, shoda

ANALOGUE_QS = (2, 13, 17, 19)
ANALOGUE_BUDGET = 2_000_000
# (q, m) draws of the traces workload, three per extension-degree band
# (ord_m(q) <= 20, 21..60, 61..DIRECT_DEGREE_CAP), with m chosen so that
# every trace_vanishes_* family meets its hypotheses somewhere.  The seed
# draws the exponents k of the rel_trace calls and predicate checks.  The
# moduli stay fixed: the cold cost of a field depends on m as much as on
# q^o, and seeded moduli made the pass time vary by up to 2x per draw.
TRACE_DRAWS = ((2, 25), (3, 64), (5, 54),
               (2, 61), (3, 119), (5, 122),
               (2, 203), (3, 209), (4, 139))
RELTRACE_KS = 2


def vec_digest(vec) -> str:
    return hashlib.sha256(np.ascontiguousarray(vec, dtype=np.int64).tobytes()).hexdigest()


def table_digest(table) -> str:
    arr = np.asarray(table, dtype=np.int64).reshape(len(table), -1)
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def witness_in_code(c: code.LinearCode, w) -> bool:
    """w lies in the row space of the RREF generator matrix."""
    w = np.asarray(w, dtype=np.int64) % c.q
    return bool(np.array_equal((w[c.pivots] @ c.genmat) % c.q, w))


class Workload:
    name = ""
    # probe.PARTS whose speed scales this workload's times: its work is
    # interpreter loops and NumPy operations on large arrays
    probe_parts = ("loop", "block")

    def __init__(self, seed: int, ref: Dict, tracer):
        self.seed = seed
        self.ref = ref.get(self.name, {})
        self.span = tracer.span
        self.counters: Counter = Counter()
        self.setup_problems: List[str] = []
        self._tables_seen = set()

    def setup(self) -> None:
        raise NotImplementedError

    def instances(self) -> list:
        raise NotImplementedError

    def run(self, inst):
        raise NotImplementedError

    def summary(self, inst, out) -> Dict:
        raise NotImplementedError

    def check(self, inst, out) -> List[str]:
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------------
    def _catalog(self, G):
        with self.span("shoda.ssp_catalog", "setup"):
            pairs = shoda.ssp_catalog(G)
        self.counters["shoda.ssp_catalog.pairs"] += len(pairs)
        return pairs

    def _distance(self, inst, c, **kw):
        with self.span("code.min_distance", inst) as sp:
            lo, hi, w = code.min_distance(c, **kw)
            sp.attrs.update(q=c.q, n=c.n, k=c.k, exact=lo == hi)
        return lo, hi, w

    def _count_table(self, field, m) -> None:
        key = (field.p, field.e, m)
        self.counters["ffield.trace_table.calls"] += 1
        if key not in self._tables_seen:
            self._tables_seen.add(key)
            self.counters["ffield.trace_table.cold_calls"] += 1
            self.counters["ffield.degree_built"] += ffield.mult_order(field.q, m)

    def _count_code(self, c, lo, hi) -> None:
        self.counters["code.ideal_to_code.cells"] += c.n * c.n
        if lo is None:
            return
        self.counters["code.min_distance.calls"] += 1
        self.counters["code.min_distance.interval_width"] += hi - lo
        if lo == hi:
            self.counters["code.min_distance.exact"] += 1
            self.counters["code.min_distance.msg_classes"] += msg_classes(c.q, c.n, c.k)

    def _check_code(self, tag, c, lo, hi, w, pinned) -> List[str]:
        bad = []
        got = [c.n, c.k, lo, hi]
        want = [pinned.get(f) for f in ("n", "k", "d_lo", "d_hi")]
        if want[3] is None:  # d_hi not pinned for this seed
            got, want = got[:3], want[:3]
        if got != want:
            bad.append(f"{tag}: [n, k, d_lo, d_hi] = {got}, pinned {want}")
        if lo is not None:
            if not lo <= hi:
                bad.append(f"{tag}: d_lo {lo} > d_hi {hi}")
            if w is None or int(np.count_nonzero(np.asarray(w) % c.q)) != hi:
                bad.append(f"{tag}: witness weight is not d_hi = {hi}")
            elif not witness_in_code(c, w):
                bad.append(f"{tag}: witness is not a codeword")
        return bad


def msg_classes(q: int, n: int, k: int) -> int:
    """Scalar classes of the smaller of the message and dual spaces.

    Saturates at 10**300 so that sums of it stay finite as JSON floats.
    """
    return min((q ** min(k, n - k) - 1) // (q - 1), 10**300)


# ---------------------------------------------------------------------------
# claims: the 18 catalogued code claims


class Claims(Workload):
    name = "claims"

    def setup(self):
        self.claims = {c["tag"]: c for c in examples.load_claims()}
        self.algs = {}
        for tag, c in self.claims.items():
            G = groups.group_from_spec(c["group"])
            self.algs[tag] = idem.GroupAlgebra(G, c["q"])

    def instances(self):
        return list(self.claims)

    def run(self, tag):
        claim, alg = self.claims[tag], self.algs[tag]
        with self.span("examples.build_idempotent", tag):
            f = examples.build_idempotent(alg, claim["build"])
        with self.span("code.ideal_to_code", tag):
            c = code.ideal_to_code(alg, f, provenance={"tag": tag})
        lo = hi = w = None
        if c.k:
            lo, hi, w = self._distance(tag, c)
        return f, c, lo, hi, w

    def status(self, tag, c, lo, hi) -> str:
        claim = self.claims[tag]
        e = claim["expect"]
        if (c.n, c.k) == (e["n"], e["k"]) and lo == hi == e["d"]:
            return "PASS"
        return "AUDIT-DISCREPANCY" if claim.get("audit") else "FAIL"

    def summary(self, tag, out):
        _f, c, lo, hi, _w = out
        return {"n": c.n, "k": c.k, "d_lo": lo, "d_hi": hi, "status": self.status(tag, c, lo, hi)}

    def check(self, tag, out):
        f, c, lo, hi, w = out
        self._count_code(c, lo, hi)
        pinned = self.ref.get(tag, {})
        bad = self._check_code(tag, c, lo, hi, w, pinned)
        status = self.status(tag, c, lo, hi)
        if status != pinned.get("status"):
            bad.append(f"{tag}: status {status}, pinned {pinned.get('status')}")
        if f * f != f:
            bad.append(f"{tag}: built element is not idempotent")
        return bad


# ---------------------------------------------------------------------------
# sweep56595: every pair of G1029 x G55 over GF(2)


def big_product():
    G1 = groups.MetacyclicGroup(343, 3, pow(18, -1, 343), name="G1029")
    G2 = groups.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
    return groups.direct_product(G1, G2)


class Sweep(Workload):
    name = "sweep56595"

    def setup(self):
        self.G = big_product()
        self.alg = idem.GroupAlgebra(self.G, 2)
        self.pairs = self._catalog(self.G)
        if len(self.pairs) != 15:
            self.setup_problems.append(f"catalog has {len(self.pairs)} pairs, not 15")

    def instances(self):
        return list(range(len(self.pairs)))

    def run(self, i):
        G, alg, pair = self.G, self.alg, self.pairs[i]
        with self.span("idem.cosets_and_orbits", i):
            od = idem.cosets_and_orbits(G, pair, 2)
        with self.span("ffield.trace_table", i):
            ffield.trace_table(alg.field, pair.index)
        with self.span("idem.pci", i):
            e = idem.pci(alg, pair, od.orbit_reps[0])
        with self.span("idem.is_idempotent", i):
            is_idem = e.value.is_idempotent()
        with self.span("idem.is_central", i):
            is_cent = e.value.is_central()
        return od, e, is_idem, is_cent

    def summary(self, i, out):
        od, e, _, _ = out
        return {"index": self.pairs[i].index, "orbit_reps": list(od.orbit_reps),
                "pci": vec_digest(e.value.vec)}

    def check(self, i, out):
        od, e, is_idem, is_cent = out
        self.counters["idem.orbit_reps"] += len(od.orbit_reps)
        self._count_table(self.alg.field, self.pairs[i].index)
        bad = []
        if not (is_idem and is_cent):
            bad.append(f"pair {i}: idempotent={is_idem} central={is_cent}")
        pinned = self.ref.get(str(i))
        if self.summary(i, out) != pinned:
            bad.append(f"pair {i}: index, orbit reps or pci digest differ from the pinned ones")
        return bad


# ---------------------------------------------------------------------------
# analogue1155: G21 x G55, proper-H pcis as codes, interval certificates


class Analogue(Workload):
    name = "analogue1155"

    def setup(self):
        G1 = groups.MetacyclicGroup(7, 3, 4, name="G21")
        G2 = groups.MetacyclicGroup(11, 5, pow(4, -1, 11), name="G55")
        self.G = groups.direct_product(G1, G2)
        self.pairs = self._catalog(self.G)
        self.proper = [p for p in self.pairs if p.H.order != self.G.order]
        self.algs = {q: idem.GroupAlgebra(self.G, q) for q in ANALOGUE_QS}

    def instances(self):
        return list(ANALOGUE_QS)

    def run(self, q):
        G, alg = self.G, self.algs[q]
        with self.span("idem.census", q):
            rows = idem.census(G, q, self.pairs)
        codes = []
        for pair in self.proper:
            with self.span("idem.cosets_and_orbits", q):
                od = idem.cosets_and_orbits(G, pair, q)
            with self.span("idem.pci", q):
                e = idem.pci(alg, pair, od.orbit_reps[0])
            with self.span("code.ideal_to_code", q):
                c = code.ideal_to_code(alg, e)
            lo, hi, w = self._distance(q, c, budget=ANALOGUE_BUDGET, seed=self.seed)
            codes.append((pair, od, e, c, lo, hi, w))
        return rows, codes

    def summary(self, q, out):
        _rows, codes = out
        return {
            "codes": [
                {"index": pair.index, "pci": vec_digest(e.value.vec), "n": c.n, "k": c.k, "d_lo": lo}
                for pair, _od, e, c, lo, _hi, _w in codes
            ],
            # d_hi comes from seeded information sets, so it is pinned per seed
            "d_hi": [hi for *_, hi, _w in codes],
        }

    def check(self, q, out):
        rows, codes = out
        bad = []
        dim = sum(r.dim for r in rows)
        if dim != self.G.order:
            bad.append(f"q={q}: census dimensions sum to {dim}, not {self.G.order}")
        pinned = self.ref.get(str(q), {})
        pinned_codes = pinned.get("codes", [])
        d_hi = self.ref.get("d_hi_by_seed", {}).get(str(self.seed), {}).get(str(q))
        if len(pinned_codes) != len(codes):
            bad.append(f"q={q}: {len(codes)} codes, pinned {len(pinned_codes)}")
            pinned_codes = [{}] * len(codes)
        for j, (pair, od, e, c, lo, hi, w) in enumerate(codes):
            self.counters["idem.orbit_reps"] += len(od.orbit_reps)
            self._count_code(c, lo, hi)
            tag = f"q={q} pair [H:K]={pair.index}"
            want = dict(pinned_codes[j], d_hi=d_hi[j] if d_hi else None)
            bad += self._check_code(tag, c, lo, hi, w, want)
            if vec_digest(e.value.vec) != want.get("pci"):
                bad.append(f"{tag}: pci digest differs from the pinned one")
            size = self.G.order // pair.H.order
            if c.k != size * size * (od.o // od.stab_index):
                bad.append(f"{tag}: k = {c.k} breaks the Eq.(2) dimension")
            if not lo <= e.value.weight():
                bad.append(f"{tag}: d_lo {lo} > wt(e) {e.value.weight()}")
            if not 2 * pair.K.order <= hi:
                bad.append(f"{tag}: d_hi {hi} < 2|K| = {2 * pair.K.order}")
        return bad


# ---------------------------------------------------------------------------
# traces: cold extension fields and trace tables


def predicate_calls(q: int, m: int, ks: List[int]) -> List[tuple]:
    """(predicate, args, ks) for every trace_vanishes_* whose hypotheses hold.

    Each claims that the q-orbit sum of xi_m^k vanishes, which for a unit k
    is the table entry tr(xi_m^k).  uniform_trace_vanishes claims it for
    every unit k at once; its False only means "not for every k".
    """
    fac = ffield.factorize(m)
    primes = sorted(fac)
    calls = [(ffield.uniform_trace_vanishes, (q, m), tuple(ks))]
    if q % 2 == 1:
        if primes == [2]:
            calls.append((ffield.trace_vanishes_2power, (q, fac[2]), (1,)))
        elif len(primes) == 2 and primes[0] == 2:
            p = primes[1]
            calls += [(ffield.trace_vanishes_2p, (q, p, fac[2], fac[p], k), (k,)) for k in ks]
    if len(primes) == 2 and primes[0] > 2 and (primes[1] - 1) % primes[0]:
        p1, p2 = primes
        calls += [
            (ffield.trace_vanishes_two_odd_primes, (q, p1, p2, fac[p1], fac[p2], k), (k,))
            for k in ks
        ]
    return calls


class Traces(Workload):
    name = "traces"
    # ffield's hot path is millions of NumPy calls on arrays of a few to a
    # few hundred entries, which a slow host slows more than large-array work
    probe_parts = ("loop", "small", "block")

    def setup(self):
        rng = random.Random(self.seed)
        self.draws = {}
        for q, m in TRACE_DRAWS:
            ((p, e),) = ffield.factorize(q).items()
            units = [k for k in range(1, m) if math.gcd(k, m) == 1]
            ks = sorted(rng.sample(units, RELTRACE_KS))
            self.draws[f"{q}:{m}"] = {"field": ffield.make_field(p, e), "m": m, "ks": ks,
                                      "predicates": predicate_calls(q, m, ks)}

    def instances(self):
        return list(self.draws)

    def run(self, inst):
        d = self.draws[inst]
        ctx, m = d["field"], d["m"]
        with self.span("ffield.extension_for_root", inst):
            ext = ffield.extension_for_root(ctx, m)
        with self.span("ffield.trace_table", inst):
            table = ffield.trace_table(ctx, m)
        traces = []
        for k in d["ks"]:
            with self.span("ffield.rel_trace", inst):
                traces.append(ffield.rel_trace(ext, ext.pow(ext.xi, k)))
        verdicts = []
        for fn, args, _k in d["predicates"]:
            with self.span("ffield.trace_vanishes", inst):
                verdicts.append(fn(*args))
        return ext, table, traces, verdicts

    def summary(self, inst, out):
        ext, table, _traces, _verdicts = out
        return {"o": ext.o, "table": table_digest(table)}

    def check(self, inst, out):
        d = self.draws[inst]
        ext, table, traces, verdicts = out
        self._count_table(d["field"], d["m"])
        bad = []
        if len(table) != d["m"]:
            bad.append(f"{inst}: table length {len(table)}")
        if self.summary(inst, out) != self.ref.get(inst):
            bad.append(f"{inst}: degree or trace table differ from the pinned ones")
        for k, tr in zip(d["ks"], traces):
            if tuple(tr) != tuple(table[k]):
                bad.append(f"{inst}: rel_trace(xi^{k}) = {tr}, table has {table[k]}")
        for (fn, args, ks), says in zip(d["predicates"], verdicts):
            vanishes = all(not any(table[k]) for k in ks)
            if fn is ffield.uniform_trace_vanishes:
                ok = vanishes or not says
            else:
                ok = says == vanishes
            if not ok:
                bad.append(f"{inst}: {fn.__name__}{args} = {says}, table says {vanishes}")
        return bad


WORKLOADS = {w.name: w for w in (Claims, Sweep, Analogue, Traces)}
