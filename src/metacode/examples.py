"""Catalogued code claims: expected parameters, builders, and the verify run.

Expected values live in data/examples.json so that audit discrepancies show
up as data diffs.  Each claim names a group, a field, an idempotent
construction, and the published [n, k, d]; claims marked "audit" record a
measured mismatch as AUDIT-DISCREPANCY instead of a failure.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List, Optional

from . import code as code_mod
from . import idem, shoda, units
from .groups import (
    ProductGroup,
    full_subgroup,
    group_from_spec,
    subgroup_closure,
)

EXAMPLES_PATH = "data/examples.json"


def load_claims() -> List[Dict]:
    text = resources.files("metacode").joinpath(EXAMPLES_PATH).read_text()
    return json.loads(text)


def _find_pci(alg: idem.GroupAlgebra, pairs: List[shoda.ShodaPair], sel: Dict) -> idem.Idempotent:
    """Resolve a pci selector {H_order?, index?, K_gens?, k?} against S(G)."""
    G = alg.G
    want_k = sel.get("k", 1)
    for pair in pairs:
        if "H_order" in sel and pair.H.order != sel["H_order"]:
            continue
        if "index" in sel and pair.index != sel["index"]:
            continue
        if "K_gens" in sel:
            K = subgroup_closure(G, [G.encode(i, j) for i, j in sel["K_gens"]])
            if K.elements != pair.K.elements:
                continue
        od = idem.cosets_and_orbits(G, pair, alg.q)
        for rep in od.orbit_reps:
            if want_k == 1 or rep == want_k:
                return idem.pci(alg, pair, rep)
    raise KeyError(f"no pci matches selector {sel!r}")


def _bhat(alg: idem.GroupAlgebra):
    G = alg.G
    return alg.hat(subgroup_closure(G, [G.b]))


def build_idempotent(alg: idem.GroupAlgebra, spec: Dict) -> idem.AlgebraElement:
    """The example constructions, written exactly as the source expressions."""
    G = alg.G
    kind = spec["kind"]
    if kind == "complement_left":
        # (1 - e) B^ with e the all-group averaging idempotent
        top = full_subgroup(G)
        return (alg.one() - alg.hat(top)) * _bhat(alg)
    if kind == "c2q8_best" and not isinstance(G, ProductGroup):
        raise idem.RegimeMismatch(f"c2q8_best needs C2 x Q8, got {G.name}")
    pairs = shoda.ssp_catalog(G)  # once per construction
    if kind == "pci":
        return _find_pci(alg, pairs, spec["pci"]).value
    if kind == "left_bhat":
        e = _find_pci(alg, pairs, spec["pci"])
        return e.value * _bhat(alg)
    if kind == "improved_bhat":
        # e (B^ + B^ a (1 - B^)): the corner-unit conjugate of e B^
        e = _find_pci(alg, pairs, spec["pci"])
        bh = _bhat(alg)
        return e.value * (bh + (bh * alg.basis(G.a)) * (alg.one() - bh))
    if kind == "alt_conj":
        e = _find_pci(alg, pairs, spec["pci"])
        u = units.alternating(alg, G.a, spec["k"])
        return units.conjugate_idempotent(alg, e, spec.get("beta", 1), u).value
    if kind == "elem_conj":
        e = _find_pci(alg, pairs, spec["pci"])
        x = alg.element(
            {G.encode(i, j): c for c, i, j in spec["elem"]}
        )
        u = units.unit_from_element(alg, x)
        return units.conjugate_idempotent(alg, e, spec.get("beta", 1), u).value
    if kind == "c2q8_best":
        # 1 - (e1 + e2 + e3): drop the trivial, the Q8-kernel, and one
        # matrix-component idempotent of C2 x Q8
        q8, top = G.right, full_subgroup(G)
        e1 = alg.hat(top)
        K2 = subgroup_closure(G, [G.pair(0, q8.a), G.pair(0, q8.b)])
        e2 = idem.pci(alg, _pair_with(pairs, top, K2), 1).value
        H3 = subgroup_closure(G, [G.pair(0, q8.a), G.pair(1, 0)])
        K3 = subgroup_closure(G, [G.pair(1, 0)])
        e3 = idem.pci(alg, _pair_with(pairs, H3, K3), 1).value
        return alg.one() - (e1 + e2 + e3)
    if kind == "d12_mix":
        # e_C(G, G, <a^2, ab>) + B^ e_C(G, <a>, 1)
        K = subgroup_closure(G, [G.encode(2, 0), G.encode(1, 1)])
        e4 = idem.pci(alg, _pair_with(pairs, full_subgroup(G), K), 1).value
        e6 = _find_pci(alg, pairs, {"H_order": G.N, "index": G.N}).value
        return e4 + _bhat(alg) * e6
    raise KeyError(f"unknown construction kind {kind!r}")


def _pair_with(pairs: List[shoda.ShodaPair], H, K) -> shoda.ShodaPair:
    for p in pairs:
        if p.H.elements == H.elements and p.K.elements == K.elements:
            return p
    raise KeyError("no catalogued pair with that H and K")


def run_claim(claim: Dict, budget: int) -> Dict:
    G = group_from_spec(claim["group"])
    alg = idem.GroupAlgebra(G, claim["q"])
    f = build_idempotent(alg, claim["build"])
    if f * f != f:
        raise idem.InvariantError(f"{claim['tag']}: built element is not idempotent")
    c = code_mod.ideal_to_code(alg, f, provenance={"tag": claim["tag"]})
    expect = claim["expect"]
    result: Dict = {"tag": claim["tag"], "claim": claim.get("note", "")}
    if c.k:
        lo, hi, _ = code_mod.min_distance(c, budget=budget)
    else:
        lo = hi = None
    measured = {"n": c.n, "k": c.k, "d_lo": lo, "d_hi": hi}
    result["measured"] = f"[{c.n}, {c.k}, {lo if lo == hi else f'{lo}..{hi}'}]"
    ok = (
        c.n == expect["n"]
        and c.k == expect["k"]
        and lo == hi == expect["d"]
    )
    if ok:
        result["status"] = "PASS"
    elif claim.get("audit"):
        result["status"] = "AUDIT-DISCREPANCY"
        result["note"] = f"expected [{expect['n']}, {expect['k']}, {expect['d']}]"
    else:
        result["status"] = "FAIL"
        result["note"] = f"expected [{expect['n']}, {expect['k']}, {expect['d']}]"
    result["detail"] = measured
    return result


def run_examples(only: Optional[str] = None, budget: int = code_mod.DEFAULT_BUDGET) -> List[Dict]:
    out = []
    for claim in load_claims():
        if only and only not in claim["tag"]:
            continue
        out.append(run_claim(claim, budget))
    return out
