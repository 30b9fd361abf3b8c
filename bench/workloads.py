"""The benchmark's three workloads.

Each workload has a set-up (ring tables and matrix representations, built
before the clock for verdict_s starts) and a body that runs one slice of a
verification suite and checks every verdict against bench/checks.py.  The
body calls the program only through module attributes looked up at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import numpy as np

from chevalley import adelic, chevgroup, definability, rings, witnesses

from checks import (
    ORDER, Tally, central_quotient, gamma1_size, order_sl3, product_field_mul,
    root_times_center, sl2_product_order, sp4_short_root_exceptional, units_count,
)

SL2_PRIMES = (7, 11)
THETA_SL3F3_SAMPLE = 16
THETA_SL2_SAMPLE = 60
THETA_SL2_PAIRS = 20


def _reps(specs):
    build = {
        "SL3": lambda: chevgroup.classical_rep("A", 2),
        "Sp4": lambda: chevgroup.classical_rep("C", 2),
        "G2adj": lambda: chevgroup.adjoint_rep("G", 2),
    }
    return {s: build[s]() for s in specs}


def _other_length_root(rep) -> int:
    sys_ = rep.sys
    return next(a for a in range(len(sys_.roots)) if sys_.is_long(a) != sys_.is_long(0))


# ---------------------------------------------------------------------------
# enum-dc: BFS enumeration, centralizer scans, Bruhat


def setup_enum_dc() -> dict:
    return {"fields": {q: rings.GF(q) for q in (2, 3, 4, 5)},
            "reps": _reps(("SL3", "Sp4", "G2adj"))}


def body_enum_dc(ctx: dict, rng: np.random.Generator, tally: Tally) -> None:
    fields, reps = ctx["fields"], ctx["reps"]
    for spec, q in (("SL3", 4), ("SL3", 5), ("Sp4", 3), ("G2adj", 2)):
        rep, ring = reps[spec], fields[q]
        E = chevgroup.enumerate_group(rep, ring)
        tally.equal(f"|{spec}(F{q})|", E.order, ORDER[spec](q))
        roots = [0, _other_length_root(rep)] if spec == "Sp4" else [0]
        for alpha in roots:
            r = int(rng.integers(1, q))
            rpt = witnesses.verify_dc(E, alpha, ring.dtype(r))
            label = f"dc {spec}(F{q}) root {alpha} r={r}"
            uz = root_times_center(spec, q)
            exceptional = spec == "Sp4" and not rep.sys.is_long(alpha) \
                and sp4_short_root_exceptional(q)
            tally.equal(f"{label} |UZ|", rpt.sizes["UZ"], uz)
            tally.equal(f"{label} exceptional", rpt.exceptional, exceptional)
            if exceptional:
                tally.equal(f"{label} dc1", rpt.dc1_holds, False)
            else:
                tally.equal(f"{label} |C(C(u))|", rpt.sizes["CC_u"], uz)
                tally.equal(f"{label} |Z(C(u))|", rpt.sizes["ZC_u"], uz)
            tally.holds(f"{label} verdict", rpt.verdict)
        del E  # free it before the next enumeration, so peak RSS is the largest group's
    E = chevgroup.enumerate_group(reps["SL3"], fields[3])
    want = order_sl3(3)
    tally.equal("|SL3(F3)|", E.order, want)
    rpt = chevgroup.verify_bruhat(E)
    tally.equal("Bruhat SL3(F3) tuples", rpt["tuple_count"], want)
    tally.equal("Bruhat SL3(F3) distinct", rpt["distinct_products"], want)
    tally.holds("Bruhat SL3(F3) ok", rpt["ok"])


# ---------------------------------------------------------------------------
# definability: formula evaluator, transport maps, theta


def setup_definability() -> dict:
    return {"fields": {q: rings.GF(q) for q in (2, 3, 4, 5)},
            "reps": _reps(("SL3", "Sp4"))}


def body_definability(ctx: dict, rng: np.random.Generator, tally: Tally) -> None:
    fields, reps = ctx["fields"], ctx["reps"]
    E = chevgroup.enumerate_group(reps["SL3"], fields[4])
    tally.equal("|SL3(F4)|", E.order, order_sl3(4))
    res = definability.verify_dc_formula(E, 0)
    uz = root_times_center("SL3", 4)
    tally.equal("definable UZ SL3(F4) extension", res["extension_size"], uz)
    tally.equal("definable UZ SL3(F4) UZ", res["UZ_size"], uz)
    tally.holds("definable UZ SL3(F4) ok", res["ok"])
    del E
    for spec, q in (("SL3", 5), ("Sp4", 3)):
        rep, ring = reps[spec], fields[q]
        n = len(rep.sys.roots)
        for a in range(n):
            for b in range(n):
                for r in range(q):
                    got = definability.map_c(rep, ring, a, b, rep.x(ring, a, ring.dtype(r)))
                    tally.equal(f"map_c {spec}(F{q}) {a}->{b} r={r}", got,
                                rep.x(ring, b, ring.dtype(r)))
        rig = definability.RingInGroup(rep, ring)
        tally.holds(f"ring axioms in {spec}(F{q})", definability.check_ring_axioms(rig))
        a0 = rig.a0
        for r in range(q):
            for s in range(q):
                got = definability.map_m(rep, ring, a0, a0, a0, rep.x(ring, a0, ring.dtype(r)),
                                         rep.x(ring, a0, ring.dtype(s)))
                tally.equal(f"map_m {spec}(F{q}) {r}*{s}", got,
                            rep.x(ring, a0, ring.dtype(r * s % q)))
    E2 = chevgroup.enumerate_group(reps["SL3"], fields[2])
    tally.equal("|SL3(F2)|", E2.order, order_sl3(2))
    tm = definability.ThetaMap(E2)
    for i in range(E2.order):
        tally.holds(f"theta round trip SL3(F2) #{i}", tm.round_trip(i))
    E3 = chevgroup.enumerate_group(reps["SL3"], fields[3])
    tally.equal("|SL3(F3)|", E3.order, order_sl3(3))
    tm3 = definability.ThetaMap(E3)
    for i in rng.choice(E3.order, size=THETA_SL3F3_SAMPLE, replace=False):
        tally.holds(f"theta round trip SL3(F3) #{i}", tm3.round_trip(int(i)))


# ---------------------------------------------------------------------------
# sl2-product: SL2 over F7 x F11, one 2x2 matrix at a time


def setup_sl2_product() -> dict:
    factors = [rings.GF(p) for p in SL2_PRIMES]
    return {"ring": rings.ProductRing(factors), "f11": factors[1]}


def body_sl2_product(ctx: dict, rng: np.random.Generator, tally: Tally) -> None:
    ring, primes = ctx["ring"], SL2_PRIMES
    tau = adelic.make_tau(ring)
    sl2 = None
    for mode in adelic.SL2Group.MODES:
        G = adelic.SL2Group(ring, mode)
        z = central_quotient(mode, primes)
        tally.equal(f"|{mode}(F7xF11)|", G.order, sl2_product_order(primes) // z)
        tally.equal(f"|H| {mode}", len(adelic.centralizer_H(G, tau)), units_count(primes) // z)
        th = adelic.theta_report(G, sample=THETA_SL2_SAMPLE, pairs=THETA_SL2_PAIRS,
                                 seed=int(rng.integers(2**31)))
        tally.equal(f"theta {mode} checked", th["checked"], THETA_SL2_SAMPLE)
        tally.holds(f"theta {mode} round trip", th["round_trip"])
        tally.holds(f"theta {mode} multiplicative", th["multiplicative"])
        if mode == "SL2":
            sl2 = G
    G = sl2
    size = ring.size
    tally.equal("|F7xF11|", size, primes[0] * primes[1])
    for b in range(size):
        ub = G.u(ring.dtype(b))
        for a in range(size):
            got = adelic.mult_formula_P(G, ub, G.u(ring.dtype(a)))
            tally.equal(f"P u({b}) u({a})", got,
                        G.u(ring.dtype(product_field_mul(primes, b, a))))
    du = adelic.define_U(G)
    tally.equal("|U| by definition", du["size"], size)
    tally.holds("define_U complete", du["complete"])
    at = adelic.define_AT(G, (0, 1))
    tally.equal("|A_{0,1}|", len(at["codes"]), 2 ** len(primes))
    tally.holds("define_AT ok", at["ok"])
    w = adelic.define_W(G)
    tally.equal("|W|", w["size"], 2 ** len(primes))
    tally.holds("define_W ok", w["ok"])
    g1 = adelic.gamma1_report(G)
    tally.equal("|Gamma_1|", g1["size"], gamma1_size(primes))
    tally.holds("gamma1 ok", g1["ok"])
    q = primes[1]
    want = {"H": q - 1, "U": q, "AT": 2, "W": 2, "G1": gamma1_size((q,))}
    report = adelic.sl2_formula_report(ctx["f11"])
    tally.equal("formula sets over F11", sorted(report), sorted(want))
    for name, rpt in report.items():
        tally.equal(f"formula {name} over F11 size", rpt["size"], want[name])
        tally.holds(f"formula {name} over F11 match", rpt["match"])


WORKLOADS = {
    "enum-dc": (setup_enum_dc, body_enum_dc),
    "definability": (setup_definability, body_definability),
    "sl2-product": (setup_sl2_product, body_sl2_product),
}
