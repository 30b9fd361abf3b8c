"""Command line front end: verification suites and one-off checks.

Subcommands mirror the library layers: root-system dumps, the rank-2
commutator oracle, group enumeration, double-centralizer checks, witness
sets, formula evaluation, the SL2 suites over product rings, and `run`,
which runs any suite, first-order definability among them.  Reports render
as text or JSON; the JSON body is fully deterministic given (config, seed),
so wall-clock goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from . import adelic
from .chevgroup import adjoint_rep, classical_rep, enumerate_group, verify_bruhat
from .definability import (
    ThetaMap, RingInGroup, check_ring_axioms, define_set, evaluate_sentence,
    free_vars, map_c, map_m, parse_formula, verify_dc_formula, width_probe,
)
from .rings import GF, ProductRing, decompose_square_diff, hypothesis_profile, Zmod
from .rootsys import build_root_system, commutator_template, dump_roots
from .witnesses import (
    classical_witness_set, f4_witness_set, matrix_witness_check,
    torus_witness, verify_containment, verify_dc, verify_dc_exceptional_sp4,
    verify_witness_centralizer,
)
from . import gfmat

SUITES = ("roots", "commutators", "dc", "witnesses", "definability", "adelic",
          "width", "all")

_GROUP_RE = re.compile(r"^(SL|Sp|SO|O)(\d+)$")
_ADJ_RE = re.compile(r"^([A-G])(\d)adj$")


def parse_group(spec: str):
    """SL3 | Sp4 | SO7 | O8 | G2adj | F4adj (and the other adjoint labels)."""
    m = _ADJ_RE.match(spec)
    if m:
        return adjoint_rep(m.group(1), int(m.group(2)))
    m = _GROUP_RE.match(spec)
    if not m:
        raise ValueError(f"bad group spec {spec!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "SL":
        if n < 3:
            raise ValueError("rank >= 2 required: use SL3 or larger")
        return classical_rep("A", n - 1)
    if kind == "Sp":
        if n % 2 or n < 4:
            raise ValueError("Sp needs even degree >= 4")
        return classical_rep("C", n // 2)
    if kind == "SO":
        if n % 2 == 0 or n < 7:
            raise ValueError("SO needs odd degree >= 7")
        return classical_rep("B", (n - 1) // 2)
    if n % 2 or n < 8:
        raise ValueError("O needs even degree >= 8")
    return classical_rep("D", n // 2)


_ELT_RE = re.compile(r"^([xh])\((-?\d+),(-?\d+)\)$")


def parse_element(rep, ring, spec: str) -> np.ndarray:
    """x(<root>,<ring-elt>) or h(<root>,<unit>); roots by dump index."""
    m = _ELT_RE.match(spec.strip())
    if not m:
        raise ValueError(f"bad element spec {spec!r}")
    kind, a, val = m.group(1), int(m.group(2)), ring.from_int(int(m.group(3)))
    if not 0 <= a < len(rep.sys.roots):
        raise ValueError(f"root index {a} out of range 0..{len(rep.sys.roots) - 1} in {spec!r}")
    if kind == "x":
        return rep.x(ring, a, val)
    if not ring.is_unit(val):
        raise ValueError(f"h needs a unit of {ring.name}, got {spec!r}")
    return rep.h(ring, a, val)


# ---------------------------------------------------------------------------
# report plumbing


class Suite:
    def __init__(self, name: str, config: dict, seed: int):
        self.report = {"suite": name, "config": config, "seed": seed, "checks": []}
        self.t0 = time.time()

    def add(self, name: str, anchor: str, ok, **data):
        status = "exploratory" if ok is None else ("pass" if ok else "fail")
        self.report["checks"].append(
            {"name": name, "anchor": anchor, "status": status, "data": data})

    def done(self) -> dict:
        self.report["failures"] = sum(c["status"] == "fail" for c in self.report["checks"])
        print(f"[{self.report['suite']}] {time.time() - self.t0:.1f}s", file=sys.stderr)
        return self.report


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=_jsonable)
    lines = []
    for chk in report.get("checks", []):
        lines.append(f"[{chk['status'].upper():>11}] {chk['name']} ({chk['anchor']})")
        for k, v in chk["data"].items():
            lines.append(f"              {k}: {v}")
    lines.append(f"suite {report.get('suite')}: {report.get('failures', 0)} failures")
    return "\n".join(lines)


def _jsonable(o):
    if isinstance(o, (np.integer, np.bool_, np.ndarray)):
        return o.tolist()  # Python ints and bools
    raise TypeError(f"not JSON serializable: {type(o)}")


# ---------------------------------------------------------------------------
# suites


def _commutator_check(s: Suite, rep, ring) -> None:
    """Compare the matrix commutator [x_a(r), x_b(t)] with its word from
    `commutator_template` on every ordered pair of non-proportional roots,
    for a block of (r, t) at once: x_a(c) is built for every code c once
    per root, the direct side is three stacked products, and the word
    side's values c r^ea t^eb are read from power tables."""
    sys_, neg, mul, q = rep.sys, ring.neg_t, ring.mul_t, ring.size
    codes = np.arange(q, dtype=ring.dtype)
    X = [rep.x_batch(ring, a, codes) for a in range(len(sys_.roots))]
    pw = {1: codes}  # pw[e][c] = c^e
    for e in (2, 3):
        pw[e] = mul[pw[e - 1], codes]
    rows = gfmat.block_rows(ring, rep.dim, 1)  # one block for every field the suite uses
    checked = mismatches = 0
    for a in range(len(X)):
        for b in range(len(X)):
            if b == a or b == sys_.neg(a):
                continue
            for lo in range(0, q * q, rows):
                r, t = np.divmod(np.arange(lo, min(lo + rows, q * q)), q)
                direct = gfmat.mat_mul_many(ring, [X[a][neg[r]], X[b][neg[t]], X[a][r], X[b][t]])
                factors = [X[g][mul[ring.from_int(c), mul[pw[ea][r], pw[eb][t]]]]
                           for g, ea, eb, c in commutator_template(rep.sc, a, b)]
                word = gfmat.mat_mul_many(ring, factors) if factors else gfmat.identity(ring, rep.dim)
                mismatches += int((direct != word).any(axis=(-1, -2)).sum())
            checked += q * q
    s.add(f"{rep.form}-{sys_.type_label}{sys_.rank} over {ring.name}",
          "rank2-commutator-coefficients", mismatches == 0,
          checked=checked, mismatches=mismatches)


def suite_roots(config: dict, seed: int) -> dict:
    s = Suite("roots", config, seed)
    expected_pos = {("A", 2): 3, ("B", 2): 4, ("C", 3): 9, ("B", 3): 9,
                    ("G", 2): 6, ("D", 4): 12, ("F", 4): 24, ("E", 6): 36}
    for (t, r), n in expected_pos.items():
        sys_ = build_root_system(t, r)
        ok = sys_.n_pos == n and len(sys_.roots) == 2 * n
        s.add(f"{t}{r} root count", "root-system-tables", ok,
              positive=sys_.n_pos, total=len(sys_.roots))
    return s.done()


def suite_commutators(config: dict, seed: int) -> dict:
    s = Suite("commutators", config, seed)
    reps = [classical_rep("A", 2), classical_rep("C", 2), classical_rep("C", 3),
            classical_rep("B", 3), adjoint_rep("G", 2)]
    for rep in reps:
        for q in (2, 3, 4, 5, 7):
            _commutator_check(s, rep, GF(q))
    return s.done()


def _dc_check(s: Suite, name: str, E, alpha: int, **expect) -> None:
    """C(C(u)) = Z(C(u)) = UZ for u = x_alpha(1) (dc2 in the exceptional
    symplectic short-root case, with dc1 recorded as failing); `expect`
    pins data values such as UZ or order."""
    rpt = verify_dc(E, alpha)
    data = {**rpt.sizes, "order": E.order, "case": rpt.case()}
    ok = rpt.verdict and all(data[k] == v for k, v in expect.items())
    if rpt.exceptional:
        s.add(name, "exceptional-symplectic-short-root", ok, **data)
        s.add(f"{name} is not dc1", "negative-control",
              not rpt.dc1_holds, dc1=rpt.dc1_holds)
    else:
        s.add(name, "double-centralizer", ok, **data)


def _root_of_length(sys_, long: bool) -> int:
    for a in range(len(sys_.roots)):
        if sys_.is_long(a) == long:
            return a
    raise ValueError(f"{sys_.type_label}{sys_.rank} has no {'long' if long else 'short'} root")


def suite_dc(config: dict, seed: int) -> dict:
    s = Suite("dc", config, seed)
    for spec, q, expect in (("SL3", 2, {"UZ": 2}), ("SL3", 3, {"UZ": 3}),
                            ("SL3", 4, {"UZ": 12}), ("SL3", 5, {"UZ": 5}),
                            ("G2adj", 2, {"order": 12096})):
        E = enumerate_group(parse_group(spec), GF(q))
        _dc_check(s, f"{spec}(F{q}) root 0", E, 0, **expect)
    # symplectic: long root is dc1 everywhere, the short root is the
    # exceptional case when the units are just {1,-1}
    for q in (3, 4):
        ring = GF(q)
        E = enumerate_group(parse_group("Sp4"), ring)
        for length in ("long", "short"):
            _dc_check(s, f"Sp4(F{q}) {length} root", E,
                      _root_of_length(E.rep.sys, length == "long"))
        exc = verify_dc_exceptional_sp4(ring)
        s.add(f"Sp4(F{q}) Z(C(v))", "exceptional-symplectic-short-root",
              exc["ok"], size=exc["ZC_size"], expected=exc["expected"])
    del E  # the last Sp4 group, freed before the F5 check builds its working set
    exc5 = verify_dc_exceptional_sp4(GF(5))
    s.add("Sp4(F5) Z(C(v))", "exceptional-symplectic-short-root", exc5["ok"],
          size=exc5["ZC_size"], expected=exc5["expected"])
    exc2 = verify_dc_exceptional_sp4(GF(2))
    s.add("Sp4(F2) Z(C(v)) open case", "exceptional-symplectic-short-root",
          exc2["ok"], size=exc2["ZC_size"], expected=exc2["expected"])
    # Bruhat uniqueness rides along on the enumerated groups
    for spec, ring, order in (("SL3", GF(2), 168), ("SL3", GF(3), 5616),
                              ("Sp4", GF(2), 720)):
        E = enumerate_group(parse_group(spec), ring)
        rpt = verify_bruhat(E)
        s.add(f"Bruhat count {spec}({ring.name})", "bruhat-uniqueness",
              rpt["ok"] and rpt["order"] == order,
              order=rpt["order"], tuples=rpt["tuple_count"],
              distinct=rpt["distinct_products"])
    return s.done()


def _witness_check(s: Suite, t: str, r: int, which: str, ring) -> None:
    ws = classical_witness_set(t, r, which, ring)
    res = verify_containment(classical_rep(t, r), ring, ws)
    # the X2 bound is the three-subgroup product, a 5-dimensional
    # commutant; every other witness set pins the commutant to <= 4
    max_dim = 5 if which == "X2" else 4
    s.add(f"{which} on {t}{r}({ring.name})", "classical-witness-sets",
          res["ok"] and res["commutant_dim"] <= max_dim,
          commutant_dim=res["commutant_dim"], points=res["group_points"],
          max_commutant_dim=max_dim)


def suite_witnesses(config: dict, seed: int) -> dict:
    s = Suite("witnesses", config, seed)
    rng = np.random.default_rng(seed)
    # torus witnesses across the big systems; absence must be exactly the
    # orthogonal long-long pairs of F4 over F3
    systems = [("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    sys_f4 = build_root_system("F", 4)
    n_f4 = len(sys_f4.roots)
    expected = {("F", 4, 3, a, b) for a in range(n_f4) for b in range(n_f4)
                if sys_f4.is_long(a) and sys_f4.is_long(b)
                and sys_f4.cartan_integer(a, b) == 0}
    absent = []
    total = 0
    for t, r in systems:
        sys_ = build_root_system(t, r)
        n = len(sys_.roots)
        for q in (3, 5, 7):
            ring = GF(q)
            for a in range(n):
                for b in range(n):
                    if b == a or b == sys_.neg(a):
                        continue
                    total += 1
                    if torus_witness(sys_, a, b, ring) is None:
                        absent.append((t, r, q, a, b))
    s.add("torus witness sweep", "torus-witnesses", set(absent) == expected,
          pairs=total, absent=len(absent), expected_absent=len(expected))
    # matrix cross-oracle on the 52-dim rep
    rep_f4 = adjoint_rep("F", 4)
    ring = GF(5)
    checked = bad = 0
    for _ in range(40):
        a, b = int(rng.integers(n_f4)), int(rng.integers(n_f4))
        if b == a or b == sys_f4.neg(a):
            continue
        word = torus_witness(sys_f4, a, b, ring)
        if word is None:
            continue
        checked += 1
        if not matrix_witness_check(rep_f4, ring, word, a, b):
            bad += 1
    s.add("F4 matrix cross-oracle", "torus-witnesses", bad == 0,
          checked=checked, mismatches=bad)
    # the finite witness set in F4 exists over F5
    ws = f4_witness_set(GF(5))
    s.add("F4 finite witness set", "torus-witnesses", len(ws.elements) > 0,
          size=len(ws.elements))
    # classical witness sets
    jobs = [("A", 2, "sl", 3), ("A", 2, "sl", 5), ("A", 3, "sl", 3), ("A", 3, "sl", 5),
            ("C", 2, "X1", 3), ("C", 3, "X1", 3), ("C", 2, "X2", 3), ("C", 3, "X2", 3),
            ("D", 4, "X3", 3), ("B", 3, "X4", 3), ("B", 3, "X5", 3)]
    for t, r, which, q in jobs:
        _witness_check(s, t, r, which, GF(q))
    # the centralizer shape behind the witness construction
    rep = classical_rep("A", 2)
    res = verify_witness_centralizer(rep, GF(5), 0)
    s.add("torus witness centralizer SL3(F5)", "torus-witnesses", res["ok"],
          size=res["group_points"], bound=res["bound"])
    return s.done()


def suite_definability(config: dict, seed: int) -> dict:
    s = Suite("definability", config, seed)
    rng = np.random.default_rng(seed)
    for spec, q in (("SL3", 2), ("SL3", 4), ("Sp4", 3)):
        rep = parse_group(spec)
        ring = GF(q)
        E = enumerate_group(rep, ring)
        roots = [0]
        if rep.sys.type_label == "C":
            roots.append(_root_of_length(rep.sys, not rep.sys.is_long(0)))
        for alpha in roots:
            res = verify_dc_formula(E, alpha)
            s.add(f"definable UZ in {spec}(F{q}) root {alpha}",
                  "definable-root-subgroups", res["ok"],
                  extension=res["extension_size"], UZ=res["UZ_size"])
    # transport maps, exhaustively
    for spec, q in (("SL3", 5), ("Sp4", 3)):
        rep = parse_group(spec)
        ring = GF(q)
        n = len(rep.sys.roots)
        U = [rep.root_subgroup(ring, a) for a in range(n)]  # row r is x_a(r)
        # each map on a whole root subgroup, or on all its pairs, at once
        bad = sum(int((map_c(rep, ring, a, b, U[a]) != U[b]).any(axis=(-1, -2)).sum())
                  for a in range(n) for b in range(n))
        s.add(f"map_c on {spec}(F{q})", "transport-maps", bad == 0, mismatches=bad)
        rig = RingInGroup(rep, ring)
        s.add(f"ring axioms inside {spec}(F{q})", "ring-in-group",
              check_ring_axioms(rig))
        a0 = rig.a0
        got = map_m(rep, ring, a0, a0, a0, U[a0][:, None], U[a0][None])
        bad = int((got != U[a0][ring.mul_t]).any(axis=(-1, -2)).sum())
        s.add(f"map_m on {spec}(F{q})", "transport-maps", bad == 0, mismatches=bad)
    # theta round trips
    E2 = enumerate_group(classical_rep("A", 2), GF(2))
    tm = ThetaMap(E2)
    ok = all(tm.round_trip(i) for i in range(E2.order))
    s.add("theta round trip all of SL3(F2)", "entrywise-theta", ok, order=E2.order)
    E3 = enumerate_group(classical_rep("A", 2), GF(3))
    tm3 = ThetaMap(E3)
    sample = rng.choice(E3.order, size=1000, replace=False)
    ok = all(tm3.round_trip(int(i)) for i in sample)
    s.add("theta round trip sample SL3(F3)", "entrywise-theta", ok,
          sampled=len(sample), order=E3.order)
    s.add("elementary width SL3(F3)", "bounded-generation", True,
          **width_probe(E3))
    # negative controls for the hypothesis flags
    s.add("Z/4 flagged non-domain", "negative-control",
          not hypothesis_profile(Zmod(4)).is_domain)
    s.add("F3 units are just {1,-1}", "negative-control",
          hypothesis_profile(GF(3)).units_eq_pm1)
    f5 = GF(5)
    failing = [a for a in range(5)
               if not _sqd_ok(f5, f5.dtype(a))]
    s.add("square-difference coverage gap over F5", "negative-control",
          failing == [1, 4], failing=failing)
    return s.done()


def _sqd_ok(ring, a) -> bool:
    try:
        decompose_square_diff(ring, a, [ring.zero])
        return True
    except ValueError:
        return False


def _sl2_only_checks(G) -> dict:
    """The checks of SL2(A) that no quotient mode repeats, on the SL2 group."""
    return {"define_U": adelic.define_U(G)["complete"],
            # P realizes ring multiplication: all pairs, the word's table against A's
            "P": np.array_equal(G.p_table(), G.ring.mul_t),
            "A_T": adelic.define_AT(G, (0, 1))["ok"], "W": adelic.define_W(G)["ok"],
            "gamma1": adelic.gamma1_report(G)["ok"], "k_alpha": adelic.k_alpha_product(G)["covered"]}


def suite_adelic(config: dict, seed: int) -> dict:
    s = Suite("adelic", config, seed)
    primes = config.get("primes", (7, 11))
    if not primes:
        raise ValueError("the adelic suite needs at least one prime")
    modes = config.get("modes", adelic.SL2Group.MODES)
    rings = [GF(primes[0])]
    if len(primes) > 1:
        rings.append(ProductRing([GF(p) for p in primes]))
    for ring in rings:
        tau = adelic.make_tau(ring)
        theta, u_bijective, data = {}, True, None
        for mode in modes:
            G = adelic.SL2Group(ring, mode)
            adelic.centralizer_H(G, tau)  # raises unless C(h(tau)) = h(A*)
            u_bijective &= len(adelic.u_set(G)) == ring.size
            theta[mode] = adelic.theta_report(G, seed=seed)["ok"]
            if mode == "SL2":
                data = _sl2_only_checks(G)
        data = data or _sl2_only_checks(adelic.SL2Group(ring, "SL2"))
        # nested quantifiers priced for a single field; big product groups get
        # the cheap formulas plus direct-construction checks
        sets = ("H", "W") if isinstance(ring, ProductRing) else ("H", "U", "AT", "W", "G1")
        formulas = {k: v["match"] for k, v in adelic.sl2_formula_report(ring, sets).items()}
        ok = u_bijective and all(theta.values()) and all(data.values()) and all(formulas.values())
        s.add(f"SL2 over {ring.name}", "sl2-product-rings", ok, **data, formulas=formulas, theta=theta)
    return s.done()


def suite_width(config: dict, seed: int) -> dict:
    s = Suite("width", config, seed)
    for q in (3, 5):
        E = enumerate_group(classical_rep("A", 2), GF(q))
        rpt = adelic.higher_rank_width(E)
        s.add(f"SL3(F{q}) product of root subgroups", "bounded-generation",
              rpt["order"] == E.order, N=rpt["N"], order=rpt["order"])
    return s.done()


_SUITE_FNS = {
    "roots": suite_roots,
    "commutators": suite_commutators,
    "dc": suite_dc,
    "witnesses": suite_witnesses,
    "definability": suite_definability,
    "adelic": suite_adelic,
    "width": suite_width,
}


def run_suite(name: str, config: dict | None = None, seed: int = 0) -> dict:
    config = dict(config or {})
    if name == "all":
        s = Suite("all", config, seed)
        for n in _SUITE_FNS:
            s.report["checks"] += run_suite(n, config, seed)["checks"]
        return s.done()
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return _SUITE_FNS[name](config, seed)


# ---------------------------------------------------------------------------
# subcommands


def _emit(report: dict, args) -> int:
    text = _render(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.get("failures", 0) == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="chevalley", description=__doc__)
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("roots", help="dump a root system")
    p.add_argument("--type", type=str.upper, required=True)
    p.add_argument("--rank", type=int, required=True)

    p = sub.add_parser("check-commutators")
    p.add_argument("--type", type=str.upper, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--field", type=int, required=True)

    p = sub.add_parser("enumerate")
    p.add_argument("--group", required=True)
    p.add_argument("--field", type=int, required=True)

    p = sub.add_parser("check-dc")
    p.add_argument("--group", required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--root", choices=("long", "short"), default="long")

    p = sub.add_parser("check-witness")
    p.add_argument("--type", type=str.upper, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--set", dest="which", default="auto")

    p = sub.add_parser("eval-formula")
    p.add_argument("--group", required=True)
    p.add_argument("--field", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--params", default="")

    p = sub.add_parser("check-adelic")
    p.add_argument("--primes", default="7,11")
    p.add_argument("--mode", choices=("SL2", "SL2modZ", "PSL2", "all"), default="all")

    p = sub.add_parser("run")
    p.add_argument("--suite", choices=SUITES, default="all")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:
        # a refused input (BudgetExceeded, ParseError, a bad spec), told
        # apart from a failed check by its exit code
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "roots":
        print(dump_roots(build_root_system(args.type, args.rank)))
        return 0
    if args.cmd == "run":
        return _emit(run_suite(args.suite, {}, args.seed), args)
    if args.cmd == "check-adelic":
        cfg = {"primes": [int(p) for p in args.primes.split(",") if p],
               "modes": list(adelic.SL2Group.MODES) if args.mode == "all" else [args.mode]}
        return _emit(suite_adelic(cfg, args.seed), args)

    # one-off checks: a suite of one, configured by the subcommand's arguments
    s = Suite(args.cmd, {k: v for k, v in vars(args).items()
                         if k not in ("cmd", "format", "out", "seed")}, args.seed)
    if args.cmd == "check-commutators":
        rep = (adjoint_rep if args.type == "G" else classical_rep)(args.type, args.rank)
        _commutator_check(s, rep, GF(args.field))
    elif args.cmd == "check-witness":
        which = args.which
        if which == "auto":
            auto = {"A": "sl", "B": "X4", "C": "X1", "D": "X3"}
            if args.type not in auto:
                raise ValueError(f"--set auto supports types {', '.join(auto)}, got {args.type!r}")
            which = auto[args.type]
        _witness_check(s, args.type, args.rank, which, GF(args.field))
    else:
        rep = parse_group(args.group)
        ring = GF(args.field)
        # the rest of the input is refused before the group is enumerated
        if args.cmd == "check-dc":
            alpha = _root_of_length(rep.sys, args.root == "long")
        elif args.cmd == "eval-formula":
            F = parse_formula(args.formula)
            params = [parse_element(rep, ring, p) for p in args.params.split(";") if p]
        name = f"{args.group}({ring.name})"
        if args.cmd == "enumerate":
            E = enumerate_group(rep, ring)
            s.add(name, "group-enumeration", None, order=E.order, max_word_length=int(E.dist.max()))
        elif args.cmd == "check-dc":
            _dc_check(s, f"{name} {args.root} root", enumerate_group(rep, ring), alpha)
        else:
            E = enumerate_group(rep, ring)
            if free_vars(F):
                data = {"free": sorted(free_vars(F)),
                        "extension_size": int(len(define_set(F, E, params)))}
            else:
                data = {"value": evaluate_sentence(F, E, params)}
            s.add(f"{args.formula} in {name}", "first-order-formulas", None, **data)
    return _emit(s.done(), args)


if __name__ == "__main__":
    sys.exit(main())
