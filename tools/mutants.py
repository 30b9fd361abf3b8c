#!/usr/bin/env python3
"""Recorded mutations of the program, each of which its named tests must kill.

    python3 tools/mutants.py

Each entry of MUTANTS is (name, file under src/chevalley, exact old text,
new text, test ids, the fault it plants).  The script first runs the union
of the named tests on an unmodified copy of src/ and tests/, which must
pass.  Then, for each mutant, it copies src/, tests/ and pyproject.toml of
this checkout to a temporary directory, replaces the old text, which must
occur exactly once, by the new text, and runs only the mutant's tests there
(pytest, --hypothesis-seed=0, no cache).  The mutant is killed when pytest
reports a failed test, exit status 1.  It prints one line per mutant and
exits 1 if a mutant survives, an old text does not occur exactly once, or
pytest ends with any other status.  Standard library only; the interpreter
that runs it must import numpy, pytest and hypothesis.  It is not part of
the tier-1 suite.  A change that moves mutated code updates its entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
T_DEF = "tests/test_definability.py::"
T_CHEV = "tests/test_chevgroup.py::"
T_GF = "tests/test_gfmat.py::"

MUTANTS = [
    # recorded in CHANGES.md by earlier changes
    ("R1", "definability.py",
     "np.multiply(a, self.E.order, dtype=np.intp) + b)",
     "np.multiply(b, self.E.order, dtype=np.intp) + a)",
     [T_DEF + "test_define_set_keeps_the_order_of_a_product"],
     "the multiplication table read as [b, a]"),
    ("R2", "chevgroup.py",
     "return self.canon(gfmat.mat_mul(self.ring, a, b))",
     "return self.canon(gfmat.mat_mul(self.ring, b, a))",
     [T_DEF + "test_define_set_keeps_the_order_of_a_product"],
     "the group product on matrices taken as b a"),
    ("R3", "chevgroup.py",
     "np.minimum.at(genidx, hit, pos)",
     "np.maximum.at(genidx, hit, pos)",
     [T_CHEV + "test_bfs_order_oracle"],
     "the BFS keeps the last occurrence of each new element"),
    ("R4", "gfmat.py",
     "pos[perm] = self._keys.searchsorted(flat[perm])",
     "pos[:] = self._keys.searchsorted(flat[perm])",
     [T_GF + "test_group_lookups_with_repeats_and_misses_on_both_paths"],
     "searched positions not scattered back to their queries"),
    ("R5", "chevgroup.py",
     "if reached != n:",
     "if False:",
     [T_CHEV + "test_bruhat_check_compares_the_products_with_the_bfs_closure"],
     "a BFS that reaches part of the group accepted"),
    ("R6", "chevgroup.py",
     '"ok": closed and len(prods)',
     '"ok": len(prods)',
     [T_CHEV + "test_bruhat_check_compares_the_products_with_the_bfs_closure"],
     "the Bruhat check ignores the BFS closure"),
    ("R7", "chevgroup.py",
     "    @cached_property\n    def center(self)",
     "    @property\n    def center(self)",
     ["tests/test_witnesses.py::test_center_is_scanned_once_per_group"],
     "the center found again on every use"),
    ("R8", "definability.py",
     'raise ValueError("sentence required")\n    if max_param(F) > len(params):',
     'raise ValueError("sentence required")\n    if False:',
     [T_DEF + "test_missing_parameter_refused_even_where_no_row_reaches_it"],
     "a sentence with a missing parameter evaluated"),
    # the transport maps and theta on stacks
    ("M1", "definability.py",
     "gfmat.mat_inv(ring, gfmat.mat_mul(ring, gnu, gmu)), gfmat.mat_mul(ring, gmu, gnu))",
     "gfmat.mat_inv(ring, gfmat.mat_mul(ring, gmu, gnu)), gfmat.mat_mul(ring, gnu, gmu))",
     [T_DEF + "test_map_m_is_ring_multiplication", T_DEF + "test_stacked_transports_are_the_single_ones"],
     "the commutator [y, x] in place of [x, y]"),
    ("M2", "definability.py",
     "first = np.take_along_axis(cur, hit.argmax(axis=1)",
     "first = np.take_along_axis(cur, hit.argmin(axis=1)",
     [T_DEF + "test_stacked_transports_are_the_single_ones"],
     "pi_1 answers a product that misses U_1, not the product that hits it"),
    ("M3", "definability.py",
     "alike = hit.any(axis=1) & ((cur == first).all(axis=(-1, -2)) | ~hit).all(axis=1)",
     "alike = hit.any(axis=1)",
     [T_DEF + "test_proj_pi1_of_a_stack_refuses_an_element_outside_the_product"],
     "pi_1 takes the first of several points of the intersection"),
    ("M4", "definability.py",
     "out = gfmat.mat_mul(self.rig.table, out, self._gen_theta[E.genidx[j]])",
     "out = gfmat.mat_mul(self.rig.table, self._gen_theta[E.genidx[j]], out)",
     [T_DEF + "test_theta_round_trip_sl3_f2"],
     "theta of an element as theta(generator) theta(parent)"),
    ("M5", "gfmat.py",
     "        if pivots[-1] >= d:\n            raise ZeroDivisionError",
     "        if False:\n            raise ZeroDivisionError",
     [T_GF + "test_mat_inv_of_a_stack_is_the_inverse_of_each"],
     "mat_inv without its singular check"),
    ("M6", "gfmat.py",
     "basis[:, pivots] = ring.neg_t[R[:len(pivots), free]].T",
     "basis[:, pivots] = R[:len(pivots), free].T",
     [T_GF + "test_nullspace_is_the_entrywise_loop"],
     "the nullspace basis without the negation at the pivots"),
    ("M7", "chevgroup.py",
     "cpow[:, i] = ring.mul_t[cpow[:, i - 1], codes]",
     "cpow[:, i] = codes",
     [T_CHEV + "test_root_subgroup_is_the_power_sums"],
     "root elements with c in place of each power c^i"),
    # one block rule
    ("B1", "rootsys.py",
     '        gfmat.check_budget(f"root system {type_label}{rank}", (count, count), np.int64)\n',
     "",
     ["tests/test_rootsys.py::test_root_system_past_the_budget_is_refused"],
     "a root system built past the budget"),
    ("B2", "definability.py",
     "self.rows = gfmat.block_rows(E.ring, d, 1)",
     "self.rows = max(1, 2**22 // (d * d))",
     [T_DEF + "test_evaluator_rows_follow_the_block_rule"],
     "the evaluator's rows per step a constant, blind to the budget"),
    # one path for the SL2 product-ring checks
    ("A1", "cli.py",
     "ok = u_bijective and all(theta.values())",
     "ok = all(theta.values())",
     ["tests/test_adelic.py::test_suite_fails_when_u_is_not_bijective_in_one_mode"],
     "the adelic verdict blind to a u that is not bijective"),
    ("A2", "cli.py",
     "ok = u_bijective and all(theta.values()) and",
     "ok = u_bijective and",
     ["tests/test_adelic.py::test_suite_fails_when_one_mode_fails_theta"],
     "the adelic verdict blind to a failed theta"),
    ("A3", "definability.py",
     "key = (f.var, guard)",
     "key = guard",
     [T_DEF + "test_a_guard_mask_belongs_to_its_bound_variable"],
     "a guard's mask shared by quantifiers over other variables"),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=900).returncode


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        tests = sorted({t for m in MUTANTS for t in m[4]})
        if _pytest(base, tests) != 0:
            print("the named tests fail on the unmodified tree; no mutant run")
            return 2
        for name, path, old, new, tests, what in MUTANTS:
            tree = Path(tmp) / name
            _copy_tree(tree)
            target = tree / "src" / "chevalley" / path
            text = target.read_text()
            if text.count(old) != 1:
                print(f"{name}  STALE     {path}: the old text occurs {text.count(old)} times")
                bad += 1
                continue
            target.write_text(text.replace(old, new))
            rc = _pytest(tree, tests)
            status = {0: "SURVIVED", 1: "killed"}.get(rc, f"ERROR({rc})")
            bad += rc != 1
            print(f"{name}  {status:9s} {path}: {what}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
