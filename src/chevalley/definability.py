"""First-order formulas over groups, and the definable maps that carry a
ring structure on a root subgroup.

The formula layer is a small AST (group terms with a product, inverse and
identity; equality atoms; boolean connectives; group quantifiers) with a
concrete syntax, plus an exhaustive evaluator over enumerated groups.  The
evaluator works in rows: each row is one assignment, each variable one
binding per row.  The bindings are element numbers when the group has a
multiplication table (`EnumeratedGroup.mul_table`, for groups whose |G|^2
entries fit one block, such as SL2(F11) and SL3(F2)): a product is a
gather from the table, an inverse a gather from the inverse map.  Otherwise
they are matrices, multiplied by the group's product `EnumeratedGroup.mul`
(SL3(F4) and larger, and SL2(F7xF11) in each mode).  Parameters must be
elements of the group.  A quantifier pairs the live rows with a growing
step of its range and drops each row once decided, and `&`, `|` and `->`
evaluate their right side only on the rows the left leaves open.  A step
holds at most `gfmat.block_rows(ring, d, 1)` rows in either representation,
as a block of every other loop over a group does.
For the ubiquitous shapes `A h.(guard -> body)` / `E h.(guard & body)`
whose guard mentions only the quantified variable, it restricts the
quantifier range to the guard's extension first (for centralizer-style
formulas this shrinks the range from the whole group to one centralizer).

On top of that: the double-centralizer definition of U(R)Z(R) including
the symplectic short-root patch, the projection pi_1 from a product of
root subgroups to its first factor, the parameter-transport maps
c: x_alpha(r) -> x_beta(r) and m: (x_alpha(r), x_beta(s)) -> x_gamma(rs),
the ring structure these induce on a fixed root subgroup, and the
entrywise isomorphism theta: G(R) -> G(R') built from root-element
decompositions.  pi_1, c and m take one matrix or a stack and answer in
the same shape, so each runs once on a whole root subgroup (c), on all
its pairs (m, for the ring's multiplication table) or on all the
generators of one root (theta).  They work through group products and
inverses of matrices; none reads r off its input through r -> x_alpha(r),
which would make the checks c(x_alpha(r)) = x_beta(r) circular (from a
short to a long root, c looks its input up among the images of the
opposite transport).  theta of an element is theta of its BFS parent
times theta of its last generator, each found once per map.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gfmat
from .chevgroup import EnumeratedGroup, MatrixRep, exceptional_short_root, root_product_center
from .rings import FiniteRing, TableRing
from .rootsys import commutator_template


# ---------------------------------------------------------------------------
# formula AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    k: int  # 1-based


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Inv:
    arg: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    arg: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


def _walk(node):
    """Each node of a formula or term tree, with the variables bound above
    it and its depth (the root's is 1), by an explicit stack, so no tree is
    too deep to walk.  The bound variables are one live count per name,
    kept up to date as the walk enters and leaves each quantifier: read it
    before the walk moves on."""
    bound = Counter()
    todo = [(node, 1)]
    while todo:
        node, depth = todo.pop()
        if isinstance(node, str):  # the end of the scope of a quantifier over this name
            bound[node] -= 1
            continue
        yield node, bound, depth
        if isinstance(node, (Forall, Exists)):
            bound[node.var] += 1
            todo.append((node.var, depth))  # popped once the body is walked
        for child in vars(node).values():
            if not isinstance(child, (str, int)):  # a name or a parameter number
                todo.append((child, depth + 1))


def free_vars(f) -> set:
    return {n.name for n, bound, _ in _walk(f) if isinstance(n, Var) and not bound[n.name]}


def max_param(f) -> int:
    return max((n.k for n, _, _ in _walk(f) if isinstance(n, Param)), default=0)


# -- parsing -----------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} at offset {pos}")
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<inv>\^-1)|(?P<param>@\d+)|(?P<quant>[AE]\b)"
    r"|(?P<one>1)|(?P<ident>[a-z][A-Za-z0-9_]*)|(?P<punct>[()*=!&|.]))"
)


def _tokenize(text: str):
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v, p = self.toks[self.i]
        if (kind and k != kind) or (value and v != value):
            raise ParseError(f"expected {value or kind}, got {v or k!r}", p)
        self.i += 1
        return v, p

    def formula(self):
        k, v, _ = self.peek()
        if k == "quant":
            self.take()
            var, _ = self.take("ident")
            self.take("punct", ".")
            body = self.formula()
            return Forall(var, body) if v == "A" else Exists(var, body)
        return self.implies()

    def implies(self):
        left = self.or_()
        if self.peek()[0] == "arrow":
            self.take()
            return Implies(left, self.formula())
        return left

    def or_(self):
        out = self.and_()
        while self.peek()[1] == "|":
            self.take()
            out = Or(out, self.and_())
        return out

    def and_(self):
        out = self.unary()
        while self.peek()[1] == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self):
        k, v, _ = self.peek()
        if v == "!":
            self.take()
            return Not(self.unary())
        if k == "quant":
            return self.formula()
        if v == "(":
            # parenthesis may open a formula or a term: try formula first
            save = self.i
            try:
                self.take()
                f = self.formula()
                self.take("punct", ")")
                if self.peek()[1] in ("*", "=") or self.peek()[0] == "inv":
                    raise ParseError("term context", self.peek()[2])
                return f
            except ParseError:
                self.i = save
        return self.equality()

    def equality(self):
        left = self.term()
        self.take("punct", "=")
        return Eq(left, self.term())

    def term(self):
        out = self.factor()
        while self.peek()[1] == "*":
            self.take()
            out = Mul(out, self.factor())
        return out

    def factor(self):
        out = self.primary()
        while self.peek()[0] == "inv":
            self.take()
            out = Inv(out)
        return out

    def primary(self):
        k, v, p = self.peek()
        if k == "ident":
            self.take()
            return Var(v)
        if k == "param":
            self.take()
            if int(v[1:]) == 0:
                raise ParseError("parameters are numbered from @1", p)
            return Param(int(v[1:]))
        if k == "one":
            self.take()
            return One()
        if v == "(":
            self.take()
            t = self.term()
            self.take("punct", ")")
            return t
        raise ParseError(f"expected a term, got {v or k!r}", p)


def parse_formula(text: str):
    """The formula the text spells.  ParseError for malformed text, and for
    a formula nested too deeply for the two recursive readers of it (the
    parser itself, and the evaluator, which takes at most three frames a
    level): taller than a quarter of `sys.getrecursionlimit()`."""
    p = _Parser(text)
    try:
        f = p.formula()
    except RecursionError:
        raise ParseError("formula nested too deeply", p.peek()[2]) from None
    if p.peek()[0] != "eof":
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    if max(depth for _, _, depth in _walk(f)) > sys.getrecursionlimit() // 4:
        raise ParseError("formula nested too deeply", 0)
    return f


# ---------------------------------------------------------------------------
# evaluation over an enumerated group


class _EvalCtx:
    """The group and parameters of one evaluation, and the representation
    of its values, picked once from the element numbers of the parameters
    and of the identity: the numbers themselves when the group has a
    multiplication table (`EnumeratedGroup.mul_table`), where a product is
    one gather from the table, an inverse one gather from `inv_idx` and an
    equality an integer compare; else the matrices `E.elements` holds for
    them (so a parameter is read as its coset), where a product is the
    group's own `E.mul` and an inverse an index lookup.  Either way a value
    is one binding per row, and `domain` lists the group in element order."""

    def __init__(self, E: EnumeratedGroup, params):
        self.E = E
        d = E.elements.shape[-1]
        numbers = []
        for k, p in enumerate(params, start=1):
            try:
                numbers.append(E.idx(np.asarray(p, dtype=E.ring.dtype)))
            except KeyError:
                raise ValueError(f"parameter @{k} is not an element of the group") from None
        numbers.append(E.idx(gfmat.identity(E.ring, d)))
        self.table = E.mul_table
        if self.table is None:
            self.domain, values = E.elements, E.elements[numbers]
        else:
            self.domain = np.arange(E.order, dtype=self.table.dtype)
            self.inv_idx = E.inv_idx.astype(self.table.dtype)
            values = numbers
        *self.params, self.one = values
        self.rows = gfmat.block_rows(E.ring, d, 1)  # bindings one step may hold
        self.guards = {}  # (bound variable, guard) -> mask over E, or None (see _eval_quant)

    def mul(self, a, b):
        if self.table is None:
            return self.E.mul(a, b)
        # entry [a, b] of the table as one flat gather: half the time of a 2-D one
        return self.table.ravel().take(np.multiply(a, self.E.order, dtype=np.intp) + b)

    def inv(self, a):
        return self.E.inv(a) if self.table is None else self.inv_idx[a]

    def same(self, a, b) -> np.ndarray:
        return (a == b).all(axis=(-1, -2)) if self.table is None else a == b


def _eval_term(t, env: dict, ctx: _EvalCtx) -> np.ndarray:
    """The term on every row: (rows, d, d) matrices or (rows,) numbers, one
    value without the rows axis if it has no variable."""
    if isinstance(t, Var):
        if t.name not in env:
            raise ValueError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, Param):
        if not 1 <= t.k <= len(ctx.params):
            raise ValueError(f"parameter @{t.k} not supplied")
        return ctx.params[t.k - 1]
    if isinstance(t, One):
        return ctx.one
    if isinstance(t, Mul):
        return ctx.mul(_eval_term(t.left, env, ctx), _eval_term(t.right, env, ctx))
    if isinstance(t, Inv):
        return ctx.inv(_eval_term(t.arg, env, ctx))
    raise TypeError(f"not a term: {t!r}")


def _eval(f, env: dict, n: int, ctx: _EvalCtx) -> np.ndarray:
    """The truth of f on each of n rows, shape (n,); env binds each variable
    to n values, one per row (see _EvalCtx)."""
    if isinstance(f, Eq):
        same = ctx.same(_eval_term(f.left, env, ctx), _eval_term(f.right, env, ctx))
        return np.broadcast_to(same, (n,)).copy()
    if isinstance(f, Not):
        return ~_eval(f.arg, env, n, ctx)
    if isinstance(f, (And, Or, Implies)):
        out = _eval(f.left, env, n, ctx)
        if isinstance(f, Implies):
            out = ~out
        # the right side decides only the rows the left side leaves open
        undecided = np.flatnonzero(out if isinstance(f, And) else ~out)
        if len(undecided):
            sub = {v: m[undecided] for v, m in env.items()}
            out[undecided] = _eval(f.right, sub, len(undecided), ctx)
        return out
    if isinstance(f, (Forall, Exists)):
        return _eval_quant(f, env, n, ctx)
    raise TypeError(f"not a formula: {f!r}")


def _eval_quant(f, env: dict, n: int, ctx: _EvalCtx) -> np.ndarray:
    forall = isinstance(f, Forall)
    body = f.body
    domain = ctx.domain
    # guard trick: a guard mentioning only the bound variable restricts the
    # quantifier range up front
    guard = None
    if forall and isinstance(body, Implies):
        guard, rest = body.left, body.right
    elif not forall and isinstance(body, And):
        guard, rest = body.left, body.right
    if guard is not None:
        # the mask depends on nothing that varies within one context, so
        # equal guards on equal names share it; None where the guard
        # mentions another variable
        key = (f.var, guard)
        if key not in ctx.guards:
            ctx.guards[key] = _guard_mask(f.var, guard, ctx) if free_vars(guard) <= {f.var} else None
        if ctx.guards[key] is not None:
            domain, body = domain[ctx.guards[key]], rest
    # pair the live rows with a domain step that starts at 1 and doubles; a
    # row leaves once decided: a false Forall row, a true Exists row
    out = np.full(n, forall)
    live = np.arange(n)
    lo, step = 0, 1
    while len(live) and lo < len(domain):
        step = max(1, min(step, ctx.rows // len(live)))
        dom = domain[lo:lo + step]
        sub = {v: np.repeat(m[live], len(dom), axis=0) for v, m in env.items()}
        sub[f.var] = np.tile(dom, (len(live),) + (1,) * (dom.ndim - 1))
        val = _eval(body, sub, len(live) * len(dom), ctx).reshape(len(live), len(dom))
        decided = (val != forall).any(axis=1)
        out[live[decided]] = not forall
        live = live[~decided]
        lo += step
        step *= 2
    return out


def _guard_mask(var: str, guard, ctx: _EvalCtx) -> np.ndarray:
    """Which elements of the group satisfy a formula whose only free
    variable is `var`, such as a guard; one scan of the whole group."""
    domain = ctx.domain
    mask = np.empty(len(domain), dtype=bool)
    for lo in range(0, len(domain), ctx.rows):
        block = domain[lo:lo + ctx.rows]
        mask[lo:lo + ctx.rows] = _eval(guard, {var: block}, len(block), ctx)
    return mask


def define_set(F, E: EnumeratedGroup, params) -> np.ndarray:
    """Indices of the elements g of E with F(g, params) true; F must have
    exactly one free variable."""
    fv = sorted(free_vars(F))
    if len(fv) != 1:
        raise ValueError(f"define_set needs one free variable, got {fv}")
    if max_param(F) > len(params):
        raise ValueError(f"parameter @{max_param(F)} not supplied")
    return np.flatnonzero(_guard_mask(fv[0], F, _EvalCtx(E, params)))


def evaluate_sentence(F, E: EnumeratedGroup, params) -> bool:
    if free_vars(F):
        raise ValueError("sentence required")
    if max_param(F) > len(params):
        raise ValueError(f"parameter @{max_param(F)} not supplied")
    return bool(_eval(F, {}, 1, _EvalCtx(E, params))[0])


# ---------------------------------------------------------------------------
# the double-centralizer definition of U(R)Z(R)


DC_TEXT = "A h. (@1*h=h*@1 -> x1*h=h*x1)"


def _comm_term(g, a):
    # [g, a] = g^-1 a^-1 g a
    return Mul(Mul(Mul(Inv(g), Inv(a)), g), a)


def dc_definition_formula(rep: MatrixRep, ring: FiniteRing, alpha: int):
    """Formula (with parameters) whose extension is U_alpha(R)Z(R): the
    double centralizer of u = x_alpha(1), with the two extra commutator
    conditions in the symplectic short-root small-units case."""
    sys = rep.sys
    u = rep.x(ring, alpha, ring.one)
    if not exceptional_short_root(sys, ring, alpha):
        return parse_formula(DC_TEXT), [u]
    beta = _b2_long_partner(sys, alpha)
    apb = sys.sum_root(alpha, beta)
    tapb = sys.combo([(2, alpha), (1, beta)])
    params = [
        u,
        rep.x(ring, apb, ring.one),  # @2: x_{a+b}(1)
        rep.x(ring, tapb, ring.one),  # @3: x_{2a+b}(1)
        rep.x(ring, sys.neg(apb), ring.one),  # @4: x_{-a-b}(1)
        rep.x(ring, sys.neg(beta), ring.one),  # @5: x_{-b}(1)
    ]
    x1 = Var("x1")
    dc = parse_formula(DC_TEXT)

    def in_dc(term, pk):
        # term lies in the double centralizer of @pk
        h = Var("h")
        return Forall("h", Implies(
            Eq(Mul(Param(pk), h), Mul(h, Param(pk))),
            Eq(Mul(term, h), Mul(h, term)),
        ))

    patched = And(
        dc,
        And(in_dc(_comm_term(x1, Param(2)), 3), in_dc(_comm_term(x1, Param(4)), 5)),
    )
    return patched, params


def _b2_long_partner(sys, alpha: int) -> int:
    """The long root beta making (alpha, beta) a fundamental pair of a B2
    subsystem: alpha + beta and 2 alpha + beta are roots."""
    for b in range(len(sys.roots)):
        if sys.is_long(b) and sys.sum_root(alpha, b) is not None \
                and sys.combo([(2, alpha), (1, b)]) is not None:
            return b
    raise RuntimeError("no B2 partner for the short root")


def verify_dc_formula(E: EnumeratedGroup, alpha: int) -> dict:
    """Double oracle: the formula evaluator's extension of the
    double-centralizer definition against U_alpha(R)Z(R) built directly."""
    rep, ring = E.rep, E.ring
    F, params = dc_definition_formula(rep, ring, alpha)
    got = E.elements[define_set(F, E, params)]
    want = root_product_center(rep, ring, (alpha,), group=E)
    # both hold distinct matrices: equal sizes and containment mean equal sets
    ok = len(got) == len(want) and bool(gfmat.MatSet(ring, want).contains(got).all())
    return {"extension_size": len(got), "UZ_size": len(want), "ok": ok}


# ---------------------------------------------------------------------------
# pi_1 and the transport maps


def proj_pi1(rep: MatrixRep, ring: FiniteRing, roots, g: np.ndarray) -> np.ndarray:
    """The first factor u_1 of g = u_1 ... u_q (u_i in the given root
    subgroups, in order): {u_1} = g U_q ... U_2 cap U_1.  g may be one
    matrix or a (..., d, d) stack, answered in its shape."""
    d = rep.dim
    g = np.asarray(g, dtype=ring.dtype)
    cur = g.reshape(-1, 1, d, d)  # per element, the products g u_q ... u_k so far
    for a in reversed(roots[1:]):
        cur = gfmat.mat_mul(ring, cur[:, :, None], rep.root_subgroup(ring, a)[None, None])
        cur = cur.reshape(len(cur), -1, d, d)
    hit = gfmat.MatSet(ring, rep.root_subgroup(ring, roots[0])).contains(cur)
    # the first hit of each element, and every hit of it the same matrix
    first = np.take_along_axis(cur, hit.argmax(axis=1)[:, None, None, None], axis=1)
    alike = hit.any(axis=1) & ((cur == first).all(axis=(-1, -2)) | ~hit).all(axis=1)
    if not alike.all():
        bad = np.argmin(alike)
        hits = gfmat.MatSet.unique(ring, cur[bad][hit[bad]])
        raise ValueError(f"pi_1 intersection has {len(hits)} points; input not in the product set")
    return first.reshape(g.shape)


def _same_length_transport(rep: MatrixRep, ring: FiniteRing, a: int, b: int, g: np.ndarray) -> np.ndarray:
    nw_inv, nw, eta = rep.weyl_transport(ring, a, b)
    out = gfmat.mat_mul_many(ring, [nw_inv, np.asarray(g, dtype=ring.dtype), nw])
    if eta == ring.neg(ring.one) and eta != ring.one:
        out = gfmat.mat_inv(ring, out)
    return out


def _cross_length_triple(sys):
    """A short root mu and a long root nu with mu + nu a short root."""
    for mu in range(sys.n_pos):
        if sys.is_long(mu):
            continue
        for nu in range(sys.n_pos):
            if not sys.is_long(nu):
                continue
            g = sys.sum_root(mu, nu)
            if g is not None and not sys.is_long(g):
                return mu, nu, g
    raise RuntimeError("no mixed-length triple in this system")


def _comm_leading(rep: MatrixRep, ring: FiniteRing, mu: int, nu: int,
                  gmu: np.ndarray, gnu: np.ndarray) -> np.ndarray:
    """pi_1 of [gmu, gnu] with respect to the commutator's root order; the
    leading root is mu + nu.  gmu and gnu may be stacks that broadcast
    together, answered in the broadcast shape."""
    sys, sc = rep.sys, rep.sc
    template = commutator_template(sc, mu, nu)
    roots = []
    for groot, _, _, _ in template:
        if groot not in roots:
            roots.append(groot)
    if roots[0] != sys.sum_root(mu, nu):
        raise RuntimeError("the commutator's leading root is not mu + nu")
    gmu, gnu = np.asarray(gmu, dtype=ring.dtype), np.asarray(gnu, dtype=ring.dtype)
    # [x, y] = x^-1 y^-1 x y = (y x)^-1 (x y), with one inverse
    comm = gfmat.mat_mul(ring, gfmat.mat_inv(ring, gfmat.mat_mul(ring, gnu, gmu)), gfmat.mat_mul(ring, gmu, gnu))
    return proj_pi1(rep, ring, roots, comm)


def _leading_sign(sc, mu: int, nu: int) -> int:
    """Coefficient of r*s at the leading root mu + nu in [x_mu(r), x_nu(s)]."""
    for groot, ea, eb, c in commutator_template(sc, mu, nu):
        if ea == 1 and eb == 1:
            return c
    raise RuntimeError("no leading commutator term")


def map_c(rep: MatrixRep, ring: FiniteRing, a: int, b: int, g: np.ndarray) -> np.ndarray:
    """Transport x_a(r) -> x_b(r), of one matrix or of a (..., d, d) stack,
    answered in its shape.  Same length: Weyl conjugation with the sign
    corrected.  Long to short: conjugate to nu, then push into the short
    root mu + nu with a commutator and project, then conjugate on.  Short
    to long: invert the opposite transport, by one transport of the whole
    target root subgroup."""
    sys = rep.sys
    if a == b:
        return np.asarray(g, dtype=ring.dtype)
    if sys.is_long(a) == sys.is_long(b):
        return _same_length_transport(rep, ring, a, b, g)
    if sys.is_long(a):
        mu, nu, gamma = _cross_length_triple(sys)
        sign = _leading_sign(rep.sc, mu, nu)
        gnu = _same_length_transport(rep, ring, a, nu, g)
        base = rep.x(ring, mu, ring.from_int(sign))
        ggam = _comm_leading(rep, ring, mu, nu, base, gnu)
        return _same_length_transport(rep, ring, gamma, b, ggam)
    # short to long: invert map_c(b -> a), which carries row r of U_b to row r of images
    source = rep.root_subgroup(ring, b)
    images = gfmat.MatSet(ring, map_c(rep, ring, b, a, source))
    try:
        r = images.index(g)
    except KeyError:
        raise ValueError("element not in the source root subgroup") from None
    return np.take(source, r, axis=0)


def map_m(rep: MatrixRep, ring: FiniteRing, a: int, b: int, c: int,
          ga: np.ndarray, gb: np.ndarray) -> np.ndarray:
    """The multiplication transport (x_a(r), x_b(s)) -> x_c(rs), via a
    commutator [x_mu(+-r), x_nu(s)] = x_{mu+nu}(rs)u_3...u_q and pi_1; ga
    and gb may be stacks that broadcast together (ga[:, None] and gb[None]
    for all pairs), answered in the broadcast shape."""
    sys = rep.sys
    mu, nu = _mult_triple(sys)
    gamma = sys.sum_root(mu, nu)
    sign = _leading_sign(rep.sc, mu, nu)
    gmu = map_c(rep, ring, a, mu, ga)
    gnu = map_c(rep, ring, b, nu, gb)
    if sign == -1:
        gmu = gfmat.mat_inv(ring, gmu)
    ggam = _comm_leading(rep, ring, mu, nu, gmu, gnu)
    return map_c(rep, ring, gamma, c, ggam)


def _mult_triple(sys):
    """Roots mu, nu with mu + nu a root and leading structure constant +-1,
    preferring mu and mu + nu short (they must share a Weyl orbit)."""
    if sys.length_classes() == 1:
        for mu in range(sys.n_pos):
            for nu in range(sys.n_pos):
                if mu != nu and sys.sum_root(mu, nu) is not None:
                    return mu, nu
        raise RuntimeError("no summable root pair")
    mu, nu, _ = _cross_length_triple(sys)
    return mu, nu


# ---------------------------------------------------------------------------
# the ring inside the group


class RingInGroup:
    """The ring R carried by the root subgroup U_{a0}(R), a0 the first
    fundamental root: addition is the group operation, multiplication is
    the transported map m.  Both are evaluated once on all pairs of the
    carrier and kept as the code tables of `table`, whose code r stands for
    x_{a0}(r)."""

    def __init__(self, rep: MatrixRep, ring: FiniteRing):
        self.rep = rep
        self.ring = ring
        a0 = self.a0 = rep.sys.fundamental[0]
        codes = np.arange(ring.size, dtype=ring.dtype)
        C = self.carrier = rep.x_batch(ring, a0, codes)
        self._decode = gfmat.MatSet(ring, C)  # numbers the carrier by code
        add_t = self.decode(gfmat.mat_mul(ring, C[:, None], C[None]))
        mul_t = self.decode(map_m(rep, ring, a0, a0, a0, C[:, None], C[None]))
        # the unit is the parameter x_{a0}(1), the zero the group identity
        self.table = TableRing(f"U{a0}({ring.name})", add_t, mul_t,
                               zero=self.decode(rep.identity(ring)), one=ring.one)

    def decode(self, m: np.ndarray):
        """The code r of x_{a0}(r), or the codes of a stack; KeyError off the carrier."""
        return self._decode.index(m)


def check_ring_axioms(rig: RingInGroup) -> bool:
    """The ring inside the group against R: + and x transported along
    r -> x_{a0}(r) on all pairs, the zero and the unit, and associativity
    of x on all triples, read off the tables."""
    T, ring = rig.table, rig.ring
    if not (np.array_equal(T.add_t, ring.add_t) and np.array_equal(T.mul_t, ring.mul_t)):
        return False
    if T.zero != ring.zero or T.mul(T.one, T.one) != ring.one:
        return False
    a, b, c = np.ix_(*[np.arange(T.size)] * 3)
    return bool((T.mul_t[T.mul_t[a, b], c] == T.mul_t[a, T.mul_t[b, c]]).all())


def _horner(rig: RingInGroup, coeffs, r) -> np.ndarray:
    """Codes of f(r)' in the ring inside the group, by Horner on its tables;
    coeffs holds integers, its first axis running over X^0, X^1, ..., and
    the result has the shape of the other axes broadcast with that of r."""
    T = rig.table
    coeffs = np.asarray(coeffs, dtype=np.int64)
    out = np.full(coeffs.shape[1:], T.zero, dtype=T.dtype)
    for c in coeffs[::-1]:
        out = T.add_t[T.mul_t[out, r], rig.ring.from_int_array(c)]
    return out


# ---------------------------------------------------------------------------
# theta


def width_probe(E: EnumeratedGroup) -> dict:
    """Elementary width data: N = max BFS distance from the identity over
    the root-element generator set (E.dist, computed on first use), with
    per-element witnessing words available from E.word."""
    return {"width": int(E.dist.max()), "order": E.order}


class ThetaMap:
    """g -> (g_ij') entrywise into M_d(R'), R' the ring inside the group.

    theta works on (d, d) code matrices over the word tables of R' (see
    RingInGroup), so a product is one `gfmat.mat_mul` over that ring.  The
    image of a root element x_a(r) is transported to r' in U_{a0} by map_c,
    one call per root on all its generators, and its entries are the
    integer divided-power polynomials of X_a evaluated at r' in R'.  The
    image of g is the image of its BFS parent times the image of its last
    generator, memoised per element: the product of the images of the
    generators in its witnessing word, left to right.  Since code r'
    stands for x_{a0}(r'), theta(g) read as a matrix over R is g itself."""

    def __init__(self, E: EnumeratedGroup):
        self.E = E
        self.rep = E.rep
        self.ring = E.ring
        self.rig = RingInGroup(E.rep, E.ring)
        self._theta = {}  # element number -> its read-only theta, once asked for

    @cached_property
    def _gen_theta(self) -> np.ndarray:
        """theta of each generator x_a(r), in generator order: entry (i,j)
        is (delta_ij + m1 r' + ... + mq r'^q) with m_l the (i,j) entries of
        the divided powers of X_a, and r' the code of map_c(x_a(r)) in U_{a0}."""
        rep, ring, rig = self.rep, self.ring, self.rig
        roots = np.array([a for a, _ in self.E.gens_meta])
        codes = np.array([r for _, r in self.E.gens_meta], dtype=ring.dtype)
        out = np.empty((len(roots), rep.dim, rep.dim), dtype=rig.table.dtype)
        for a in dict.fromkeys(roots.tolist()):
            k = np.flatnonzero(roots == a)
            rprime = rig.decode(map_c(rep, ring, a, rig.a0, rep.x_batch(ring, a, codes[k])))
            out[k] = _horner(rig, rep.divpow[a], rprime[:, None, None])
        return out

    def theta(self, idx: int) -> np.ndarray:
        """theta of the element with index idx in E, read-only: theta of its
        BFS parent times theta of its last generator, each found once."""
        E, memo = self.E, self._theta
        path, i = [], int(idx)
        while i >= 0 and i not in memo:  # up to an element already done, or past the identity
            path.append(i)
            i = int(E.parent[i])
        out = memo[i] if i >= 0 else gfmat.identity(self.rig.table, self.rep.dim)
        for j in reversed(path):
            if E.genidx[j] >= 0:
                out = gfmat.mat_mul(self.rig.table, out, self._gen_theta[E.genidx[j]])
            out.flags.writeable = False
            memo[j] = out
        return out

    def round_trip(self, idx: int) -> bool:
        return bool((self.theta(idx) == self.E.elements[idx]).all())
