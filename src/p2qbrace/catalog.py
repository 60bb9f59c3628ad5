"""Executable witnesses: closed-form representative subgroups per orbit class.

Every orbit class of regular subgroups has a closed-form representative:
a short list of generators, each a word in the presentation generators of
the additive group paired with an automorphism given by its structured
coordinates.  The recipes live in ``data/catalog_data.json``; this module
closes each witness inside the holomorph as one row of the enumeration's
``_regular_closures`` and checks the witnesses against the enumeration.

Data file schema (``version`` 1):

* ``lemmas``: list of entries, one per (additive family, pi2 stratum):
    - ``id``: stable identifier, ``<family>-stratum-<pi2>``.
    - ``additive``: family key of the additive group (``GroupLabel.key()``).
    - ``requires``: integer predicate in ``p, q`` selecting the regime.
    - ``pi2_size``: expression; the common image size under the projection
      to the automorphism part for every witness of the entry.
    - ``count``: expression; the number of orbit classes in the stratum.
    - ``witnesses``: list of parametrised recipes:
        - ``name``: base name; parameter bindings are appended for display.
        - ``params``: ordered map name -> [lo, hi] (inclusive, expressions).
        - ``where``: optional predicate filtering the parameter grid.
        - ``generators``: list of ``{"word": [[atom, expr], ...], "aut": coords}``.
          An atom is a presentation letter (``s``, ``t``, ``e``), with the
          expression evaluated modulo that letter's order, or the literal
          ``vec`` whose "expression" names a built-in vector recipe
          (arithmetic in the field F_p[F], the plane of the
          irreducible-action family).  ``aut`` is either null (identity)
          or a map of structured coordinates.
        - ``classes``: ordered rules ``{"when": predicate, "is": family key}``;
          the first matching rule names the expected multiplicative class.
* ``manual``: strata excluded from the recipe language, with the reason.

Expression language: integer literals, names from the evaluation
environment (``p``, ``q``, the derived units ``r``, ``h``, ``t``, ``g``,
``xi``, witness parameters), ``+ - * / % **``, unary minus, comparisons
and ``and/or/not`` in predicates.  In modular position (word exponents,
automorphism coordinates) ``/`` multiplies by a modular inverse and an
uninvertible divisor raises :class:`RecipeError`.
"""

from __future__ import annotations

import ast
import itertools
import json
import operator
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .core import FiniteGroup
from .enumeration import OrbitClass, _orbit_of, _regular_closures, circle_labels
from .enumeration import stratified_orbit_classes
from .families import FamilyParams, derive_params, family_aut, generator_letters
from .families import _gf_inv, _gf_mul, _gf_pow
from .holomorph import Holomorph, HolSubgroup

DATA_VERSION = 1


class RecipeError(ValueError):
    """A witness recipe failed to evaluate at the given parameters."""


# ---------------------------------------------------------------------------
# expression language


_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul}
_COMPARE = {ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
            ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge}
_LOGIC = {ast.UnaryOp: "'not' is", ast.Compare: "comparisons are",
          ast.BoolOp: "boolean operators are"}


@lru_cache(maxsize=None)
def _parsed(expr: str) -> ast.Expression:
    try:
        return ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise RecipeError(f"bad expression {expr!r}: {exc}") from None


def _eval_node(node, env: dict, mod: int | None):
    match node:
        case ast.Expression(body=body):
            return _eval_node(body, env, mod)
        case ast.Constant(value=value):
            if type(value) is not int:
                raise RecipeError(f"non-integer literal {value!r}")
            return value % mod if mod else value
        case ast.Name(id=name):
            if name not in env:
                raise RecipeError(f"unknown name {name!r}")
            v = int(env[name])
            return v % mod if mod else v
        case ast.UnaryOp(op=ast.Not()) | ast.Compare() | ast.BoolOp() if mod:
            raise RecipeError(f"{_LOGIC[type(node)]} not defined in modular position")
        case ast.Compare(left=left, ops=ops, comparators=rights):
            a = _eval_node(left, env, mod)
            for op, right in zip(ops, rights):
                if type(op) not in _COMPARE:
                    raise RecipeError(f"unsupported comparison {ast.dump(op)}")
                b = _eval_node(right, env, mod)
                if not _COMPARE[type(op)](a, b):
                    return False
                a = b
            return True
        case ast.BoolOp(op=op, values=values):
            vals = (_eval_node(v, env, mod) for v in values)
            return all(vals) if isinstance(op, ast.And) else any(vals)
        case ast.BinOp(op=ast.Pow(), left=left, right=right):
            base, exp = _eval_node(left, env, mod), _eval_node(right, env, None)
            if exp < 0 and not mod:
                raise RecipeError(f"negative exponent {exp} outside modular position")
            try:
                return pow(base, exp, mod) if mod else base**exp
            except ValueError:
                raise RecipeError(
                    f"base not invertible modulo {mod} for a negative power") from None
        case ast.BinOp(op=ast.Mod(), left=left, right=right):
            a, b = _eval_node(left, env, mod), _eval_node(right, env, mod)
            if mod:
                raise RecipeError("'%' is not defined in modular position")
            if b == 0:
                raise RecipeError("modulus zero in '%'")
            return a % b
        case ast.BinOp(op=ast.Div(), left=left, right=right):
            a, b = _eval_node(left, env, mod), _eval_node(right, env, mod)
            if not mod:
                if b == 0 or a % b:
                    raise RecipeError(f"{a}/{b} is not an integer")
                return a // b
            try:
                return a * pow(b, -1, mod) % mod
            except ValueError:
                raise RecipeError(f"{b} is not invertible modulo {mod}") from None
        case ast.BinOp(op=op, left=left, right=right) if type(op) in _ARITH:
            v = _ARITH[type(op)](_eval_node(left, env, mod), _eval_node(right, env, mod))
            return v % mod if mod else v
        case ast.UnaryOp(op=ast.USub(), operand=operand):
            v = -_eval_node(operand, env, mod)
            return v % mod if mod else v
        case ast.UnaryOp(op=ast.Not(), operand=operand):
            return not _eval_node(operand, env, mod)
        case ast.UnaryOp(op=op):
            raise RecipeError(f"unsupported unary operator {ast.dump(op)}")
    raise RecipeError(f"unsupported expression node {ast.dump(node)}")


def eval_expr(expr: str, env: dict, mod: int | None = None) -> int:
    """Evaluate a recipe expression; ``mod`` switches to modular arithmetic."""
    if mod is not None and mod <= 0:
        raise RecipeError(f"bad modulus {mod}")
    return _eval_node(_parsed(expr), env, mod)


def eval_cond(expr: str, env: dict) -> bool:
    return bool(eval_expr(expr, env, None))


# ---------------------------------------------------------------------------
# the irreducible-action vector recipes


def gf_psi(x: int, y: int, p: int, xi: int) -> int:
    """The conjugation invariant of the plane subgroups: x²+y²-x+y-ξxy mod p."""
    return (x * x + y * y - x + y - xi * x * y) % p


def gf_vector(name: str, env: dict, params: FamilyParams) -> tuple[int, int]:
    """Built-in vector recipes for the irreducible-action additive family,
    computed in the field F_p[F] (see ``families``): the vector (x, y) is
    x + yF, so a plane map applied to the first basis vector is the map
    itself and the second basis vector is F.

    ``ws``/``wt``: (F-1)^{-1} applied to the first/second basis vector.
    ``uc``: H(F^{c+1})^{-1}(F-1)^{-1}(F^c-1)(F^{c+2}-1) applied to the first
    basis vector, with H the order-q characteristic polynomial.
    ``Fuc``: F applied to ``uc``.
    ``va``: the first (x, y) in row-major order with psi(x, y) = a.
    ``vta``: the companion of ``va``: (-y-1, x-ξy-1).
    """
    p, xi = params.p, params.xi
    if xi is None:
        raise RecipeError("vector recipes need the irreducible-action parameters")
    F = (0, 1)

    def mul(*zs):
        out = (1, 0)
        for z in zs:
            out = _gf_mul(out, z, p, xi)
        return out

    def plus(z, k):  # z + k for an integer k
        return ((z[0] + k) % p, z[1])

    def inv(z):
        try:
            return _gf_inv(z, p, xi)
        except ValueError:
            raise RecipeError("singular matrix in a vector recipe") from None

    if name in ("ws", "wt"):
        return mul(inv(plus(F, -1)), F if name == "wt" else (1, 0))
    if name in ("uc", "Fuc"):
        c = int(env["c"])
        z = _gf_pow(F, c + 1, p, xi)
        u = mul(
            inv(plus(mul(z, plus(z, xi)), 1)),  # H(z) = z^2 + xi z + 1
            inv(plus(F, -1)),
            plus(_gf_pow(F, c, p, xi), -1),
            plus(_gf_pow(F, c + 2, p, xi), -1),
        )
        return mul(F, u) if name == "Fuc" else u
    if name in ("va", "vta"):
        a = int(env["a"]) % p
        v = next(
            ((x, y) for x in range(p) for y in range(p) if gf_psi(x, y, p, xi) == a),
            None,
        )
        if v is None:
            raise RecipeError(f"no plane vector with invariant {a}")
        if name == "va":
            return v
        x, y = v
        return ((-y - 1) % p, (x - xi * y - 1) % p)
    raise RecipeError(f"unknown vector recipe {name!r}")


# ---------------------------------------------------------------------------
# evaluation contexts


class FamilyContext:
    """Holomorph, structured automorphisms and environment for one family."""

    def __init__(self, additive: str, p: int, q: int, choice: str = "first"):
        self.p, self.q, self.choice = p, q, choice
        self.saut = family_aut(p, q, additive, choice)
        self.params = self.saut.params
        self.label = label = self.saut.label
        self.group: FiniteGroup = self.saut.base
        self.hol = Holomorph(self.group, self.saut.aut)
        self.letters = generator_letters(label, self.params)
        self.gen_of = dict(zip(self.letters, self.group.generators))
        # the modulus of a letter's exponent is its generator's order
        self.moduli = {x: int(self.group.element_orders[g]) for x, g in self.gen_of.items()}
        self.env = self.params.as_dict()

    def element_of_word(self, word, env: dict) -> int:
        """Left-to-right product of letter powers (and vector atoms)."""
        group = self.group
        elem = group.identity
        for atom, expr in word:
            if atom == "vec":
                vx, vy = gf_vector(expr, env, self.params)
                s, t = self.gen_of["s"], self.gen_of["t"]
                part = int(group.mul[group.power(s, vx), group.power(t, vy)])
            else:
                if atom not in self.gen_of:
                    raise RecipeError(f"unknown letter {atom!r} for {self.label.key()}")
                part = group.power(self.gen_of[atom], eval_expr(expr, env, self.moduli[atom]))
            elem = int(group.mul[elem, part])
        return elem

    def aut_of(self, coords, env: dict) -> int:
        if coords is None:
            return int(self.saut.aut.identity)
        moduli = self.saut.coord_moduli
        if set(coords) != set(moduli):
            raise RecipeError(f"coordinates {sorted(coords)} do not match {sorted(moduli)}")
        values = {nm: eval_expr(expr, env, moduli[nm]) for nm, expr in coords.items()}
        try:
            return self.saut.aut_index(**values)
        except KeyError:
            raise RecipeError(f"coordinates {values} are not an automorphism") from None


# ---------------------------------------------------------------------------
# data access


@lru_cache(maxsize=1)
def _data() -> dict:
    text = resources.files("p2qbrace").joinpath("data/catalog_data.json").read_text()
    data = json.loads(text)
    if data.get("version") != DATA_VERSION:
        raise RecipeError(f"catalog data version {data.get('version')} unsupported")
    ids = [e["id"] for e in data["lemmas"]]
    if len(ids) != len(set(ids)):
        raise RecipeError("duplicate lemma ids in catalog data")
    return data


def all_lemma_ids() -> list[str]:
    return [e["id"] for e in _data()["lemmas"]]


def lemma_entry(lemma_id: str) -> dict:
    for entry in _data()["lemmas"]:
        if entry["id"] == lemma_id:
            return entry
    raise KeyError(f"no catalog lemma {lemma_id!r}")


def manual_notes() -> list[dict]:
    """Strata excluded from the recipe language, with the reasons."""
    return list(_data()["manual"])


def applicable_lemma_ids(p: int, q: int, choice: str = "first") -> list[str]:
    """Lemma ids whose regime predicate holds at (p, q), in data order."""
    env = derive_params(p, q, choice).as_dict()
    return [e["id"] for e in _data()["lemmas"] if eval_cond(e["requires"], env)]


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class Witness:
    """One concrete generator recipe: a lemma instance at fixed parameters."""

    lemma_id: str
    additive: str
    name: str
    pi2_size: int
    binding: tuple[tuple[str, int], ...]
    generators: tuple  # ((word, coords-or-None), ...), hashable raw recipe
    expected_class: str


@dataclass(frozen=True)
class LemmaInstance:
    lemma_id: str
    additive: str
    pi2_size: int
    expected_count: int
    witnesses: tuple[Witness, ...]


def _freeze_generators(gen_specs) -> tuple:
    out = []
    for g in gen_specs:
        word = tuple((str(a), str(e)) for a, e in g["word"])
        coords = g.get("aut")
        out.append((word, None if coords is None else tuple(sorted(coords.items()))))
    return tuple(out)


def _expected_class(rules, env: dict) -> str:
    for rule in rules:
        if "when" not in rule or eval_cond(rule["when"], env):
            return rule["is"]
    raise RecipeError("no class rule matched")


def instantiate_lemma(
    lemma_id: str, p: int, q: int, choice: str = "first"
) -> LemmaInstance:
    """Expand a lemma entry into concrete witnesses at (p, q).

    Raises ValueError when (p, q) lies outside the lemma's regime.
    """
    entry = lemma_entry(lemma_id)
    env = derive_params(p, q, choice).as_dict()
    if not eval_cond(entry["requires"], env):
        raise ValueError(f"lemma {lemma_id} does not apply at ({p}, {q})")
    pi2 = eval_expr(entry["pi2_size"], env)
    count = eval_expr(entry["count"], env)
    witnesses = []
    for spec in entry["witnesses"]:
        names = list(spec.get("params", {}))
        ranges = [
            range(eval_expr(lo, env), eval_expr(hi, env) + 1)
            for lo, hi in spec.get("params", {}).values()
        ]
        frozen = _freeze_generators(spec["generators"])
        for combo in itertools.product(*ranges):
            wenv = {**env, **dict(zip(names, combo))}
            if "where" in spec and spec["where"] and not eval_cond(spec["where"], wenv):
                continue
            display = spec["name"]
            if names:
                display += "(" + ", ".join(f"{n}={v}" for n, v in zip(names, combo)) + ")"
            witnesses.append(
                Witness(
                    lemma_id=lemma_id,
                    additive=entry["additive"],
                    name=display,
                    pi2_size=pi2,
                    binding=tuple(zip(names, combo)),
                    generators=frozen,
                    expected_class=_expected_class(spec["classes"], wenv),
                )
            )
    return LemmaInstance(
        lemma_id=lemma_id,
        additive=entry["additive"],
        pi2_size=pi2,
        expected_count=count,
        witnesses=tuple(witnesses),
    )


def _generators(witness: Witness, ctx: FamilyContext) -> tuple[list[int], list[int]]:
    """The witness generators (b, g) as the list of their elements of A
    and the list of their automorphism indices; RecipeError when the
    arithmetic is undefined."""
    if witness.additive != ctx.label.key():
        raise ValueError(
            f"witness {witness.name} is for {witness.additive}, context is "
            f"{ctx.label.key()}"
        )
    env = dict(ctx.env)
    env.update(witness.binding)
    b, g = [], []
    for word, coords in witness.generators:
        b.append(ctx.element_of_word(word, env))
        g.append(ctx.aut_of(None if coords is None else dict(coords), env))
    return b, g


def _close(witnesses, ctx: FamilyContext) -> list[HolSubgroup | RecipeError]:
    """Each witness closed inside the holomorph, or the RecipeError it
    meets: undefined arithmetic, or generators that do not generate a
    regular subgroup.  The witnesses are the parts of one
    ``enumeration._regular_closures`` call, one row each, started from
    {e}."""
    out: list[HolSubgroup | RecipeError] = []
    at, parts = [], []  # the rows: witness index, and (start, b, g)
    start = np.arange(ctx.group.n) == ctx.group.identity
    for i, w in enumerate(witnesses):
        try:
            b, g = _generators(w, ctx)
        except RecipeError as exc:
            out.append(exc)
            continue
        out.append(RecipeError(f"{w.name}: the generators do not generate a regular subgroup"))
        at.append(i)
        parts.append((start, np.array([b], dtype=np.int64), g))
    keep, lams = _regular_closures(ctx.hol, parts)
    for r, lam in zip(keep.tolist(), lams):
        out[at[r]] = HolSubgroup(tuple(lam.tolist()))
    return out


def evaluate_witness(witness: Witness, ctx: FamilyContext) -> HolSubgroup:
    """Close the witness generators inside the holomorph, as one row of
    ``enumeration._regular_closures``.

    Raises RecipeError when the arithmetic is undefined or the generators
    do not generate a regular subgroup.
    """
    (sub,) = _close([witness], ctx)
    if isinstance(sub, RecipeError):
        raise sub
    return sub


# ---------------------------------------------------------------------------
# verification against the enumeration


@dataclass
class LemmaReport:
    """Outcome of checking one lemma's witnesses against the enumeration."""

    lemma_id: str
    additive: str
    p: int
    q: int
    pi2_size: int
    expected_count: int
    witness_count: int
    enumerated_count: int
    ok: bool
    problems: list[str]

    def summary(self) -> str:
        state = "ok" if self.ok else "FAIL"
        return (
            f"{self.lemma_id} at ({self.p}, {self.q}): {state} "
            f"[{self.witness_count} witnesses, {self.enumerated_count} orbit "
            f"classes, expected {self.expected_count}]"
        )


def verify_lemma(lemma_id: str, ctx: FamilyContext, enumerated: list[OrbitClass]) -> LemmaReport:
    """Check one lemma in the family of ``ctx``, whose orbit classes are
    ``enumerated``: witnesses regular, pairwise non-conjugate, and in
    bijection with the enumerated orbit classes of their stratum.

    The witnesses are closed as the rows of one ``_regular_closures`` call
    and the regular ones labelled as one stack (``circle_labels``); the
    problems are then listed witness by witness, in order."""
    p, q = ctx.p, ctx.q
    inst = instantiate_lemma(lemma_id, p, q, ctx.choice)
    problems: list[str] = []
    subs = _close(inst.witnesses, ctx)
    closed = np.array([sub.lam for sub in subs if isinstance(sub, HolSubgroup)], dtype=np.int32)
    labels = iter(circle_labels(ctx.hol, closed))
    canon: dict[tuple[int, ...], str] = {}
    for w, sub in zip(inst.witnesses, subs):
        if isinstance(sub, RecipeError):
            problems.append(f"{w.name}: {sub}")
            continue
        got = next(labels).key()
        if sub.pi2_size != inst.pi2_size:
            problems.append(
                f"{w.name}: automorphism image has size {sub.pi2_size}, "
                f"stratum is {inst.pi2_size}"
            )
            continue
        if got != w.expected_class:
            problems.append(
                f"{w.name}: multiplicative class {got}, recipe says {w.expected_class}"
            )
        key = _orbit_of(ctx.hol, sub.arr)[0]
        if key in canon:
            problems.append(f"{w.name}: conjugate to witness {canon[key]}")
        else:
            canon[key] = w.name
    stratum = [cl for cl in enumerated if cl.pi2_size == inst.pi2_size]
    # enumerated representatives are already their orbit's lex-least member
    enum_keys = {cl.rep.lam for cl in stratum}
    if len(canon) != inst.expected_count:
        problems.append(
            f"{len(canon)} pairwise non-conjugate witnesses, expected "
            f"{inst.expected_count}"
        )
    if enum_keys != set(canon):
        missing = len(enum_keys - set(canon))
        extra = len(set(canon) - enum_keys)
        problems.append(
            f"witness orbits differ from enumerated orbits "
            f"({missing} enumerated classes unmatched, {extra} witnesses astray)"
        )
    return LemmaReport(
        lemma_id=lemma_id,
        additive=inst.additive,
        p=p,
        q=q,
        pi2_size=inst.pi2_size,
        expected_count=inst.expected_count,
        witness_count=len(inst.witnesses),
        enumerated_count=len(stratum),
        ok=not problems,
        problems=problems,
    )


def verify_catalog(
    p: int, q: int, choice: str = "first", lemma_id: str | None = None
) -> list[LemmaReport]:
    """Run every applicable lemma at (p, q), one enumeration per family."""
    wanted = applicable_lemma_ids(p, q, choice)
    if lemma_id is not None:
        if lemma_id not in wanted:
            raise ValueError(f"lemma {lemma_id} does not apply at ({p}, {q})")
        wanted = [lemma_id]
    contexts: dict[str, tuple[FamilyContext, list[OrbitClass]]] = {}
    reports = []
    for lid in wanted:
        additive = lemma_entry(lid)["additive"]
        if additive not in contexts:
            ctx = FamilyContext(additive, p, q, choice)
            contexts[additive] = (ctx, stratified_orbit_classes(ctx.hol))
        ctx, classes = contexts[additive]
        reports.append(verify_lemma(lid, ctx, classes))
    return reports
