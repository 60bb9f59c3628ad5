"""Witness recipes: expression language, vectors, lemma verification."""

import dataclasses

import numpy as np
import pytest

from p2qbrace import catalog
from p2qbrace.catalog import (
    FamilyContext,
    RecipeError,
    Witness,
    all_lemma_ids,
    applicable_lemma_ids,
    evaluate_witness,
    eval_cond,
    eval_expr,
    gf_psi,
    gf_vector,
    instantiate_lemma,
    lemma_entry,
    manual_notes,
    verify_catalog,
)
from p2qbrace.enumeration import circle_group
from p2qbrace.families import _valid_xis, derive_params, is_prime
from helpers import (
    classes_of,
    gf_level_subgroup,
    gf_vector_oracle,
    label_keys,
    structured_of,
    valid_xis_oracle,
    witness_oracle,
)


# -- expression language ------------------------------------------------------


class Err(str):
    """The exact RecipeError text an expression must raise."""


# the value or the exact RecipeError text of each case, at p = 3, q = 7, h = 2
EVAL_CASES = [
    ('1.5', None, Err('non-integer literal 1.5')),
    ('True', None, Err('non-integer literal True')),
    ('nope', None, Err("unknown name 'nope'")),
    ('~1', None, Err('unsupported unary operator Invert()')),
    ('+1', None, Err('unsupported unary operator UAdd()')),
    ('not 1', 5, Err("'not' is not defined in modular position")),
    ('1 < 2', 5, Err('comparisons are not defined in modular position')),
    ('1 and 2', 5, Err('boolean operators are not defined in modular position')),
    ('5 % 0', None, Err("modulus zero in '%'")),
    ('5 % 2', 7, Err("'%' is not defined in modular position")),
    ('5/2', None, Err('5/2 is not an integer')),
    ('1/0', None, Err('1/0 is not an integer')),
    ('1/2', 4, Err('2 is not invertible modulo 4')),
    ('2**-1', None, Err('negative exponent -1 outside modular position')),
    ('2**(0-1)', 4, Err('base not invertible modulo 4 for a negative power')),
    ('1 is 1', None, Err('unsupported comparison Is()')),
    ('1 in 2', None, Err('unsupported comparison In()')),
    ('[1]', None, Err('unsupported expression node List(elts=[Constant(value=1)], ctx=Load())')),
    ('1 << 2', None, Err('unsupported expression node BinOp(left=Constant(value=1), op=LShift(), right=Constant(value=2))')),
    ('1 //2', None, Err('unsupported expression node BinOp(left=Constant(value=1), op=FloorDiv(), right=Constant(value=2))')),
    ('(', None, Err("bad expression '(': '(' was never closed (<unknown>, line 1)")),
    ('p+q', 0, Err('bad modulus 0')),
    ('not 1', None, False),
    ('1 < 2', None, True),
    ('1 and 2', None, True),
    ('0 or 0', None, False),
    ('5 % 2', None, 1),
    ('-7 % 3', None, 2),
    ('6/3', None, 2),
    ('1/2', 7, 4),
    ('0/3', 5, 0),
    ('2**-1', 5, 3),
    ('2**3', None, 8),
    ('h**p', 5, 3),
    ('-p', 5, 2),
    ('p*q - 1', 4, 0),
    ('2 > 1 >= 1 != 0', None, True),
    ('3 < 2 is 1', None, False),
    ('1 < 2 is 1', None, Err('unsupported comparison Is()')),
    ('not nope', 5, Err("'not' is not defined in modular position")),
    ('nope % 2', 5, Err("unknown name 'nope'")),
    ('x if 1 else 2', None, Err("unsupported expression node IfExp(test=Constant(value=1), body=Name(id='x', ctx=Load()), orelse=Constant(value=2))")),
]


@pytest.mark.parametrize("expr, mod, want", EVAL_CASES, ids=[f"{e} | {m}" for e, m, _ in EVAL_CASES])
def test_evaluator_values_and_error_texts(expr, mod, want):
    env = {"p": 3, "q": 7, "h": 2}
    if isinstance(want, Err):
        with pytest.raises(RecipeError) as info:
            eval_expr(expr, env, mod)
        assert str(info.value) == want
    else:
        got = eval_expr(expr, env, mod)
        assert (type(got), got) == (type(want), want)


def test_modular_inverse_division():
    assert eval_expr("1/(r - 1)", {"r": 4}, mod=7) == pow(3, -1, 7)
    assert eval_expr("-1/2", {}, mod=7) == (-pow(2, -1, 7)) % 7
    with pytest.raises(RecipeError):
        eval_expr("1/2", {}, mod=4)  # 2 has no inverse mod 4


def test_plain_division_must_be_exact():
    assert eval_expr("6/2", {}) == 3
    with pytest.raises(RecipeError):
        eval_expr("5/2", {})
    with pytest.raises(RecipeError):
        eval_expr("1/0", {})


def test_power_exponent_is_plain():
    # the exponent is an ordinary integer even in modular position
    assert eval_expr("h**p", {"h": 2, "p": 3}, mod=5) == 3
    assert eval_expr("2**10", {}) == 1024
    # negative powers mean modular inverse of the base
    assert eval_expr("h**(0 - 1)", {"h": 3}, mod=7) == pow(3, -1, 7)
    with pytest.raises(RecipeError):
        eval_expr("2**(0 - 1)", {}, mod=4)
    # outside modular position a negative power has no integer value
    for call in (lambda: eval_expr("2**-1", {}), lambda: eval_cond("2**-1 < 1", {}),
                 lambda: eval_expr("0**-1", {})):
        with pytest.raises(RecipeError, match="negative exponent"):
            call()


def test_conditions():
    env = {"p": 2, "q": 13}
    assert eval_cond("q % 4 == 1", env)
    assert eval_cond("p == 2 and q > 5", env)
    assert not eval_cond("p > 2 and q % (p*p) == 1", env)
    assert eval_cond("not p > 2", env)
    assert eval_cond("1 < p <= 2", env)


def test_unknown_names_and_nodes_rejected():
    with pytest.raises(RecipeError):
        eval_expr("nope + 1", {})
    with pytest.raises(RecipeError):
        eval_expr("[1, 2]", {})
    with pytest.raises(RecipeError):
        eval_expr("p % q", {"p": 7, "q": 3}, mod=5)  # % only in plain position


# -- the data file ------------------------------------------------------------


def test_lemma_ids_unique_and_wellformed():
    ids = all_lemma_ids()
    assert len(ids) == len(set(ids))
    assert len(ids) == 40
    for lid in ids:
        entry = lemma_entry(lid)
        assert entry["requires"]
        assert "pi2_size" in entry and "count" in entry
    with pytest.raises(KeyError):
        lemma_entry("no-such-lemma")


def test_manual_notes_cover_the_recipe_gaps():
    notes = manual_notes()
    assert notes
    assert any("Gk" in n.get("additive", "") for n in notes)


def test_applicable_sets_per_regime():
    # counts are structural: how many regime predicates admit each pair
    assert len(applicable_lemma_ids(2, 7)) == 12
    assert len(applicable_lemma_ids(2, 5)) == 18
    assert len(applicable_lemma_ids(3, 7)) == 12
    assert len(applicable_lemma_ids(5, 3)) == 6
    assert len(applicable_lemma_ids(2, 13)) == 18
    assert len(applicable_lemma_ids(7, 3)) == 6
    assert applicable_lemma_ids(3, 5) == []  # independent regime: no lemmas


def test_out_of_regime_lemma_raises():
    with pytest.raises(ValueError):
        instantiate_lemma("gf-stratum-q", 2, 7)
    with pytest.raises(ValueError):
        instantiate_lemma("qbyp2-ordp2-stratum-p", 2, 7)  # needs q = 1 mod 4


def test_instantiation_shapes():
    inst = instantiate_lemma("qbyp2-ordp-stratum-p", 3, 7)
    assert inst.pi2_size == 3
    assert inst.expected_count == 8  # p*p - 1
    assert inst.additive == "QbyP2_ordP"
    # parametrised witnesses got expanded
    assert len(inst.witnesses) >= inst.expected_count
    names = {w.name for w in inst.witnesses}
    assert len(names) == len(inst.witnesses)


def test_where_filter_prunes_parameters():
    inst = instantiate_lemma("qbyp2-ordp2-stratum-p2", 2, 5)
    # b runs over 1..p*p-1 excluding multiples of p: 1 and 3 at p=2
    bindings = {dict(w.binding)["b"] for w in inst.witnesses}
    assert bindings == {1, 3}


# -- contexts and witness evaluation -------------------------------------------


def test_family_context_rejects_unknown_type():
    with pytest.raises(ValueError):
        FamilyContext("QbyP2_ordP2", 2, 7)  # absent at order 28


def test_witness_family_mismatch_rejected():
    inst = instantiate_lemma("qbyp2-ordp-stratum-1", 2, 7)
    ctx = FamilyContext("CyclicP2Q", 2, 7)
    with pytest.raises(ValueError):
        evaluate_witness(inst.witnesses[0], ctx)


def test_wrong_closure_order_is_a_recipe_error():
    ctx = FamilyContext("QbyP2_ordP", 2, 7)
    for name, generators in (
        # (e, f) with f of order 6: a subgroup of order 6 that fixes e
        ("fixes-e", (((("s", "0"),), (("c", "3"), ("k", "1"), ("u", "5"))),)),
        # <sigma^2> alone has order 2
        ("too-small", (((("s", "2"),), None),)),
    ):
        bad = Witness(
            lemma_id="x",
            additive="QbyP2_ordP",
            name=name,
            pi2_size=1,
            binding=(),
            generators=generators,
            expected_class="CyclicP2Q",
        )
        assert witness_oracle(bad, ctx) is None
        with pytest.raises(
            RecipeError, match=f"^{name}: the generators do not generate a regular subgroup$"
        ):
            evaluate_witness(bad, ctx)


def test_broken_witnesses_keep_their_problem_texts_and_order(monkeypatch):
    # a lemma's witnesses are closed as the rows of one call and labelled as
    # one stack; a row that dies, a recipe error, a row of no generators and
    # a wrong class still read as they did when each witness was closed on
    # its own, witness by witness (the texts were recorded then)
    real = instantiate_lemma

    def with_broken(lemma_id, p, q, choice="first"):
        inst = real(lemma_id, p, q, choice)
        first = inst.witnesses[0]

        def bad(name, generators, expected="CyclicP2Q", like=None):
            return Witness(lemma_id=lemma_id, additive=inst.additive, name=name,
                           pi2_size=1 if like is None else like.pi2_size,
                           binding=() if like is None else like.binding,
                           generators=generators, expected_class=expected)

        broken = (
            bad("too-small", (((("s", "2"),), None),)),
            bad("nogens", ()),
            bad("unknown", (((("zz", "2"),), None),)),
            bad("wrongclass", first.generators, "PxPQ", first),
        )
        return dataclasses.replace(inst, witnesses=inst.witnesses[:1] + broken + inst.witnesses[1:])

    monkeypatch.setattr(catalog, "instantiate_lemma", with_broken)
    ctx = FamilyContext("QbyP2_ordP", 2, 7)
    report = catalog.verify_lemma("qbyp2-ordp-stratum-p", ctx, list(classes_of(2, 7, "QbyP2_ordP")))
    assert report.summary() == (
        "qbyp2-ordp-stratum-p at (2, 7): FAIL [7 witnesses, 3 orbit classes, expected 3]"
    )
    assert report.problems == [
        "too-small: too-small: the generators do not generate a regular subgroup",
        "nogens: nogens: the generators do not generate a regular subgroup",
        "unknown: unknown letter 'zz' for QbyP2_ordP",
        "wrongclass: multiplicative class PxQbyP, recipe says PxPQ",
        "wrongclass: conjugate to witness G(a=1)",
    ]


@pytest.mark.parametrize(
    "pair", [(2, 5), (2, 7), (3, 7), (5, 3), (2, 13), (3, 13), (7, 3), (2, 11), (3, 19), (11, 3)]
)
def test_witness_tables_are_the_packed_closures(pair):
    contexts = {}
    for lid in applicable_lemma_ids(*pair):
        inst = instantiate_lemma(lid, *pair)
        if inst.additive not in contexts:
            contexts[inst.additive] = FamilyContext(inst.additive, *pair)
        ctx = contexts[inst.additive]
        for w in inst.witnesses:
            assert evaluate_witness(w, ctx) == witness_oracle(w, ctx), (lid, w.name)


def test_aut_of_rejects_wrong_coordinates():
    ctx = FamilyContext("QbyP2_ordP", 2, 7)
    with pytest.raises(RecipeError):
        ctx.aut_of({"bogus": "1"}, ctx.env)
    assert ctx.aut_of(None, ctx.env) == ctx.hol.aut.identity


def test_witness_with_coordinates_of_no_automorphism_fails():
    ctx = FamilyContext("QbyP2_ordP", 2, 7)
    bad = Witness(
        lemma_id="x",
        additive="QbyP2_ordP",
        name="u-not-a-unit",
        pi2_size=2,
        binding=(),
        # u = 0 sends tau to the identity: in range, but no automorphism
        generators=(((("s", "1"),), (("c", "0"), ("k", "1"), ("u", "0"))),),
        expected_class="QbyP2_ordP",
    )
    with pytest.raises(RecipeError, match="are not an automorphism"):
        evaluate_witness(bad, ctx)


def test_coord_moduli_match_the_recipe_moduli():
    # the coordinate moduli the witness recipes were written against
    def table(p, q):
        return {
            "QbyP2_ordP": {"k": p, "c": q, "u": q},
            "QbyP2_ordP2": {"c": q, "u": q},
            "PxQbyP": {"l": p, "i": p, "c": q, "u": q},
            "GF": {"w": 2, "n": p, "m": p, "x": p, "y": p},
            "P2SemidirectQ": {"c": p * p, "u": p * p},
            "CyclicP2Q": {"u": p * p * q},
            "PxPQ": {"a": p, "b": p, "c": p, "d": p, "u": q},
        }

    seen = set()
    for p, q in ((2, 5), (3, 7), (5, 3), (5, 2)):
        for key in label_keys(p, q):
            if key in table(p, q):
                moduli = structured_of(p, q, key).coord_moduli
                assert list(moduli.items()) == list(table(p, q)[key].items()), key
                seen.add(key)
    assert seen == set(table(2, 5))


def test_every_witness_is_regular_at_order28():
    for lid in applicable_lemma_ids(2, 7):
        inst = instantiate_lemma(lid, 2, 7)
        ctx = FamilyContext(inst.additive, 2, 7)
        for w in inst.witnesses:
            # a lambda table, so pi1 is a bijection; circle_group checks closure
            sub = evaluate_witness(w, ctx)
            assert circle_group(ctx.hol, sub).n == 28, (lid, w.name)
            assert sub.pi2_size == inst.pi2_size


# -- the GF vector machinery ----------------------------------------------------


def conjugacy_key(hol, elems):
    """The lex-least (1,h) S (1,h)^-1 over all h in Aut(A), S a packed
    element set: one key per orbit."""
    a, f = np.divmod(np.asarray(elems, dtype=np.int64), hol.n_aut)
    aut = hol.aut
    return min(
        tuple(sorted((aut.perms[h][a] * hol.n_aut + aut.conj_row(h)[f]).tolist()))
        for h in range(aut.k)
    )


def test_psi_is_constant_on_plane_orbits():
    # the 24 nonzero vectors at p=5 fall into plane-subgroup orbits under
    # Aut-conjugation; psi separates the orbits
    ctx = FamilyContext("GF", 5, 3)
    p, xi = 5, ctx.params.xi
    seen: dict[tuple[int, ...], set[int]] = {}
    for x in range(p):
        for y in range(p):
            if (x, y) == (0, 0):
                continue
            key = conjugacy_key(ctx.hol, gf_level_subgroup(ctx, x, y))
            seen.setdefault(key, set()).add(gf_psi(x, y, p, xi))
    assert len(seen) == 5
    for vals in seen.values():
        assert len(vals) == 1
    # and the psi values of distinct orbits are distinct
    all_vals = [next(iter(v)) for v in seen.values()]
    assert len(set(all_vals)) == 5


def test_named_vectors_hit_their_psi_level():
    ctx = FamilyContext("GF", 5, 3)
    p, xi = 5, ctx.params.xi
    for a in range(1, p):
        env = {**ctx.env, "a": a}
        va = gf_vector("va", env, ctx.params)
        assert gf_psi(va[0], va[1], p, xi) == a % p
        vta = gf_vector("vta", env, ctx.params)
        assert vta == ((-va[1] - 1) % p, (va[0] - xi * va[1] - 1) % p)


def test_unknown_vector_name_rejected():
    ctx = FamilyContext("GF", 5, 3)
    with pytest.raises(RecipeError):
        gf_vector("nope", dict(ctx.env), ctx.params)


def test_gf_vectors_in_the_field_are_the_matrix_products():
    # every prime p < 120 with a prime q > 2 dividing p + 1, both choices
    # of xi, and c < 3q: 6 744 recipe inputs, singular ones included
    def outcome(fn, name, env, params):
        try:
            return fn(name, env, params)
        except RecipeError as exc:
            return str(exc)

    outcomes = []
    for p in filter(is_prime, range(2, 120)):
        for q in (q for q in range(3, p + 2) if is_prime(q) and (p + 1) % q == 0):
            assert _valid_xis(p, q) == valid_xis_oracle(p, q)
            for choice in ("first", "second"):
                params = derive_params(p, q, choice)
                for name in ("ws", "wt", "uc", "Fuc"):
                    for c in range(3 * q):
                        env = {"c": c}
                        got = outcome(gf_vector, name, env, params)
                        assert got == outcome(gf_vector_oracle, name, env, params), (p, q, name, c)
                        outcomes.append(got)
    assert len(outcomes) == 6744
    assert 0 < outcomes.count("singular matrix in a vector recipe") < len(outcomes)


def test_gf_level_subgroup_is_a_plane():
    ctx = FamilyContext("GF", 5, 3)
    elems = gf_level_subgroup(ctx, 1, 0)
    assert len(elems) == 25


# -- full verification ----------------------------------------------------------


@pytest.mark.parametrize("pair", [(2, 5), (2, 7), (3, 7), (5, 3)])
def test_verify_catalog_is_green(pair):
    p, q = pair
    reports = verify_catalog(p, q)
    assert reports
    for rep in reports:
        assert rep.ok, rep.summary() + "; " + "; ".join(rep.problems)
        assert rep.witness_count >= rep.expected_count
        assert rep.enumerated_count == rep.expected_count


def test_verify_single_lemma():
    [rep] = verify_catalog(7, 3, lemma_id="p2sq-stratum-q")
    assert rep.ok
    assert rep.expected_count == 2  # q - 1
    assert "ok" in rep.summary()


def test_verify_catalog_unknown_lemma():
    with pytest.raises(ValueError):
        verify_catalog(2, 7, lemma_id="gf-stratum-q")
