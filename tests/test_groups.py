import itertools
import random

import pytest

from pfaffkit.errors import InvalidD, InvalidN, UnknownAction
from pfaffkit.parser import parse_group_text
from pfaffkit.groups import (
    ATOMS,
    EULERIAN,
    Atom,
    Elliptic,
    Extension,
    Finite,
    GL,
    Ga,
    GaxGm,
    Gm,
    ONE_REDUCIBLE_INTERNAL,
    PGL,
    PSL,
    Product,
    RANKED_ATOMS,
    SL,
    Torus,
    UnknownSubgroupOf,
    _decompose,
    _goursat_parent_ok,
    check_series,
    d_solvable,
    d_solvable_set,
    extension,
    generic_transitivity,
    gl_affine_action,
    no,
    pgl_projective_action,
    product,
    reducibility_profile,
    series_witness_valid,
    subgroup_of,
    unknown,
    yes,
)

from conftest import is_definite


def small_atoms():
    atoms = [Ga(), Gm(), GaxGm(), Finite(), Elliptic()]
    for n in (2, 3, 4):
        atoms += [SL(n), GL(n), PSL(n)]
    atoms += [Torus(2), Torus(3)]
    # normalized aliases collapse into the same atoms
    atoms += [PGL(2), GL(1), Torus(1), SL(1)]
    out = []
    for a in atoms:
        if a not in out:
            out.append(a)
    return out


def depth_two(atoms):
    trees = list(atoms)
    for a, b in itertools.product(atoms, repeat=2):
        trees.append(product(a, b))
        trees.append(extension(a, b))
    for a in atoms:
        trees.append(subgroup_of(a))
    return trees


class TestNormalization:
    def test_pgl_is_psl(self):
        assert PGL(2) == PSL(2)
        assert PGL(3) == PSL(3)

    def test_rank_one_collapses(self):
        assert GL(1) == Gm()
        assert SL(1) == Finite()
        assert Torus(1) == Gm()

    def test_bad_ranks(self):
        with pytest.raises(InvalidN):
            SL(0)
        with pytest.raises(InvalidN):
            Torus(-1)


class TestCheckSeries:
    def test_gl2_eulerian_with_witness(self):
        v = check_series(GL(2), EULERIAN)
        assert v.is_yes
        assert v.witness == ("Gm", "PSL(2)", "Fin")
        assert series_witness_valid(v, EULERIAN)

    def test_sl3_not_eulerian(self):
        v = check_series(SL(3), EULERIAN)
        assert v.is_no
        assert "PSL(3)" in v.reason

    def test_elliptic_on_both_alphabets(self):
        assert check_series(Elliptic(), EULERIAN).is_no
        assert check_series(Elliptic(), ONE_REDUCIBLE_INTERNAL).is_yes

    def test_goursat_closure(self):
        v = check_series(subgroup_of(product(SL(2), SL(2), Gm())), EULERIAN)
        assert v.is_yes
        assert series_witness_valid(v, EULERIAN)

    def test_unknown_subgroup_of_large_group(self):
        v = check_series(subgroup_of(GL(3)), EULERIAN)
        assert v.value == "unknown"

    def test_nested_subgroups_and_products(self):
        g = subgroup_of(product(product(SL(2), Torus(2)), Finite()))
        assert check_series(g, EULERIAN).is_yes
        assert check_series(subgroup_of(subgroup_of(SL(2))), EULERIAN).is_yes

    def test_extension_rules(self):
        assert check_series(extension(SL(2), Gm()), EULERIAN).is_yes
        assert check_series(extension(SL(3), Gm()), EULERIAN).is_no
        assert check_series(extension(subgroup_of(GL(3)), Gm()), EULERIAN).value == "unknown"
        # a definite no wins over an unknown sibling
        assert check_series(extension(subgroup_of(GL(3)), SL(4)), EULERIAN).is_no


# ---------------------------------------------------------------------------
# the recursive series check that the one-walk version replaced, kept as a
# test-only reference


def recursive_check_series(g, allowed):
    if isinstance(g, Atom):
        if allowed.allows_atom(g):
            return yes(witness=(str(g),))
        parts = _decompose(g)
        if parts is None:
            return no(f"{g} is not an allowed quotient and has no proper decomposition")
        return combine_all((recursive_check_series(p, allowed) for p in parts), allowed)
    if isinstance(g, Product):
        return combine_all((recursive_check_series(c, allowed) for c in g.children), allowed)
    if isinstance(g, Extension):
        return combine_all(
            (recursive_check_series(g.quotient, allowed),
             recursive_check_series(g.normal, allowed)),
            allowed,
        )
    if isinstance(g, UnknownSubgroupOf):
        if allowed.covers_eulerian_atoms() and _goursat_parent_ok(g.parent):
            return yes(witness=("Fin", "Ga", "Gm", "PSL(2)"))
        return unknown(
            f"an arbitrary subgroup of {g.parent} is not covered by the "
            "subgroups-of-products closure"
        )
    raise UnknownAction(f"unrecognized group expression {g!r}")


def combine_all(verdicts, allowed):
    witness = []
    saw_unknown = None
    for v in verdicts:
        if v.is_no:
            return v
        if v.is_yes:
            witness.extend(v.witness)
        else:
            saw_unknown = v
    if saw_unknown is not None:
        return saw_unknown
    return yes(witness=tuple(witness))


ALPHABETS = (EULERIAN, ONE_REDUCIBLE_INTERNAL, d_solvable_set(2), d_solvable_set(3))


def every_kind_of_atom():
    atoms = [Ga(), Gm(), GaxGm(), Finite(), Elliptic()]
    for n in (1, 2, 3, 4, 5):
        atoms += [SL(n), GL(n), PSL(n), PGL(n)]
    atoms += [Torus(k) for k in (1, 2, 3, 4)]
    return atoms


def random_tree(rng, atoms, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        return rng.choice(atoms)
    if roll < 0.6:
        return product(*(random_tree(rng, atoms, depth - 1) for _ in range(rng.randint(0, 3))))
    if roll < 0.85:
        return extension(random_tree(rng, atoms, depth - 1), random_tree(rng, atoms, depth - 1))
    return subgroup_of(random_tree(rng, atoms, depth - 1))


def outcome(v):
    return (v.value, v.witness, v.reason)


class TestWalkMatchesRecursion:
    def test_depth_two(self):
        for allowed in ALPHABETS:
            for g in depth_two(small_atoms()):
                assert outcome(check_series(g, allowed)) == outcome(
                    recursive_check_series(g, allowed)
                ), (str(g), str(allowed))

    def test_random_trees_up_to_depth_six(self):
        rng = random.Random("series-walk")
        atoms = every_kind_of_atom()
        values = set()
        for _ in range(3000):
            g = random_tree(rng, atoms, rng.randint(1, 6))
            for allowed in ALPHABETS:
                v = check_series(g, allowed)
                assert outcome(v) == outcome(recursive_check_series(g, allowed)), (
                    str(g), str(allowed)
                )
                values.add(v.value)
        assert values == {"yes", "no", "unknown"}

    def test_unrecognized_node_after_a_no_is_never_reached(self):
        weird = Product(("not a group",))
        assert check_series(product(SL(3), weird), EULERIAN).is_no
        with pytest.raises(UnknownAction):
            check_series(product(weird, SL(3)), EULERIAN)

    def test_a_deep_chain_needs_no_recursion(self):
        g = Ga()
        for _ in range(2000):
            g = extension(g, Ga())
        v = check_series(g, EULERIAN)
        assert v.is_yes
        assert v.witness == ("Ga",) * 2001

    def test_a_deep_tree_under_a_subgroup_needs_no_recursion(self):
        for inner, value in ((Gm(), "yes"), (GL(3), "unknown")):
            g = inner
            for _ in range(2000):
                g = product(g, Ga())
            v = check_series(subgroup_of(g), EULERIAN)
            assert v.value == value
            if value == "unknown":
                assert "GL(3)" in v.reason
                assert v.reason.count("Prod(") == 2000


class TestDSolvable:
    def test_gl_n_at_level_n(self):
        for n in (2, 3, 4, 5):
            assert d_solvable(GL(n), n).is_yes

    def test_gl3_at_level_2_blocked_by_psl3(self):
        v = d_solvable(GL(3), 2)
        assert v.is_no
        assert "PSL(3)" in v.reason

    def test_ga_not_1_solvable(self):
        assert d_solvable(Ga(), 1).is_no
        assert d_solvable(Ga(), 2).is_yes

    def test_invalid_d(self):
        with pytest.raises(InvalidD):
            d_solvable(Gm(), 0)

    def test_monotone_in_d(self):
        atoms = small_atoms()
        for g in depth_two(atoms)[:200]:
            prev = None
            for d in (1, 2, 3, 4, 5):
                v = d_solvable(g, d)
                if prev is not None and prev.is_yes:
                    assert v.is_yes, f"monotonicity broke at {g} d={d}"
                prev = v


class TestEquivalences:
    def test_eulerian_iff_2_solvable_depth2(self):
        dsolv2 = d_solvable_set(2)
        for g in depth_two(small_atoms()):
            e = check_series(g, EULERIAN)
            s = check_series(g, dsolv2)
            if is_definite(e) and is_definite(s):
                assert e.value == s.value, f"mismatch at {g}"

    def test_one_reducible_contains_eulerian_depth2(self):
        for g in depth_two(small_atoms()):
            e = check_series(g, EULERIAN)
            if e.is_yes:
                assert check_series(g, ONE_REDUCIBLE_INTERNAL).is_yes, g

    def test_product_extension_coherence(self):
        atoms = small_atoms()
        for a, b in itertools.product(atoms, repeat=2):
            for allowed in (EULERIAN, ONE_REDUCIBLE_INTERNAL, d_solvable_set(3)):
                p = check_series(product(a, b), allowed)
                e = check_series(extension(a, b), allowed)
                if is_definite(p) and is_definite(e):
                    assert p.value == e.value

    def test_yes_witnesses_are_valid_series(self):
        for allowed in (EULERIAN, ONE_REDUCIBLE_INTERNAL, d_solvable_set(2), d_solvable_set(4)):
            for g in depth_two(small_atoms()):
                v = check_series(g, allowed)
                assert series_witness_valid(v, allowed), (g, str(allowed))


# the atom names of the group grammar, plain and ranked as NAME(n)
PLAIN_NAMES = ("Ga", "Gm", "GaxGm", "E", "Fin")
RANKED_NAMES = ("SL", "GL", "PSL", "PGL", "T")


def atom_texts():
    """Every atom name of the grammar, the ranked ones at n = 1..4."""
    return list(PLAIN_NAMES) + [f"{name}({n})" for name in RANKED_NAMES for n in range(1, 5)]


class TestAtomNames:
    """The grammar and the witness reader take one table of atom names."""

    def test_the_tables_hold_the_grammar_names(self):
        assert (tuple(ATOMS), tuple(RANKED_ATOMS)) == (PLAIN_NAMES, RANKED_NAMES)

    @pytest.mark.parametrize("text", atom_texts())
    def test_witness_reader_agrees_with_the_grammar(self, text):
        g = parse_group_text(text)
        for allowed in ALPHABETS:
            read = series_witness_valid(yes(witness=(text,)), allowed)
            assert read == allowed.allows_atom(g), (text, str(allowed))
            v = check_series(g, allowed)
            # an allowed atom is its own series; a disallowed one is Yes
            # only through a decomposition, whose quotients read back
            if read:
                assert v.is_yes and v.witness == (str(g),), (text, str(allowed))
            assert series_witness_valid(v, allowed), (text, str(allowed))


class TestActions:
    def test_projective_transitivity(self):
        assert generic_transitivity(pgl_projective_action(3)) == 4
        assert generic_transitivity(pgl_projective_action(2)) == 3

    def test_affine_transitivity(self):
        assert generic_transitivity(gl_affine_action(2)) == 2

    def test_unknown_action(self):
        with pytest.raises(UnknownAction):
            generic_transitivity("frobnicate")
        with pytest.raises(InvalidN):
            pgl_projective_action(1)


class TestReducibilityProfile:
    def test_window_values(self):
        for n in (3, 4, 5, 6):
            p = reducibility_profile(n)
            assert (p.reducible_at, p.not_reducible_at) == (n - 1, n - 2)

    def test_window_matches_transitivity_bound(self):
        p = reducibility_profile(3)
        assert p.not_reducible_at == generic_transitivity(pgl_projective_action(3)) - 3

    def test_small_n_rejected(self):
        with pytest.raises(InvalidN):
            reducibility_profile(2)
