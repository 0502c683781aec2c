"""Structural algebraic-group expressions and series criteria.

Groups are given as expression trees (atoms, products, extensions,
unknown subgroups) and evaluated against an *allowed set* of quotient
types: the eulerian set {finite, Ga, Gm, PSL(2)}, the same set extended
by elliptic curves, or the d-solvable sets {finite} + {subquotients of
GL_d}.  Verdicts are three-valued: a Yes carries a subnormal-series
witness (the list of quotients), a No names the obstructing simple
quotient, and structurally insufficient information yields Unknown
rather than an over-claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidD, InvalidN, UnknownAction


# ---------------------------------------------------------------------------
# expression trees

@dataclass(frozen=True)
class GroupExpr:
    pass


@dataclass(frozen=True)
class Atom(GroupExpr):
    kind: str          # Ga | Gm | GaxGm | SL | GL | PSL | Torus | Elliptic | Finite
    n: int | None = None

    def __str__(self):
        if self.kind in ("SL", "GL", "PSL"):
            return f"{self.kind}({self.n})"
        if self.kind == "Torus":
            return f"T({self.n})"
        if self.kind == "Elliptic":
            return "E"
        if self.kind == "Finite":
            return "Fin"
        return self.kind


@dataclass(frozen=True)
class Product(GroupExpr):
    children: tuple


@dataclass(frozen=True)
class Extension(GroupExpr):
    normal: GroupExpr
    quotient: GroupExpr


@dataclass(frozen=True)
class UnknownSubgroupOf(GroupExpr):
    parent: GroupExpr


def _expr_str(g):
    """``str`` of a product, extension or unknown subgroup, built with an
    explicit stack so that a deep tree prints without recursion."""
    out = []
    stack = [g]
    while stack:
        item = stack.pop()
        if isinstance(item, Product):
            parts = [x for c in item.children for x in (", ", c)][1:]
            stack += (")", *reversed(parts), "Prod(")
        elif isinstance(item, Extension):
            stack += (")", item.quotient, ", ", item.normal, "Ext(")
        elif isinstance(item, UnknownSubgroupOf):
            stack += (")", item.parent, "Sub(")
        else:
            out.append(str(item))
    return "".join(out)


Product.__str__ = Extension.__str__ = UnknownSubgroupOf.__str__ = _expr_str


def Ga():
    return Atom("Ga")


def Gm():
    return Atom("Gm")


def GaxGm():
    return Atom("GaxGm")


def Finite():
    return Atom("Finite")


def Elliptic():
    return Atom("Elliptic")


def SL(n):
    _check_rank(n)
    if n == 1:
        return Finite()  # SL(1) is trivial
    return Atom("SL", n)


def GL(n):
    _check_rank(n)
    if n == 1:
        return Gm()  # GL(1) = Gm
    return Atom("GL", n)


def PSL(n):
    _check_rank(n)
    if n == 1:
        return Finite()
    return Atom("PSL", n)


def PGL(n):
    # over an algebraically closed field of characteristic 0 every scalar
    # has n-th roots, so PGL(n) and PSL(n) coincide; normalise at build time
    return PSL(n)


def Torus(k):
    if not isinstance(k, int) or k < 1:
        raise InvalidN(f"torus rank must be a positive integer, got {k!r}")
    if k == 1:
        return Gm()
    return Atom("Torus", k)


def _check_rank(n):
    if not isinstance(n, int) or n < 1:
        raise InvalidN(f"matrix rank must be a positive integer, got {n!r}")


# the atom constructors by the names groups are written with, in the
# grammar and in series witnesses: plain, and ranked as NAME(n)
ATOMS = {"Ga": Ga, "Gm": Gm, "GaxGm": GaxGm, "E": Elliptic, "Fin": Finite}
RANKED_ATOMS = {"SL": SL, "GL": GL, "PSL": PSL, "PGL": PGL, "T": Torus}


def product(*children):
    return Product(tuple(children))


def extension(normal, quotient):
    return Extension(normal, quotient)


def subgroup_of(parent):
    return UnknownSubgroupOf(parent)


# ---------------------------------------------------------------------------
# allowed sets

def _gl_level(atom):
    """Least d with the atom a subquotient of GL_d, or None when there is none.

    Encoded facts:
      Gm       -> 1   (Gm = GL_1)
      Torus(k) -> 1   (a k-fold series of Gm's, each inside GL_1)
      Ga       -> 2   (unipotent upper-triangular in GL_2; the only algebraic
                       subquotients of GL_1 are finite groups and Gm)
      GaxGm    -> 2   (Borel subgroup of GL_2)
      SL(n)    -> n   (its simple quotient PSL(n), of dimension n^2 - 1,
                       exceeds dim GL_(n-1) = (n-1)^2)
      GL(n)    -> n
      PSL(n)   -> n   (same dimension count)
      Elliptic -> none (complete, hence never a subquotient of an affine group)
      Finite   -> 0   (allowed in every d-solvable set)
    """
    kind = atom.kind
    if kind == "Finite":
        return 0
    if kind == "Gm" or kind == "Torus":
        return 1
    if kind in ("Ga", "GaxGm"):
        return 2
    if kind in ("SL", "GL", "PSL"):
        return atom.n
    if kind == "Elliptic":
        return None
    raise UnknownAction(f"no gl-level entry for atom {atom}")


# the eulerian quotient types, in the order of a covered subgroup's witness
_EULERIAN_ATOMS = (Atom("Finite"), Atom("Ga"), Atom("Gm"), Atom("PSL", 2))


@dataclass(frozen=True)
class AllowedSet:
    """Membership predicate over atoms, used as series-quotient alphabet."""

    name: str          # 'eulerian' | '1-reducible-internal' | 'd-solvable'
    d: int | None = None

    def allows_atom(self, atom):
        if self.name == "eulerian":
            kind = atom.kind
            return kind in ("Finite", "Ga", "Gm") or (kind == "PSL" and atom.n == 2)
        if self.name == "1-reducible-internal":
            return atom.kind == "Elliptic" or EULERIAN.allows_atom(atom)
        if self.name == "d-solvable":
            level = _gl_level(atom)
            return level is not None and level <= self.d
        raise UnknownAction(f"unknown allowed set {self.name!r}")

    def covers_eulerian_atoms(self):
        """True when every eulerian quotient type is allowed here."""
        return all(self.allows_atom(a) for a in _EULERIAN_ATOMS)

    def __str__(self):
        return f"d-solvable:{self.d}" if self.name == "d-solvable" else self.name


EULERIAN = AllowedSet("eulerian")
ONE_REDUCIBLE_INTERNAL = AllowedSet("1-reducible-internal")


def d_solvable_set(d):
    if not isinstance(d, int) or d < 1:
        raise InvalidD(f"d must be an integer >= 1, got {d!r}")
    return AllowedSet("d-solvable", d)


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class ThreeValued:
    """Yes with a series witness, No with an obstruction, or Unknown."""

    value: str                      # 'yes' | 'no' | 'unknown'
    witness: tuple = ()
    reason: str | None = None
    payload: object = None

    @property
    def is_yes(self):
        return self.value == "yes"

    @property
    def is_no(self):
        return self.value == "no"

    def __str__(self):
        return self.value


def yes(witness=(), payload=None):
    return ThreeValued("yes", witness=tuple(witness), payload=payload)


def no(reason, payload=None):
    return ThreeValued("no", reason=reason, payload=payload)


def unknown(reason):
    return ThreeValued("unknown", reason=reason)


# canned decompositions: quotient list, top of the series first
def _decompose(atom):
    kind = atom.kind
    if kind == "SL":
        # 1 < center < SL(n): quotient PSL(n) above a finite center
        return (Atom("PSL", atom.n), Atom("Finite"))
    if kind == "GL":
        # SL(n) normal in GL(n) with quotient Gm (the determinant)
        return (Atom("Gm"), Atom("SL", atom.n))
    if kind == "GaxGm":
        return (Atom("Gm"), Atom("Ga"))
    if kind == "Torus":
        return (Atom("Gm"),) * atom.n
    return None


def check_series(g, allowed):
    """Does ``g`` admit a subnormal series with quotients in ``allowed``?

    One walk over the leaves of ``g`` in series order, top first: an
    extension's quotient before its normal subgroup, a product's factors in
    order, a disallowed atom replaced by its canned decomposition.  The
    first disallowed atom without one gives No.  Otherwise the last unknown
    subgroup that is not covered gives Unknown; the closure covers parents
    that are products of the subgroups-of-SL2 alphabet (closed under taking
    subgroups).  Otherwise the verdict is Yes, witnessed by the allowed
    quotients in walk order.
    """
    quotients = []
    uncovered = None
    stack = [g]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            if allowed.allows_atom(node):
                quotients.append(node)
                continue
            parts = _decompose(node)
            if parts is None:
                return no(f"{node} is not an allowed quotient and has no proper decomposition")
            stack.extend(reversed(parts))
        elif isinstance(node, Product):
            stack.extend(reversed(node.children))
        elif isinstance(node, Extension):
            stack += (node.normal, node.quotient)
        elif isinstance(node, UnknownSubgroupOf):
            if allowed.covers_eulerian_atoms() and _goursat_parent_ok(node.parent):
                quotients.extend(_EULERIAN_ATOMS)
            else:
                uncovered = node
        else:
            raise UnknownAction(f"unrecognized group expression {node!r}")
    if uncovered is not None:
        return unknown(
            f"an arbitrary subgroup of {uncovered.parent} is not covered by the "
            "subgroups-of-products closure"
        )
    return yes(witness=map(str, quotients))


_GOURSAT_ATOMS = ("Ga", "Gm", "GaxGm", "Torus", "Finite")


def _goursat_parent_ok(parent):
    # alphabet: the algebraic subgroups of SL(2) (equivalently PSL(2)) and
    # tori/finite factors; subgroups of such products decompose with
    # quotients among Fin, Ga, Gm, PSL(2)
    stack = [parent]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            if node.kind not in _GOURSAT_ATOMS and node not in (Atom("SL", 2), Atom("PSL", 2)):
                return False
        elif isinstance(node, Product):
            stack.extend(node.children)
        elif isinstance(node, UnknownSubgroupOf):
            # a subgroup of a subgroup is a subgroup of the outer parent
            stack.append(node.parent)
        else:
            return False
    return True


def d_solvable(g, d):
    """check_series against the d-solvable alphabet."""
    return check_series(g, d_solvable_set(d))


def series_witness_valid(verdict, allowed):
    """Structural check that every quotient listed in a Yes witness is allowed."""
    if not verdict.is_yes:
        return True
    return all(allowed.allows_atom(_atom_from_str(q)) for q in verdict.witness)


def _atom_from_str(s):
    if s in ATOMS:
        return ATOMS[s]()
    kind, _, rest = s.partition("(")
    return RANKED_ATOMS[kind](int(rest.rstrip(")")))


# ---------------------------------------------------------------------------
# group actions and reducibility bounds

@dataclass(frozen=True)
class ActionDescriptor:
    """Catalog entry for a definable group action."""

    kind: str   # 'gl-affine' | 'pgl-projective'
    n: int


def gl_affine_action(n):
    """GL(n) acting on affine n-space."""
    _check_rank(n)
    return ActionDescriptor("gl-affine", n)


def pgl_projective_action(n):
    """PGL(n) acting on projective (n-1)-space."""
    if not isinstance(n, int) or n < 2:
        raise InvalidN("the projective action needs n >= 2")
    return ActionDescriptor("pgl-projective", n)


def generic_transitivity(action):
    """Degree of generic transitivity of a catalog action.

    GL(n) moves generic n-tuples (bases) to each other but preserves the
    linear relations of an (n+1)-st vector, so the degree is n; the
    projective action of PGL(n) moves generic (n+1)-tuples (frames), so
    the degree is n + 1.
    """
    if not isinstance(action, ActionDescriptor):
        raise UnknownAction(f"not a catalog action: {action!r}")
    if action.kind == "gl-affine":
        return action.n
    if action.kind == "pgl-projective":
        return action.n + 1
    raise UnknownAction(f"no transitivity entry for {action.kind!r}")


@dataclass(frozen=True)
class ReducibilityProfile:
    reducible_at: int
    not_reducible_at: int
    notes: tuple = ()


def reducibility_profile(n):
    """Reducibility window for a generic solution with symmetry group GL(n).

    The logarithmic-derivative image drops the order by one, giving
    (n-1)-reducibility; the induced projective action is generically
    (n+1)-transitive, and d+3-fold generic transitivity rules out
    d-reducibility, so d = n-2 is blocked.
    """
    if not isinstance(n, int) or n < 3:
        raise InvalidN("the reducibility window needs n >= 3")
    trans = generic_transitivity(pgl_projective_action(n))
    blocked = trans - 3
    return ReducibilityProfile(
        reducible_at=n - 1,
        not_reducible_at=blocked,
        notes=(
            f"order drops to {n - 1} through the logarithmic derivative",
            f"the projectivized action is generically {trans}-transitive, "
            f"blocking {blocked}-reducibility",
        ),
    )
