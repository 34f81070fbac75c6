"""Dimension bounds for families of virtually abelian subgroups.

Throughout, ``F_k`` denotes the family of subgroups that are virtually free
abelian of rank at most k, and "dimension" means the least dimension of a
classifying space whose isotropy lies in the family (with the Bredon
cohomological counterpart agreeing wherever the implemented formulas apply).

The module has three layers:

* :class:`DimBound` - intervals ``[lower, upper]`` with ``upper`` possibly
  infinite.  Formulas of this toolkit come in three strengths (exact values,
  upper bounds, lower bounds), and intervals make their composition total.
  Intersecting incompatible intervals is a hard error: it means a rule was
  applied to the wrong subject.
* closed forms - exact values for virtually free abelian groups, braid
  groups, the special rank/2 family case, and lower bounds for outer
  automorphism groups; each refuses inputs outside its established range.
* combinators and the derivation engine - inequality rules that propagate
  upper bounds, and :func:`derive_zn_upper`, which replays the inductive
  upper-bound argument for free abelian groups as an auditable tree whose
  every node names its rule, can be rechecked, and carries a citation
  string.  Rechecking a node calls the same combinator that built it on the
  node's premises, so each inequality is written once; the combinator
  values themselves are pinned by fixed examples in the verify suite.

Rule identifiers are stable strings (see ``RULES``); two distinct union
rules exist on purpose.  When the gluing map of the two family pieces can be
taken to be an inclusion, the union bound is the plain maximum of the three
terms.  In general the gluing goes through a mapping cylinder, which adds
one to the intersection term; the inductive replay uses that variant, as
the argument it follows does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import (
    DerivationError,
    IncompatibleBoundsError,
    InputError,
    OutOfRangeError,
)

__all__ = [
    "DimBound",
    "FamilyTag",
    "Derivation",
    "RULES",
    "CITATIONS",
    "eg_sandwich",
    "lw_pushout_bound",
    "union_families_bound",
    "union_families_bound_cylinder",
    "nested_families_bound",
    "cell_stabilizer_bound",
    "virtually_abelian_gd",
    "virtually_abelian_gd_degenerate",
    "fk_dim_virtually_abelian",
    "zk_f2_special",
    "subgroup_lower_bound",
    "braid_gd",
    "out_fn_lower",
    "out_diamonds_lower",
    "sub_family_gd",
    "derive_zn_upper",
]


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimBound:
    """An interval of possible values for a dimension quantity.

    ``lower`` is 0 when nothing better is known; ``upper`` is None for
    "no upper bound known".
    """

    lower: int = 0
    upper: int | None = None

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise InputError("dimension bounds are nonnegative")
        if self.upper is not None and self.upper < self.lower:
            raise InputError(f"empty interval [{self.lower}, {self.upper}]")

    @classmethod
    def exact(cls, value: int) -> "DimBound":
        return cls(value, value)

    @classmethod
    def at_most(cls, upper: int) -> "DimBound":
        return cls(0, upper)

    @classmethod
    def at_least(cls, lower: int) -> "DimBound":
        return cls(lower, None)

    @classmethod
    def unknown(cls) -> "DimBound":
        return cls(0, None)

    @property
    def is_exact(self) -> bool:
        return self.upper == self.lower

    def intersect(self, other: "DimBound") -> "DimBound":
        lower = max(self.lower, other.lower)
        uppers = [u for u in (self.upper, other.upper) if u is not None]
        upper = min(uppers) if uppers else None
        if upper is not None and lower > upper:
            raise IncompatibleBoundsError(
                f"bounds {self} and {other} exclude each other"
            )
        return DimBound(lower, upper)

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lower)
        if self.upper is None:
            return f">= {self.lower}" if self.lower else "unknown"
        if self.lower == 0:
            return f"<= {self.upper}"
        return f"[{self.lower}, {self.upper}]"


def _upper_or_raise(b: DimBound, what: str) -> int:
    if b.upper is None:
        raise InputError(f"{what} needs a finite upper bound, got {b}")
    return b.upper


# ---------------------------------------------------------------------------
# Symbolic family tags for derivation conclusions.
# ---------------------------------------------------------------------------

_FAMILY_KINDS = ("fk", "fk-restricted", "generated", "union", "intersection")


@dataclass(frozen=True)
class FamilyTag:
    """Symbolic name of a family of subgroups.

    Kinds: ``fk`` (rank at most ``index``), ``fk-restricted`` (the members of
    ``F_index`` lying in a subgroup named by ``subject``), ``generated`` (the
    family generated by a named collection, e.g. the subgroups of a fixed
    summand), and ``union`` / ``intersection`` of two operand tags.
    """

    kind: str
    index: int | None = None
    subject: str | None = None
    operands: tuple["FamilyTag", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise InputError(f"unknown family kind {self.kind!r}")
        if self.kind in ("fk", "fk-restricted"):
            if self.index is None or self.index < 0:
                raise InputError("family index must be a nonnegative integer")
        if self.kind == "fk-restricted" and not self.subject:
            raise InputError("restricted family needs a subject")
        if self.kind == "generated" and not self.subject:
            raise InputError("generated family needs a subject")
        if self.kind in ("union", "intersection") and len(self.operands) != 2:
            raise InputError(f"{self.kind} takes exactly two operands")

    @classmethod
    def fk(cls, k: int) -> "FamilyTag":
        return cls("fk", index=k)

    @classmethod
    def fk_in(cls, k: int, subject: str) -> "FamilyTag":
        return cls("fk-restricted", index=k, subject=subject)

    @classmethod
    def generated(cls, subject: str) -> "FamilyTag":
        return cls("generated", subject=subject)

    @classmethod
    def union(cls, a: "FamilyTag", b: "FamilyTag") -> "FamilyTag":
        return cls("union", operands=(a, b))

    @classmethod
    def intersection(cls, a: "FamilyTag", b: "FamilyTag") -> "FamilyTag":
        return cls("intersection", operands=(a, b))

    def render(self) -> str:
        if self.kind == "fk":
            return f"F_{self.index}"
        if self.kind == "fk-restricted":
            return f"F_{self.index}|{self.subject}"
        if self.kind == "generated":
            return f"gen({self.subject})"
        a, b = (op.render() for op in self.operands)
        symbol = "u" if self.kind == "union" else "n"
        return f"({a} {symbol} {b})"


# ---------------------------------------------------------------------------
# Citations: self-contained statements of the facts each rule or formula
# rests on.  Every reported formula value carries at least one of these.
# ---------------------------------------------------------------------------

CITATIONS: dict[str, str] = {
    "eilenberg-ganea": (
        "the geometric dimension for a family sits between the Bredon "
        "cohomological dimension cd and max(cd, 3); in particular cd >= 3 "
        "forces equality"
    ),
    "enlarge-family-pushout": (
        "a classifying space for the larger of two nested families is "
        "assembled from one for the smaller family together with one piece "
        "per commensurability class; its dimension is at most "
        "max(smaller-family dimension + 1, class piece dimensions)"
    ),
    "union-of-families": (
        "a classifying space for the union of two families glues models for "
        "the two families along one for their intersection; when the gluing "
        "maps are inclusions the dimension is at most the maximum of the "
        "three"
    ),
    "union-of-families-cylinder": (
        "gluing the two family pieces through a mapping cylinder of the "
        "intersection model bounds the union dimension by "
        "max(piece dimensions, intersection dimension + 1)"
    ),
    "nested-families": (
        "for nested families F inside G: if every member of G has "
        "F-restricted dimension at most d, then dim_F <= dim_G + d"
    ),
    "cell-stabilizers": (
        "acting on a classifying space for a larger family, the dimension "
        "for the smaller family is at most the maximum over cells of "
        "(stabilizer dimension + cell dimension)"
    ),
    "aspherical-base": (
        "free abelian of rank n acts freely and cocompactly on R^n, so the "
        "finite-subgroup-family dimension is exactly n"
    ),
    "subgroup-family-model": (
        "for the family of all subgroups of a rank-t direct summand L of "
        "Z^n, the quotient action of Z^n/L on R^(n-t) is a model, so the "
        "dimension is at most n-t"
    ),
    "virtually-abelian-upper": (
        "a virtually free abelian group of rank m has F_j-dimension at most "
        "m + j for 0 <= j < m"
    ),
    "virtually-abelian-exact": (
        "a virtually free abelian group of rank n has F_k geometric and "
        "cohomological dimension exactly n + k for 0 <= k < n"
    ),
    "virtually-abelian-degenerate": (
        "for k at least the rank, the group itself belongs to F_k, so a "
        "point is a model and the dimension is 0 (outside the exact-formula "
        "range; reported separately)"
    ),
    "rank-two-family-special": (
        "free abelian of rank k has F_2-dimension k + 2 for every k >= 3"
    ),
    "subgroup-lower": (
        "a group with a virtually free abelian subgroup of rank n has "
        "F_k-dimension at least n + k for 0 <= k < n"
    ),
    "braid-exact": (
        "the braid group on n strands and its pure subgroup have "
        "F_k-dimension exactly n + k - 1 for 0 <= k < n - 1"
    ),
    "braid-vcd": "the braid group on n strands has virtual cohomological dimension n - 1",
    "out-free-lower": (
        "the outer automorphism group of a free group of rank n (n >= 2) has "
        "vcd 2n - 3 and a free abelian subgroup of that rank, so its "
        "F_k-dimension is at least 2n + k - 3 for 0 <= k < 2n - 3"
    ),
    "out-diamond-lower": (
        "the outer automorphism group of the diamond-string group on d "
        "diamonds has vcd 4d - 1 and a free abelian subgroup of that rank, "
        "so its F_k-dimension is at least 4d + k - 1 for 0 <= k < 4d - 1"
    ),
    "embedded-torus": (
        "the cube complex of the graph contains an embedded torus of "
        "dimension equal to the clique number, giving a free abelian "
        "subgroup of that rank"
    ),
    "gog-exact": (
        "for an acylindrical finite graph of infinite finitely generated "
        "virtually abelian groups with every edge rank strictly below its "
        "endpoint ranks, the F_k-dimension of the fundamental group is "
        "m + k for 1 <= k < m, where m is the largest vertex rank"
    ),
    "gog-bounds": (
        "coning off the periodic geodesics of the Bass-Serre tree of an "
        "acylindrical splitting yields a 2-dimensional space whose cell "
        "stabilizers are vertex groups, edge groups, and virtually cyclic "
        "groups; the cell-stabilizer rule then bounds the F_k-dimension "
        "(k >= 1) by max(2, vertex terms, edge terms + 1), while the vertex "
        "and edge subgroups bound it from below"
    ),
}


# ---------------------------------------------------------------------------
# Derivations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Derivation:
    """One node of an auditable bound derivation.

    The conclusion is the triple (subject, family, bound); ``params`` holds
    the integers a leaf formula needs to recheck itself.  ``recheck`` of an
    inner node recomputes the bound from the premises via the rule table.

    Equality and hashing are structural (two separately built equal trees
    are equal), but visit each distinct node once, like every other walk.
    """

    rule_id: str
    subject: str
    family: FamilyTag
    bound: DimBound
    citation: str
    premises: tuple["Derivation", ...] = ()
    params: tuple[tuple[str, int], ...] = ()

    def _label(self) -> tuple:
        """Every field but the premises."""
        return (self.rule_id, self.subject, self.family, self.bound, self.citation, self.params)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        # Each pair of nodes is compared once: a pair met again is either
        # still pending or already compared equal, since a mismatch returns.
        seen: set[tuple[int, int]] = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if len(a.premises) != len(b.premises) or a._label() != b._label():
                return False
            stack.extend(zip(a.premises, b.premises))
        return True

    def __hash__(self) -> int:
        # Memoised per node (the instance is frozen, so set through object).
        if "_hash" not in self.__dict__:
            for node in self._distinct_postorder():
                if "_hash" not in node.__dict__:
                    premises = tuple(p.__dict__["_hash"] for p in node.premises)
                    object.__setattr__(node, "_hash", hash((node._label(), premises)))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        # String hashes differ between processes, so the memo is not pickled.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def is_leaf(self) -> bool:
        return not self.premises

    def depth(self) -> int:
        """Longest chain of rule applications below this node.

        Leaves sit at depth 0 relative to their parent: a pure axiom node
        has depth 0, and each nested rule application adds one.
        """
        depth: dict[int, int] = {}
        for node in self._distinct_postorder():
            depth[id(node)] = max(
                (1 + depth[id(p)] for p in node.premises if not p.is_leaf), default=0
            )
        return depth[id(self)]

    def node_count(self) -> int:
        """Number of nodes of the unfolded tree: a shared premise counts once per use."""
        count: dict[int, int] = {}
        for node in self._distinct_postorder():
            count[id(node)] = 1 + sum(count[id(p)] for p in node.premises)
        return count[id(self)]

    def _distinct_postorder(self) -> list["Derivation"]:
        """Each distinct node below and including this one, after its premises.

        Premises are shared (each replay step's previous node is a premise of
        two parents), so the unfolded tree is exponentially larger than the
        set of distinct nodes; nodes are told apart by identity.
        """
        order: list[Derivation] = []
        seen: set[int] = set()
        stack: list[tuple[Derivation, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node.premises)
        return order

    def iter_nodes(self) -> Iterator["Derivation"]:
        """Every node of the unfolded tree, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.premises))

    def recheck_bound(self) -> DimBound:
        """Recompute this node's bound; a malformed node raises DerivationError."""
        recompute = RULES.get(self.rule_id)
        if recompute is None:
            raise DerivationError(f"unknown rule {self.rule_id!r}")
        try:
            return recompute(self)
        except KeyError as exc:
            raise DerivationError(f"rule {self.rule_id}: missing param {exc}") from exc
        except (InputError, OutOfRangeError) as exc:
            raise DerivationError(f"rule {self.rule_id}: {exc}") from exc

    def check(self) -> None:
        """Recompute every node from its premises; raise on any mismatch.

        Nodes are visited in preorder and each distinct node once: a node
        met again concludes the same thing as before, and its premises
        passed when it was first met, so the first error is the one a walk
        of the unfolded tree would raise.
        """
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            expected = node.recheck_bound()
            if expected != node.bound:
                raise DerivationError(
                    f"rule {node.rule_id} would conclude {expected}, node stores {node.bound}"
                )
            stack.extend(reversed(node.premises))

    def is_sound(self) -> bool:
        try:
            self.check()
        except DerivationError:
            return False
        return True

    def render_text(self, indent: int = 0) -> str:
        """The unfolded tree, one line per node, two more spaces per level.

        A shared premise is rendered once; each occurrence only adds its
        indent.
        """
        bodies: dict[int, str] = {}
        lines = []
        stack = [(self, indent)]
        while stack:
            node, level = stack.pop()
            body = bodies.get(id(node))
            if body is None:
                body = bodies[id(node)] = (
                    f"{node.subject} : dim_{node.family.render()} {node.bound}"
                    f"  [{node.rule_id}]"
                )
            lines.append("  " * level + body)
            for p in reversed(node.premises):
                stack.append((p, level + 1))
        return "\n".join(lines)

    def render_records(self) -> list[str]:
        """Flat machine-readable encoding: one line per node, preorder ids.

        A shared premise is rendered once; each occurrence only adds its
        node id and parent id.
        """
        bodies: dict[int, str] = {}
        records: list[str] = []
        stack: list[tuple[Derivation, int | str]] = [(self, "-")]
        while stack:
            node, parent = stack.pop()
            body = bodies.get(id(node))
            if body is None:
                body = bodies[id(node)] = (
                    f"rule={node.rule_id} family={node.family.render()} "
                    f"bound={node.bound} subject={node.subject}"
                )
            node_id = len(records)
            records.append(f"node={node_id} parent={parent} {body}")
            for p in reversed(node.premises):
                stack.append((p, node_id))
        return records


def _premise_bounds(node: Derivation, count: int | None, shape: str) -> list[DimBound]:
    """The premise bounds; there must be ``count`` of them (None: at least one)."""
    found = len(node.premises)
    if found == 0 or count not in (None, found):
        raise DerivationError(f"{node.rule_id} rule takes premises {shape}, got {found}")
    return [p.bound for p in node.premises]


def _recheck_pushout(node: Derivation) -> DimBound:
    base, *classes = _premise_bounds(node, None, "(smaller family, class pieces...)")
    return lw_pushout_bound(base, classes)


def _recheck_union(node: Derivation) -> DimBound:
    return union_families_bound(*_premise_bounds(node, 3, "(a, b, a-and-b)"))


def _recheck_union_cylinder(node: Derivation) -> DimBound:
    return union_families_bound_cylinder(*_premise_bounds(node, 3, "(a, b, a-and-b)"))


def _recheck_nested(node: Derivation) -> DimBound:
    g, fiber = _premise_bounds(node, 2, "(ambient family, fiber)")
    return nested_families_bound(g, _upper_or_raise(fiber, "nested fiber"))


def _recheck_cells(node: Derivation) -> DimBound:
    stabilizers = _premise_bounds(node, None, "(one per cell)")
    return cell_stabilizer_bound(
        [(b, node.param(f"dim{i}")) for i, b in enumerate(stabilizers)]
    )


def _recheck_eg(node: Derivation) -> DimBound:
    return eg_sandwich(*_premise_bounds(node, 1, "(the cohomological bound)"))


def _recheck_base(node: Derivation) -> DimBound:
    return DimBound.at_most(node.param("n"))


def _recheck_sub_family(node: Derivation) -> DimBound:
    return sub_family_gd(node.param("n"), node.param("t"))


def _recheck_va_upper(node: Derivation) -> DimBound:
    return DimBound.at_most(node.param("rank") + node.param("k"))


RULES: dict[str, Callable[[Derivation], DimBound]] = {
    "enlarge-family-pushout": _recheck_pushout,
    "union-of-families": _recheck_union,
    "union-of-families-cylinder": _recheck_union_cylinder,
    "nested-families": _recheck_nested,
    "cell-stabilizers": _recheck_cells,
    "eilenberg-ganea": _recheck_eg,
    "aspherical-base": _recheck_base,
    "subgroup-family-model": _recheck_sub_family,
    "virtually-abelian-upper": _recheck_va_upper,
}


# ---------------------------------------------------------------------------
# Combinators (upper-bound propagation, no derivation recording).
# ---------------------------------------------------------------------------


def eg_sandwich(cd: DimBound) -> DimBound:
    """Geometric-dimension interval from a cohomological one.

    Output is ``[cd.lower, max(cd.upper, 3)]``; exact inputs with value at
    least 3 stay exact.
    """
    return DimBound(cd.lower, None if cd.upper is None else max(cd.upper, 3))


def lw_pushout_bound(base_prev: DimBound, class_bounds: Sequence[DimBound]) -> DimBound:
    """Upper bound for the next family up the chain.

    ``max(base + 1, class bounds)``; with no classes the bound is base + 1.
    """
    upper = _upper_or_raise(base_prev, "pushout base") + 1
    for b in class_bounds:
        upper = max(upper, _upper_or_raise(b, "pushout class piece"))
    return DimBound.at_most(upper)


def union_families_bound(a: DimBound, b: DimBound, a_and_b: DimBound) -> DimBound:
    """Union bound when the gluing maps are inclusions: max of the three."""
    return DimBound.at_most(
        max(
            _upper_or_raise(a, "union term"),
            _upper_or_raise(b, "union term"),
            _upper_or_raise(a_and_b, "union intersection term"),
        )
    )


def union_families_bound_cylinder(a: DimBound, b: DimBound, a_and_b: DimBound) -> DimBound:
    """Union bound through a mapping cylinder: the intersection term gains 1."""
    return DimBound.at_most(
        max(
            _upper_or_raise(a, "union term"),
            _upper_or_raise(b, "union term"),
            _upper_or_raise(a_and_b, "union intersection term") + 1,
        )
    )


def nested_families_bound(g: DimBound, fiber_dim: int) -> DimBound:
    """For nested families, add the uniform restricted-dimension bound."""
    if fiber_dim < 0:
        raise InputError("fiber dimension bound must be nonnegative")
    return DimBound.at_most(_upper_or_raise(g, "nested ambient") + fiber_dim)


def cell_stabilizer_bound(cells: Sequence[tuple[DimBound, int]]) -> DimBound:
    """Max over cells of stabilizer bound plus cell dimension."""
    if not cells:
        raise InputError("cell-stabilizer bound needs at least one cell")
    upper = 0
    for stab, dim in cells:
        if dim < 0:
            raise InputError("cell dimensions are nonnegative")
        upper = max(upper, _upper_or_raise(stab, "cell stabilizer") + dim)
    return DimBound.at_most(upper)


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------


def virtually_abelian_gd(n: int, k: int) -> DimBound:
    """Exact dimension n + k for a virtually rank-n free abelian group.

    Established for 0 <= k < n; anything else is refused.  For k >= n see
    :func:`virtually_abelian_gd_degenerate`.
    """
    if n < 1 or k < 0 or k >= n:
        raise OutOfRangeError(
            f"the exact formula covers 0 <= k < n with n >= 1; got n={n}, k={k}"
        )
    return DimBound.exact(n + k)


def virtually_abelian_gd_degenerate(n: int, k: int) -> DimBound:
    """The degenerate value 0 for k >= rank (the group lies in its own family).

    Kept separate from :func:`virtually_abelian_gd` so the closed formula is
    never silently extended past its range.
    """
    if n < 0 or k < 0 or k < n:
        raise OutOfRangeError(
            f"the degenerate case needs k >= n >= 0; got n={n}, k={k}"
        )
    return DimBound.exact(0)


def fk_dim_virtually_abelian(rank: int, k: int) -> tuple[DimBound, bool]:
    """Total helper: the F_k-dimension of a virtually rank-``rank`` group.

    Returns ``(bound, degenerate)`` where ``degenerate`` marks the k >= rank
    case that falls outside the exact formula.
    """
    if rank < 0 or k < 0:
        raise OutOfRangeError(f"rank and k must be nonnegative; got {rank}, {k}")
    if k < rank:
        return virtually_abelian_gd(rank, k), False
    return virtually_abelian_gd_degenerate(rank, k), True


def zk_f2_special(k: int) -> DimBound:
    """Exact F_2-dimension k + 2 of free abelian rank k, for k >= 3."""
    if k < 3:
        raise OutOfRangeError(f"the rank-two family special case needs k >= 3; got {k}")
    return DimBound.exact(k + 2)


def subgroup_lower_bound(n: int, k: int) -> DimBound:
    """Lower bound n + k from a virtually rank-n free abelian subgroup."""
    if n < 1 or k < 0 or k >= n:
        raise OutOfRangeError(
            f"the lower bound covers 0 <= k < n with n >= 1; got n={n}, k={k}"
        )
    return DimBound.at_least(n + k)


def braid_gd(n: int, k: int, pure: bool = False) -> DimBound:
    """Exact dimension n + k - 1 for the braid group on n strands.

    Holds for the full and the pure group alike, for 0 <= k < n - 1.  The
    value is vcd + k; the vcd equals n - 1.
    """
    if n < 2 or k < 0 or k >= n - 1:
        raise OutOfRangeError(
            f"the braid formula covers n >= 2 and 0 <= k < n - 1; got n={n}, k={k}"
        )
    del pure  # same value for the full and pure groups
    return DimBound.exact(n + k - 1)


def out_fn_lower(n: int, k: int) -> DimBound:
    """Lower bound 2n + k - 3 for outer automorphisms of a rank-n free group."""
    if n < 2 or k < 0 or k >= 2 * n - 3:
        raise OutOfRangeError(
            f"the bound covers n >= 2 and 0 <= k < 2n - 3; got n={n}, k={k}"
        )
    return DimBound.at_least(2 * n + k - 3)


def out_diamonds_lower(d: int, k: int) -> DimBound:
    """Lower bound 4d + k - 1 for outer automorphisms of the d-diamond group.

    The diamond-string graph itself is not constructed here; d enters only
    through this closed form.
    """
    if d < 1 or k < 0 or k >= 4 * d - 1:
        raise OutOfRangeError(
            f"the bound covers d >= 1 and 0 <= k < 4d - 1; got d={d}, k={k}"
        )
    return DimBound.at_least(4 * d + k - 1)


def sub_family_gd(n: int, t: int) -> DimBound:
    """Upper bound n - t for the family of subgroups of a rank-t summand of Z^n."""
    if t < 0 or n < 0 or t >= n:
        raise OutOfRangeError(
            f"the subgroup-family bound covers 0 <= t < n; got n={n}, t={t}"
        )
    return DimBound.at_most(n - t)


# ---------------------------------------------------------------------------
# The inductive replay.
# ---------------------------------------------------------------------------


def _base_leaf(n: int) -> Derivation:
    return Derivation(
        rule_id="aspherical-base",
        subject=f"Z^{n}",
        family=FamilyTag.fk_in(0, "H"),
        bound=DimBound.at_most(n),
        citation=CITATIONS["aspherical-base"],
        params=(("n", n),),
    )


def derive_zn_upper(n: int, k: int) -> tuple[DimBound, Derivation]:
    """Upper bound n + k for Z^n relative to F_k, with its derivation tree.

    Replays the induction on k.  The base case is the contractible free
    model of dimension n.  Each step from j-1 to j enlarges the family and
    splits every new commensurability class as a union: the class piece is
    the family of subgroups of a saturated rank-j representative (dimension
    at most n - j), the intersection piece is handled by the nested-family
    rule with restricted dimension 2j - 1, the union goes through a mapping
    cylinder, and the pushout rule combines everything with the previous
    step.  Every node can be rechecked independently via ``check``.
    """
    if n < 1 or k < 0 or k >= n:
        raise OutOfRangeError(
            f"the replay covers 0 <= k < n with n >= 1; got n={n}, k={k}"
        )
    subject = f"Z^{n}"
    node = _base_leaf(n)
    for j in range(1, k + 1):
        previous = node
        sub_leaf = Derivation(
            rule_id="subgroup-family-model",
            subject=subject,
            family=FamilyTag.generated(f"SUB(L_{j})"),
            bound=sub_family_gd(n, j),
            citation=CITATIONS["subgroup-family-model"],
            params=(("n", n), ("t", j)),
        )
        fiber_leaf = Derivation(
            rule_id="virtually-abelian-upper",
            subject=f"members K of gen(SUB(L_{j}))",
            family=FamilyTag.fk_in(j - 1, "K"),
            bound=DimBound.at_most(2 * j - 1),
            citation=CITATIONS["virtually-abelian-upper"],
            params=(("rank", j), ("k", j - 1)),
        )
        nested = Derivation(
            rule_id="nested-families",
            subject=subject,
            family=FamilyTag.intersection(sub_leaf.family, previous.family),
            bound=nested_families_bound(sub_leaf.bound, 2 * j - 1),
            citation=CITATIONS["nested-families"],
            premises=(sub_leaf, fiber_leaf),
        )
        union = Derivation(
            rule_id="union-of-families-cylinder",
            subject=subject,
            family=FamilyTag.union(sub_leaf.family, previous.family),
            bound=union_families_bound_cylinder(sub_leaf.bound, previous.bound, nested.bound),
            citation=CITATIONS["union-of-families-cylinder"],
            premises=(sub_leaf, previous, nested),
        )
        node = Derivation(
            rule_id="enlarge-family-pushout",
            subject=subject,
            family=FamilyTag.fk_in(j, "H"),
            bound=lw_pushout_bound(previous.bound, [union.bound]),
            citation=CITATIONS["enlarge-family-pushout"],
            premises=(previous, union),
        )
    return node.bound, node
