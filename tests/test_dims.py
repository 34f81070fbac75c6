import dataclasses
import re
import signal
import time
from contextlib import contextmanager

import pytest

from bredim.dims import (
    CITATIONS,
    Derivation,
    DimBound,
    FamilyTag,
    braid_gd,
    cell_stabilizer_bound,
    derive_zn_upper,
    eg_sandwich,
    fk_dim_virtually_abelian,
    lw_pushout_bound,
    nested_families_bound,
    out_diamonds_lower,
    out_fn_lower,
    sub_family_gd,
    subgroup_lower_bound,
    union_families_bound,
    union_families_bound_cylinder,
    virtually_abelian_gd,
    virtually_abelian_gd_degenerate,
    zk_f2_special,
)
from bredim.errors import (
    DerivationError,
    IncompatibleBoundsError,
    InputError,
    OutOfRangeError,
)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_dimbound_validation():
    with pytest.raises(InputError):
        DimBound(-1, 3)
    with pytest.raises(InputError):
        DimBound(4, 2)
    assert DimBound.at_least(2).upper is None


def test_dimbound_rendering():
    assert str(DimBound.exact(5)) == "5"
    assert str(DimBound.at_most(4)) == "<= 4"
    assert str(DimBound.at_least(3)) == ">= 3"
    assert str(DimBound(2, 6)) == "[2, 6]"
    assert str(DimBound.unknown()) == "unknown"


def test_dimbound_intersection():
    assert DimBound(1, 5).intersect(DimBound(3, None)) == DimBound(3, 5)
    assert DimBound.at_least(4).intersect(DimBound.at_most(4)) == DimBound.exact(4)
    with pytest.raises(IncompatibleBoundsError):
        DimBound.at_least(5).intersect(DimBound.at_most(4))


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def test_eg_sandwich():
    assert eg_sandwich(DimBound.exact(5)) == DimBound.exact(5)
    assert eg_sandwich(DimBound.exact(2)) == DimBound(2, 3)
    assert eg_sandwich(DimBound.exact(0)) == DimBound(0, 3)
    assert eg_sandwich(DimBound.at_least(7)) == DimBound.at_least(7)
    for value in range(3, 10):
        assert eg_sandwich(DimBound.exact(value)).is_exact


def test_lw_pushout():
    assert lw_pushout_bound(DimBound.at_most(0), []) == DimBound.at_most(1)
    assert (
        lw_pushout_bound(
            DimBound.at_most(3), [DimBound.at_most(5), DimBound.at_most(2)]
        )
        == DimBound.at_most(5)
    )


def test_union_bounds():
    a, b, ab = DimBound.at_most(2), DimBound.at_most(7), DimBound.at_most(4)
    assert union_families_bound(a, b, ab) == DimBound.at_most(7)
    assert union_families_bound_cylinder(a, b, ab) == DimBound.at_most(7)
    assert (
        union_families_bound_cylinder(a, b, DimBound.at_most(7))
        == DimBound.at_most(8)
    )
    zero = DimBound.exact(0)
    assert union_families_bound(zero, zero, zero) == DimBound.at_most(0)


def test_nested_families():
    assert nested_families_bound(DimBound.at_most(4), 3) == DimBound.at_most(7)
    assert nested_families_bound(DimBound.at_most(0), 0) == DimBound.at_most(0)
    with pytest.raises(InputError):
        nested_families_bound(DimBound.at_most(1), -1)
    with pytest.raises(InputError):
        nested_families_bound(DimBound.at_least(1), 2)


def test_cell_stabilizers():
    assert cell_stabilizer_bound([(DimBound.at_most(0), 0)]) == DimBound.at_most(0)
    assert (
        cell_stabilizer_bound([(DimBound.at_most(3), 0), (DimBound.at_most(1), 2)])
        == DimBound.at_most(3)
    )
    # the three cell classes of a coned-off tree: faces, vertices, edges
    vertex_term = DimBound.exact(4)
    edge_term = DimBound.exact(3)
    got = cell_stabilizer_bound(
        [(DimBound.exact(0), 2), (vertex_term, 0), (edge_term, 1)]
    )
    assert got == DimBound.at_most(4)
    with pytest.raises(InputError):
        cell_stabilizer_bound([])


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_virtually_abelian_values():
    assert virtually_abelian_gd(3, 1) == DimBound.exact(4)
    assert virtually_abelian_gd(2, 1) == DimBound.exact(3)
    assert virtually_abelian_gd(5, 0) == DimBound.exact(5)


def test_virtually_abelian_table():
    for n in range(1, 11):
        for k in range(n):
            assert virtually_abelian_gd(n, k) == DimBound.exact(n + k)


def test_virtually_abelian_range():
    for n, k in [(3, 3), (3, 5), (0, 0), (2, -1)]:
        with pytest.raises(OutOfRangeError):
            virtually_abelian_gd(n, k)


def test_degenerate_case_kept_apart():
    assert virtually_abelian_gd_degenerate(3, 3) == DimBound.exact(0)
    assert virtually_abelian_gd_degenerate(0, 2) == DimBound.exact(0)
    with pytest.raises(OutOfRangeError):
        virtually_abelian_gd_degenerate(3, 2)
    assert fk_dim_virtually_abelian(3, 1) == (DimBound.exact(4), False)
    assert fk_dim_virtually_abelian(3, 3) == (DimBound.exact(0), True)
    assert fk_dim_virtually_abelian(0, 0) == (DimBound.exact(0), True)


def test_zk_f2_special():
    assert zk_f2_special(3) == DimBound.exact(5)
    assert zk_f2_special(4) == DimBound.exact(6)
    for k in range(3, 11):
        assert zk_f2_special(k) == virtually_abelian_gd(k, 2)
    with pytest.raises(OutOfRangeError):
        zk_f2_special(2)


def test_subgroup_lower_bound():
    assert subgroup_lower_bound(4, 2) == DimBound.at_least(6)
    assert subgroup_lower_bound(1, 0) == DimBound.at_least(1)
    combined = subgroup_lower_bound(4, 2).intersect(virtually_abelian_gd(4, 2))
    assert combined == DimBound.exact(6)


def test_subgroup_lower_composes_with_sandwich():
    # a matching cohomological upper bound pushes the interval to a point
    geometric = eg_sandwich(DimBound.at_most(6))
    assert subgroup_lower_bound(4, 2).intersect(geometric) == DimBound.exact(6)


def test_braid_values():
    assert braid_gd(4, 1) == DimBound.exact(4)
    assert braid_gd(5, 0) == DimBound.exact(4)
    assert braid_gd(4, 1, pure=True) == braid_gd(4, 1, pure=False)
    with pytest.raises(OutOfRangeError):
        braid_gd(3, 2)
    with pytest.raises(OutOfRangeError):
        braid_gd(1, 0)


def test_out_fn_lower():
    assert out_fn_lower(3, 1) == DimBound.at_least(4)
    assert out_fn_lower(2, 0) == DimBound.at_least(1)
    assert out_fn_lower(3, 1).upper is None
    with pytest.raises(OutOfRangeError):
        out_fn_lower(2, 1)
    with pytest.raises(OutOfRangeError):
        out_fn_lower(1, 0)


def test_out_diamonds_lower():
    assert out_diamonds_lower(1, 0) == DimBound.at_least(3)
    assert out_diamonds_lower(2, 1) == DimBound.at_least(8)
    assert out_diamonds_lower(2, 1).upper is None
    with pytest.raises(OutOfRangeError):
        out_diamonds_lower(0, 0)
    with pytest.raises(OutOfRangeError):
        out_diamonds_lower(1, 3)


def test_sub_family_gd():
    assert sub_family_gd(3, 1) == DimBound.at_most(2)
    assert sub_family_gd(4, 0) == DimBound.at_most(4)
    assert sub_family_gd(5, 4) == DimBound.at_most(1)
    with pytest.raises(OutOfRangeError):
        sub_family_gd(3, 3)


def test_monotone_in_k():
    for n in range(2, 9):
        for k in range(n - 1):
            assert (
                virtually_abelian_gd(n, k + 1).lower
                == virtually_abelian_gd(n, k).lower + 1
            )
    for n in range(3, 9):
        for k in range(n - 2):
            assert braid_gd(n, k + 1).lower == braid_gd(n, k).lower + 1


# ---------------------------------------------------------------------------
# family tags
# ---------------------------------------------------------------------------


def test_family_tags():
    assert FamilyTag.fk(2).render() == "F_2"
    assert FamilyTag.fk_in(1, "H").render() == "F_1|H"
    assert FamilyTag.generated("SUB(L)").render() == "gen(SUB(L))"
    u = FamilyTag.union(FamilyTag.fk(0), FamilyTag.generated("S"))
    assert u.render() == "(F_0 u gen(S))"
    with pytest.raises(InputError):
        FamilyTag("fk", index=-1)
    with pytest.raises(InputError):
        FamilyTag("generated")
    with pytest.raises(InputError):
        FamilyTag("union", operands=(FamilyTag.fk(0),))
    with pytest.raises(InputError):
        FamilyTag("mystery")


# ---------------------------------------------------------------------------
# derivation engine
# ---------------------------------------------------------------------------


def test_derive_base_case_is_leaf():
    bound, tree = derive_zn_upper(4, 0)
    assert bound == DimBound.at_most(4)
    assert tree.is_leaf
    assert tree.depth() == 0
    tree.check()


def test_derive_step_shape():
    bound, tree = derive_zn_upper(3, 1)
    assert bound == DimBound.at_most(4)
    assert tree.depth() == 2
    assert tree.rule_id == "enlarge-family-pushout"
    rules = [node.rule_id for node in tree.iter_nodes()]
    assert "union-of-families-cylinder" in rules
    assert "nested-families" in rules
    assert "subgroup-family-model" in rules
    tree.check()


def test_derive_matches_closed_form():
    for n in range(1, 9):
        for k in range(n):
            bound, tree = derive_zn_upper(n, k)
            assert bound.upper == n + k
            assert bound.upper == virtually_abelian_gd(n, k).upper
            assert tree.is_sound()


def test_derive_out_of_range():
    with pytest.raises(OutOfRangeError):
        derive_zn_upper(3, 3)
    with pytest.raises(OutOfRangeError):
        derive_zn_upper(0, 0)


def test_every_node_carries_a_citation():
    _, tree = derive_zn_upper(5, 3)
    for node in tree.iter_nodes():
        assert node.citation
        assert node.citation == CITATIONS[node.rule_id] or node.citation


def test_tampered_tree_is_detected():
    _, tree = derive_zn_upper(3, 1)
    forged = Derivation(
        rule_id=tree.rule_id,
        subject=tree.subject,
        family=tree.family,
        bound=DimBound.at_most(3),  # claims more than the rule gives
        citation=tree.citation,
        premises=tree.premises,
        params=tree.params,
    )
    with pytest.raises(DerivationError):
        forged.check()
    assert not forged.is_sound()


def test_tampered_leaf_is_detected():
    _, tree = derive_zn_upper(2, 1)
    bad_leaf = Derivation(
        rule_id="aspherical-base",
        subject="Z^2",
        family=FamilyTag.fk_in(0, "H"),
        bound=DimBound.at_most(1),
        citation=CITATIONS["aspherical-base"],
        params=(("n", 2),),
    )
    assert not bad_leaf.is_sound()
    with pytest.raises(DerivationError):
        bad_leaf.check()


def test_unknown_rule_is_detected():
    node = Derivation(
        rule_id="made-up",
        subject="X",
        family=FamilyTag.fk(0),
        bound=DimBound.at_most(1),
        citation="none",
    )
    with pytest.raises(DerivationError):
        node.check()


def test_render_records_are_flat_and_complete():
    _, tree = derive_zn_upper(3, 2)
    records = tree.render_records()
    assert len(records) == sum(1 for _ in tree.iter_nodes())
    assert records[0].startswith("node=0 parent=-")
    text = tree.render_text()
    assert text.count("\n") + 1 == len(records)


def _unfolded(node):
    """Reference walk of the unfolded tree: (preorder rule ids, node count, depth)."""
    rules = [node.rule_id]
    count, depth = 1, 0
    for p in node.premises:
        p_rules, p_count, p_depth = _unfolded(p)
        rules += p_rules
        count += p_count
        if p.premises:
            depth = max(depth, 1 + p_depth)
    return rules, count, depth


@pytest.mark.parametrize("n,k", [(1, 0), (3, 1), (5, 3), (9, 7)])
def test_walks_of_the_shared_derivation_match_the_unfolded_tree(n, k):
    _, tree = derive_zn_upper(n, k)
    rules, count, depth = _unfolded(tree)
    assert [node.rule_id for node in tree.iter_nodes()] == rules
    assert tree.node_count() == count == 7 * 2**k - 6
    assert tree.depth() == depth == 2 * k
    assert len(tree.render_records()) == count
    assert tree.render_text().count("\n") + 1 == count


def _substitute(node, forgeries, memo):
    """``node`` with each ``forgeries[id(old)]`` in place of ``old``, premises kept shared."""
    if id(node) in forgeries:
        return forgeries[id(node)]
    if id(node) not in memo:
        premises = tuple(_substitute(p, forgeries, memo) for p in node.premises)
        memo[id(node)] = dataclasses.replace(node, premises=premises)
    return memo[id(node)]


def test_forged_node_inside_a_shared_premise_is_detected():
    # The base leaf claims too little, yet every parent still recomputes to
    # its stored bound, so the only mismatch sits at the bottom of a premise
    # that each replay step shares between two parents.  A second forgery,
    # in the last step's fiber, comes later in preorder and must not be the
    # one reported.
    _, tree = derive_zn_upper(6, 3)
    nodes = list(tree.iter_nodes())
    base = next(node for node in nodes if node.rule_id == "aspherical-base")
    fiber = [node for node in nodes if node.rule_id == "virtually-abelian-upper"][-1]
    forged_base = dataclasses.replace(base, bound=DimBound.at_most(5))
    forged_fiber = dataclasses.replace(fiber, bound=DimBound.at_most(0))
    forged = _substitute(tree, {id(base): forged_base, id(fiber): forged_fiber}, {})
    assert sum(node is forged_base for node in forged.iter_nodes()) == 8
    message = "rule aspherical-base would conclude <= 6, node stores <= 5"
    with pytest.raises(DerivationError, match=re.escape(message)):
        forged.check()
    assert not forged.is_sound()


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time have passed.

    A walk of the unfolded tree of a k = 40 replay would not finish; the
    alarm turns that hang into a failure.
    """

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_equal_replays_compare_and_hash_equal_per_distinct_node():
    # 7 * 2^40 - 6 unfolded nodes stand for 201 distinct ones.
    start = time.perf_counter()
    with _deadline(10):
        _, first = derive_zn_upper(41, 40)
        _, second = derive_zn_upper(41, 40)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert second in {first}
    assert time.perf_counter() - start < 1


def test_replay_forged_in_one_deep_leaf_compares_unequal():
    # The forgery sits under the root's second premise only, so a walk that
    # compares the (equal) first premise before it would unfold 2^40 nodes.
    start = time.perf_counter()
    with _deadline(10):
        _, tree = derive_zn_upper(41, 40)
        previous, union = tree.premises
        base = next(node for node in union.premises[1].iter_nodes() if node.is_leaf)
        assert base.rule_id == "aspherical-base"
        forged_base = dataclasses.replace(base, params=(("n", 40),))
        forged_previous = _substitute(union.premises[1], {id(base): forged_base}, {})
        sub_leaf, _, nested = union.premises
        forged = dataclasses.replace(
            tree,
            premises=(previous, dataclasses.replace(union, premises=(sub_leaf, forged_previous, nested))),
        )
        assert forged.node_count() == tree.node_count()
        assert forged != tree
        assert tree != forged
        assert len({tree, forged}) == 2
        assert forged == _substitute(forged, {}, {})
    assert time.perf_counter() - start < 1


def _node(rule_id, bound=DimBound.at_most(1), premises=(), params=()):
    return Derivation(
        rule_id=rule_id,
        subject="X",
        family=FamilyTag.fk(0),
        bound=bound,
        citation=CITATIONS[rule_id],
        premises=premises,
        params=params,
    )


def _leaf(upper):
    return _node("aspherical-base", DimBound.at_most(upper), params=(("n", upper),))


@pytest.mark.parametrize(
    "node",
    [
        _node(
            "nested-families",
            premises=(_leaf(1), _node("virtually-abelian-upper", DimBound.unknown())),
        ),
        _node("cell-stabilizers", premises=(_leaf(1),)),
        _node("aspherical-base"),
    ],
    ids=["nested-unknown-premise", "cells-missing-dim0", "base-missing-n"],
)
def test_malformed_node_is_unsound_not_a_crash(node):
    with pytest.raises(DerivationError):
        node.recheck_bound()
    assert not node.is_sound()


@pytest.mark.parametrize(
    "rule_id,count",
    [
        ("enlarge-family-pushout", 0),
        ("union-of-families", 2),
        ("union-of-families", 4),
        ("union-of-families-cylinder", 2),
        ("nested-families", 1),
        ("nested-families", 3),
        ("cell-stabilizers", 0),
        ("eilenberg-ganea", 0),
        ("eilenberg-ganea", 2),
    ],
)
def test_wrong_premise_count_is_a_derivation_error(rule_id, count):
    premises = tuple(_leaf(1) for _ in range(count))
    node = _node(rule_id, premises=premises, params=(("dim0", 0),))
    with pytest.raises(DerivationError):
        node.recheck_bound()
    assert not node.is_sound()
