"""Taxonomy parsing, validation, and the tree arrays."""
from __future__ import annotations

import re
from importlib import resources

import numpy as np
import pytest

from hierknn import TaxonomyError, load_taxonomy

MINIMAL = """
[level1]
Root
[level2]
mid -> Root
[level3]
leafA -> mid
leafB -> mid
"""


def random_tax_text(rng: np.random.Generator) -> str:
    """A random well-formed three-level config with unique names."""
    n1 = int(rng.integers(1, 4))
    lines = ["[level1]"] + [f"lin{i}" for i in range(n1)]
    lines.append("[level2]")
    groups = []
    for i in range(n1):
        for j in range(int(rng.integers(1, 4))):
            groups.append((f"g{i}_{j}", f"lin{i}"))
    lines.extend(f"{g} -> {p}" for g, p in groups)
    lines.append("[level3]")
    for g, _ in groups:
        for j in range(int(rng.integers(1, 4))):
            lines.append(f"{g}x{j} -> {g}")
    return "\n".join(lines)


def declared_parents(text: str) -> dict[str, str]:
    """Child name -> parent name, read straight from the config's ``child -> parent`` lines."""
    out = {}
    for raw in text.splitlines():
        child, arrow, parent = raw.split("#", 1)[0].partition("->")
        if arrow:
            out[child.strip()] = parent.strip()
    return out


def check_arrays_follow_text(t, text: str) -> None:
    """``parents(level)`` and every ``paths`` row name the parents the text declares."""
    parent_name = declared_parents(text)
    assert len(parent_name) == t.node_count(2) + t.node_count(3)
    for level in (2, 3):
        got = [t.name_of(level - 1, p) for p in t.parents(level).tolist()]
        assert got == [parent_name[name] for name in t.names(level)], level
    lineage_group_leaf = [
        [parent_name[parent_name[leaf]], parent_name[leaf], leaf] for leaf in t.names(3)
    ]
    assert t.paths.shape == (t.leaf_count, 3)
    assert [
        [t.name_of(level, i) for level, i in zip((1, 2, 3), row)] for row in t.paths.tolist()
    ] == lineage_group_leaf


class TestDefaultTree:
    def test_level_sizes(self, tax):
        """The shipped config declares 3 lineages, 6 groups, 13 leaves."""
        assert tax.node_count(1) == 3
        assert tax.node_count(2) == 6
        assert tax.leaf_count == 13

    def test_level1_names(self, tax):
        assert set(tax.names(1)) == {"Myeloid", "Lymphoid", "Blast"}

    def test_blast_group_has_single_leaf(self, tax):
        """The Blast lineage funnels through one group to one leaf."""
        blast = tax.index_of(1, "Blast")
        (group,) = np.flatnonzero(tax.parents(2) == blast)
        kids = np.flatnonzero(tax.parents(3) == group)
        assert [tax.name_of(3, c) for c in kids] == ["BL"]

    def test_known_ancestors(self, tax):
        assert tax.name_of(1, tax.paths[tax.index_of(3, "SNE"), 0]) == "Myeloid"
        assert tax.name_of(1, tax.paths[tax.index_of(3, "LY"), 0]) == "Lymphoid"

    def test_ancestor_at_leaf_level_is_identity(self, tax):
        assert tax.paths[:, 2].tolist() == list(range(tax.leaf_count))

    def test_children_partition_each_level(self, tax):
        """Child sets are disjoint and jointly cover the lower level."""
        for level in (2, 3):
            seen = []
            for parent in range(tax.node_count(level - 1)):
                seen.extend(np.flatnonzero(tax.parents(level) == parent).tolist())
            assert sorted(seen) == list(range(tax.node_count(level)))

    def test_paths_are_parent_consistent(self, tax):
        """The arrays hold the parent edges the packaged config declares."""
        text = resources.files("hierknn.data").joinpath("default_taxonomy.txt").read_text("utf-8")
        check_arrays_follow_text(tax, text)

    def test_tree_arrays_are_read_only(self, tax):
        """The shared tree arrays cannot be edited through any caller."""
        for arr in (tax.paths, tax.sizes, tax.parents(2), tax.parents(3)):
            assert isinstance(arr, np.ndarray)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_edges_are_cumulative_sizes_and_read_only(self, tax):
        """Level l owns columns edges[l - 1]:edges[l] of one table over every node."""
        assert tax.edges.tolist() == [0, 3, 9, 22]
        with pytest.raises(ValueError, match="read-only"):
            tax.edges[3] = 0

    def test_index_name_round_trip(self, tax):
        for level in (1, 2, 3):
            for i, name in enumerate(tax.names(level)):
                assert tax.index_of(level, name) == i
                assert tax.name_of(level, i) == name


class TestParsing:
    def test_minimal_two_leaf_tree(self):
        """One lineage, one group, two leaves is the smallest legal tree."""
        t = load_taxonomy(MINIMAL)
        assert (t.node_count(1), t.node_count(2), t.leaf_count) == (1, 1, 2)
        assert np.flatnonzero(t.parents(3) == 0).tolist() == [0, 1]

    def test_comments_and_blank_lines_ignored(self):
        t = load_taxonomy("# header\n\n" + MINIMAL + "\n# trailing\n")
        assert t.digest == load_taxonomy(MINIMAL).digest

    def test_declared_leaf_count_checked(self):
        ok = "leaves = 2\n" + MINIMAL
        assert load_taxonomy(ok).leaf_count == 2
        with pytest.raises(TaxonomyError, match="leaf count"):
            load_taxonomy("leaves = 3\n" + MINIMAL)

    def test_orphan_leaf_rejected(self):
        with pytest.raises(TaxonomyError, match="orphan"):
            load_taxonomy(MINIMAL + "leafC\n")

    def test_duplicate_name_rejected(self):
        with pytest.raises(TaxonomyError, match="duplicate"):
            load_taxonomy(MINIMAL + "leafA -> mid\n")

    def test_unknown_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="unknown parent"):
            load_taxonomy(MINIMAL + "leafC -> nowhere\n")

    def test_parent_at_wrong_level_rejected(self):
        """A leaf naming a level-1 node as its parent is a level error."""
        with pytest.raises(TaxonomyError, match="wrong level"):
            load_taxonomy(MINIMAL + "leafC -> Root\n")

    def test_childless_mid_node_rejected(self):
        with pytest.raises(TaxonomyError, match="no children"):
            load_taxonomy(MINIMAL.replace("[level3]", "mid2 -> Root\n[level3]"))

    def test_empty_level_rejected(self):
        with pytest.raises(TaxonomyError, match="declares no nodes"):
            load_taxonomy("[level1]\nRoot\n")

    def test_level1_node_with_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="may not declare a parent"):
            load_taxonomy(MINIMAL.replace("Root\n", "Root -> up\n", 1))

    @pytest.mark.parametrize("name", ["leaf,C", "leaf:C", "leaf C", "leaf\tC", "leaf\u00a0C"],
                             ids=["comma", "colon", "space", "tab", "no-break-space"])
    def test_name_with_separator_or_whitespace_rejected(self, name):
        with pytest.raises(TaxonomyError, match=re.escape(f"line 9: bad node name {name!r}")):
            load_taxonomy(MINIMAL + f"{name} -> mid\n")

    def test_names_cannot_take_another_trees_digest(self):
        """The digest joins names with ',' and ':', so names holding them
        could give a 1/1/1 tree the digest of a 2/2/2 one; they are rejected."""
        two = "[level1]\nA\nB\n[level2]\nh -> B\ng -> A\n[level3]\ny -> g\nx -> h\n"
        one = "[level1]\nA,B\n[level2]\nh:1,g -> A,B\n[level3]\ny:1,x -> h:1,g\n"
        assert load_taxonomy(two).sizes.tolist() == [2, 2, 2]
        with pytest.raises(TaxonomyError, match="line 2: bad node name 'A,B'"):
            load_taxonomy(one)

    def test_bad_section_rejected(self):
        with pytest.raises(TaxonomyError, match="unknown section"):
            load_taxonomy("[level9]\nfoo\n")


class TestLookupErrors:
    def test_unknown_name(self, tax):
        with pytest.raises(TaxonomyError, match="unknown"):
            tax.index_of(3, "XYZ")

    def test_children_bad_level(self, tax):
        """Children are read from ``parents(level)``, which level 1 does not have."""
        with pytest.raises(TaxonomyError, match="level 1 have no parent"):
            tax.parents(1)

    def test_bad_level_or_index_named(self, tax):
        with pytest.raises(TaxonomyError, match="level-3 node index 13 out of range"):
            tax.parent_of(3, tax.leaf_count)
        with pytest.raises(TaxonomyError, match="level must be 1, 2, or 3, got 4"):
            tax.name_of(4, 0)


class TestDeterminism:
    def test_same_text_same_digest(self):
        assert load_taxonomy(MINIMAL).digest == load_taxonomy(MINIMAL).digest

    def test_different_text_different_digest(self):
        other = MINIMAL.replace("leafB", "leafZ")
        assert load_taxonomy(MINIMAL).digest != load_taxonomy(other).digest

    def test_indices_follow_declaration_order(self):
        t = load_taxonomy(MINIMAL)
        assert t.names(3) == ("leafA", "leafB")

    def test_fuzzed_trees_hold_invariants(self):
        """Random well-formed configs parse into arrays holding their declared edges."""
        rng = np.random.default_rng(20260822)
        for _ in range(40):
            text = random_tax_text(rng)
            t = load_taxonomy(text)
            check_arrays_follow_text(t, text)
            for level in (2, 3):
                assert [t.parent_of(level, c) for c in range(t.node_count(level))] == (
                    t.parents(level).tolist()
                )
            assert t.sizes.tolist() == [t.node_count(level) for level in (1, 2, 3)]
