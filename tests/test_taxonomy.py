"""Taxonomy parsing, validation, and ancestry lookups."""
from __future__ import annotations

import numpy as np
import pytest

from hierknn import TaxonomyError, load_taxonomy
from hierknn.taxonomy import LabelPath

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
        (group,) = tax.children(2, blast)
        kids = tax.children(3, group)
        assert [tax.name_of(3, c) for c in kids] == ["BL"]

    def test_known_ancestors(self, tax):
        assert tax.name_of(1, tax.ancestor(tax.index_of(3, "SNE"), 1)) == "Myeloid"
        assert tax.name_of(1, tax.ancestor(tax.index_of(3, "LY"), 1)) == "Lymphoid"

    def test_ancestor_at_leaf_level_is_identity(self, tax):
        for leaf in range(tax.leaf_count):
            assert tax.ancestor(leaf, 3) == leaf

    def test_children_partition_each_level(self, tax):
        """Child sets are disjoint and jointly cover the lower level."""
        for level in (2, 3):
            seen = []
            for parent in range(tax.node_count(level - 1)):
                seen.extend(tax.children(level, parent))
            assert sorted(seen) == list(range(tax.node_count(level)))

    def test_paths_are_parent_consistent(self, tax):
        for leaf in range(tax.leaf_count):
            path = tax.path_of(leaf)
            assert path.l2 in tax.children(2, path.l1)
            assert path.l3 in tax.children(3, path.l2)
            tax.validate_path(path)

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
        assert t.children(3, 0) == (0, 1)

    def test_comments_and_blank_lines_ignored(self):
        t = load_taxonomy("# header\n\n" + MINIMAL + "\n# trailing\n")
        assert t == load_taxonomy(MINIMAL)

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

    def test_bad_section_rejected(self):
        with pytest.raises(TaxonomyError, match="unknown section"):
            load_taxonomy("[level9]\nfoo\n")


class TestLookupErrors:
    def test_children_index_out_of_range(self, tax):
        with pytest.raises(TaxonomyError, match="out of range"):
            tax.children(3, tax.node_count(2))

    def test_children_bad_level(self, tax):
        with pytest.raises(TaxonomyError, match="level 2 or 3"):
            tax.children(1, 0)

    def test_unknown_name(self, tax):
        with pytest.raises(TaxonomyError, match="unknown"):
            tax.index_of(3, "XYZ")

    def test_bad_ancestor_args(self, tax):
        with pytest.raises(TaxonomyError):
            tax.ancestor(tax.leaf_count, 1)
        with pytest.raises(TaxonomyError):
            tax.ancestor(0, 4)

    def test_inconsistent_path_rejected(self, tax):
        """A triple mixing two lineages fails path validation."""
        a = tax.path_of(tax.index_of(3, "BL"))
        b = tax.path_of(tax.index_of(3, "LY"))
        with pytest.raises(TaxonomyError, match="parent-consistent"):
            tax.validate_path(LabelPath(a.l1, a.l2, b.l3))


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
        """Random well-formed configs parse and keep ancestry consistent."""
        rng = np.random.default_rng(20260822)
        for _ in range(40):
            t = load_taxonomy(random_tax_text(rng))
            for level in (2, 3):
                seen = []
                for parent in range(t.node_count(level - 1)):
                    kids = t.children(level, parent)
                    assert all(t.parent_of(level, c) == parent for c in kids)
                    seen.extend(kids)
                assert sorted(seen) == list(range(t.node_count(level)))
            for leaf in range(t.leaf_count):
                t.validate_path(t.path_of(leaf))
                assert t.paths[leaf].tolist() == list(t.path_of(leaf).as_tuple())
            assert t.paths.shape == (t.leaf_count, 3)
            assert t.sizes.tolist() == [t.node_count(level) for level in (1, 2, 3)]
