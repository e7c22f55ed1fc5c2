"""Three-level label hierarchy: config parsing, validation, tree arrays.

Config grammar (UTF-8 text):

    leaves = 13              # optional assertion on the level-3 node count

    [level1]
    Myeloid                  # level-1 entries are bare names
    ...

    [level2]
    monocytic -> Myeloid     # level-2/3 entries are "name -> parent_name"
    ...

    [level3]
    MO -> monocytic
    ...

Blank lines are ignored and ``#`` starts a comment. Names must be unique
across all levels and may not contain whitespace, ``->``, ``,`` or ``:``
(the digest joins names with ``,`` and ``:``). Node indices follow
declaration order, so identical text always produces identical indices
and an identical digest.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import TaxonomyError

_SECTIONS = {"[level1]": 1, "[level2]": 2, "[level3]": 3}


class Taxonomy:
    """Immutable three-level tree: node names over read-only index arrays.

    The tree is kept as read-only index arrays: ``paths`` (row l: leaf l's
    lineage, group and leaf), ``sizes`` (nodes per level), ``edges`` (their running
    sum from 0; level l owns ``edges[l - 1]:edges[l]`` of all nodes) and ``parents``.
    Leaf l's ancestor at level v is ``paths[l, v - 1]``; the children of node p
    at level v - 1 are ``np.flatnonzero(parents(v) == p)``.
    Instances are only built through :func:`load_taxonomy`, which validates
    the single-parent and coverage invariants. Safe for concurrent reads.
    """

    def __init__(
        self,
        names: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]],
        parent2: tuple[int, ...],
        parent3: tuple[int, ...],
    ):
        self._names = names
        self._index = [
            {name: i for i, name in enumerate(level_names)} for level_names in names
        ]
        p2, p3 = np.array(parent2, dtype=np.intp), np.array(parent3, dtype=np.intp)
        self._parents = (p2, p3)
        self.paths = np.column_stack([p2[p3], p3, np.arange(len(p3))])
        self.sizes = np.array([len(level_names) for level_names in names])
        self.edges = np.concatenate(([0], np.cumsum(self.sizes)))
        for table in (p2, p3, self.paths, self.sizes, self.edges):
            table.flags.writeable = False
        self._digest = self._compute_digest()

    def _compute_digest(self) -> bytes:
        lines = ["taxonomy-v1"]
        lines.append(",".join(self._names[0]))
        for level_names, parents in zip(self._names[1:], self._parents):
            lines.append(",".join(f"{n}:{p}" for n, p in zip(level_names, parents.tolist())))
        return hashlib.sha256("\n".join(lines).encode("utf-8")).digest()

    @property
    def digest(self) -> bytes:
        """32-byte identity hash of the node names and parent edges."""
        return self._digest

    @property
    def leaf_count(self) -> int:
        return len(self._names[2])

    def node_count(self, level: int) -> int:
        self._check_level(level)
        return len(self._names[level - 1])

    def names(self, level: int) -> tuple[str, ...]:
        self._check_level(level)
        return self._names[level - 1]

    def name_of(self, level: int, index: int) -> str:
        self._check_level(level)
        self._check_index(level, index)
        return self._names[level - 1][index]

    def index_of(self, level: int, name: str) -> int:
        self._check_level(level)
        try:
            return self._index[level - 1][name]
        except KeyError:
            raise TaxonomyError(f"unknown level-{level} node name {name!r}") from None

    def parent_of(self, level: int, index: int) -> int:
        """Parent index at ``level - 1`` of the given node; levels 2 and 3 only."""
        parents = self.parents(level)
        self._check_index(level, index)
        return int(parents[index])

    def parents(self, level: int) -> np.ndarray:
        """Parent index at ``level - 1`` of every level-``level`` node, in node order."""
        if level not in (2, 3):
            raise TaxonomyError(f"nodes at level {level} have no parent")
        return self._parents[level - 2]

    def _check_level(self, level: int) -> None:
        if level not in (1, 2, 3):
            raise TaxonomyError(f"level must be 1, 2, or 3, got {level}")

    def _check_index(self, level: int, index: int) -> None:
        n = len(self._names[level - 1])
        if not 0 <= index < n:
            raise TaxonomyError(
                f"level-{level} node index {index} out of range (have {n} nodes)"
            )

    def __repr__(self) -> str:
        sizes = "/".join(str(len(n)) for n in self._names)
        return f"Taxonomy(nodes={sizes}, digest={self._digest.hex()[:12]})"


def load_taxonomy(text: str) -> Taxonomy:
    """Parse and validate a taxonomy config; see the module docstring for grammar."""
    names: list[list[str]] = [[], [], []]
    parents: list[list[str]] = [[], []]  # declared parent names for levels 2, 3
    seen: dict[str, int] = {}
    declared_leaves: int | None = None
    section = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in _SECTIONS:
            section = _SECTIONS[line]
            continue
        if line.startswith("["):
            raise TaxonomyError(f"line {lineno}: unknown section {line!r}")
        if section == 0:
            key, _, value = line.partition("=")
            if key.strip() != "leaves" or not value.strip():
                raise TaxonomyError(
                    f"line {lineno}: expected 'leaves = N' or a [levelN] section"
                )
            try:
                declared_leaves = int(value.strip())
            except ValueError:
                raise TaxonomyError(f"line {lineno}: bad leaf count {value.strip()!r}") from None
            continue

        name, arrow, parent = (part.strip() for part in line.partition("->"))
        if section == 1:
            if arrow:
                raise TaxonomyError(f"line {lineno}: level-1 node {name!r} may not declare a parent")
        else:
            if not arrow or not parent:
                raise TaxonomyError(f"line {lineno}: orphan node {name!r} (missing parent edge)")
        if not name or any(c.isspace() or c in ",:" for c in name):
            raise TaxonomyError(f"line {lineno}: bad node name {name!r}")
        if name in seen:
            raise TaxonomyError(f"line {lineno}: duplicate name {name!r}")
        seen[name] = section
        names[section - 1].append(name)
        if section >= 2:
            parents[section - 2].append(parent)

    for level in (1, 2, 3):
        if not names[level - 1]:
            raise TaxonomyError(f"level {level} declares no nodes")
    if declared_leaves is not None and declared_leaves != len(names[2]):
        raise TaxonomyError(
            f"leaf count {len(names[2])} != declared {declared_leaves}"
        )

    def resolve(parent_names: list[str], level: int) -> tuple[int, ...]:
        index = {name: i for i, name in enumerate(names[level - 2])}
        out = []
        for child, pname in zip(names[level - 1], parent_names):
            if pname not in index:
                where = seen.get(pname)
                if where is not None:
                    raise TaxonomyError(
                        f"node {child!r} has parent {pname!r} at wrong level"
                        f" (level {where}, expected {level - 1})"
                    )
                raise TaxonomyError(f"node {child!r} has unknown parent {pname!r}")
            out.append(index[pname])
        return tuple(out)

    parent2 = resolve(parents[0], 2)
    parent3 = resolve(parents[1], 3)
    tax = Taxonomy((tuple(names[0]), tuple(names[1]), tuple(names[2])), parent2, parent3)
    for level, what in ((2, "children"), (1, "descendants")):
        bare = np.bincount(tax.paths[:, level - 1], minlength=tax.sizes[level - 1]) == 0
        if bare.any():
            missing = names[level - 1][bare.argmax()]
            raise TaxonomyError(f"level-{level} node {missing!r} has no {what}")
    return tax


def default_taxonomy() -> Taxonomy:
    """The packaged 3-lineage / 13-leaf default tree, read from ``data/`` beside this module."""
    path = os.path.join(os.path.dirname(__file__), "data", "default_taxonomy.txt")
    with open(path, encoding="utf-8") as fh:
        return load_taxonomy(fh.read())
