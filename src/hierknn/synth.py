"""Synthetic embedding datasets whose cluster geometry follows the taxonomy.

Level-1 groups sit at mutually orthogonal cluster centers; each leaf mean
is a small offset from its group's center. Same-group leaves therefore lie
closer to each other than to any cross-group leaf, which is exactly the
structure coarse-to-fine voting can exploit. Samples are Gaussian around
the leaf means and L2-normalized, with controllable long-tail class counts
and an optional domain shift (rotation + bias + noise) for query sets.

Everything is deterministic given the config seed; independent streams are
derived with numpy's SeedSequence spawning so, for example, member banks
share cluster geometry but draw disjoint sample noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import FeatureBank, QuerySet, bank_build_arrays, normalize_rows
from .errors import SynthError
from .taxonomy import Taxonomy

# Long-tailed per-leaf counts for the packaged 13-leaf taxonomy, ordered by
# leaf index. A few classes dominate while the rarest get a handful of
# samples, mimicking the frequency skew of real differential counts.
DEFAULT_PER_LEAF_COUNTS = (60, 76, 50, 220, 600, 140, 56, 36, 72, 440, 44, 32, 100)


class _RuleError(ValueError):
    """A broken :class:`SynthConfig` rule; ``fields`` are the fields it names."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class SynthConfig:
    dim: int = 10
    per_leaf_counts: tuple[int, ...] = DEFAULT_PER_LEAF_COUNTS
    lineage_separation: float = 3.55
    leaf_separation: float = 1.7
    noise_sigma: float = 0.8
    seed: int = 0

    def __post_init__(self):
        """Every range and finiteness rule of a config, checked in one place."""
        object.__setattr__(self, "per_leaf_counts", tuple(int(c) for c in self.per_leaf_counts))

        def check(ok, rule: str, *fields: str):
            if not ok:
                got = " and ".join(f"'{getattr(self, f)}'" for f in fields)
                raise _RuleError(f"{rule}, got {got}", *fields)

        for field in ("lineage_separation", "leaf_separation", "noise_sigma"):
            check(np.isfinite(getattr(self, field)), f"{field} must be finite", field)
        check(self.seed >= 0, "seed must be >= 0", "seed")
        check(self.dim >= 4, "dim must be >= 4", "dim")
        check(self.lineage_separation > self.leaf_separation > 0,
              "need lineage_separation > leaf_separation > 0",
              "lineage_separation", "leaf_separation")
        check(self.noise_sigma > 0, "noise_sigma must be positive", "noise_sigma")
        check(min(self.per_leaf_counts, default=0) >= 0, "per-leaf counts must be >= 0",
              "per_leaf_counts")


@dataclass(frozen=True)
class ShiftSpec:
    """Domain shift for query vectors: plane rotation, bias, extra noise.

    ``bias`` is a scalar magnitude applied along a seeded random direction.
    The rotation is orthogonal by construction (it acts in a random
    2-plane), so it cannot destroy unit norms on its own.
    """

    rotation_angle: float = 0.0
    bias: float = 0.0
    extra_noise: float = 0.0

    def __post_init__(self):
        for name in ("rotation_angle", "bias", "extra_noise"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.extra_noise < 0:
            raise ValueError("extra_noise must be >= 0")


MODERATE_SHIFT = ShiftSpec(rotation_angle=0.3, bias=0.1, extra_noise=0.1)


_PARSERS = {
    "dim": int,
    "per_leaf_counts": lambda value: tuple(int(tok) for tok in value.replace(",", " ").split()),
    "lineage_separation": float,
    "leaf_separation": float,
    "noise_sigma": float,
    "seed": int,
}


def parse_synth_config(text: str) -> SynthConfig:
    """Parse a ``key = value`` config file into a SynthConfig.

    Recognized keys: dim, counts (comma- or space-separated integers),
    lineage_separation, leaf_separation, noise_sigma and seed. ``#`` starts
    a comment; omitted keys keep their defaults; a repeated key wins with
    its last value. The values are checked by :class:`SynthConfig`, and its
    error is prefixed with the line of the key it names, or of the later
    one when it names two.
    """
    kwargs: dict = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SynthError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        field = "per_leaf_counts" if key == "counts" else key
        if field not in _PARSERS:
            raise SynthError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[field] = _PARSERS[field](value)
        except ValueError:
            raise SynthError(f"line {lineno}: bad value {value!r} for {key!r}") from None
        lines[field] = lineno
    try:
        return SynthConfig(**kwargs)
    except _RuleError as exc:
        at = max(lines.get(f, 0) for f in exc.fields)
        raise SynthError(f"line {at}: {exc}" if at else str(exc)) from None


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _draw_plane(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Orthonormal (dim, 2) basis spanning a random rotation plane."""
    raw = rng.standard_normal((dim, 2))
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))  # fix QR sign ambiguity for reproducibility


def _rotate_in_plane(x: np.ndarray, plane: np.ndarray, angle: float) -> np.ndarray:
    """Rotate x along its last axis by angle inside the plane; other directions fixed."""
    u, v = plane[:, 0], plane[:, 1]
    a = (x @ u)[..., None]
    b = (x @ v)[..., None]
    cos_t, sin_t = np.cos(angle), np.sin(angle)
    return x + (cos_t - 1.0) * (a * u + b * v) + sin_t * (a * v - b * u)


# Sibling leaves sit this much closer to their mid-level group mean than the
# group means sit to the lineage center, so proximity mirrors tree distance
# at both levels of the hierarchy.
_LEAF_OFFSET_RATIO = 0.4

# Same-lineage group directions share this much of a common component
# (pairwise cosine is the square of this), so sibling groups crowd each
# other by a fixed, seed-independent amount. That crowding is what makes
# coarse votes informative: neighborhoods near a group boundary mix entries
# from sibling groups, which leaf-level pluralities fragment over but
# level-wise aggregation resolves.
_GROUP_CROWDING = 0.75


def _offset_frame(rng: np.random.Generator, dim: int, n: int, avoid: np.ndarray) -> np.ndarray:
    """n unit offset directions, mutually orthogonal and orthogonal to the
    columns of ``avoid`` when the dimension allows it.

    Orthogonal sibling offsets keep every seed's geometry equally well
    conditioned: no unlucky draw can collapse two sibling clusters onto
    each other or push one toward a foreign branch. If dim is too small to
    grant that many orthogonal directions, plain random units are used.
    """
    if n > dim - avoid.shape[1]:
        return np.stack([_unit(rng, dim) for _ in range(n)])
    raw = rng.standard_normal((dim, n))
    raw = raw - avoid @ (avoid.T @ raw)
    q, r = np.linalg.qr(raw)
    return (q * np.sign(np.diag(r))).T


def _leaf_means(cfg: SynthConfig, tax: Taxonomy, seed: np.random.SeedSequence) -> np.ndarray:
    """One mean per leaf, placed tree-first: lineage center, then the
    mid-level group's offset, then a smaller leaf-specific offset."""
    rng = np.random.default_rng(seed)
    lineages = tax.names(1)
    if len(lineages) > cfg.dim:
        raise SynthError(
            f"dim {cfg.dim} too small for {len(lineages)} orthogonal group centers"
        )
    raw = rng.standard_normal((cfg.dim, len(lineages)))
    q, r = np.linalg.qr(raw)
    basis = q * np.sign(np.diag(r))  # fix QR sign ambiguity for reproducibility
    centers = cfg.lineage_separation * basis.T  # (n_lineages, dim)

    group_dirs = np.empty((tax.node_count(2), cfg.dim))
    group_means = np.empty((tax.node_count(2), cfg.dim))
    crowd = _GROUP_CROWDING
    for lin in range(tax.node_count(1)):
        kids = tax.children(2, lin)
        frame = _offset_frame(rng, cfg.dim, len(kids) + 1, basis)
        common, dirs = frame[0], frame[1:]
        dirs = crowd * common + np.sqrt(1.0 - crowd * crowd) * dirs
        for j, g in enumerate(kids):
            group_dirs[g] = dirs[j]
            group_means[g] = centers[lin] + cfg.leaf_separation * dirs[j]

    means = np.empty((tax.leaf_count, cfg.dim))
    for g in range(tax.node_count(2)):
        kids = tax.children(3, g)
        avoid = np.column_stack([basis, group_dirs[g]])
        dirs = _offset_frame(rng, cfg.dim, len(kids), avoid)
        for j, leaf_idx in enumerate(kids):
            means[leaf_idx] = (
                group_means[g] + _LEAF_OFFSET_RATIO * cfg.leaf_separation * dirs[j]
            )
    return means


def _split_counts(cfg: SynthConfig, tax: Taxonomy) -> tuple[np.ndarray, np.ndarray]:
    """Per-leaf bank and query counts: floor(0.8 * count) and the rest."""
    counts = np.asarray(cfg.per_leaf_counts, dtype=np.int64)
    if len(counts) != tax.leaf_count:
        raise SynthError(
            f"config has {len(counts)} per-leaf counts, taxonomy has {tax.leaf_count} leaves"
        )
    if (counts == 1).any():
        name = tax.name_of(3, int(np.argmax(counts == 1)))
        raise SynthError(f"count 1 for leaf {name} is too small to split 80/20")
    n_bank = (0.8 * counts).astype(np.int64)
    return n_bank, counts - n_bank


def _draw(rng, means: np.ndarray, counts, sigma: float) -> np.ndarray:
    """counts[i] unit-normalized samples around each leaf mean i, leaf by leaf."""
    rows = np.repeat(means, counts, axis=0)
    return normalize_rows(rows + sigma * rng.standard_normal(rows.shape))


def _ids(prefix: str, tax: Taxonomy, counts) -> list[str]:
    """Entry ids ``<prefix><leaf name>-<i>``, numbered from 0 within each leaf."""
    return [f"{prefix}{name}-{i}" for name, n in zip(tax.leaf_names, counts) for i in range(n)]


def _query_set(tax: Taxonomy, counts, vectors: np.ndarray) -> QuerySet:
    """A labelled query set laid out leaf by leaf."""
    return QuerySet(_ids("q-", tax, counts), vectors, np.repeat(tax.leaf_names, counts).tolist())


def generate(cfg: SynthConfig, tax: Taxonomy) -> tuple[FeatureBank, QuerySet]:
    """Deterministic bank plus a held-out labelled query set, split 80/20 per leaf.

    The bank share is floor(0.8 * count); a leaf may have count 0 (absent
    entirely) but count 1 cannot be split and is an error.
    """
    n_bank, n_query = _split_counts(cfg, tax)
    root = np.random.SeedSequence(cfg.seed)
    geom_seed, data_seed = root.spawn(2)
    means = _leaf_means(cfg, tax, geom_seed)
    rng = np.random.default_rng(data_seed)

    # each leaf's samples are drawn together, its bank share first
    leaves = np.repeat(np.arange(tax.leaf_count), n_bank + n_query)
    samples = _draw(rng, means, n_bank + n_query, cfg.noise_sigma)
    in_bank = np.concatenate([np.arange(b + q) < b for b, q in zip(n_bank, n_query)])
    bank = bank_build_arrays(_ids("", tax, n_bank), leaves[in_bank], samples[in_bank], tax)
    return bank, _query_set(tax, n_query, samples[~in_bank])


# Each member bank stands in for a separate model export of the same data:
# besides redrawing sample noise, a member sees the class geometry through
# its own pair of rotations. Members therefore make partially independent
# systematic errors, which is what gives a majority vote across them
# something to correct. Rotation magnitude is graded down with the member
# index (member 0 is the most displaced export, the last member the
# cleanest), so growing an ensemble prefix both averages out member biases
# and mixes in progressively better members.
_MEMBER_EXPORT_ROTATION = 0.9


def generate_member_banks(
    cfg: SynthConfig, n_members: int, tax: Taxonomy
) -> tuple[list[FeatureBank], QuerySet]:
    """Several banks over one shared cluster geometry, plus one query set.

    Each member redraws its sample noise independently and is then passed
    through a member-specific export transform (two small seeded plane
    rotations), standing in for banks built from different training splits
    or model checkpoints. Bank sizes per leaf follow the same 80/20 rule as
    generate(); the query set uses the 20% share and stays untransformed.
    """
    if n_members < 1:
        raise ValueError(f"need at least one member, got {n_members}")
    n_bank, n_query = _split_counts(cfg, tax)
    root = np.random.SeedSequence(cfg.seed)
    seeds = root.spawn(2 + n_members)
    means = _leaf_means(cfg, tax, seeds[0])

    query_rng = np.random.default_rng(seeds[1])
    queries = _query_set(tax, n_query, _draw(query_rng, means, n_query, cfg.noise_sigma))

    leaves = np.repeat(np.arange(tax.leaf_count), n_bank)
    banks: list[FeatureBank] = []
    for m in range(n_members):
        rng = np.random.default_rng(seeds[2 + m])
        stacked = _draw(rng, means, n_bank, cfg.noise_sigma).astype(np.float64)
        rng.standard_normal(cfg.dim)  # unused, but it fixes where the planes below are drawn
        angle = _MEMBER_EXPORT_ROTATION * (n_members - m) / n_members
        # two independent planes: a single-plane displacement could line
        # up with a query-side shift by chance, a composed pair cannot
        stacked = _rotate_in_plane(stacked, _draw_plane(rng, cfg.dim), angle)
        stacked = _rotate_in_plane(stacked, _draw_plane(rng, cfg.dim), angle)
        # normalized here and again by the builder, as exported entries
        # always were; a second pass can move a last bit, so both stay
        banks.append(
            bank_build_arrays(_ids(f"m{m}-", tax, n_bank), leaves, normalize_rows(stacked), tax)
        )
    return banks, queries


def apply_shift(queries: QuerySet, spec: ShiftSpec, seed: int) -> QuerySet:
    """Shifted copy of a query set; ids, labels, and order unchanged.

    Each vector is rotated by the given angle inside one seeded random
    2-plane, offset by a seeded random bias direction, perturbed with
    Gaussian noise, and re-normalized to float32.
    """
    x = queries.vectors.astype(np.float64)
    dim = x.shape[1]
    rng = np.random.default_rng(seed)
    plane = _draw_plane(rng, dim)
    bias_vec = spec.bias * _unit(rng, dim)
    # each row rotated as a (1, dim) block, so its projections onto the
    # plane are one dot product each, summed as for a single record
    rotated = _rotate_in_plane(x[:, None, :], plane, spec.rotation_angle)[:, 0]
    shifted = rotated + bias_vec + spec.extra_noise * rng.standard_normal(x.shape)
    return QuerySet(queries.ids, normalize_rows(shifted), queries.labels)
