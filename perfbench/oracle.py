"""Reference answers the benchmark checks hierknn's outputs against.

Written from the documented rules alone, sharing no code with hierknn:
cosine similarity in float64 (exactly rounded, via math.fsum, wherever it
decides the order at the k-th place), ties by the lower entry index, votes
by count, then summed similarity, then the lower class index, and the
coarse-to-fine walk that votes each level among neighbours under the
level already decided.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class Oracle:
    def __init__(self, npz_path):
        data = np.load(npz_path)
        self.v32 = data["vectors"]
        self.v64 = self.v32.astype(np.float64)
        self.labels = data["labels"].astype(np.int64)
        self.parent = {2: data["parent2"], 3: data["parent3"]}
        self.names = {level: [str(x) for x in data[f"names{level}"]] for level in (1, 2, 3)}

    def _exact(self, rows, q):
        return [math.fsum(float(x) for x in self.v64[r] * q) for r in rows]

    def _top(self, q, k, rows=None):
        """Indices and similarities of the k most similar rows, exact order."""
        rows = np.arange(len(self.v64)) if rows is None else rows
        approx = self.v64[rows] @ q
        k = min(k, len(rows))
        kth = np.partition(-approx, k - 1)[k - 1]
        # every row that rounding could move across the k-th place
        near = rows[-approx <= kth + 1e-9]
        exact = self._exact(near, q)
        order = sorted(range(len(near)), key=lambda i: (-exact[i], int(near[i])))[:k]
        return [int(near[i]) for i in order], [exact[i] for i in order]

    @staticmethod
    def _vote(labels, sims):
        count: dict[int, int] = {}
        total: dict[int, float] = {}
        for lab, s in zip(labels, sims):
            count[lab] = count.get(lab, 0) + 1
            total[lab] = total.get(lab, 0.0) + s
        return min(count, key=lambda c: (-count[c], -total[c], c))

    def classify(self, q, k):
        """(y1, y2, y3 names, fallback flags) of the hierarchical vote."""
        q = np.asarray(q, dtype=np.float64)
        idx, sims = self._top(q, k)
        path = [self._vote([int(self.labels[i, 0]) for i in idx], sims)]
        fallback = [False, False, False]
        for level in (2, 3):
            allowed = {c for c, p in enumerate(self.parent[level]) if p == path[-1]}
            pairs = [(int(self.labels[i, level - 1]), s) for i, s in zip(idx, sims)
                     if int(self.labels[i, level - 1]) in allowed]
            if not pairs:
                rows = np.nonzero(np.isin(self.labels[:, level - 1], sorted(allowed)))[0]
                fb_idx, fb_sims = self._top(q, k, rows)
                pairs = [(int(self.labels[i, level - 1]), s) for i, s in zip(fb_idx, fb_sims)]
                fallback[level - 1] = True
            path.append(self._vote([p[0] for p in pairs], [p[1] for p in pairs]))
        names = [self.names[level][y] for level, y in zip((1, 2, 3), path)]
        return names, fallback

    def classify_flat(self, q, k):
        """Leaf name of the unconstrained leaf vote."""
        idx, sims = self._top(np.asarray(q, dtype=np.float64), k)
        return self.names[3][self._vote([int(self.labels[i, 2]) for i in idx], sims)]


def macro_f1(truth, preds, classes) -> Fraction:
    """Exact macro F1; a class with no support and no predictions scores 0."""
    f1 = Fraction(0)
    for c in classes:
        tp = sum(1 for t, p in zip(truth, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(truth, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(truth, preds) if t == c and p != c)
        if tp + fp + fn:
            f1 += Fraction(2 * tp, 2 * tp + fp + fn)
    return f1 / len(classes)
