"""Desk-scale training heads: distillation and supervised losses, verified gradients.

Two linear heads operate directly on synthetic embedding vectors (there is
no backbone here): a projection head feeding the teacher-student
distillation term, and a classifier head feeding a class-balanced
cross-entropy. The teacher is an exponential moving average of the student.
All arithmetic is float64, and every analytic gradient in this module is
checked against central finite differences in the test suite.

Optimization is plain full-batch gradient descent on purpose: the point of
this module is numerically verifiable losses and gradients, not training
throughput.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TrainingError
from .metrics import ConfusionMatrix, macro_f1

DEFAULT_TAU_TEACHER = 0.04
DEFAULT_TAU_STUDENT = 0.1
DEFAULT_MOMENTUM = 0.999
_EVAL_FRACTION = 0.25  # share of each class that make_toy_dataset holds out for eval


@dataclass
class ToyModel:
    """Two linear heads over d_in inputs: projection (K outputs) and classifier (C outputs)."""

    proj: np.ndarray  # (d_in, proj_dim)
    clf: np.ndarray  # (d_in, n_classes)

    def __post_init__(self):
        self.proj = np.asarray(self.proj, dtype=np.float64)
        self.clf = np.asarray(self.clf, dtype=np.float64)
        if self.proj.ndim != 2 or self.clf.ndim != 2:
            raise ValueError("head weights must be 2-D matrices")
        if self.proj.shape[0] != self.clf.shape[0]:
            raise ValueError(
                f"heads disagree on input dim ({self.proj.shape[0]} vs {self.clf.shape[0]})"
            )
        if not (np.all(np.isfinite(self.proj)) and np.all(np.isfinite(self.clf))):
            raise ValueError("non-finite parameters")

    @property
    def d_in(self) -> int:
        return self.proj.shape[0]

    @property
    def proj_dim(self) -> int:
        return self.proj.shape[1]

    @property
    def n_classes(self) -> int:
        return self.clf.shape[1]

    def copy(self) -> "ToyModel":
        return ToyModel(self.proj.copy(), self.clf.copy())

    @classmethod
    def init_random(
        cls, d_in: int, proj_dim: int, n_classes: int, rng: np.random.Generator, scale: float = 0.1
    ) -> "ToyModel":
        return cls(
            scale * rng.standard_normal((d_in, proj_dim)),
            scale * rng.standard_normal((d_in, n_classes)),
        )


@dataclass
class EmaState:
    """Teacher parameters tracked as an exponential moving average of the student."""

    teacher: ToyModel
    momentum: float

    def __post_init__(self):
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must be in [0, 1], got {self.momentum}")

    @classmethod
    def from_student(cls, student: ToyModel, momentum: float = DEFAULT_MOMENTUM) -> "EmaState":
        return cls(student.copy(), momentum)


def ema_update(ema: EmaState, student: ToyModel) -> EmaState:
    """teacher <- m * teacher + (1 - m) * student, element-wise."""
    t = ema.teacher
    if t.proj.shape != student.proj.shape or t.clf.shape != student.clf.shape:
        raise ValueError("teacher and student shapes differ")
    m = ema.momentum
    return EmaState(
        ToyModel(m * t.proj + (1.0 - m) * student.proj, m * t.clf + (1.0 - m) * student.clf),
        m,
    )


@dataclass(frozen=True)
class LossConfig:
    lambda_dino: float = 1.0
    lambda_sup: float = 1.0
    tau_teacher: float = DEFAULT_TAU_TEACHER
    tau_student: float = DEFAULT_TAU_STUDENT

    def __post_init__(self):
        if self.lambda_dino < 0 or self.lambda_sup < 0:
            raise ValueError("loss weights must be >= 0")
        if self.lambda_dino == 0 and self.lambda_sup == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.tau_teacher <= 0 or self.tau_student <= 0:
            raise ValueError("temperatures must be positive")


class ClassWeights:
    """Per-class loss weights, rescaled so their mean is exactly 1."""

    def __init__(self, w):
        arr = np.asarray(w, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("weights must be a nonempty 1-D array")
        if np.any(arr <= 0):
            raise ValueError("weights must be positive")
        self.w = arr / arr.mean()

    def __len__(self) -> int:
        return self.w.size


def class_weights_from_counts(counts) -> ClassWeights:
    """Inverse-frequency weights, mean-normalized; zero counts are an error."""
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("counts must be a nonempty 1-D array")
    if np.any(arr < 1):
        bad = int(np.argmin(arr))
        raise TrainingError(f"class {bad} has zero training samples")
    return ClassWeights(1.0 / arr.astype(np.float64))


@dataclass
class ViewPair:
    """Two views of one underlying sample; label is None for unlabeled data."""

    x_teacher: np.ndarray
    x_student: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.x_teacher = np.asarray(self.x_teacher, dtype=np.float64)
        self.x_student = np.asarray(self.x_student, dtype=np.float64)
        if self.x_teacher.shape != self.x_student.shape:
            raise ValueError("views must share dims")


@dataclass
class Gradients:
    """Gradient of a scalar loss w.r.t. the student's two heads."""

    proj: np.ndarray
    clf: np.ndarray

    @classmethod
    def zeros_like(cls, model: ToyModel) -> "Gradients":
        return cls(np.zeros_like(model.proj), np.zeros_like(model.clf))


def softmax_temp(logits, tau: float) -> np.ndarray:
    """Temperature-scaled softmax along the last axis, max-subtracted for stability."""
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    z = z / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(scaled: np.ndarray) -> np.ndarray:
    z = scaled - scaled.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _stack_views(batch: list[ViewPair]) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("empty batch")
    xt = np.vstack([p.x_teacher for p in batch])
    xs = np.vstack([p.x_student for p in batch])
    return xt, xs


def dino_loss(
    model: ToyModel, ema: EmaState, batch: list[ViewPair], cfg: LossConfig
) -> tuple[float, Gradients]:
    """Teacher-student distillation term with its analytic student gradient.

    Teacher probabilities come from the EMA teacher's projection head on the
    teacher views (no gradient flows there); student probabilities from the
    student head on the student views. The loss is the batch-mean
    cross-entropy between the two distributions.
    """
    xt, xs = _stack_views(batch)
    if xt.shape[1] != model.d_in:
        raise ValueError(f"batch dim {xt.shape[1]} != model dim {model.d_in}")
    b = len(batch)
    p_teacher = softmax_temp(xt @ ema.teacher.proj, cfg.tau_teacher)
    student_scaled = (xs @ model.proj) / cfg.tau_student
    log_p_student = _log_softmax(student_scaled)
    loss = float(-(p_teacher * log_p_student).sum() / b)

    p_student = np.exp(log_p_student)
    d_logits = (p_student - p_teacher) / (b * cfg.tau_student)
    grads = Gradients(xs.T @ d_logits, np.zeros_like(model.clf))
    return loss, grads


def balanced_ce(
    model: ToyModel, batch: list[ViewPair], weights: ClassWeights
) -> tuple[float, Gradients]:
    """Class-weighted cross-entropy of the classifier head on student views."""
    if not batch:
        raise ValueError("empty batch")
    labels = []
    for p in batch:
        if p.label is None:
            raise ValueError("unlabeled sample in a supervised batch")
        labels.append(int(p.label))
    if max(labels) >= model.n_classes or min(labels) < 0:
        raise ValueError("label out of range for the classifier head")
    if len(weights) != model.n_classes:
        raise ValueError("weight vector length != class count")

    xs = np.vstack([p.x_student for p in batch])
    b = len(batch)
    w = weights.w[labels]  # (b,)
    logits = xs @ model.clf
    log_p = _log_softmax(logits)
    loss = float(-(w * log_p[np.arange(b), labels]).sum() / b)

    p = np.exp(log_p)
    d_logits = p * w[:, None]
    d_logits[np.arange(b), labels] -= w
    d_logits /= b
    return loss, Gradients(np.zeros_like(model.proj), xs.T @ d_logits)


def total_loss(
    model: ToyModel,
    ema: EmaState,
    batch: list[ViewPair],
    weights: ClassWeights,
    cfg: LossConfig,
) -> tuple[float, Gradients]:
    """Weighted sum of the distillation and supervised terms.

    The distillation term sees the whole batch; the supervised term sees
    only the labeled samples (and errors if a positive weight finds none).
    """
    return _loss_terms(model, ema, batch, weights, cfg)[2:]


def _loss_terms(model, ema, batch, weights, cfg) -> tuple[float, float, float, Gradients]:
    """Distillation and supervised losses (0.0 if unweighted), then what total_loss returns."""
    l_dino = l_sup = loss = 0.0
    grads = Gradients.zeros_like(model)
    if cfg.lambda_dino > 0:
        l_dino, g_dino = dino_loss(model, ema, batch, cfg)
        loss += cfg.lambda_dino * l_dino
        grads.proj += cfg.lambda_dino * g_dino.proj
    if cfg.lambda_sup > 0:
        labeled = [p for p in batch if p.label is not None]
        if not labeled:
            raise ValueError("supervised weight is positive but the batch has no labels")
        l_sup, g_sup = balanced_ce(model, labeled, weights)
        loss += cfg.lambda_sup * l_sup
        grads.clf += cfg.lambda_sup * g_sup.clf
    return l_dino, l_sup, loss, grads


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    dino: float
    sup: float
    total: float
    eval_mf1: float


def _eval_mf1(model: ToyModel, pairs: list[ViewPair]) -> float:
    xs = np.vstack([p.x_student for p in pairs])
    labels = [int(p.label) for p in pairs]
    preds = np.argmax(xs @ model.clf, axis=1)
    return macro_f1(ConfusionMatrix.from_pairs(labels, preds, model.n_classes))


def train_toy(
    train: list[ViewPair],
    eval_pairs: list[ViewPair],
    *,
    epochs: int,
    lr: float,
    cfg: LossConfig,
    proj_dim: int,
    n_classes: int,
    seed: int,
    momentum: float = DEFAULT_MOMENTUM,
    weights: ClassWeights | None = None,
) -> tuple[ToyModel, list[TraceRow]]:
    """Full-batch gradient descent with an EMA teacher update per step.

    Returns the snapshot with the highest eval macro F1 (earliest epoch on
    ties) and the per-epoch trace. Deterministic given the seed.
    """
    if not train:
        raise TrainingError("empty training set")
    if not eval_pairs or any(p.label is None for p in eval_pairs):
        raise TrainingError("eval split must be nonempty and fully labeled")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")

    if weights is None:
        labels = [int(p.label) for p in train if p.label is not None]
        if labels and cfg.lambda_sup > 0:
            counts = np.bincount(labels, minlength=n_classes)
            weights = class_weights_from_counts(counts)
        else:
            weights = ClassWeights(np.ones(n_classes))

    rng = np.random.default_rng(seed)
    d_in = train[0].x_student.shape[0]
    student = ToyModel.init_random(d_in, proj_dim, n_classes, rng)
    ema = EmaState.from_student(student, momentum)

    trace: list[TraceRow] = []
    best_model: ToyModel | None = None
    best_mf1 = -1.0
    for epoch in range(1, epochs + 1):
        l_dino, l_sup, l_total, grads = _loss_terms(student, ema, train, weights, cfg)
        if not np.isfinite(l_total):
            raise TrainingError(
                f"training diverged at epoch {epoch} (loss={l_total!r}, lr={lr})"
            )
        student = ToyModel(student.proj - lr * grads.proj, student.clf - lr * grads.clf)
        ema = ema_update(ema, student)
        mf1 = _eval_mf1(student, eval_pairs)
        trace.append(TraceRow(epoch, l_dino, l_sup, l_total, mf1))
        if mf1 > best_mf1:
            best_mf1 = mf1
            best_model = student.copy()

    return best_model, trace


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` at ``x``, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return grad


def relative_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max absolute discrepancy, normalized by the largest gradient magnitude."""
    scale = max(float(np.abs(analytic).max(initial=0.0)),
                float(np.abs(numeric).max(initial=0.0)), 1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def _random_case(rng: np.random.Generator):
    d_in = int(rng.integers(3, 9))
    proj_dim = int(rng.integers(2, 7))
    n_classes = int(rng.integers(2, 6))
    b = int(rng.integers(2, 7))
    model = ToyModel.init_random(d_in, proj_dim, n_classes, rng, scale=0.5)
    ema = EmaState(ToyModel.init_random(d_in, proj_dim, n_classes, rng, scale=0.5), 0.99)
    batch = [
        ViewPair(rng.standard_normal(d_in), rng.standard_normal(d_in), int(rng.integers(n_classes)))
        for _ in range(b)
    ]
    cfg = LossConfig(
        lambda_dino=float(rng.uniform(0.3, 2.0)),
        lambda_sup=float(rng.uniform(0.3, 2.0)),
        tau_teacher=float(rng.uniform(0.04, 0.5)),
        tau_student=float(rng.uniform(0.08, 0.5)),
    )
    weights = class_weights_from_counts(rng.integers(1, 9, size=n_classes))
    return model, ema, batch, cfg, weights


def grad_check_report(seed: int = 0, trials: int = 50, h: float = 1e-5) -> dict[str, float]:
    """Worst relative gradient error per loss over random configurations.

    Each trial draws random heads, batch, temperatures, and weights, then
    compares every analytic gradient against central finite differences on
    the corresponding scalar loss.
    """
    rng = np.random.default_rng(seed)
    worst = {"dino": 0.0, "balanced_ce": 0.0, "total": 0.0}
    for _ in range(trials):
        model, ema, batch, cfg, weights = _random_case(rng)

        def with_params(proj, clf):
            return ToyModel(proj, clf)

        _, g = dino_loss(model, ema, batch, cfg)
        num = finite_diff_grad(
            lambda p: dino_loss(with_params(p, model.clf), ema, batch, cfg)[0],
            model.proj.copy(), h,
        )
        worst["dino"] = max(worst["dino"], relative_grad_error(g.proj, num))

        _, g = balanced_ce(model, batch, weights)
        num = finite_diff_grad(
            lambda c: balanced_ce(with_params(model.proj, c), batch, weights)[0],
            model.clf.copy(), h,
        )
        worst["balanced_ce"] = max(worst["balanced_ce"], relative_grad_error(g.clf, num))

        _, g = total_loss(model, ema, batch, weights, cfg)
        num_p = finite_diff_grad(
            lambda p: total_loss(with_params(p, model.clf), ema, batch, weights, cfg)[0],
            model.proj.copy(), h,
        )
        num_c = finite_diff_grad(
            lambda c: total_loss(with_params(model.proj, c), ema, batch, weights, cfg)[0],
            model.clf.copy(), h,
        )
        err = max(relative_grad_error(g.proj, num_p), relative_grad_error(g.clf, num_c))
        worst["total"] = max(worst["total"], err)
    return worst


def make_toy_dataset(
    n_classes: int,
    dim: int,
    per_class: int,
    separation: float,
    view_sigma: float,
    seed: int,
) -> tuple[list[ViewPair], list[ViewPair]]:
    """Gaussian class clusters rendered as two-view pairs; split train/eval.

    Views are independent additive-noise perturbations of the same base
    sample. Class means are mutually orthogonal directions scaled by
    ``separation``, so the classes are linearly separable when the view
    noise is small against it.
    """
    if n_classes > dim:
        raise ValueError("need dim >= n_classes for orthogonal class means")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, n_classes)))
    means = separation * basis.T  # (n_classes, dim)
    train: list[ViewPair] = []
    eval_pairs: list[ViewPair] = []
    n_eval = max(1, int(per_class * _EVAL_FRACTION))
    for c in range(n_classes):
        for j in range(per_class):
            base = means[c] + rng.standard_normal(dim)
            pair = ViewPair(
                base + view_sigma * rng.standard_normal(dim),
                base + view_sigma * rng.standard_normal(dim),
                c,
            )
            (eval_pairs if j < n_eval else train).append(pair)
    return train, eval_pairs
