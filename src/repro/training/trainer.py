"""Mini-batch training loop shared by every stage of the pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Module
from repro.nn.losses import cross_entropy
from repro.nn.optim import AdamW, CosineSchedule, Optimizer
from repro.training.datasets import DatasetSplit
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int


@dataclass
class TrainingConfig:
    """Hyper-parameters of one training run (one pipeline stage)."""

    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 7.5e-4
    weight_decay: float = 0.05
    warmup_fraction: float = 0.1
    min_learning_rate: float = 1e-6
    gradient_clip: Optional[float] = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")


@dataclass
class TrainingHistory:
    """Per-epoch metrics of one run."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)


def evaluate_accuracy(model: Module, split: DatasetSplit, batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on a dataset split (in percent)."""
    was_training = model.training
    model.eval()
    correct = 0
    with no_grad():
        for images, labels in split.batches(batch_size, shuffle=False):
            logits = model(Tensor(images))
            correct += int(np.sum(np.argmax(logits.data, axis=-1) == labels))
    if was_training:
        model.train()
    return float(100.0 * correct / max(1, len(split)))


def clip_gradients(model: Module, max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    grads = []
    for param in model.parameters():
        if param.grad is not None:
            grads.append(param.grad)
            total += float(np.sum(param.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for grad in grads:
            grad *= scale
    return norm


class Trainer:
    """Runs epochs of cross-entropy (or custom-loss) training on one model."""

    def __init__(
        self,
        model: Module,
        train_split: DatasetSplit,
        test_split: DatasetSplit,
        config: Optional[TrainingConfig] = None,
        loss_fn: Optional[Callable[[Module, Tensor, np.ndarray], tuple]] = None,
        optimizer: Optional[Optimizer] = None,
    ) -> None:
        self.model = model
        self.train_split = train_split
        self.test_split = test_split
        self.config = config or TrainingConfig()

        def default_loss(model: Module, images: Tensor, labels: np.ndarray) -> tuple:
            logits = model(images)
            return cross_entropy(logits, labels), logits

        # A loss function returns (loss, logits); logits are reused for the
        # running training-accuracy estimate without a second forward pass.
        self.loss_fn = loss_fn or default_loss
        self.optimizer = optimizer or AdamW(
            model.parameters(), lr=self.config.learning_rate, weight_decay=self.config.weight_decay
        )
        steps_per_epoch = int(np.ceil(len(train_split) / self.config.batch_size))
        total_steps = max(1, steps_per_epoch * self.config.epochs)
        self.schedule = CosineSchedule(
            self.optimizer,
            base_lr=self.config.learning_rate,
            total_steps=total_steps,
            warmup_steps=int(self.config.warmup_fraction * total_steps),
            min_lr=self.config.min_learning_rate,
        )
        self._rng = as_generator(self.config.seed)

    def train_epoch(self) -> tuple:
        """One pass over the training split; returns (mean loss, accuracy %)."""
        self.model.train()
        losses = []
        correct = 0
        seen = 0
        for images, labels in self.train_split.batches(self.config.batch_size, shuffle=True, seed=self._rng):
            self.schedule.step()
            self.optimizer.zero_grad()
            batch = Tensor(images)
            loss, logits = self.loss_fn(self.model, batch, labels)
            loss.backward()
            if self.config.gradient_clip:
                clip_gradients(self.model, self.config.gradient_clip)
            self.optimizer.step()
            losses.append(loss.item())
            correct += int(np.sum(np.argmax(logits.data, axis=-1) == labels))
            seen += len(labels)
        return float(np.mean(losses)), float(100.0 * correct / max(1, seen))

    def fit(self, verbose: bool = False) -> TrainingHistory:
        """Train for the configured number of epochs, evaluating every epoch."""
        history = TrainingHistory()
        for epoch in range(self.config.epochs):
            loss, train_acc = self.train_epoch()
            test_acc = evaluate_accuracy(self.model, self.test_split, self.config.batch_size)
            history.train_loss.append(loss)
            history.train_accuracy.append(train_acc)
            history.test_accuracy.append(test_acc)
            if verbose:
                print(
                    f"epoch {epoch + 1:3d}/{self.config.epochs}: "
                    f"loss={loss:.4f} train_acc={train_acc:.2f}% test_acc={test_acc:.2f}%"
                )
        return history
