"""Training loop: teacher-forced next-token prediction on synthetic tasks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autograd.ops import cross_entropy
from ..autograd.optim import Adam, clip_grad_norm
from ..errors import ConfigError
from ..model.transformer import ModelConfig, MoETransformer
from .model import TrainableMoETransformer
from .tasks import Example, Task


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 300
    batch_size: int = 4
    lr: float = 3e-3
    grad_clip: float = 1.0
    seed: int = 0
    log_every: int = 50
    # Router weight-entropy regularizer (see TrainableMoETransformer._moe):
    # spreads gate mass over the selected experts like load-balanced
    # production training does.
    router_entropy_coef: float = 0.0


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def initial_loss(self) -> float:
        return self.losses[0] if self.losses else float("nan")


def example_loss(model: TrainableMoETransformer, ex: Example,
                 router_entropy_coef: float = 0.0):
    """Cross-entropy of the answer tokens under teacher forcing.

    The model sees ``prompt + target[:-1]`` and is scored on predicting
    each target token at its position.  ``router_entropy_coef`` adds the
    router weight-entropy regularizer collected during the forward pass.
    """
    tokens = np.concatenate([ex.prompt, ex.target])
    logits = model.forward(tokens[:-1])
    n_answer = len(ex.target)
    answer_logits = logits.take_rows(
        np.arange(len(tokens) - 1 - n_answer, len(tokens) - 1)
    )
    loss = cross_entropy(answer_logits, ex.target)
    if router_entropy_coef > 0.0:
        for aux in model.aux_losses:
            loss = loss + aux * router_entropy_coef
    return loss


def train(model: TrainableMoETransformer, examples: list[Example],
          config: TrainConfig = TrainConfig()) -> TrainReport:
    """Run the training loop in place; returns per-step mean losses."""
    if not examples:
        raise ConfigError("no training examples")
    opt = Adam(model.parameters(), lr=config.lr)
    rng = np.random.default_rng(config.seed)
    report = TrainReport()
    for step in range(config.steps):
        batch_idx = rng.integers(0, len(examples), size=config.batch_size)
        opt.zero_grad()
        total = 0.0
        for bi in batch_idx:
            loss = example_loss(model, examples[int(bi)],
                                router_entropy_coef=config.router_entropy_coef)
            loss.backward()
            total += float(loss.data)
        clip_grad_norm(model.parameters(), config.grad_clip)
        opt.step()
        report.losses.append(total / config.batch_size)
    return report


def train_for_task(
    model_config: ModelConfig,
    task: Task,
    n_train: int = 256,
    train_config: TrainConfig = TrainConfig(),
    split_seed: int = 0,
) -> tuple[MoETransformer, TrainReport, list[Example]]:
    """Train a fresh model on ``task`` and deploy it for inference.

    Returns the *inference* model (weights exported from the trained twin),
    the training report, and the held-out test examples.
    """
    if model_config.vocab_size < task.min_vocab:
        raise ConfigError(
            f"vocab {model_config.vocab_size} too small for task "
            f"{task.name!r} (needs {task.min_vocab})"
        )
    trainable = TrainableMoETransformer(model_config)
    train_split, test_split = task.splits(n_train, n_test=64, seed=split_seed)
    report = train(trainable, train_split, train_config)
    deployed = MoETransformer(model_config)
    deployed.load_state_dict(trainable.export_state_dict())
    return deployed, report, test_split
