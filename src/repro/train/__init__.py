"""Training substrate: trainable model twin, synthetic tasks, trainer."""

from .model import TrainableMoETransformer
from .tasks import BOS, SEP, Example, Task, default_suite, task
from .trainer import TrainConfig, TrainReport, example_loss, train, train_for_task

__all__ = [
    "TrainableMoETransformer",
    "BOS", "SEP", "Example", "Task", "default_suite", "task",
    "TrainConfig", "TrainReport", "example_loss", "train", "train_for_task",
]
