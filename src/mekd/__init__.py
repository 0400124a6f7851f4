"""MEKD: mapping-emulation knowledge distillation from a blind teacher.

Train a generator whose latent width equals the class count to emulate
the teacher's inverse mapping, then distill a student by minimizing
distances between images the frozen generator produces from teacher and
student outputs, plus a KL term on the outputs themselves.
"""

from .autodiff import NonFiniteError, Tensor, no_grad
from .config import ConfigError, RunConfig
from .data import Dataset, parse_idx, serialize_idx, synth_blobs
from .distill import (BlindTeacher, DistillConfig, TeacherAnswerError, distill,
                      generation_distance, kld_loss)
from .gan import GanConfig, NoisePrior, sample_noise, train_gan
from .metrics import accuracy, frechet_distance, matrix_sqrt_psd
from .nets import Network, NetworkSpec, build_network
from .optim import SGD, TrainingDiverged, multistep_lr

__version__ = "0.1.0"

__all__ = [
    "BlindTeacher", "ConfigError", "Dataset", "DistillConfig", "GanConfig",
    "Network", "NetworkSpec", "NoisePrior", "NonFiniteError", "RunConfig",
    "SGD", "Tensor", "TeacherAnswerError", "TrainingDiverged", "accuracy",
    "build_network", "distill", "frechet_distance", "generation_distance",
    "kld_loss", "matrix_sqrt_psd", "multistep_lr", "no_grad", "parse_idx",
    "sample_noise", "serialize_idx", "synth_blobs", "train_gan", "__version__",
]
