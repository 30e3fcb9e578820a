"""Parallel spiking neurons via membrane-potential estimation.

Public surface: tensor/RNG primitives (:mod:`mpepsn.numerics`), neuron
dynamics (:mod:`mpepsn.neuron`), the reverse-mode tape
(:mod:`mpepsn.autograd`), losses, the :class:`SpikingClassifier` estimator,
synthetic datasets, and the speed benchmark.
"""

from .autograd import ParamRegistry, Var, backward, finite_diff_check, surrogate_grad
from .datagen import DatasetSpec, LabeledBatch, generate
from .losses import MemLossConfig, cls_loss, mem_loss, total_loss
from .network import EpochDiagnostics, SpikingClassifier
from .neuron import (
    NeuronParams,
    ParallelTrace,
    lif_sequential,
    mpe_psn_forward,
    mpe_psn_spikes,
    teacher_forced_forward,
)
from .numerics import Rng, WorkerPool, l2_norm, matmul

__all__ = [
    "ParamRegistry", "Var", "backward", "finite_diff_check", "surrogate_grad",
    "DatasetSpec", "LabeledBatch", "generate",
    "MemLossConfig", "cls_loss", "mem_loss", "total_loss",
    "EpochDiagnostics", "SpikingClassifier",
    "NeuronParams", "ParallelTrace",
    "lif_sequential", "mpe_psn_forward", "mpe_psn_spikes", "teacher_forced_forward",
    "Rng", "WorkerPool", "l2_norm", "matmul",
]

__version__ = "0.1.0"
