"""segforge: brain tumor segmentation with a from-scratch autodiff engine.

A CPU-only, deterministic toolkit implementing an SE-ResNet-152 U-Net for
BraTS-style multi-modal MRI, on top of a tape-based reverse-mode autodiff
tensor library written directly against numpy.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, ContractError, DataError, FormatError,
                     NumericError, SegforgeError, ShapeError)
from .tensor import Tensor, backward, no_grad
from .model import ModelConfig, PRESETS, SegmentationModel, build_model
from .metrics import (binary_dice, binary_iou, dice_score, iou_score, mean_iou,
                      pixel_accuracy, soft_dice_loss)
from .data import VolumeSample, extract_slices, load_case, split_dataset, synth_case
from .nifti import read_nifti, write_nifti
from .svol import read_svol, write_svol
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .optim import Adam
from .train import RunConfig, evaluate, predict, run_preset, train

__all__ = [
    "__version__",
    "SegforgeError", "ShapeError", "ContractError", "ConfigError", "DataError",
    "FormatError", "NumericError",
    "Tensor", "backward", "no_grad",
    "ModelConfig", "PRESETS", "SegmentationModel", "build_model",
    "binary_dice", "binary_iou", "dice_score", "iou_score", "mean_iou",
    "pixel_accuracy", "soft_dice_loss",
    "VolumeSample", "extract_slices", "load_case", "split_dataset", "synth_case",
    "read_nifti", "write_nifti", "read_svol", "write_svol",
    "load_checkpoint", "restore_model", "save_checkpoint",
    "Adam",
    "RunConfig", "evaluate", "predict", "run_preset", "train",
]
