"""Preprocessing pipeline: velocity models, the spec-driven Fig. 8 stages and their cache."""

from .pipeline import PreprocessingPipeline
from .velocity_model import LaHabraBasinModel, Layer, LayeredVelocityModel, loh3_model

__all__ = [
    "Layer",
    "LayeredVelocityModel",
    "loh3_model",
    "LaHabraBasinModel",
    "PreprocessingPipeline",
]
