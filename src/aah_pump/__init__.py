"""Adiabatic charge pumping in commensurate Aubry-Andre-Harper chains."""

from .model import ModelParams, TunnelingMode

__version__ = "0.1.0"

__all__ = ["ModelParams", "TunnelingMode", "__version__"]
