"""Per-fingertip grasp instability detection from 3-axial tactile streams."""

__version__ = "0.1.0"
