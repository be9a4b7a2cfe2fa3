"""Physiological-model-based neural network for HR estimation from vo2.

The package is used through its ``pmbnn`` command (:mod:`pmbnn.cli`) and
its submodules; see the README for the layout.
"""

__version__ = "0.1.0"
