"""Optimal-transport feature-sequence conversion at desk scale.

Importing the package loads no submodule and so no numpy: the command-line
entry point pins BLAS thread counts via environment variables before numpy
is first imported. Import submodules by name (``from otconvert import
discrete``).
"""

__version__ = "0.1.0"
