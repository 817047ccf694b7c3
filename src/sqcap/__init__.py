"""Capacity bounds and achievable rates for Gaussian channels read through
a budget of sign quantizers.

The library covers four analog front-end architectures (per-quantizer
antenna selection with or without thresholds, shared selection, and
unrestricted linear combining), closed-form capacity bounds for each,
power/quantizer allocation over parallel subchannels, constructive PAM
and dithered modulation schemes, and Monte-Carlo sweeps over random
channel draws.
"""

from . import bounds, channel, dmc, schemes, sweeps, tailmath
from .bounds import *
from .channel import *
from .dmc import *
from .schemes import *
from .sweeps import *
from .tailmath import *

__version__ = "0.1.0"

__all__ = [
    *(name for mod in (bounds, channel, dmc, schemes, sweeps, tailmath) for name in mod.__all__),
    "__version__",
]
