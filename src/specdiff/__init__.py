"""Spectral analysis and guidance-weight optimization for guided DDIM samplers
on circulant Gaussian models."""

__version__ = "0.1.0"

# A star import re-exports its submodule's __all__ and also binds the submodule.
from .spectral import *  # noqa: F403
from .schedule import *  # noqa: F403
from .transfer import *  # noqa: F403
from .objective import *  # noqa: F403
from .optimizer import *  # noqa: F403
from .simulator import *  # noqa: F403

__all__ = [
    *spectral.__all__,  # noqa: F405
    *schedule.__all__,  # noqa: F405
    *transfer.__all__,  # noqa: F405
    *objective.__all__,  # noqa: F405
    *optimizer.__all__,  # noqa: F405
    *simulator.__all__,  # noqa: F405
]
