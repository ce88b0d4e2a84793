"""Exception types shared across the package.

Two failure modes are distinguished because the command-line tool maps
them to different exit codes: bad user input (exit 2) versus a
combinatorial computation whose size guard was exceeded (exit 3).
``_require_integer`` is the one check that a count (a sparsity level, an
iteration cap, a search bound) is an integer.
"""

import numpy as np


class InputError(ValueError):
    """Invalid input: bad dimensions, values out of range, malformed files."""


class SizeGuardError(RuntimeError):
    """An exact combinatorial computation would exceed its enumeration guard."""


def _require_integer(value, name: str) -> None:
    """Raise :class:`InputError` unless ``value`` is a Python or numpy integer."""
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
