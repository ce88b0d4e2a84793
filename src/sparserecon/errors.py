"""Exception types shared across the package.

Two failure modes are distinguished because the command-line tool maps
them to different exit codes: bad user input (exit 2) versus a
combinatorial computation whose size guard was exceeded (exit 3).
``_count`` is the one rule for every integer the library takes (a
sparsity level, a dimension, an iteration cap, a guard, a sample count, a
seed, an image side, a line count): a Python or numpy integer in range.
"""

import numpy as np


class InputError(ValueError):
    """Invalid input: bad dimensions, values out of range, malformed files."""


class SizeGuardError(RuntimeError):
    """An exact combinatorial computation would exceed its enumeration guard."""


def _count(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an ``int`` if it is a Python or numpy integer in [low, high]
    (no upper bound when ``high`` is None); otherwise raise :class:`InputError`."""
    if not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise InputError(f"{name}={value} outside [{low}, {high}]")
    if value < low:
        raise InputError(f"{name} must be at least {low}, got {value}")
    return int(value)
