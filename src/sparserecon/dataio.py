"""CSV / JSON file helpers.

Matrices and vectors travel as headerless comma-separated values with '.'
as the decimal mark (row-major for matrices, one value per line for
vectors), in UTF-8 text; a file named ``*.gz``, ``*.bz2``, ``*.xz`` or
``*.lzma`` is decompressed first.  Results serialize to JSON through the
``to_json_dict`` methods on the result dataclasses; a non-finite float,
such as the +inf USS score of an exact fit, is written as the string
"inf", "-inf" or "nan".  Read and write failures raise ``InputError``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import warnings

import numpy as np

from .errors import InputError

# The compressed suffixes numpy's loader decodes when given a path, and the
# module whose ``open`` reads each.
_DECOMPRESSORS = {".gz": "gzip", ".bz2": "bz2", ".xz": "lzma", ".lzma": "lzma"}


def _load_csv(path, what: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of a comma-separated file, read errors as InputError.

    The file is opened here, decompressed by its suffix as numpy would, and
    ``np.loadtxt`` reads the handle, which skips numpy's per-path
    ``DataSource`` layer.  An empty file loads as an empty array without
    numpy's "no data" warning; the caller's shape checks report it as one
    clean error.
    """
    module = _DECOMPRESSORS.get(os.path.splitext(os.fspath(path))[1])
    opener = open if module is None else importlib.import_module(module).open
    try:
        with opener(path, "rt", encoding="utf-8") as handle, \
                warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(handle, delimiter=",", dtype=float, **kwargs)
    except (OSError, ValueError) as exc:
        raise InputError(f"could not read {what} CSV {path}: {exc}") from exc


def _save(path, what: str, write) -> None:
    """Open ``path`` for writing and hand it to ``write``; write errors as
    InputError."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
    except OSError as exc:
        raise InputError(f"could not write {what} {path}: {exc}") from exc


def load_matrix_csv(path) -> np.ndarray:
    return _load_csv(path, "matrix", ndmin=2)


def save_matrix_csv(path, matrix) -> None:
    matrix = np.asarray(matrix, dtype=float)
    _save(path, "matrix CSV", lambda handle: np.savetxt(handle, matrix, delimiter=","))


def load_vector_csv(path) -> np.ndarray:
    """Read a vector; accepts one value per line or a single CSV row.

    ``np.loadtxt`` squeezes length-1 axes, so either layout loads 1-D and
    only a matrix of at least two rows and two columns stays 2-D.
    """
    data = np.atleast_1d(_load_csv(path, "vector"))
    if data.ndim != 1:
        raise InputError(f"{path} holds a matrix, expected a vector")
    return data


def save_vector_csv(path, vector) -> None:
    vector = np.asarray(vector, dtype=float).ravel()
    _save(path, "vector CSV", lambda handle: np.savetxt(handle, vector, delimiter=","))


def save_text(path, text: str) -> None:
    _save(path, "file", lambda handle: handle.write(text))


def _json_safe(value):
    """``value`` with every non-finite float written as the string "inf",
    "-inf" or "nan", which strict JSON (RFC 8259) can carry."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def save_json(path, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), indent=2, allow_nan=False)
    save_text(path, text + "\n")
