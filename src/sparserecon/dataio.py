"""CSV / JSON file helpers.

Matrices and vectors travel as headerless comma-separated values with '.'
as the decimal mark (row-major for matrices, one value per line for
vectors).  Results serialize to JSON through the ``to_json_dict``
methods on the result dataclasses.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError


def load_matrix_csv(path) -> np.ndarray:
    try:
        matrix = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"could not read matrix CSV {path}: {exc}") from exc
    return matrix


def save_matrix_csv(path, matrix) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=float), delimiter=",")


def load_vector_csv(path) -> np.ndarray:
    """Read a vector; accepts one value per line or a single CSV row."""
    try:
        data = np.loadtxt(path, delimiter=",", dtype=float)
    except (OSError, ValueError) as exc:
        raise InputError(f"could not read vector CSV {path}: {exc}") from exc
    data = np.atleast_1d(data)
    if data.ndim != 1:
        if 1 in data.shape:
            data = data.ravel()
        else:
            raise InputError(f"{path} holds a matrix, expected a vector")
    return data


def save_vector_csv(path, vector) -> None:
    np.savetxt(path, np.asarray(vector, dtype=float).ravel(), delimiter=",")


def save_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
