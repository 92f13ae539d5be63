"""Shared utilities: RNG handling, serialization, atomic writes, validation, tables."""
from repro.utils.files import atomic_write
from repro.utils.rng import as_generator, spawn_rngs
from repro.utils.serialization import load_model, model_size_bytes, save_model
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_matching_rows,
    check_positive,
)

__all__ = [
    "atomic_write",
    "as_generator",
    "spawn_rngs",
    "model_size_bytes",
    "save_model",
    "load_model",
    "check_1d",
    "check_2d",
    "check_positive",
    "check_matching_rows",
    "format_table",
]
