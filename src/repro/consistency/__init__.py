"""SC verification: the witness checker and litmus tests."""

from repro.consistency.checker import (
    AXIOMS, SCChecker, Violation, is_init_value,
)

__all__ = ["SCChecker", "Violation", "AXIOMS", "is_init_value"]
