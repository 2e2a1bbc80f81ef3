"""SC verification: the timestamp witness checker. The litmus shapes are
corpus programs (``tests/corpus/``) judged by it and by the interleaving
oracle (:mod:`repro.fuzz.oracle`)."""

from repro.consistency.checker import (
    AXIOMS, SCChecker, Violation, is_init_value,
)

__all__ = ["SCChecker", "Violation", "AXIOMS", "is_init_value"]
