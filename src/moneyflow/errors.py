"""Exceptions shared by the analyses, in a module of their own so that
raising or catching one loads no analysis."""

from __future__ import annotations

__all__ = ["ConvergenceError"]


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
