"""The scenario error type and the seed range, shared by every module.

This module imports nothing, so the scenario loader and the command line can
raise and catch scenario errors without loading the Monte Carlo engine.
"""
from __future__ import annotations

__all__ = ["ScenarioError", "SEED_LIMIT"]

# Seeds key a 64-bit Philox word; larger or negative seeds would alias.
SEED_LIMIT = 2**64


class ScenarioError(ValueError):
    """A scenario field violates its invariant; .field names the offender."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        self._message = message
        super().__init__(f"{field_name}: {message}")

    def __reduce__(self):
        # Rebuild through __init__, so an error raised in a pool worker
        # reaches the parent as the same ScenarioError.
        return type(self), (self.field, self._message)
