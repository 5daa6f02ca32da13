"""Qubit labels, shared by the switch engine and the dense oracle layer."""

from __future__ import annotations

from typing import NamedTuple


class Qubit(NamedTuple):
    """Register label.  Node 0 is the central node, 1..N are end nodes."""

    node: int
    slot: int = 0
