"""Backend factory used by the engines and benchmarks."""

from __future__ import annotations

from repro.accum.asa_accum import ASAAccumulator
from repro.accum.base import Accumulator
from repro.accum.plain import PlainDictAccumulator
from repro.accum.robinhood import RobinHoodAccumulator
from repro.accum.softhash import SoftwareHashAccumulator
from repro.sim.context import HardwareContext
from repro.sim.counters import Counters

__all__ = ["make_accumulator", "BACKENDS"]

BACKENDS = ("plain", "softhash", "robinhood", "asa")


def make_accumulator(
    backend: str,
    ctx: HardwareContext | None = None,
    counters: Counters | None = None,
    overflow_counters: Counters | None = None,
    **kwargs,
) -> Accumulator:
    """Create an accumulator backend by name.

    ``plain`` needs no context; ``softhash`` and ``asa`` require ``ctx``
    and ``counters``.
    """
    if backend == "plain":
        return PlainDictAccumulator()
    if ctx is None or counters is None:
        raise ValueError(f"backend {backend!r} requires ctx and counters")
    if backend == "softhash":
        return SoftwareHashAccumulator(ctx, counters, **kwargs)
    if backend == "robinhood":
        return RobinHoodAccumulator(ctx, counters, **kwargs)
    if backend == "asa":
        return ASAAccumulator(ctx, counters, overflow_counters, **kwargs)
    raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
