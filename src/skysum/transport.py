"""Kinematic motion of discrete skyrmions along a track.

One motion law: every forward pulse translates a live skyrmion by
``dx = v(J) t`` along the track and ``dy = dx tan(theta_H)`` across it
(the skyrmion Hall deflection), and reaching the far edge or passing the
track end annihilates it.  ``trajectory`` gives the state after 0..n-1
pulses from each site; ``advance`` is its one-pulse step on a labelled
population.  Reverse pulses retrace the same oblique path back towards the
nucleation notch, where skyrmions are usually annihilated but occasionally
pin as residuals.  Crowding and the field reset act on counts, in the
sequencer and the crossbar, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import (
    DEFAULT_NOTCH_X_UM,
    FORWARD,
    REVERSE,
    DeviceCalibration,
    PulseTrain,
    step_displacement,
)

#: How far past the downstream zone boundary a crowded-out skyrmion is
#: parked (um).  The detection box is closed, so any positive offset is
#: "just beyond"; the crossbar's capacity clamp is exact only for zones
#: further apart than this.
CAPACITY_DISPLACEMENT_UM = 1e-3


@dataclass(frozen=True)
class SkyrmionPopulation:
    """Positions of the discrete skyrmions on one track.

    ``pinned`` marks skyrmions parked at the notch by an incomplete reverse
    erase; they stay put under further reverse pulses and are released by
    the next forward pulse.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alive: np.ndarray
    pinned: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        for name in ("x", "y", "alive", "pinned"):
            if len(getattr(self, name)) != n:
                raise ValueError("population arrays must have equal length")
        if len(np.unique(self.ids)) != n:
            raise ValueError("skyrmion ids must be unique")

    @classmethod
    def empty(cls) -> "SkyrmionPopulation":
        return cls(
            ids=np.empty(0, dtype=np.int64),
            x=np.empty(0, dtype=float),
            y=np.empty(0, dtype=float),
            alive=np.empty(0, dtype=bool),
            pinned=np.empty(0, dtype=bool),
        )

    @classmethod
    def at_positions(cls, xy) -> "SkyrmionPopulation":
        """Population with live skyrmions at the given (x, y) pairs."""
        arr = np.atleast_2d(np.asarray(xy, dtype=float))
        n = arr.shape[0]
        return cls(
            ids=np.arange(n, dtype=np.int64),
            x=arr[:, 0].copy(),
            y=arr[:, 1].copy(),
            alive=np.ones(n, dtype=bool),
            pinned=np.zeros(n, dtype=bool),
        )

    @property
    def n_alive(self) -> int:
        return int(np.count_nonzero(self.alive))

    def spawn(self, n: int, x: float, y: float) -> "SkyrmionPopulation":
        """Append ``n`` live skyrmions at (x, y) with fresh ids."""
        if n <= 0:
            return self
        next_id = int(self.ids.max()) + 1 if self.ids.size else 0
        return SkyrmionPopulation(
            ids=np.concatenate([self.ids, np.arange(next_id, next_id + n)]),
            x=np.concatenate([self.x, np.full(n, float(x))]),
            y=np.concatenate([self.y, np.full(n, float(y))]),
            alive=np.concatenate([self.alive, np.ones(n, dtype=bool)]),
            pinned=np.concatenate([self.pinned, np.zeros(n, dtype=bool)]),
        )


@dataclass(frozen=True)
class DetectionZone:
    """Square detection box around a Hall cross (closed on its boundary).

    ``capacity`` is the crowding limit: how many skyrmions fit before the
    box saturates and newcomers are crowded out downstream.
    """

    center_x: float
    center_y: float
    side: float = 6.0
    capacity: int = 81

    def __post_init__(self):
        if self.side <= 0:
            raise ValueError("side must be positive")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        h = self.side / 2.0
        return (self.center_x - h, self.center_x + h,
                self.center_y - h, self.center_y + h)

    @property
    def area_um2(self) -> float:
        return self.side * self.side

    def contains(self, x, y):
        x0, x1, y0, y1 = self.bounds
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def default_capacity(side_um: float, diameter_nm: float) -> int:
    """Crowding limit from a 3-diameter spacing heuristic; at least one.
    A limit that is not a finite number raises ValueError."""
    with np.errstate(over="ignore", divide="ignore"):
        ratio = (np.float64(side_um) / (3.0 * diameter_nm * 1e-3)) ** 2
    if not np.isfinite(ratio):
        raise ValueError(f"the zone capacity {ratio} is not a finite number")
    return max(1, math.floor(ratio))


def zone_within_track(zone: DetectionZone, cal: DeviceCalibration) -> bool:
    x0, x1, y0, y1 = zone.bounds
    return (x0 >= 0 and x1 <= cal.track_length
            and y0 >= 0 and y1 <= cal.track_width)


def notch_position(cal: DeviceCalibration) -> tuple[float, float]:
    """Coordinates where new skyrmions enter the track."""
    return (DEFAULT_NOTCH_X_UM, cal.notch_y)


def advance(pop: SkyrmionPopulation, pulse: PulseTrain,
            cal: DeviceCalibration) -> SkyrmionPopulation:
    """Apply one forward pulse: move every live skyrmion as row 1 of its
    ``trajectory``.

    Skyrmions whose deflection carries them to the far track edge, or past
    the end of the track, are annihilated.  Forward motion releases any
    notch-pinned residuals.
    """
    if pulse.polarity != FORWARD:
        raise ValueError("advance requires a forward pulse")
    if pulse.count != 1:
        raise ValueError("advance applies exactly one pulse (count = 1)")
    x, y, on_track = trajectory(np.column_stack((pop.x, pop.y)), pulse, cal, 2)
    return SkyrmionPopulation(
        ids=pop.ids,
        x=np.where(pop.alive, x[1], pop.x),
        y=np.where(pop.alive, y[1], pop.y),
        alive=pop.alive & on_track[1],
        pinned=np.zeros_like(pop.pinned),
    )


def trajectory(sites, pulse: PulseTrain, cal: DeviceCalibration,
               n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, alive), each (n, len(sites)): row k is the state after k
    forward pulses of a skyrmion started live at each (x, y) site.

    Rows are running sums, so row k equals k ``advance`` steps bit for
    bit for a skyrmion still live.  ``pulse.count`` is not read.
    """
    if pulse.polarity != FORWARD:
        raise ValueError("trajectory requires a forward pulse")
    steps = np.empty((n, len(sites), 2))
    if n:
        steps[0] = sites
        steps[1:] = step_displacement(cal, pulse)
    x, y = np.moveaxis(np.cumsum(steps, axis=0), 2, 0)
    on_track = (y < cal.track_width) & (x <= cal.track_length)
    on_track[:1] = True
    return x, y, np.logical_and.accumulate(on_track, axis=0)


def reverse_erase(pop: SkyrmionPopulation, pulses: PulseTrain,
                  cal: DeviceCalibration, residual_prob: float,
                  rng: np.random.Generator) -> SkyrmionPopulation:
    """Apply reverse pulses that retrace skyrmions back towards the notch.

    A skyrmion arriving at the notch (x falling to or below the notch
    position) is annihilated with probability ``1 - residual_prob``,
    otherwise it pins there as a residual.  Each skyrmion is rolled once,
    on arrival.
    """
    if pulses.polarity != REVERSE:
        raise ValueError("reverse_erase requires reverse polarity")
    if not 0.0 <= residual_prob <= 1.0:
        raise ValueError("residual_prob must lie in [0, 1]")
    forward_like = PulseTrain(1, pulses.current_density, pulses.duration)
    dx, dy = step_displacement(cal, forward_like)
    nx, ny = notch_position(cal)

    x = pop.x.copy()
    y = pop.y.copy()
    alive = pop.alive.copy()
    pinned = pop.pinned.copy()
    for _ in range(pulses.count):
        moving = alive & ~pinned
        if not moving.any():
            break
        x_new = np.where(moving, x - dx, x)
        y_new = np.where(moving, y - dy, y)
        arrived = moving & (x_new <= nx)
        if arrived.any():
            n_arr = int(np.count_nonzero(arrived))
            survive = rng.random(n_arr) < residual_prob
            idx = np.flatnonzero(arrived)
            alive[idx] = survive
            pinned[idx[survive]] = True
            x_new[idx] = nx
            y_new[idx] = ny
        x, y = x_new, y_new
    return SkyrmionPopulation(ids=pop.ids, x=x, y=y, alive=alive,
                              pinned=pinned)
