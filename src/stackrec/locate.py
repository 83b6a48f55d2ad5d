"""BLE-beacon positioning: RSSI observations in, patron coordinates out.

Log-distance path loss turns RSSI into a range estimate per beacon; the
position is the 1/d-weighted centroid of the k strongest known beacons.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .config import read_table

log = logging.getLogger(__name__)

DEFAULT_TX_POWER = -59.0        # dBm at 1 m, conventional for BLE proximity beacons
DEFAULT_PATH_LOSS_EXPONENT = 2.0
DEFAULT_K = 3


class NoKnownBeacons(ValueError):
    """No observation matched a deployed beacon."""


@dataclass(frozen=True)
class Beacon:
    beacon_id: str
    x: float
    y: float
    tx_power: float = DEFAULT_TX_POWER

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite beacon position ({self.x}, {self.y})")
        if not -100.0 <= self.tx_power <= 0.0:
            raise ValueError(f"tx_power out of [-100, 0]: {self.tx_power}")


@dataclass(frozen=True)
class BeaconObservation:
    beacon_id: str
    rssi: float

    def __post_init__(self):
        if not -120.0 <= self.rssi <= 0.0:
            raise ValueError(f"rssi out of [-120, 0]: {self.rssi}")


@dataclass(frozen=True)
class PatronLocation:
    x: float
    y: float
    confidence_radius: float = 0.0


def rssi_to_distance(rssi: float, tx_power: float, path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT) -> float:
    """Log-distance path-loss model: d = 10^((tx_power - rssi) / (10 n)), meters."""
    if path_loss_exponent <= 0:
        raise ValueError("path_loss_exponent must be > 0")
    return 10.0 ** ((tx_power - rssi) / (10.0 * path_loss_exponent))


def estimate_position(
    observations: list[BeaconObservation],
    deployment: list[Beacon],
    k: int = DEFAULT_K,
    path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
) -> PatronLocation:
    """Weighted centroid of the k strongest matched beacons, weights 1/d.

    Observations naming unknown beacons are ignored (counted in a warning).
    The confidence radius is the weighted mean of the per-beacon distances.
    """
    by_id = {b.beacon_id: b for b in deployment}
    matched = [(obs, by_id[obs.beacon_id]) for obs in observations if obs.beacon_id in by_id]
    unknown = len(observations) - len(matched)
    if unknown:
        log.warning("ignoring %d observation(s) for unknown beacons", unknown)
    if not matched:
        raise NoKnownBeacons("no observation matches a deployed beacon")
    # strongest = highest rssi; ties broken by beacon_id for determinism
    matched.sort(key=lambda pair: (-pair[0].rssi, pair[1].beacon_id))
    matched = matched[:k]

    weights, xs, ys, dists = [], [], [], []
    for obs, beacon in matched:
        d = max(rssi_to_distance(obs.rssi, beacon.tx_power, path_loss_exponent), 1e-9)
        weights.append(1.0 / d)
        dists.append(d)
        xs.append(beacon.x)
        ys.append(beacon.y)
    total = sum(weights)
    x = sum(w * xi for w, xi in zip(weights, xs)) / total
    y = sum(w * yi for w, yi in zip(weights, ys)) / total
    radius = sum(w * d for w, d in zip(weights, dists)) / total
    return PatronLocation(x, y, radius)


def load_beacons(path: str | Path) -> list[Beacon]:
    """Load a ``beacon_id,x,y,tx_power`` CSV; blank tx_power falls back to the default."""
    beacons: list[Beacon] = []
    seen: set[str] = set()
    rows = read_table(path, ("beacon_id", "x", "y"), optional=("tx_power",))
    for row_no, (beacon_id, x, y, tx_raw) in rows:
        beacon_id = beacon_id.strip()
        if beacon_id in seen:
            raise ValueError(f"{path} row {row_no}: duplicate beacon_id {beacon_id!r}")
        seen.add(beacon_id)
        tx_raw = tx_raw.strip()
        try:
            tx_power = float(tx_raw) if tx_raw else DEFAULT_TX_POWER
            beacons.append(Beacon(beacon_id=beacon_id, x=float(x), y=float(y), tx_power=tx_power))
        except ValueError as exc:
            raise ValueError(f"{path} row {row_no}: {exc}") from None
    return beacons
