import itertools
import math
import random
import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stackrec.locate import (
    Beacon,
    BeaconObservation,
    NoKnownBeacons,
    estimate_position,
    load_beacons,
    rssi_to_distance,
)


def test_distance_is_one_meter_at_reference_power():
    assert rssi_to_distance(-59, -59) == pytest.approx(1.0)


def test_distance_hand_check():
    # 10^((−59 − (−79)) / 20) = 10^1
    assert rssi_to_distance(-79, -59, 2.0) == pytest.approx(10.0)


def test_distance_strictly_decreasing_in_rssi():
    assert rssi_to_distance(-60, -59) < rssi_to_distance(-70, -59)


def test_bad_path_loss_exponent():
    with pytest.raises(ValueError):
        rssi_to_distance(-60, -59, 0.0)


DEPLOYMENT = [
    Beacon("a", 0.0, 0.0),
    Beacon("b", 10.0, 0.0),
    Beacon("c", 10.0, 10.0),
    Beacon("d", 0.0, 10.0),
]


def test_single_beacon_centroid():
    loc = estimate_position([BeaconObservation("c", -60.0)], [Beacon("c", 10.0, 10.0)])
    assert (loc.x, loc.y) == (10.0, 10.0)


def test_two_equal_beacons_midpoint():
    obs = [BeaconObservation("a", -65.0), BeaconObservation("b", -65.0)]
    loc = estimate_position(obs, DEPLOYMENT)
    assert loc.x == pytest.approx(5.0)
    assert loc.y == pytest.approx(0.0)


def test_three_beacons_match_hand_computed_weights():
    obs = [
        BeaconObservation("a", -55.0),
        BeaconObservation("b", -65.0),
        BeaconObservation("c", -70.0),
    ]
    # independent recomputation of the weight formula
    dists = {bid: 10 ** ((-59 - rssi) / 20) for bid, rssi in [("a", -55), ("b", -65), ("c", -70)]}
    weights = {bid: 1 / d for bid, d in dists.items()}
    total = sum(weights.values())
    positions = {"a": (0, 0), "b": (10, 0), "c": (10, 10)}
    ex = sum(w * positions[bid][0] for bid, w in weights.items()) / total
    ey = sum(w * positions[bid][1] for bid, w in weights.items()) / total

    loc = estimate_position(obs, DEPLOYMENT, k=3)
    assert loc.x == pytest.approx(ex)
    assert loc.y == pytest.approx(ey)
    assert loc.confidence_radius == pytest.approx(
        sum(weights[b] * dists[b] for b in dists) / total
    )


def test_unknown_beacons_ignored():
    obs = [BeaconObservation("ghost", -50.0), BeaconObservation("a", -60.0)]
    loc = estimate_position(obs, DEPLOYMENT)
    assert (loc.x, loc.y) == (0.0, 0.0)


def test_no_known_beacons_raises():
    with pytest.raises(NoKnownBeacons):
        estimate_position([BeaconObservation("ghost", -50.0)], DEPLOYMENT)


def test_only_k_strongest_contribute():
    obs = [
        BeaconObservation("a", -50.0),
        BeaconObservation("b", -55.0),
        BeaconObservation("c", -60.0),
        BeaconObservation("d", -90.0),
    ]
    with_k3 = estimate_position(obs, DEPLOYMENT, k=3)
    without_d = estimate_position(obs[:3], DEPLOYMENT, k=3)
    assert (with_k3.x, with_k3.y) == (without_d.x, without_d.y)


def test_estimate_in_convex_hull():
    rng = random.Random(11)
    for _ in range(100):
        obs = [BeaconObservation(b.beacon_id, rng.uniform(-100, -40)) for b in DEPLOYMENT]
        loc = estimate_position(obs, DEPLOYMENT, k=4)
        assert -1e-9 <= loc.x <= 10 + 1e-9
        assert -1e-9 <= loc.y <= 10 + 1e-9


def test_permutation_invariance():
    obs = [
        BeaconObservation("a", -55.0),
        BeaconObservation("b", -65.0),
        BeaconObservation("c", -70.0),
    ]
    base = estimate_position(obs, DEPLOYMENT, k=3)
    for perm in itertools.permutations(obs):
        loc = estimate_position(list(perm), DEPLOYMENT, k=3)
        assert (loc.x, loc.y) == (base.x, base.y)


@given(st.floats(-100, -40), st.floats(-100, -40))
def test_stronger_rssi_pulls_estimate_closer(r1, r2):
    weaker, stronger = min(r1, r2), max(r1, r2)
    assume(stronger > weaker)
    obs_weak = [BeaconObservation("a", weaker), BeaconObservation("b", -60.0)]
    obs_strong = [BeaconObservation("a", stronger), BeaconObservation("b", -60.0)]
    weak = estimate_position(obs_weak, DEPLOYMENT, k=2)
    strong = estimate_position(obs_strong, DEPLOYMENT, k=2)
    d_weak = math.hypot(weak.x - 0.0, weak.y - 0.0)
    d_strong = math.hypot(strong.x - 0.0, strong.y - 0.0)
    # monotone: never farther, strictly closer once the gap is material
    assert d_strong <= d_weak + 1e-9
    if stronger - weaker >= 1.0:
        assert d_strong < d_weak


def test_load_beacons_defaults_blank_tx_power(ref_beacons):
    by_id = {b.beacon_id: b for b in ref_beacons}
    assert by_id["b3"].tx_power == -59.0
    assert by_id["b1"].tx_power == -59.0
    assert len(ref_beacons) == 4


def test_load_beacons_duplicate_id_fatal(tmp_path):
    path = tmp_path / "beacons.csv"
    path.write_text("beacon_id,x,y,tx_power\nb1,0,0,-59\nb1,5,5,-59\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_beacons(path)


@pytest.mark.parametrize("x, y, tx_power", [
    ("nan", "0", "-59"), ("0", "inf", "-59"), ("-inf", "0", ""), ("0", "1e309", "-59"), ("0", "0", "5"),
])
def test_load_beacons_refuses_bad_values_naming_file_and_row(tmp_path, x, y, tx_power):
    path = tmp_path / "beacons.csv"
    path.write_text(f"beacon_id,x,y,tx_power\nb1,0,0,-59\nb2,{x},{y},{tx_power}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))} row 3: "):
        load_beacons(path)
