"""Unit tests for :mod:`repro.network.dynamics`."""

import math

import pytest

from repro.channel.quantum_channel import (
    DepolarizingChannel,
    FiberLossChannel,
    IdentityChainChannel,
    NoiselessChannel,
)
from repro.device.calibration import ibm_brisbane_calibration
from repro.exceptions import NetworkError
from repro.network.dynamics import (
    CONDITION_PROFILES,
    CalibrationAging,
    DriftProfile,
    NetworkDynamics,
    OutageSchedule,
    OutageWindow,
    condition_profile,
    evolve_channel,
    link_key,
    route_blocking,
)
from repro.network.routing import find_route
from repro.network.topology import grid_topology


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInputs:
    """NaN and ±inf parameters raise instead of yielding a silent channel."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["base", "amplitude", "rate", "phase", "floor"])
    def test_drift_parameters_must_be_finite(self, name, value):
        with pytest.raises(NetworkError):
            DriftProfile(kind="sinusoid", **{name: value})

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_drift_period_must_be_finite(self, value):
        with pytest.raises(NetworkError):
            DriftProfile(kind="step", amplitude=0.1, period=value)

    def test_drift_ceiling_may_not_be_nan(self):
        with pytest.raises(NetworkError):
            DriftProfile.linear(rate=0.1, ceiling=math.nan)
        assert DriftProfile.linear(rate=0.1, ceiling=math.inf).value(1.0) == 1.1

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("position", [0, 1])
    def test_piecewise_knots_must_be_finite(self, position, value):
        knot = [1.0, 1.0]
        knot[position] = value
        with pytest.raises(NetworkError):
            DriftProfile.piecewise([(0.0, 1.0), tuple(knot)])

    def test_nan_rate_used_to_give_a_noiseless_channel(self):
        with pytest.raises(NetworkError):
            DriftProfile.linear(rate=math.nan)
        with pytest.raises(NetworkError):
            DriftProfile.sinusoid(amplitude=math.inf)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "name", ["seed", "horizon", "link_failure_rate", "node_failure_rate", "mean_downtime"]
    )
    def test_random_outages_need_finite_parameters(self, name, value):
        kwargs = dict(seed=1, horizon=1.0, link_failure_rate=2.0, mean_downtime=0.1)
        kwargs[name] = value
        with pytest.raises(NetworkError):
            OutageSchedule.random(grid_topology(2, 2), **kwargs)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("argument", ["seed", "horizon"])
    @pytest.mark.parametrize("name", ["drift", "outage", "drift_outage"])
    def test_condition_profiles_need_finite_arguments(self, name, argument, value):
        kwargs = {"seed": 3, "horizon": 1.0, argument: value}
        with pytest.raises(NetworkError):
            condition_profile(name, grid_topology(2, 2), **kwargs)

    @pytest.mark.parametrize("horizon", [0.0, -5.0])
    @pytest.mark.parametrize("name", ["static", "drift", "outage", "drift_outage"])
    def test_condition_profiles_need_a_positive_horizon(self, name, horizon):
        # A negative horizon used to give ``drift`` a 1e-9 s period and an
        # aging rate of 5e8 per second; ``outage`` already refused it.
        with pytest.raises(NetworkError):
            condition_profile(name, grid_topology(2, 2), seed=3, horizon=horizon)

    @pytest.mark.parametrize("field", ["rate", "period"])
    def test_from_dict_inherits_the_checks(self, field):
        data = DriftProfile.linear(rate=0.5).to_dict()
        data[field] = "nan"
        with pytest.raises(NetworkError):
            DriftProfile.from_dict(data)


class TestDriftProfile:
    def test_constant(self):
        profile = DriftProfile.constant(1.3)
        assert profile.value(0.0) == 1.3
        assert profile.value(100.0) == 1.3

    def test_linear_ramp(self):
        profile = DriftProfile.linear(base=1.0, rate=0.5)
        assert profile.value(0.0) == 1.0
        assert profile.value(2.0) == pytest.approx(2.0)

    def test_sinusoid_period(self):
        profile = DriftProfile.sinusoid(base=1.0, amplitude=0.5, period=4.0)
        assert profile.value(0.0) == pytest.approx(1.0)
        assert profile.value(1.0) == pytest.approx(1.5)
        assert profile.value(3.0) == pytest.approx(0.5)

    def test_step_staircase(self):
        profile = DriftProfile(kind="step", base=1.0, amplitude=0.25, period=1.0)
        assert profile.value(0.5) == 1.0
        assert profile.value(2.5) == pytest.approx(1.5)

    def test_piecewise_interpolates_and_clamps_ends(self):
        profile = DriftProfile.piecewise([(1.0, 1.0), (3.0, 2.0)])
        assert profile.value(0.0) == 1.0  # before first knot
        assert profile.value(2.0) == pytest.approx(1.5)
        assert profile.value(9.0) == 2.0  # past last knot

    def test_floor_and_ceiling_clip(self):
        profile = DriftProfile.linear(base=1.0, rate=-10.0)
        assert profile.value(100.0) == 0.0  # default floor
        capped = DriftProfile.linear(base=1.0, rate=10.0, ceiling=2.0)
        assert capped.value(100.0) == 2.0

    def test_trivial_detection(self):
        assert DriftProfile().trivial
        assert DriftProfile.sinusoid(amplitude=0.0).trivial
        assert not DriftProfile.sinusoid(amplitude=0.1).trivial
        assert not DriftProfile.constant(1.01).trivial

    def test_validation(self):
        with pytest.raises(NetworkError):
            DriftProfile(kind="nope")
        with pytest.raises(NetworkError):
            DriftProfile(kind="sinusoid", period=0.0)
        with pytest.raises(NetworkError):
            DriftProfile.piecewise([(1.0, 1.0), (1.0, 2.0)])  # non-increasing
        with pytest.raises(NetworkError):
            DriftProfile(floor=1.0, ceiling=0.5)

    def test_round_trip(self):
        profile = DriftProfile.piecewise([(0.0, 1.0), (2.5, 0.75)], ceiling=1.5)
        assert DriftProfile.from_dict(profile.to_dict()) == profile


class TestCalibrationAging:
    def test_apply_bumps_version_and_scales(self):
        calibration = ibm_brisbane_calibration()
        before_version = calibration.version
        before_t1 = calibration.qubit_defaults.t1
        before_error = calibration.gate("id").error
        aging = CalibrationAging(
            t1_scale=DriftProfile.constant(0.5),
            t2_scale=DriftProfile.constant(0.5),
            error_scale=DriftProfile.constant(2.0),
        )
        aging.apply_to(calibration, time=1.0)
        assert calibration.version > before_version
        assert calibration.qubit_defaults.t1 == pytest.approx(before_t1 * 0.5)
        assert calibration.gate("id").error == pytest.approx(before_error * 2.0)

    def test_t2_reclamped_to_physical_bound(self):
        calibration = ibm_brisbane_calibration()
        aging = CalibrationAging(
            t1_scale=DriftProfile.constant(0.1),
            t2_scale=DriftProfile.constant(1.0),
        )
        aging.apply_to(calibration, time=0.0)
        defaults = calibration.qubit_defaults
        assert defaults.t2 <= 2.0 * defaults.t1 + 1e-15

    def test_round_trip(self):
        aging = CalibrationAging(error_scale=DriftProfile.linear(rate=0.25))
        assert CalibrationAging.from_dict(aging.to_dict()) == aging


class TestOutageSchedule:
    def test_window_semantics_half_open(self):
        window = OutageWindow("link", "a|b", 1.0, 2.0)
        assert not window.covers(0.999)
        assert window.covers(1.0)
        assert window.covers(1.999)
        assert not window.covers(2.0)  # recovered exactly at end

    def test_window_validation(self):
        with pytest.raises(NetworkError):
            OutageWindow("cable", "a|b", 0.0, 1.0)
        with pytest.raises(NetworkError):
            OutageWindow("link", "a|b", 1.0, 1.0)
        with pytest.raises(NetworkError):
            OutageWindow("link", "a|b", math.inf, math.inf + 1)

    def test_normalisation_merges_overlaps(self):
        schedule = OutageSchedule(
            [
                OutageWindow("link", "a|b", 0.0, 2.0),
                OutageWindow("link", "a|b", 1.0, 3.0),
                OutageWindow("link", "a|b", 3.0, 4.0),  # adjacent: merged too
                OutageWindow("node", "n1", 0.5, 1.5),
            ]
        )
        link_windows = [w for w in schedule.windows if w.element == "link"]
        assert len(link_windows) == 1
        assert (link_windows[0].start, link_windows[0].end) == (0.0, 4.0)
        assert schedule.link_down("b", "a", 3.5)  # endpoint order irrelevant
        assert not schedule.link_down("a", "b", 4.0)
        assert schedule.node_down("n1", 1.0)

    def test_blocked_interval_queries(self):
        schedule = OutageSchedule([OutageWindow("link", "a|b", 5.0, 6.0)])
        assert schedule.link_blocked("a", "b", 4.0, 5.0)
        assert schedule.link_blocked("a", "b", 5.5, 9.0)
        assert not schedule.link_blocked("a", "b", 6.0, 9.0)

    def test_recovery_times_sorted_distinct(self):
        schedule = OutageSchedule(
            [
                OutageWindow("link", "a|b", 0.0, 2.0),
                OutageWindow("node", "n", 1.0, 2.0),
                OutageWindow("node", "m", 0.0, 1.0),
            ]
        )
        assert schedule.recovery_times() == [1.0, 2.0]

    def test_random_schedule_deterministic(self):
        topology = grid_topology(2, 2)
        kwargs = dict(seed=5, horizon=10.0, link_failure_rate=0.3, mean_downtime=1.0)
        first = OutageSchedule.random(topology, **kwargs)
        second = OutageSchedule.random(topology, **kwargs)
        assert first.to_dict() == second.to_dict()
        other = OutageSchedule.random(topology, **{**kwargs, "seed": 6})
        assert first.to_dict() != other.to_dict()

    def test_round_trip(self):
        schedule = OutageSchedule([OutageWindow("node", "n3", 0.25, 1.75)])
        assert OutageSchedule.from_dict(schedule.to_dict()).to_dict() == schedule.to_dict()


class TestEvolveChannel:
    def test_identity_returns_same_object(self):
        channel = IdentityChainChannel(eta=10)
        assert evolve_channel(channel, 1.0, 1.0, 1.0) is channel

    def test_identity_chain_scaling(self):
        channel = IdentityChainChannel(eta=10)
        evolved = evolve_channel(channel, error_scale=2.0, t1_scale=0.5, t2_scale=0.5)
        assert evolved is not channel
        assert evolved.gate_error == pytest.approx(channel.gate_error * 2.0)
        assert evolved.t1 == pytest.approx(channel.t1 * 0.5)
        assert evolved.t2 <= 2.0 * evolved.t1 + 1e-15

    def test_depolarizing_probability_clipped(self):
        channel = DepolarizingChannel(probability=0.6)
        assert evolve_channel(channel, error_scale=2.0).probability == 1.0

    def test_fiber_scaling(self):
        channel = FiberLossChannel(length_km=5.0)
        evolved = evolve_channel(channel, error_scale=2.0)
        assert evolved.attenuation_db_per_km == pytest.approx(
            channel.attenuation_db_per_km * 2.0
        )
        assert evolved.length_km == channel.length_km

    def test_unknown_channel_unchanged(self):
        channel = NoiselessChannel()
        assert evolve_channel(channel, error_scale=3.0) is channel

    def test_negative_factor_rejected(self):
        with pytest.raises(NetworkError):
            evolve_channel(IdentityChainChannel(eta=10), error_scale=-0.1)


class TestNetworkDynamics:
    def test_specific_link_overrides_wildcard(self):
        dynamics = NetworkDynamics(
            channel_drift={
                "*": DriftProfile.constant(2.0),
                link_key("b", "a"): DriftProfile.constant(3.0),
            }
        )
        assert dynamics.factors_at("a", "b", 0.0)[0] == 3.0
        assert dynamics.factors_at("a", "c", 0.0)[0] == 2.0

    def test_is_static(self):
        assert NetworkDynamics.static().is_static()
        assert NetworkDynamics(
            channel_drift={"*": DriftProfile.sinusoid(amplitude=0.0)}
        ).is_static()
        assert not NetworkDynamics(
            channel_drift={"*": DriftProfile.sinusoid(amplitude=0.5)}
        ).is_static()
        assert not NetworkDynamics(
            outages=OutageSchedule([OutageWindow("node", "n", 0.0, 1.0)])
        ).is_static()

    def test_route_blocking_reports_elements_and_bounds(self):
        topology = grid_topology(2, 2)
        route = find_route(topology, "n0_0", "n1_1")
        key = link_key(route.nodes[0], route.nodes[1])
        relay = route.nodes[1]
        schedule = OutageSchedule(
            [
                OutageWindow("link", key, 0.0, 1.0),
                OutageWindow("link", key, 3.0, 4.0),
                OutageWindow("node", relay, 2.0, 2.5),
            ]
        )
        windows = schedule.route_windows(route.nodes)
        # Nodes first, then links; elements that never fail are left out.
        assert [element for element, _ in windows] == [("node", relay), ("link", key)]
        # (blocked, earliest end of a blocking window, earliest later start)
        assert route_blocking(windows, 0.5, 0.6) == ([("link", key)], 1.0, 2.0)
        assert route_blocking(windows, 1.0, 1.5) == ([], math.inf, 2.0)
        assert route_blocking(windows, 1.0, 2.0) == ([("node", relay)], 2.5, 3.0)
        assert route_blocking(windows, 5.0, 6.0) == ([], math.inf, math.inf)
        assert route_blocking((), 0.0, 9.0) == ([], math.inf, math.inf)

    def test_round_trip(self):
        dynamics = NetworkDynamics(
            channel_drift={"*": DriftProfile.sinusoid(amplitude=0.4, period=2.0)},
            aging=CalibrationAging(error_scale=DriftProfile.linear(rate=0.1)),
            outages=OutageSchedule([OutageWindow("link", "a|b", 0.0, 1.0)]),
        )
        assert NetworkDynamics.from_dict(dynamics.to_dict()).to_dict() == dynamics.to_dict()

    def test_condition_profiles(self):
        topology = grid_topology(2, 2)
        for name in CONDITION_PROFILES:
            dynamics = condition_profile(name, topology, seed=3, horizon=1.0)
            assert isinstance(dynamics, NetworkDynamics)
        assert condition_profile("static", topology, 3, 1.0).is_static()
        assert not condition_profile("drift", topology, 3, 1.0).is_static()
        with pytest.raises(NetworkError):
            condition_profile("stormy", topology, 3, 1.0)
