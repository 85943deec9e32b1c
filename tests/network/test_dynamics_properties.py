"""Property-based tests for :mod:`repro.network.dynamics` (derandomized)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.network.dynamics import (  # noqa: E402
    CalibrationAging,
    DriftProfile,
    NetworkDynamics,
    OutageSchedule,
    OutageWindow,
    link_key,
    route_blocking,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive = st.floats(
    min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def piecewise_knots(draw):
    """Strictly increasing (time, value) knots for a piecewise profile."""
    count = draw(st.integers(min_value=1, max_value=6))
    raw_times = draw(
        st.lists(times, min_size=count, max_size=count, unique=True)
    )
    values = draw(st.lists(positive, min_size=count, max_size=count))
    return list(zip(sorted(raw_times), values))


@st.composite
def drift_profiles(draw):
    kind = draw(st.sampled_from(["constant", "linear", "sinusoid", "step", "piecewise"]))
    floor = draw(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    ceiling = draw(st.floats(min_value=1.0, max_value=10.0, allow_nan=False))
    if kind == "piecewise":
        return DriftProfile(
            kind="piecewise",
            points=tuple(draw(piecewise_knots())),
            floor=floor,
            ceiling=ceiling,
        )
    return DriftProfile(
        kind=kind,
        base=draw(positive),
        amplitude=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        rate=draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)),
        period=draw(positive),
        floor=floor,
        ceiling=ceiling,
    )


@st.composite
def outage_windows(draw):
    element = draw(st.sampled_from(["link", "node"]))
    name = draw(st.sampled_from(["a|b", "b|c", "n1", "n2"]))
    start = draw(times)
    length = draw(positive)
    return OutageWindow(element, name, start, start + length)


near = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)
short = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)

#: A path over every element :func:`outage_windows` can fail (links ``a|b``
#: and ``b|c``, nodes ``n1`` and ``n2``).
PATH = ("n1", "a", "b", "c", "n2")


@st.composite
def near_outage_windows(draw):
    """Windows packed into ``[0, 25]`` so that queries often meet them."""
    element = draw(st.sampled_from(["link", "node"]))
    name = draw(st.sampled_from(["a|b", "b|c", "n1", "n2"]))
    start = draw(near)
    return OutageWindow(element, name, start, start + draw(positive.filter(lambda x: x <= 5)))


@st.composite
def calibration_agings(draw):
    return CalibrationAging(
        t1_scale=draw(drift_profiles()),
        t2_scale=draw(drift_profiles()),
        error_scale=draw(drift_profiles()),
    )


class TestDriftProfileProperties:
    @SETTINGS
    @given(knots=piecewise_knots(), t1=times, t2=times)
    def test_piecewise_monotone_between_monotone_knots(self, knots, t1, t2):
        """With non-decreasing knot values, evaluation is monotone in time."""
        values = sorted(value for _, value in knots)
        monotone = [(time, value) for (time, _), value in zip(knots, values)]
        profile = DriftProfile.piecewise(monotone)
        lo, hi = min(t1, t2), max(t1, t2)
        assert profile.value(lo) <= profile.value(hi) + 1e-12

    @SETTINGS
    @given(profile=drift_profiles(), t=times)
    def test_value_within_bounds(self, profile, t):
        value = profile.value(t)
        assert profile.floor <= value <= profile.ceiling

    @SETTINGS
    @given(profile=drift_profiles())
    def test_round_trip(self, profile):
        assert DriftProfile.from_dict(profile.to_dict()) == profile

    @SETTINGS
    @given(profile=drift_profiles(), t=times)
    def test_trivial_profiles_evaluate_to_one(self, profile, t):
        if profile.trivial:
            assert profile.value(t) == 1.0


class TestOutageScheduleProperties:
    @SETTINGS
    @given(windows=st.lists(outage_windows(), max_size=12))
    def test_normalized_windows_never_overlap(self, windows):
        """After normalization, same-element windows are disjoint and sorted."""
        schedule = OutageSchedule(windows)
        by_element: dict = {}
        for window in schedule.windows:
            by_element.setdefault((window.element, window.key), []).append(window)
        for group in by_element.values():
            for earlier, later in zip(group, group[1:]):
                assert earlier.end < later.start  # disjoint, non-adjacent

    @SETTINGS
    @given(windows=st.lists(outage_windows(), max_size=12), t=times)
    def test_normalization_preserves_coverage(self, windows, t):
        schedule = OutageSchedule(windows)
        raw = any(
            w.covers(t) and w.element == "node" and w.key == "n1" for w in windows
        )
        assert schedule.node_down("n1", t) == raw

    @SETTINGS
    @given(windows=st.lists(outage_windows(), max_size=8))
    def test_recovery_times_cover_all_ends(self, windows):
        schedule = OutageSchedule(windows)
        recoveries = schedule.recovery_times()
        assert recoveries == sorted(recoveries)
        for window in schedule.windows:
            assert window.end in recoveries

    @SETTINGS
    @given(windows=st.lists(outage_windows(), max_size=8))
    def test_round_trip(self, windows):
        schedule = OutageSchedule(windows)
        rebuilt = OutageSchedule.from_dict(schedule.to_dict())
        assert rebuilt.to_dict() == schedule.to_dict()

    @SETTINGS
    @given(
        windows=st.lists(near_outage_windows(), max_size=10),
        start=near,
        duration=short,
        later=short,
    )
    def test_route_blocking_answer_holds_within_its_bounds(
        self, windows, start, duration, later
    ):
        """The blocked elements equal the per-element queries, and a later
        interval inside the reported bounds gets the same answer."""
        schedule = OutageSchedule(windows)
        along = schedule.route_windows(PATH)
        end = start + duration
        blocked, until, next_start = route_blocking(along, start, end)
        expected = [
            ("node", name) for name in PATH if schedule.node_blocked(name, start, end)
        ] + [
            ("link", link_key(a, b))
            for a, b in zip(PATH, PATH[1:])
            if schedule.link_blocked(a, b, start, end)
        ]
        assert blocked == expected
        assert until > start and next_start > end
        later_start = start + later
        later_end = later_start + duration
        if later_start < until and later_end < next_start:
            assert route_blocking(along, later_start, later_end)[0] == blocked


class TestDynamicsRoundTrip:
    @SETTINGS
    @given(
        drift=drift_profiles(),
        aging=calibration_agings(),
        windows=st.lists(outage_windows(), max_size=6),
    )
    def test_network_dynamics_round_trip(self, drift, aging, windows):
        dynamics = NetworkDynamics(
            channel_drift={"*": drift},
            aging=aging,
            outages=OutageSchedule(windows),
        )
        rebuilt = NetworkDynamics.from_dict(dynamics.to_dict())
        assert rebuilt.to_dict() == dynamics.to_dict()
        assert rebuilt.is_static() == dynamics.is_static()

    @SETTINGS
    @given(aging=calibration_agings())
    def test_calibration_aging_round_trip(self, aging):
        assert CalibrationAging.from_dict(aging.to_dict()) == aging
