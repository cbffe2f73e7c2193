"""Radar chart rendering: metric medians, group baselines, SVG output."""

import csv
import io
import xml.etree.ElementTree as ET
from datetime import date

import pytest

from harforge.viz import (
    BAND_MODES,
    METRICS,
    ActivityMetricSet,
    GroupBaseline,
    MetricBaseline,
    activity_metrics,
    group_baseline,
    normalize_radar,
    radar_index_csv,
    render_radar,
    save_radar,
)

DAY = date(2024, 3, 4)
RUN = "Running Exercise"


#: The heart-rate envelope of a test day.
ENVELOPE = {"min_hr": 50.0, "max_hr": 190.0}


def metric_set(user, values, activity=RUN, n_minutes=5):
    d, s, p, rmin, rmax = values
    return ActivityMetricSet(
        user_id=user,
        activity=activity,
        n_minutes=n_minutes,
        distance_per_min=d,
        steps_per_min=s,
        pulse_per_min=p,
        pulse_to_min_ratio=rmin,
        pulse_to_max_ratio=rmax,
    )


class TestActivityMetrics:
    def test_single_minute_values(self, grid_factory):
        days = grid_factory(
            pulse={600: 120.0}, steps={600: 100}, distance_m={600: 160.0}, schedule={600: RUN},
            **ENVELOPE,
        )
        m = activity_metrics("u001", RUN, days)
        assert m.n_minutes == 1
        assert m.distance_per_min == 160.0
        assert m.steps_per_min == 100.0
        assert m.pulse_per_min == 120.0
        assert m.pulse_to_min_ratio == pytest.approx(120.0 / 50.0)
        assert m.pulse_to_max_ratio == pytest.approx(120.0 / 190.0)

    def test_medians_across_minutes_and_days(self, grid_factory):
        day2 = date(2024, 3, 5)
        days = grid_factory(
            {
                ("u001", DAY): {
                    "pulse": {0: 100.0, 1: 110.0},
                    "steps": {0: 10, 1: 20},
                    "distance_m": {0: 1.0, 1: 2.0},
                    "schedule": {0: RUN, 1: RUN},
                    **ENVELOPE,
                },
                ("u001", day2): {
                    "pulse": {0: 150.0},
                    "steps": {0: 90},
                    "distance_m": {0: 9.0},
                    "schedule": {0: RUN},
                    **ENVELOPE,
                },
            }
        )
        m = activity_metrics("u001", RUN, days)
        assert m.n_minutes == 3
        assert m.distance_per_min == 2.0
        assert m.steps_per_min == 20.0
        assert m.pulse_per_min == 110.0

    def test_other_labels_ignored(self, grid_factory):
        days = grid_factory(
            pulse={0: 60.0, 1: 140.0},
            steps={0: 0, 1: 80},
            distance_m={0: 0.0, 1: 64.0},
            schedule={0: "Other", 1: RUN},
            **ENVELOPE,
        )
        m = activity_metrics("u001", RUN, days)
        assert m.n_minutes == 1
        assert m.pulse_per_min == 140.0

    def test_other_users_ignored(self, grid_factory):
        days = grid_factory(
            {
                ("u001", DAY): {"pulse": {0: 100.0}, "schedule": {0: RUN}, **ENVELOPE},
                ("u002", DAY): {"pulse": {0: 180.0, 1: 170.0}, "schedule": {0: RUN, 1: RUN}},
            }
        )
        m = activity_metrics("u001", RUN, days)
        assert (m.n_minutes, m.pulse_per_min) == (1, 100.0)
        with pytest.raises(ValueError, match="no minutes labeled"):
            activity_metrics("u003", RUN, days)

    def test_pulse_metrics_none_without_readings(self, grid_factory):
        days = grid_factory(steps={5: 30}, distance_m={5: 24.0}, schedule={5: RUN}, **ENVELOPE)
        m = activity_metrics("u001", RUN, days)
        assert m.pulse_per_min is None
        assert m.pulse_to_min_ratio is None
        assert m.pulse_to_max_ratio is None

    def test_ratios_none_without_profile(self, grid_factory):
        days = grid_factory(
            pulse={5: 120.0}, steps={5: 30}, distance_m={5: 24.0}, schedule={5: RUN}
        )
        m = activity_metrics("u001", RUN, days)
        assert m.pulse_per_min == 120.0
        assert m.pulse_to_min_ratio is None
        assert m.pulse_to_max_ratio is None

    def test_no_matching_minutes_rejected(self, grid_factory):
        days = grid_factory(schedule={5: "Other"}, **ENVELOPE)
        with pytest.raises(ValueError, match="no minutes labeled"):
            activity_metrics("u001", RUN, days)

    def test_unknown_metric_name(self):
        m = metric_set("u001", (1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(KeyError):
            m.value("cadence")
        assert m.value("steps_per_min") == 2.0


class TestGroupBaseline:
    def test_statistics_by_hand(self):
        sets = [
            metric_set("u001", (1.0, 10.0, 100.0, 2.0, 0.5)),
            metric_set("u002", (3.0, 20.0, 120.0, 2.2, 0.6)),
            metric_set("u003", (5.0, 60.0, 140.0, 2.4, 0.7)),
        ]
        base = group_baseline(sets, RUN)
        assert base.n_users == 3
        dist = base.metrics["distance_per_min"]
        assert dist.median == 3.0
        assert dist.lo == 1.0 and dist.hi == 5.0
        assert dist.sd == pytest.approx((8.0 / 3.0) ** 0.5)
        assert base.metrics["steps_per_min"].median == 20.0

    def test_other_activities_filtered_out(self):
        sets = [
            metric_set("u001", (1.0, 10.0, 100.0, 2.0, 0.5)),
            metric_set("u002", (3.0, 20.0, 120.0, 2.2, 0.6)),
            metric_set("u003", (9.0, 90.0, 190.0, 3.8, 1.0), activity="Sleep"),
        ]
        base = group_baseline(sets, RUN)
        assert base.n_users == 2
        assert base.metrics["distance_per_min"].hi == 3.0

    def test_needs_two_defined_values(self):
        sets = [
            metric_set("u001", (1.0, 10.0, 100.0, 2.0, 0.5)),
            metric_set("u002", (3.0, 20.0, None, None, None)),
        ]
        with pytest.raises(ValueError, match="at least 2 users"):
            group_baseline(sets, RUN)


class TestNormalizeRadar:
    def test_linear_map(self):
        assert normalize_radar(5.0, 0.0, 10.0) == 50.0
        assert normalize_radar(0.0, 0.0, 10.0) == 0.0
        assert normalize_radar(10.0, 0.0, 10.0) == 100.0

    def test_clamped_to_bounds(self):
        assert normalize_radar(-3.0, 0.0, 10.0) == 0.0
        assert normalize_radar(25.0, 0.0, 10.0) == 100.0

    def test_degenerate_range_pins_to_center(self):
        assert normalize_radar(7.0, 4.0, 4.0) == 50.0
        assert normalize_radar(7.0, 9.0, 4.0) == 50.0


def simple_chart(band="sd", individual_values=(2.0, 30.0, 110.0, 2.1, 0.55)):
    sets = [
        metric_set("u001", (1.0, 10.0, 100.0, 2.0, 0.5)),
        metric_set("u002", (3.0, 50.0, 120.0, 2.2, 0.6)),
        metric_set("u003", (5.0, 30.0, 140.0, 2.4, 0.7)),
    ]
    base = group_baseline(sets, RUN)
    ind = metric_set("u009", individual_values)
    return render_radar(ind, base, band=band)


def polygon_points(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    out = {}
    for poly in root.iter(f"{ns}polygon"):
        cls = poly.get("class").split()[-1]
        pts = []
        for pair in poly.get("points").split():
            x, y = pair.split(",")
            pts.append((float(x), float(y)))
        out[cls] = pts
    return out


class TestRenderRadar:
    def test_well_formed_svg(self):
        svg = simple_chart()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        ns = "{http://www.w3.org/2000/svg}"
        assert len(list(root.iter(f"{ns}circle"))) == 4
        assert len(list(root.iter(f"{ns}line"))) == 5
        assert len(list(root.iter(f"{ns}polygon"))) == 2
        assert len(list(root.iter(f"{ns}path"))) == 1
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert set(METRICS) <= set(texts)

    def test_polygons_have_five_vertices_inside_canvas(self):
        polys = polygon_points(simple_chart())
        assert set(polys) == {"group", "individual"}
        for pts in polys.values():
            assert len(pts) == 5
            for x, y in pts:
                assert 230.0 - 140.0 - 1e-9 <= x <= 230.0 + 140.0 + 1e-9
                assert 205.0 - 140.0 - 1e-9 <= y <= 205.0 + 140.0 + 1e-9

    def test_first_axis_points_straight_up(self):
        # an individual pinned to the metric maximum lands on the axis tip
        svg = simple_chart(individual_values=(5.0, 50.0, 140.0, 2.4, 0.7))
        pts = polygon_points(svg)["individual"]
        assert pts[0] == (230.0, 65.0)

    def test_identical_inputs_coincide(self):
        svg = simple_chart(individual_values=(3.0, 30.0, 120.0, 2.2, 0.6))
        polys = polygon_points(svg)
        assert polys["group"] == polys["individual"]

    def test_render_is_deterministic(self):
        assert simple_chart() == simple_chart()

    def test_band_modes_differ(self):
        assert simple_chart(band="sd") != simple_chart(band="range")
        with pytest.raises(ValueError, match="band"):
            simple_chart(band="iqr")

    def test_range_band_spans_full_disc(self):
        svg = simple_chart(band="range")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        path = next(iter(root.iter(f"{ns}path"))).get("d")
        # outer ring of the band sits on the 100% circle: first vertex is the top
        assert path.startswith("M 230.000 65.000")

    def test_activity_mismatch_rejected(self):
        base = GroupBaseline(
            activity="Sleep",
            n_users=2,
            metrics={m: MetricBaseline(1.0, 0.1, 0.0, 2.0) for m in METRICS},
        )
        ind = metric_set("u009", (1.0, 1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="activity mismatch"):
            render_radar(ind, base)

    def test_undefined_individual_metric_rejected(self):
        base = GroupBaseline(
            activity=RUN,
            n_users=2,
            metrics={m: MetricBaseline(1.0, 0.1, 0.0, 2.0) for m in METRICS},
        )
        ind = metric_set("u009", (1.0, 1.0, None, 1.0, 1.0))
        with pytest.raises(ValueError, match="undefined"):
            render_radar(ind, base)


class TestOutputFiles:
    def test_save_radar_writes_exact_bytes(self, tmp_path):
        svg = simple_chart()
        path = tmp_path / "chart.svg"
        save_radar(svg, path)
        assert path.read_text(encoding="utf-8") == svg

    def test_index_csv_layout(self):
        text = radar_index_csv(
            [("u001", RUN, "u001_running_exercise.svg"), ("u002", "Sleep", "u002_sleep.svg")]
        )
        lines = text.splitlines()
        assert lines[0] == "user_id,activity,file"
        assert lines[1] == "u001,Running Exercise,u001_running_exercise.svg"
        assert text.endswith(".svg\n")

    def test_index_quotes_a_label_with_a_comma(self):
        entries = [("u001", "Drills, night", "u001_drills_night.svg"), ("u,2", RUN, "b.svg")]
        text = radar_index_csv(entries)
        assert list(csv.reader(io.StringIO(text))) == [
            ["user_id", "activity", "file"], *map(list, entries)
        ]

    def test_band_modes_constant(self):
        assert BAND_MODES == ("sd", "range")
