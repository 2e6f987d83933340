import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netsec._svg import render_line_chart
from oracles import polyline_points

SVG = "{http://www.w3.org/2000/svg}"


def _polylines(xs, series):
    root = ET.fromstring(render_line_chart(xs, series, title="t"))
    return [line.get("points") for line in root.iter(f"{SVG}polyline")]


@pytest.mark.parametrize("seed", range(8))
def test_polylines_match_point_by_point_oracle_on_random_series(seed):
    rng = np.random.default_rng(seed)
    points, count = rng.integers(2, 60), rng.integers(1, 25)
    xs = np.sort(rng.uniform(0.0, 1.0, points)).tolist()
    scale = 10.0 ** rng.integers(-6, 7)
    series = {f"s{k}": (scale * rng.standard_normal(points)).tolist() for k in range(count)}
    assert _polylines(xs, series) == polyline_points(xs, series)


@pytest.mark.parametrize("xs, series", [
    ([0.0, 0.5, 1.0], {"flat": [0.2, 0.2, 0.2], "same": [0.2, 0.2, 0.2]}),  # y_hi == y_lo
    ([0.3], {"a": [0.1], "b": [0.7]}),  # x_hi == x_lo
    ([0.3], {"a": [-4.0]}),  # both ranges empty
    ([0.0, 0.25, 0.5, 1.0], {"neg": [-3.0, -1.5, -2.25, -7.0], "mixed": [-1.0, 0.0, 2.5, -0.0]}),
    (np.linspace(0.0, 1.0, 21).tolist(), {"big": [1e300] * 20 + [-1e300]}),
])
def test_polylines_match_point_by_point_oracle_at_the_edges(xs, series):
    assert _polylines(xs, series) == polyline_points(xs, series)


@pytest.mark.parametrize("xs, series", [
    ([0.0, 0.5, 1.0], {"short": [0.1, 0.2]}),
    ([0.0, 0.5, 1.0], {"ok": [0.1, 0.2, 0.3], "long": [0.1, 0.2, 0.3, 0.4]}),
    ([], {"a": []}),
    ([0.0, 1.0], {}),
])
def test_refuses_series_that_do_not_fit_the_x_values(xs, series):
    # zip would cut a longer series short, and drop the points of a shorter x axis.
    with pytest.raises(ValueError, match="one value per x value"):
        render_line_chart(xs, series)
