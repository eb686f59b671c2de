"""SVG text escaping and heatmap bytes."""

import hashlib
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moneyflow.svgplot import _escape, _shades, heatmap_svg, line_plot


def test_escape_matches_saxutils():
    text = "a & b < c > d \" e ' f &amp; 東京 — café"
    assert _escape(text) == escape(text)
    assert _escape("&<>\"'") == "&amp;&lt;&gt;\"'"


def test_titles_are_escaped():
    svg = line_plot([("x & y", [1.0, 2.0], [1.0, 2.0])], title="<T>", xlabel="a&b", ylabel="c")
    assert ">&lt;T&gt;</text>" in svg
    assert ">a&amp;b</text>" in svg


def _heatmaps():
    rng = np.random.default_rng(5)
    origin = rng.gamma(0.4, 2.0, (40, 40))
    origin[rng.random((40, 40)) < 0.3] = 0.0
    # fractions k/30, 0.5 among them, whose channels land on halves
    halves = np.arange(16, dtype=float).reshape(4, 4) / 2.0
    sims = rng.random((7, 7))
    sims[2, :] = np.nan
    sims[:, 5] = np.nan
    mixed = np.array([[np.nan, -1.0, 0.0], [np.inf, 3.0, 1.5], [-np.inf, 0.25, 2.0]])
    return {
        "origin-40": (origin, dict(title="origin pattern 1 (gamma 0.812)")),
        "halves": (halves, dict(title="halves")),
        "halves-unflipped": (halves, dict(flip_rows=False)),
        "similarity-annotated": (sims, dict(
            title="Origin/destination factor similarity", annotate=True, flip_rows=False
        )),
        "mixed-annotated": (mixed, dict(annotate=True)),
        "all-nan": (np.full((3, 5), np.nan), dict(annotate=True, flip_rows=False)),
        "zeros": (np.zeros((2, 6)), dict()),
    }


# sha256 of the heatmaps as each cell's rect, shade and label were once
# formatted one call at a time; the nmf and report manifests hash them
HEATMAP_SHA256 = {
    "origin-40": "5dc1aff822113bad25c721e250f79243bf5ca8a73c7b1e89c685ebdbdb521cad",
    "halves": "b8c806bcb8a1852b42474022e0f7951ba72571881fd50dc0e130fe50352d45ad",
    "halves-unflipped": "dc83042c22b13e74e8a4c3b7b146522403eb1d2c4fc7edd5f46257be815ba9ff",
    "similarity-annotated": "84baa5fa3b1fb185dce79227ca3d9a383384b6c1999959f0e8512378ed7c40d5",
    "mixed-annotated": "957f2288a9b44f8ca03d65e83f49035205ff628d5445fa5acbf32336be9b00af",
    "all-nan": "71e0603f229547e88808aa5d9c0f592fdc859236d90bb3f70bfe1754e35cd174",
    "zeros": "670949dbd2f6fe7cb1b38a4774074d1be5d726582d834239b6299b9acae2dfbf",
}


@pytest.mark.parametrize("name", HEATMAP_SHA256)
def test_heatmap_bytes_pinned(name):
    matrix, kwargs = _heatmaps()[name]
    svg = heatmap_svg(matrix, **kwargs)
    assert hashlib.sha256(svg.encode()).hexdigest() == HEATMAP_SHA256[name]


def test_heatmap_shades_round_half_to_even():
    # 1.0 of a 2.0 peak is 255 - 247 / 2 = 131.5 red, 151.5 green and
    # 181 blue: the halves round to the even 132 and 152
    svg = heatmap_svg(np.array([[0.0, 1.0, 2.0, np.nan]]), annotate=True)
    fills = [line.split('fill="')[1][:7] for line in svg.splitlines() if line.startswith("<rect x")]
    assert fills[:4] == ["#ffffff", "#8498b5", "#08306b", "#ffffff"]
    assert ">nan</text>" in svg and ">1.00</text>" in svg


def _shade(frac):
    """A fill as it was once made, one cell and one round() at a time."""
    frac = min(1.0, max(0.0, frac))
    r = int(round(255 + (8 - 255) * frac))
    g = int(round(255 + (48 - 255) * frac))
    b = int(round(255 + (107 - 255) * frac))
    return f"#{r:02x}{g:02x}{b:02x}"


# fractions k/494 put the red channel on or next to a half
@given(st.lists(
    st.floats(-0.5, 1.5) | st.integers(0, 494).map(lambda k: k / 494), min_size=1, max_size=60
))
def test_shades_match_the_per_cell_rule(fracs):
    assert _shades(np.array([fracs]))[0] == [_shade(f) for f in fracs]
