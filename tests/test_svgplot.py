"""SVG text escaping."""

from xml.sax.saxutils import escape

from moneyflow.svgplot import _escape, line_plot


def test_escape_matches_saxutils():
    text = "a & b < c > d \" e ' f &amp; 東京 — café"
    assert _escape(text) == escape(text)
    assert _escape("&<>\"'") == "&amp;&lt;&gt;\"'"


def test_titles_are_escaped():
    svg = line_plot([("x & y", [1.0, 2.0], [1.0, 2.0])], title="<T>", xlabel="a&b", ylabel="c")
    assert ">&lt;T&gt;</text>" in svg
    assert ">a&amp;b</text>" in svg
