import re

import numpy as np
import pytest

from survmix.errors import DomainError
from survmix.svg import HEIGHT, PALETTE, WIDTH, render_svg


def path_commands(svg_text):
    # Every plotted series contributes exactly one <path d="...">.
    return re.findall(r'<path d="([^"]+)"', svg_text)


class TestRendering:
    def test_deterministic_bytes(self):
        rng = np.random.default_rng(0)
        series = [("one", np.sort(rng.random(40)), rng.random(40)),
                  ("two", np.sort(rng.random(25)), rng.random(25))]
        first = render_svg(series, title="t", x_label="x", y_label="y")
        second = render_svg(series, title="t", x_label="x", y_label="y")
        assert first == second

    def test_step_segment_counts(self):
        # Step paths hold then drop: n points make M + (n-1) H/V pairs.
        x = np.array([0.0, 1.0, 2.5, 4.0])
        y = np.array([1.0, 0.8, 0.5, 0.2])
        (d,) = path_commands(render_svg([("s", x, y)]))
        assert d.count("H ") == 3
        assert d.count("V ") == 3
        assert d.startswith("M ")

    def test_well_formed_document(self):
        text = render_svg([("a", [0, 1], [1, 0])])
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert f'width="{WIDTH}"' in text and f'height="{HEIGHT}"' in text

    def test_one_path_per_series_with_palette_colors(self):
        series = [(f"s{i}", [0, 1], [i, i + 1]) for i in range(3)]
        text = render_svg(series)
        assert len(path_commands(text)) == 3
        for i in range(3):
            assert f'stroke="{PALETTE[i]}"' in text

    def test_title_and_labels_escaped(self):
        text = render_svg([("a<b", [0, 1], [0, 1])],
                          title='x & "y"', x_label="t<", y_label=">s")
        assert "a&lt;b" in text
        assert "x &amp; &quot;y&quot;" in text
        assert "t&lt;" in text and "&gt;s" in text
        assert "a<b" not in text


class TestDegenerateInput:
    def test_single_point_marks_a_circle(self):
        with pytest.warns(UserWarning):
            text = render_svg([("p", [2.0], [3.0])])
        assert "<circle " in text

    def test_constant_axis_padded_with_warning(self):
        with pytest.warns(UserWarning, match="degenerate y range"):
            text = render_svg([("flat", [0.0, 1.0], [0.7, 0.7])])
        # Padded range keeps the flat line strictly inside the plot box.
        assert "<path " in text

    def test_constant_at_zero_padded(self):
        with pytest.warns(UserWarning):
            render_svg([("z", [0.0, 1.0], [0.0, 0.0])])


class TestValidation:
    def test_no_series_rejected(self):
        with pytest.raises(DomainError):
            render_svg([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="equal-length"):
            render_svg([("a", [0, 1, 2], [0, 1])])

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            render_svg([("a", [], [])])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            render_svg([("a", [0.0, np.nan], [0.0, 1.0])])
