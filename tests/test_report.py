"""Report-formatting tests."""

from repro.report import format_series, format_table


def test_table_alignment():
    text = format_table(
        ["name", "value"],
        [["a", 1], ["longer", 22]],
    )
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "------" in lines[1]
    # Columns align: 'value' header starts where 1 and 22 start.
    header_col = lines[0].index("value")
    assert lines[2][header_col] == "1"
    assert lines[3][header_col:header_col + 2] == "22"


def test_table_title_underlined():
    text = format_table(["a"], [[1]], title="My Title")
    lines = text.splitlines()
    assert lines[0] == "My Title"
    assert lines[1] == "=" * len("My Title")


def test_table_handles_empty_rows():
    text = format_table(["x", "y"], [])
    assert "x" in text and "y" in text


def test_table_stringifies_everything():
    text = format_table(["v"], [[None], [3.5], [True]])
    assert "None" in text and "3.5" in text and "True" in text


def test_series_bars_scale_to_max():
    text = format_series("s", [(1, 10.0), (2, 20.0)], width=10)
    lines = text.splitlines()
    assert lines[1].count("#") == 5
    assert lines[2].count("#") == 10


def test_series_zero_values_have_no_bar():
    text = format_series("s", [(1, 0.0), (2, 4.0)])
    lines = text.splitlines()
    assert "#" not in lines[1]
    assert "#" in lines[2]


def test_series_all_zero_does_not_crash():
    text = format_series("s", [(1, 0.0), (2, 0.0)])
    assert "s" in text
