"""Tests for table rendering."""

from repro.metrics import Table, format_value


def test_format_value():
    assert format_value(0.0) == "0"
    assert format_value(1234567.0) == "1,234,567"
    assert format_value(12.34) == "12.3"
    assert format_value(1.2345) == "1.234"
    assert format_value("text") == "text"


def test_table_render_alignment():
    table = Table(title="T", headers=["name", "value"])
    table.add_row("alpha", 1.0)
    table.add_row("b", 123456.0)
    table.add_note("a note")
    rendered = table.render()
    lines = rendered.splitlines()
    assert lines[0] == "T"
    assert "alpha" in rendered
    assert "123,456" in rendered
    assert rendered.endswith("note: a note")
    # all data lines equally wide columns
    header_line = lines[2]
    assert header_line.startswith("name")


def test_table_column_access():
    table = Table(title="T", headers=["a", "b"])
    table.add_row(1, 2)
    table.add_row(3, 4)
    assert table.column("b") == [2, 4]
