"""The one CSV format: header echo, column line, one line per row."""

from dualgap.csvout import write_csv


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        (8, 0.0625, float("nan"), "1.5"),
        (16, 0.03125, -2.0, "x"),
    ]
    write_csv(path, "per level", "N,h,err,tag", rows)
    assert path.read_text(encoding="utf-8") == (
        "# per level\n"
        "N,h,err,tag\n"
        "8,6.250000000000000e-02,nan,1.5\n"
        "16,3.125000000000000e-02,-2.000000000000000e+00,x\n"
    )

