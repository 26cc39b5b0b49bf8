import io

import numpy as np
import pytest

from mfca import csvio

# floats whose shortest and 17-digit forms are easy to get wrong
SPECIAL = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 0.1, 1.0 / 3.0,
    1e16, 1e17, 2.0**53 + 2.0, -1.7976931348623157e308,
    float("inf"), float("-inf"), float("nan"),
]


def _columns(rows, seed):
    rng = np.random.default_rng(seed)
    ints = rng.integers(-(2**40), 2**40, rows)
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
    floats[: len(SPECIAL)] = SPECIAL[:rows]
    names = np.array(["good", "rewired"])[rng.integers(0, 2, rows)]
    return ints, floats, names


def _reference(ints, floats, names):
    """One format(x, '.17g') call per value, as the writers did before."""
    return "".join(
        f"{i},{format(x, '.17g')},{s},{format(-x, '.17g')}\n"
        for i, x, s in zip(ints.tolist(), floats.tolist(), names.tolist())
    )


class TestWriteRows:
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_matches_per_value_format_at_chunk_boundaries(self, delta):
        ints, floats, names = _columns(csvio.CHUNK + delta, 3)
        fh = io.StringIO()
        csvio.write_rows(fh, "%d,%.17g,%s,%.17g\n", ints, floats, names, -floats)
        assert fh.getvalue() == _reference(ints, floats, names)

    def test_special_values(self):
        fh = io.StringIO()
        csvio.write_rows(fh, "%.17g\n", SPECIAL)
        assert fh.getvalue().splitlines() == [format(x, ".17g") for x in SPECIAL]
        assert fh.getvalue().splitlines()[:3] == ["-0", "0", "4.9406564584124654e-324"]

    def test_no_rows_writes_nothing(self):
        fh = io.StringIO()
        csvio.write_rows(fh, "%d,%.17g\n", np.empty(0, dtype=np.int64), np.empty(0))
        assert fh.getvalue() == ""

    def test_rejects_unequal_or_2d_columns(self):
        with pytest.raises(ValueError):
            csvio.write_rows(io.StringIO(), "%d,%d\n", np.arange(3), np.arange(4))
        with pytest.raises(ValueError):
            csvio.write_rows(io.StringIO(), "%d\n", np.zeros((2, 2)))


class TestWriteCsv:
    def test_header_then_config_then_rows(self, tmp_path):
        ints, floats, names = _columns(5, 4)
        path = tmp_path / "t.csv"
        csvio.write_csv(path, "i,x,name,y", "0123456789abcdef", "%d,%.17g,%s,%.17g\n",
                        ints, floats, names, -floats)
        assert path.read_text() == (
            "i,x,name,y\n# config=0123456789abcdef\n" + _reference(ints, floats, names)
        )
