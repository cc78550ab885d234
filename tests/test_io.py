import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blab import (
    BoundarySet,
    DomainError,
    SumSeries,
    MeansTable,
    ZeroSequence,
    atomic_write_text,
    canonical_json,
    complex_pair,
    format_zeros,
    means_csv,
    parse_zero_line,
    points_csv,
    read_boundary,
    read_zeros,
    series_csv,
    write_boundary,
    write_report,
    write_zeros,
)


class TestParseZeroLine:
    def test_cartesian(self):
        assert parse_zero_line("0.5 -0.25") == complex(0.5, -0.25)

    def test_polar(self):
        z = parse_zero_line("0.5@1.5707963267948966")
        assert z == pytest.approx(0.5j)

    def test_blank_and_comment(self):
        assert parse_zero_line("") is None
        assert parse_zero_line("   ") is None
        assert parse_zero_line("# note") is None
        assert parse_zero_line("0.5 0.0 # trailing") == 0.5 + 0j

    def test_malformed(self):
        with pytest.raises(DomainError, match="re im"):
            parse_zero_line("0.5")
        with pytest.raises(DomainError, match="cartesian"):
            parse_zero_line("0.5 abc")
        with pytest.raises(DomainError, match="polar"):
            parse_zero_line("x@0.5")


class TestZeroFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        zs = ZeroSequence([0.5, -0.3 + 0.4j, 1e-17 + 0.1j, 0.9999999999999998])
        path = tmp_path / "zeros.txt"
        write_zeros(path, zs)
        back = read_zeros(path)
        assert np.array_equal(back.zeros, zs.zeros)

    @given(
        st.lists(
            st.builds(
                lambda r, th: complex(r * math.cos(th), r * math.sin(th)),
                st.floats(min_value=1e-8, max_value=0.9999999),
                st.floats(min_value=0.0, max_value=2.0 * math.pi),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_hypothesis(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("zf") / "z.txt"
        write_zeros(path, ZeroSequence(values))
        assert np.array_equal(read_zeros(path).zeros, np.asarray(values))

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "z.txt"
        write_zeros(path, ZeroSequence([0.5]), header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")
        assert read_zeros(path).zeros[0] == 0.5

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5 0.0\nnot a zero line\n")
        with pytest.raises(DomainError, match=r"bad\.txt:2:"):
            read_zeros(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(DomainError, match="no zeros"):
            read_zeros(path)

    def test_format_accepts_plain_arrays(self):
        text = format_zeros(np.asarray([0.25 + 0j]))
        assert text == "0.25 0.0\n"


class TestBoundaryFiles:
    def test_roundtrip(self, tmp_path):
        E = BoundarySet(arcs=[(0.1, 0.4)], points=[3.0])
        path = tmp_path / "set.json"
        write_boundary(path, E)
        back = read_boundary(path)
        assert back.to_payload() == E.to_payload()

    def test_cantor_roundtrip_keeps_generator(self, tmp_path):
        E = BoundarySet.cantor((0.0, 1.0), 0.25, 6)
        path = tmp_path / "cantor.json"
        write_boundary(path, E)
        back = read_boundary(path)
        assert back.cantor_depth == 6
        assert back.segments == E.segments

    def test_file_is_canonical_json(self, tmp_path):
        E = BoundarySet.from_points([0.0, 1.0])
        path = tmp_path / "set.json"
        write_boundary(path, E)
        text = path.read_text()
        assert text == canonical_json(json.loads(text))


class TestAtomicWrite:
    def test_failed_write_removes_its_temp_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old\n")
        # a lone surrogate cannot be encoded as UTF-8, so the write fails
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "new \ud800\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert path.read_text() == "old\n"


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": [1, 2]})
        assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'

    def test_rerun_identical(self, tmp_path):
        payload = {"z": [0.1, -0.2], "n": 5}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(p1, payload)
        write_report(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvForms:
    def test_series_csv_exact(self):
        s = SumSeries([0.5, 0.25])
        assert series_csv(s) == "index,term,partial_sum\n1,0.5,0.5\n2,0.25,0.75\n"

    def test_means_csv_exact(self):
        t = MeansTable([(3, 1.0, 0.9, 1.5)])
        assert means_csv(t) == "N,p,r,value\n3,1.0,0.9,1.5\n"

    def test_points_csv_exact(self):
        text = points_csv(np.asarray([0.5 + 0.25j, -1.0 + 0j]))
        assert text == "re,im\n0.5,0.25\n-1.0,0.0\n"

    def test_repr_floats_roundtrip(self):
        v = 0.1 + 0.2  # 0.30000000000000004
        s = SumSeries([v])
        line = series_csv(s).splitlines()[1]
        assert float(line.split(",")[1]) == v


class TestComplexPair:
    def test_pair(self):
        assert complex_pair(0.5 - 0.25j) == [0.5, -0.25]
        assert complex_pair(1) == [1.0, 0.0]
