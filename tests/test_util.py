import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmnec import (
    ConfigError,
    DataFormatError,
    FeatureSpace,
    load_ova_model,
    parse_column_file,
    read_candidates_tsv,
)
from fmnec.util import G17, atomic_write, derive_seed, open_text


class TestAtomicWrite:
    def test_writes_file(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as fh:
            fh.write("content\n")
        assert target.read_text() == "content\n"

    def test_overwrites_in_place(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as fh:
            fh.write("new")
        assert target.read_text() == "new"

    def test_failure_leaves_no_trace(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        # the target keeps its old content and no temp file lingers
        assert target.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_rename_leaves_no_trace(self, tmp_path):
        # the rename onto a directory fails after the temp file is written
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(OSError) as err:
            with atomic_write(target) as fh:
                fh.write("content")
        assert str(target) in str(err.value)
        assert ".tmp." not in str(err.value)
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(target) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, umask):
        # the same mode open(path, "w") gives
        old = os.umask(umask)
        try:
            with atomic_write(tmp_path / "out.txt") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o666 & ~umask


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_parts_are_delimited(self):
        # ("ab", "c") and ("a", "bc") must not collide
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(123456789, "label", "PER") < 2**63


class TestFormatG17:
    @pytest.mark.parametrize("value", [0.1, -0.0, 1e-300, 3.141592653589793, 1.0])
    def test_round_trips(self, value):
        assert float(G17 % value) == value


@pytest.mark.parametrize("path, line, expected", [
    ("f.tsv", 3, "f.tsv:3: bad"),
    ("f.tsv", None, "f.tsv: bad"),
    (None, 3, "line 3: bad"),
    (None, None, "bad"),
])
def test_data_format_error_names_what_it_has(path, line, expected):
    err = DataFormatError("bad", path=path, line=line)
    assert (str(err), err.path, err.line) == (expected, path, line)


class TestOpenText:
    def test_reads_valid_text(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_bytes("café\nline two\n".encode("utf-8"))
        with open_text(path) as fh:
            assert fh.read() == "café\nline two\n"

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"\xff\n", 1),
            (b"good\nalso good\n\xffbad\n", 3),
            (b"a\r\nb\rc\n\xc3\n", 4),  # text-mode numbering counts \r and \r\n
            (b"ok\ntruncated \xe2\x82", 2),
        ],
    )
    def test_decode_error_names_the_line(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=rf"bad\.txt:{line}: not valid UTF-8"):
            with open_text(path) as fh:
                fh.read()


# a known prefix steers the random tail past each reader's header checks
HEADERS = [
    b"",
    b"-DOCSTART- -X- -X- O\n",
    b"PER\tJohn Smith\tsaid\tyesterday\n",
    b"FMOVA v2\n1\nPER\n",
    b"FMOVA v2\n1\nPER\nFMMODEL v2\n",
    # w0 0.5, w [1, 2]
    b"FMOVA v2\n1\nPER\nFMMODEL v2\n2 1\nAAAAAAAA4D8=\nAAAAAAAA8D8AAAAAAAAAQA==\n",
]
READERS = {
    "parse_column_file": parse_column_file,
    "read_candidates_tsv": read_candidates_tsv,
    "FeatureSpace.load": FeatureSpace.load,
    "load_ova_model": load_ova_model,
}


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "input"


@given(
    reader=st.sampled_from(sorted(READERS)),
    data=st.tuples(st.sampled_from(HEADERS), st.binary(max_size=300)).map(b"".join),
)
@settings(max_examples=300, deadline=None)
def test_readers_raise_only_documented_errors(scratch_file, reader, data):
    scratch_file.write_bytes(data)
    try:
        READERS[reader](scratch_file)
    except (DataFormatError, ConfigError):
        pass


# one valid file per reader, whose first token a byte-order mark would otherwise join
MARKABLE = {
    "parse_column_file": "-DOCSTART- -X- -X- O\n\nJohn NNP I-NP B-PER\nsaid VBD I-VP O\n",
    "read_candidates_tsv": "PER\tJohn Smith\tsaid\tyesterday\nPER\tMary\t\tleft\n",
    "FeatureSpace.load": "cap=0\nw=John\n",
    "load_ova_model": "FMOVA v2\n1\nPER\nFMMODEL v2\n0 0\nAAAAAAAA4D8=\n\n\n",
}


@pytest.mark.parametrize("reader", sorted(MARKABLE))
def test_leading_byte_order_mark_is_ignored(tmp_path, reader):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(MARKABLE[reader], encoding="utf-8")
    marked.write_text(MARKABLE[reader], encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert READERS[reader](marked) == READERS[reader](plain)
