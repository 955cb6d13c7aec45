import csv
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshmatch import (
    ColumnSpec,
    DimensionMismatch,
    DuplicateColumn,
    InputError,
    MissingColumn,
    NonFiniteValue,
    ObservationSet,
    ParseError,
    TooFewRows,
    load_csv,
    split_three_way,
    treatment_mask,
    write_csv,
)
from threshmatch import (
    IndexOutOfRange,
    SplitAssignment,
    match_controls,
    order_by_eta,
)
from threshmatch import data_model
from threshmatch.data_model import MIN_ROWS, check_indices, read_columns, row_indices

from conftest import LAYOUTS, LONG_FIELD_CASES, long_field_csv, make_null_obs, piped, synthetic


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows(values):
    return "\n".join(",".join(repr(v) for v in row) for row in values)


class TestLoadCsv:
    def test_shared_column_duplicated_into_x_and_z(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((9, 3)).tolist()
        path = _write(tmp_path, "shared.csv", "y,a,q\n" + _rows(values) + "\n")
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        obs = load_csv(path, spec)
        assert obs.d_x == obs.d_z == 1
        assert np.array_equal(obs.x, obs.z)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "m.csv", "y,a\n" + _rows([[1.0, 2.0]] * 9))
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        with pytest.raises(MissingColumn) as err:
            load_csv(path, spec)
        assert err.value.name == "q"

    def test_duplicate_requested_column_rejected(self, tmp_path):
        path = _write(tmp_path, "dup.csv", "y,x1,x1,q\n" + _rows([[1.0, 2.0, 3.0, 4.0]] * 9))
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["x1"], z_cols=["x1"], tau0=0.0)
        with pytest.raises(DuplicateColumn) as err:
            load_csv(path, spec)
        assert err.value.name == "x1"
        assert "'x1'" in str(err.value)

    def test_duplicate_unrequested_column_ignored(self, tmp_path):
        path = _write(tmp_path, "dup.csv", "y,a,note,note,q\n" + _rows([[1.0, 2.0, 0.0, 0.0, 3.0]] * 9))
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        assert load_csv(path, spec).n == 9

    def test_column_sums_match_text_parse_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(scale=5.0, size=(12, 4))
        text = "y,a,b,q\n" + _rows(values.tolist()) + "\n"
        path = _write(tmp_path, "fix.csv", text)
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["a", "b"], tau0=0.0)
        obs = load_csv(path, spec)

        # independent line-by-line parse of the same file
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        sums = {h: 0.0 for h in header}
        for line in lines[1:]:
            for h, cell in zip(header, line.split(",")):
                sums[h] += float(cell)
        assert obs.y.sum() == pytest.approx(sums["y"], rel=1e-15)
        assert obs.q.sum() == pytest.approx(sums["q"], rel=1e-15)
        assert obs.x[:, 0].sum() == pytest.approx(sums["a"], rel=1e-15)
        assert obs.x[:, 1].sum() == pytest.approx(sums["b"], rel=1e-15)

    def test_too_few_rows(self, tmp_path):
        path = _write(tmp_path, "small.csv", "y,a,q\n" + _rows([[1.0, 2.0, 3.0]] * 3))
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        with pytest.raises(TooFewRows):
            load_csv(path, spec)

    def test_rejects_locale_and_nonfinite_cells(self, tmp_path):
        rows = [[1.0, 2.0, 3.0]] * 9
        good = "y,a,q\n" + _rows(rows)
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)

        bad = good.replace("1.0,2.0,3.0", "1.0,2_000,3.0", 1)
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "underscore.csv", bad), spec)

        bad = good.replace("1.0,2.0,3.0", "1.0,nan,3.0", 1)
        with pytest.raises(ParseError):
            load_csv(_write(tmp_path, "nan.csv", bad), spec)

        bad = good.replace("1.0,2.0,3.0", "1.0,1e999,3.0", 1)
        with pytest.raises(NonFiniteValue) as err:
            load_csv(_write(tmp_path, "inf.csv", bad), spec)
        assert err.value.col == "a"

    # a line of only "" holds a quote, so csv.reader finds where each record ends
    @pytest.mark.parametrize("blank_quoted_line", [False, True], ids=["one-pass", "per-cell"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, blank_quoted_line):
        values = np.random.default_rng(12).normal(size=(9, 4)).tolist()
        text = "y,a,b,q\n" + ('""\n' if blank_quoted_line else "") + _rows(values) + "\n"
        plain = load_csv(_write(tmp_path, "plain.csv", text), _SHARED_SPEC)
        marked = load_csv(_write(tmp_path, "marked.csv", "\ufeff" + text), _SHARED_SPEC)
        for name in ("y", "x", "z", "q"):
            assert getattr(marked, name).tobytes() == getattr(plain, name).tobytes()

    def test_a_byte_order_mark_inside_the_body_is_a_bad_cell(self, tmp_path):
        values = np.arange(36.0).reshape(9, 4).tolist()
        text = "y,a,b,q\n" + _rows(values[:3]) + "\n\ufeff" + _rows(values[3:]) + "\n"
        with pytest.raises(ParseError) as err:
            load_csv(_write(tmp_path, "inner.csv", "\ufeff" + text), _SHARED_SPEC)
        assert (err.value.row, err.value.col) == (3, "y")

    def test_round_trip_preserves_values(self, tmp_path):
        rng = np.random.default_rng(11)
        values = rng.normal(scale=3.0, size=(15, 4))
        path = _write(tmp_path, "rt.csv", "y,a,b,q\n" + _rows(values.tolist()) + "\n")
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["a"], tau0=0.5)
        obs = load_csv(path, spec)
        out = str(tmp_path / "rt2.csv")
        write_csv(out, obs, spec)
        reloaded = load_csv(out, spec)
        # repr round-trips doubles exactly, which is stronger than 15 digits
        assert np.array_equal(reloaded.y, obs.y)
        assert np.array_equal(reloaded.x, obs.x)
        assert np.array_equal(reloaded.z, obs.z)
        assert np.array_equal(reloaded.q, obs.q)


# The per-cell reader that load_csv replaced, kept as the oracle for the
# column reader: its accepted cells, values and first error define the contract.
_ORACLE_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _oracle_cell(cell, row, col):
    text = cell.strip()
    if not _ORACLE_NUMBER_RE.match(text):
        raise ParseError(row, col, cell)
    value = float(text)
    if not np.isfinite(value):
        raise NonFiniteValue(row, col)
    return value


def _oracle_load_csv(path, spec):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooFewRows(0, MIN_ROWS) from None
        header = [h.strip() for h in header]
        for name in [spec.y_col, spec.q_col, *spec.x_cols, *spec.z_cols]:
            if name not in header:
                raise MissingColumn(name)
        rows = [raw for raw in reader if raw and not (len(raw) == 1 and raw[0].strip() == "")]
    if len(rows) < MIN_ROWS:
        raise TooFewRows(len(rows), MIN_ROWS)

    def column(name):
        pos = header.index(name)
        out = np.empty(len(rows))
        for r, raw in enumerate(rows):
            if pos >= len(raw):
                raise ParseError(r, name, "<missing>")
            out[r] = _oracle_cell(raw[pos], r, name)
        return out

    y = column(spec.y_col)
    q = column(spec.q_col)
    x = np.column_stack([column(c) for c in spec.x_cols])
    z = np.column_stack([column(c) for c in spec.z_cols])
    return ObservationSet(y=y, x=x, z=z, q=q, tau0=spec.tau0)


def _outcome(reader, path, spec):
    """Bits of every loaded array, or the error's class, row, column and message."""
    try:
        obs = reader(path, spec)
    except InputError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None), str(exc)
    return tuple(a.tobytes() for a in (obs.y, obs.x, obs.z, obs.q))


# x and z share both columns, in different orders
_SHARED_SPEC = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["b", "a"], tau0=0.0)

# (id, edits, expected error or None[, layout]).  An edit (row, col, text)
# replaces one cell with raw CSV text; text None cuts the row short before col;
# col None replaces the whole line.  Columns are y=0, a=1, b=2, q=3.  A layout
# changes how the rows become a file: "eol" ends each line ("\n" by default),
# "end" follows the last line (the eol by default), "rows" keeps that many
# rows, "note" prepends an unrequested column holding that raw text, and
# "header" replaces the header line with raw text.
_HOSTILE = [
    ("plain", [], None),
    ("notation", [(0, 1, "1E5"), (1, 1, "+.5"), (2, 1, "5."), (3, 1, "-0.0"), (4, 2, "007"),
                  (5, 2, "-2.5e-3"), (6, 0, "1e-400")], None),
    ("padded", [(3, 1, " 1.5 ")], None),
    ("quoted", [(3, 2, '"2"')], None),
    ("quoted-trailing-newline", [(3, 2, '"1.5\n"')], None),
    ("quoted-inner-newline", [(3, 2, '"1\n2"')], ParseError),
    ("unicode-digit", [(3, 1, "\u0663")], None),
    ("underscore", [(3, 1, "1_0")], ParseError),
    ("inf", [(3, 1, "inf")], ParseError),
    ("nan", [(3, 1, "nan")], ParseError),
    ("overflow", [(3, 1, "1e999")], NonFiniteValue),
    ("double-sign", [(3, 1, "+-1")], ParseError),
    ("lone-dot", [(3, 1, ".")], ParseError),
    ("bare-exponent", [(3, 1, "1e")], ParseError),
    ("empty-cell", [(3, 1, "")], ParseError),
    ("short-row", [(6, 2, None)], ParseError),
    ("later-column-earlier-row", [(2, 2, "?"), (5, 1, "?")], ParseError),
    ("q-before-x", [(1, 1, "?"), (8, 3, "?")], ParseError),
    ("non-finite-after-parse-error", [(2, 1, "1e999"), (7, 1, "x")], NonFiniteValue),
    ("blank-lines-skipped", [(4, None, "   "), (7, None, "")], None),
    ("comma-only-line", [(4, None, ",,,")], ParseError),
    ("hash-in-last-cell", [(3, 3, "1.5#x")], ParseError),
    ("cr-line-endings", [], None, {"eol": "\r"}),
    ("crlf-line-endings", [(4, None, "")], None, {"eol": "\r\n"}),
    ("no-trailing-newline", [], None, {"end": ""}),
    ("row-longer-than-header", [(3, None, "0.5,1.5,2.5,3.5,4.5")], None),
    ("unrequested-text-column", [], None, {"note": "id-7"}),
    ("unrequested-quoted-comma", [], None, {"note": '"a,5"'}),
    ("unrequested-quoted-commas", [], None, {"note": '"a,1,2,3,4,5"'}),
    ("header-only", [], TooFewRows, {"rows": 0}),
    ("quoted-header", [], None, {"header": '"y","a","b","q"'}),
    ("quoted-header-spanning-lines", [], None, {"header": '"y","a","b","q\n"'}),
    ("quoted-header-and-cell", [(3, 2, '"2"')], None, {"header": '"y","a","b","q"'}),
    ("unrequested-quoted-newline", [], None, {"note": '"x\ny"'}),
    ("unrequested-quoted-blank-line", [], None, {"note": '"x\n   \ny"'}),
    ("unrequested-doubled-quote", [], None, {"note": '"q""q"'}),
    ("empty-quoted-line", [(4, None, '""')], None),
    ("padded-quoted", [(3, 1, '" 1.5"')], None),
    ("text-after-quote", [(3, 1, '1"5"')], ParseError),
    ("cr-quoted-note", [], None, {"eol": "\r", "note": '"x\ry"'}),
    ("empty-quoted-line-after-quoted-cell", [(2, 1, '"0.5"'), (4, None, '""')], None),
    ("unrequested-quoted-empty-quoted-line", [], None, {"note": '"x\n""\ny"'}),
    ("quoted-cell-holding-empty-quoted-line", [(3, 2, '"1.5\n""\n"')], ParseError),
]

# Layouts, quoted ones included, that the one-pass reader must accept.
_PLAIN = ["plain", "notation", "padded", "cr-line-endings", "crlf-line-endings",
          "no-trailing-newline", "row-longer-than-header", "unrequested-text-column",
          "quoted-header", "quoted-header-spanning-lines", "quoted", "unrequested-quoted-comma",
          "unrequested-quoted-commas", "quoted-header-and-cell", "blank-lines-skipped",
          "unrequested-quoted-newline", "unrequested-quoted-blank-line",
          "unrequested-doubled-quote", "padded-quoted", "cr-quoted-note", "empty-quoted-line",
          "empty-quoted-line-after-quoted-cell"]


def _hostile_file(tmp_path, case):
    _, edits, _, *layout = case
    layout = layout[0] if layout else {}
    rng = np.random.default_rng(7)
    rows = [[repr(v) for v in rng.normal(size=4).tolist()] for _ in range(12)]
    for r, c, text in edits:
        if c is None:
            rows[r] = [text]
        elif text is None:
            rows[r] = rows[r][:c]
        else:
            rows[r][c] = text
    header = ["y", "a", "b", "q"]
    if "note" in layout:
        header = ["note", *header]
        rows = [[layout["note"], *row] for row in rows]
    lines = [layout.get("header", ",".join(header))]
    lines += [",".join(row) for row in rows[: layout.get("rows")]]
    eol = layout.get("eol", "\n")
    path = tmp_path / "hostile.csv"
    path.write_bytes((eol.join(lines) + layout.get("end", eol)).encode("utf-8"))
    return str(path)


# Raw text the generated files draw on: unrequested notes, blank records and
# the characters a mutation writes.
_NOTES = ["id-7", '"a,5"', '"a,1,2,3,4,5"', '"x\ny"', '"x\n   \ny"', '"q""q"', '"x\r\ny"', '""',
          '"x\n""\ny"']
_BLANK_LINES = ["", "   ", "\t", '""']
_MUTATION_CHARS = '0123456789.,+-eE" \t\n\r#x\u0663'


def _random_file(rng, path):
    """A small CSV mixing plain, padded and quoted cells, blank and ``""`` lines,
    multi-line unrequested fields and the three line endings, often with one
    character of the body replaced, inserted or deleted."""
    header = ["y", "a", "b", "q"]
    note_at = int(rng.integers(0, 5)) if rng.random() < 0.6 else None
    if note_at is not None:
        header.insert(note_at, "note")
        note = _NOTES[rng.integers(len(_NOTES))]
    lines = []
    for _ in range(int(rng.integers(8, 15))):
        if rng.random() < 0.15:
            lines.append(_BLANK_LINES[rng.integers(len(_BLANK_LINES))])
        cells = []
        for value in rng.normal(scale=10.0, size=4):
            text, style = repr(float(value)), rng.random()
            if style < 0.15:
                text = f'"{text}"'
            elif style < 0.25:
                text = f" {text} "
            elif style < 0.3:
                text = f'" {text}"'
            cells.append(text)
        if note_at is not None:
            cells.insert(note_at, note)
        lines.append(",".join(cells))
    body = "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")
    if rng.random() < 0.6:
        at = int(rng.integers(len(body) + 1))
        char = _MUTATION_CHARS[rng.integers(len(_MUTATION_CHARS))]
        edit = rng.integers(3)
        body = body[:at] + ("" if edit == 2 else char) + body[at + (edit != 1):]
    eol = ["\n", "\r", "\r\n"][rng.integers(3)]
    text = (",".join(header) + "\n" + body).replace("\r\n", "\n").replace("\r", "\n")
    path.write_bytes(text.replace("\n", eol).encode("utf-8"))
    return str(path)


def _read_columns_sample(path, spec):
    """``spec``'s sample as :func:`read_columns` reads its roles, in ``load_csv``'s order."""
    table = read_columns(path, [spec.y_col, spec.q_col, *spec.x_cols, *spec.z_cols], MIN_ROWS)
    d_x = len(spec.x_cols)
    return ObservationSet(y=table[:, 0], q=table[:, 1], x=table[:, 2 : 2 + d_x], z=table[:, 2 + d_x :],
                          tau0=spec.tau0)


# cells the strict grammar accepts, in the spellings a file may give them
_good_cell = st.builds(
    str.format,
    st.sampled_from(["{!r}", " {!r}\t", '"{!r}"', '" {!r}\n"', '"\n{!r}\n   \n"']),
    st.floats(allow_nan=False, allow_infinity=False),
)
# cells that are bad, or that only the per-cell reader accepts
_odd_cell = st.sampled_from(
    ['1"5', '1"5,"a', "1e999", "\u0663", "-\u0660.5", '"1\n2"', '"1.5\n""\n"', "", '""', "x", "1_0", '"a\nb"']
)
_note = st.sampled_from(_NOTES + ['1"5', '"a\n\nb"', '"\n"'])
_blank_line = st.sampled_from(_BLANK_LINES + ["\t  "])


@st.composite
def _csv_texts(draw):
    """A CSV text of plain, padded, quoted and multi-line quoted cells, with
    ``""`` and whitespace-only lines, mid-field quotes and odd cells, one of
    the three line endings, and whether a byte-order mark precedes it."""
    noted = draw(st.booleans())
    lines = ["note,y,a,b,q" if noted else "y,a,b,q"]
    rows = draw(st.integers(MIN_ROWS - 1, 13))
    odd = dict(draw(st.lists(st.tuples(st.integers(0, 4 * rows), _odd_cell), max_size=2)))
    for r in range(rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(_blank_line))
        cells = [odd[4 * r + c] if 4 * r + c in odd else draw(_good_cell) for c in range(4)]
        lines.append(",".join([draw(_note), *cells] if noted else cells))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return text.replace("\n", eol), draw(st.booleans())


class TestColumnReaderAgainstOracle:
    @pytest.mark.parametrize("case", _HOSTILE, ids=lambda case: case[0])
    def test_same_values_or_same_error(self, tmp_path, case):
        path = _hostile_file(tmp_path, case)
        got = _outcome(load_csv, path, _SHARED_SPEC)
        assert got == _outcome(_oracle_load_csv, path, _SHARED_SPEC)
        expected = case[2]
        if expected is None:
            assert isinstance(got[0], bytes)
        else:
            assert got[0] is expected

    @pytest.mark.parametrize("case", [case for case in _HOSTILE if case[0] in _PLAIN],
                             ids=lambda case: case[0])
    def test_plain_files_take_the_one_pass_reader(self, tmp_path, monkeypatch, case):
        def per_cell(*args):
            raise AssertionError("the per-cell reader ran")

        path = _hostile_file(tmp_path, case)
        expected = _outcome(load_csv, path, _SHARED_SPEC)
        monkeypatch.setattr(data_model, "_parse_column", per_cell)
        assert _outcome(load_csv, path, _SHARED_SPEC) == expected

    def test_generated_files_match_the_oracle(self, tmp_path):
        rng = np.random.default_rng(17)
        for i in range(300):
            path = _random_file(rng, tmp_path / f"gen{i}.csv")
            got = _outcome(load_csv, path, _SHARED_SPEC)
            assert got == _outcome(_oracle_load_csv, path, _SHARED_SPEC), path

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(text=_csv_texts(), block=st.sampled_from([1, 2, 3, data_model.READ_BLOCK_LINES]))
    def test_drawn_texts_match_the_oracle(self, tmp_path_factory, text, block):
        directory = tmp_path_factory.mktemp("drawn")
        plain, marked = directory / "plain.csv", directory / "marked.csv"
        body, bom = text
        plain.write_bytes(body.encode("utf-8"))
        marked.write_bytes(("\ufeff" if bom else "").encode("utf-8") + plain.read_bytes())
        expected = _outcome(_oracle_load_csv, str(plain), _SHARED_SPEC)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_model, "READ_BLOCK_LINES", block)
            assert _outcome(load_csv, str(marked), _SHARED_SPEC) == expected
            assert _outcome(_read_columns_sample, str(marked), _SHARED_SPEC) == expected

    def test_shared_column_is_one_array_copied_into_both_matrices(self, tmp_path):
        path = _write(tmp_path, "shared.csv", "y,a,b,q\n" + _rows(np.arange(36.0).reshape(9, 4).tolist()))
        obs = load_csv(path, _SHARED_SPEC)
        assert np.array_equal(obs.x, obs.z[:, ::-1])
        assert not np.shares_memory(obs.x, obs.z)

    def test_non_utf8_byte_names_path_and_offset(self, tmp_path):
        path = tmp_path / "latin1.csv"
        head = ("y,a,b,q\n" + _rows(np.arange(36.0).reshape(9, 4).tolist()) + "\n").encode("utf-8")
        path.write_bytes(head + b"1.0,2.0,3.0,caf\xe9\n")
        with pytest.raises(InputError) as err:
            load_csv(str(path), _SHARED_SPEC)
        assert str(path) in str(err.value)
        assert f"byte {len(head) + 15}" in str(err.value)


def _chunked_text(eol, per_cell):
    """A file whose lines and characters straddle chunks of a few bytes.

    An unrequested note column holds multi-byte characters and quoted
    fields spanning lines; ``per_cell`` puts an Arabic-Indic digit in one
    cell, which sends the file to the per-cell reader.
    """
    values = np.random.default_rng(21).normal(size=(10, 4))
    notes = ['"caf\u00e9"', '"\u20ac\U0001d11e"', '"line\none"', '"a,\r\nb\rc"', '"""q"" \u00e9\n"']
    lines = ["note,y,a,b,q"]
    for r, row in enumerate(values.tolist()):
        cells = [repr(v) for v in row]
        if per_cell and r == 4:
            cells[1] = cells[1].replace("0", "\u0660", 1) if "0" in cells[1] else "\u0663"
        lines.append(",".join([notes[r % len(notes)], *cells]))
    return eol.join(lines) + eol


class TestChunkedRead:
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("per_cell", [False, True], ids=["one-pass", "per-cell"])
    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_reads_equal_the_oracle_across_chunks(self, tmp_path, monkeypatch, chunk, eol, per_cell, bom):
        text = _chunked_text(eol, per_cell)
        plain = tmp_path / "plain.csv"
        plain.write_bytes(text.encode("utf-8"))
        expected = _outcome(_oracle_load_csv, str(plain), _SHARED_SPEC)
        assert isinstance(expected[0], bytes)
        path = tmp_path / "chunked.csv"
        path.write_bytes(("\ufeff" if bom else "").encode("utf-8") + plain.read_bytes())
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", chunk)
        assert _outcome(load_csv, str(path), _SHARED_SPEC) == expected
        oracle = _oracle_load_csv(str(plain), _SHARED_SPEC)
        table = read_columns(str(path), ["y", "a", "b", "q"], MIN_ROWS)
        assert table.tobytes("F") == np.column_stack([oracle.y, oracle.x, oracle.q]).tobytes("F")

    @pytest.mark.parametrize("case", _HOSTILE, ids=lambda case: case[0])
    def test_hostile_files_read_in_three_byte_chunks(self, tmp_path, monkeypatch, case):
        path = _hostile_file(tmp_path, case)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 3)
        assert _outcome(load_csv, path, _SHARED_SPEC) == _outcome(_oracle_load_csv, path, _SHARED_SPEC)

    @pytest.mark.parametrize("chunk", [1, 3, 4096, data_model.READ_CHUNK_BYTES])
    @pytest.mark.parametrize(
        "where, bad",
        [("header", b"\xff"), ("row 2", b"\xe9"), ("last byte", b"\xff"), ("cut short", b"\xe2\x82"),
         ("mark then bad", b"\xef\xbb\xbf\xc3\x28")],
    )
    def test_a_byte_that_is_not_utf8_names_its_file_offset(self, tmp_path, monkeypatch, chunk, where, bad):
        lines = ("y,a,b,q\n" + _rows(np.arange(48.0).reshape(12, 4).tolist()) + "\n").encode("utf-8").split(b"\n")
        if where == "header":
            lines[0] = lines[0].replace(b"a", b"a" + bad)
        elif where == "row 2":
            lines[3] = lines[3] + b"," + bad
        elif where == "mark then bad":
            lines[6] = lines[6].replace(b",", b"," + bad, 1)
        data = b"\n".join(lines) + (bad if where in ("last byte", "cut short") else b"")
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as decoded:
            data.decode("utf-8")
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", chunk)
        for read in (lambda: load_csv(str(path), _SHARED_SPEC), lambda: read_columns(str(path), ["a"], 1)):
            with pytest.raises(InputError) as err:
                read()
            assert str(err.value) == f"{path}: byte {decoded.value.start} is not valid UTF-8"

    @pytest.mark.parametrize(
        "defect",
        ["missing-column", "duplicate-column", "too-few-rows", "bad-cell", "bad-cell-per-cell", "empty-body"],
    )
    def test_a_byte_that_is_not_utf8_wins_over_earlier_errors(self, tmp_path, monkeypatch, defect):
        header, rows = "y,a,b,q", np.arange(48.0).reshape(12, 4).tolist()
        body = _rows(rows)
        if defect == "missing-column":
            header = "y,a,c,q"
        elif defect == "duplicate-column":
            header = "y,a,a,b,q"
        elif defect == "too-few-rows":
            body = _rows(rows[:3])
        elif defect == "bad-cell":
            body = body.replace("1.0", "x", 1)
        elif defect == "bad-cell-per-cell":
            body = body.replace("1.0", "\u0661.x", 1)
        elif defect == "empty-body":
            body = ""
        data = (header + "\n" + body + "\n").encode("utf-8") + b"caf\xe9\n"
        path = tmp_path / "late.csv"
        path.write_bytes(data)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 7)
        with pytest.raises(InputError) as err:
            load_csv(str(path), _SHARED_SPEC)
        assert type(err.value) is InputError
        assert str(err.value) == f"{path}: byte {len(data) - 2} is not valid UTF-8"

    @pytest.mark.parametrize("per_cell", [False, True], ids=["one-pass", "per-cell"])
    def test_a_pipe_reads_as_its_file(self, tmp_path, monkeypatch, per_cell):
        # a pipe cannot be read twice, and the one read is all the reader needs
        data = _chunked_text("\r\n", per_cell).encode("utf-8")
        path = tmp_path / "plain.csv"
        path.write_bytes(data)
        expected = _outcome(load_csv, str(path), _SHARED_SPEC)
        assert isinstance(expected[0], bytes)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 5)
        sha256 = hashlib.sha256()
        with piped(data) as pipe:
            assert _outcome(lambda p, spec: load_csv(p, spec, sha256), pipe, _SHARED_SPEC) == expected
        assert sha256.digest() == hashlib.sha256(data).digest()
        with piped(data) as pipe:
            table = read_columns(pipe, ["y", "a", "q"], MIN_ROWS)
        assert table.tobytes() == read_columns(str(path), ["y", "a", "q"], MIN_ROWS).tobytes()

    def test_a_per_cell_file_is_opened_and_read_once(self, tmp_path, monkeypatch):
        # a non-ASCII digit sends a block to the per-cell reader, which reads no file
        text = "y,a,b,q\n" + _rows(np.arange(48.0).reshape(12, 4).tolist()) + "\n"
        path = tmp_path / "once.csv"
        path.write_text(text.replace("1.0", "\u0661.0", 1), encoding="utf-8")
        expected = _outcome(_oracle_load_csv, str(path), _SHARED_SPEC)
        assert isinstance(expected[0], bytes)
        read_text, reads, opened = data_model._read_text, [], []

        def read_once(*args):
            reads.append(args[0])
            return read_text(*args)

        def open_once(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(data_model, "_read_text", read_once)
        monkeypatch.setattr(data_model, "open", open_once, raising=False)
        assert _outcome(load_csv, str(path), _SHARED_SPEC) == expected
        assert reads == opened == [str(path)]


class TestFieldCsvCannotRead:
    """A field longer than ``csv.field_size_limit()``, as an unclosed quote
    makes, is an input error naming the file, wherever ``csv.reader`` meets it."""

    @pytest.mark.parametrize("case", LONG_FIELD_CASES)
    def test_the_error_names_the_file_and_csvs_reason(self, tmp_path, case):
        path = tmp_path / "long.csv"
        path.write_bytes(long_field_csv(case))
        limit = csv.field_size_limit()
        for read in (lambda: load_csv(str(path), _SHARED_SPEC), lambda: read_columns(str(path), ["y", "a"], 1)):
            with pytest.raises(InputError) as err:
                read()
            assert type(err.value) is InputError
            assert str(err.value) == f"{path}: field larger than field limit ({limit})"
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("case", LONG_FIELD_CASES)
    def test_a_later_byte_that_is_not_utf8_wins(self, tmp_path, case):
        data = long_field_csv(case, bad_byte_after=True)
        path = tmp_path / "long.csv"
        path.write_bytes(data)
        for read in (lambda: load_csv(str(path), _SHARED_SPEC), lambda: read_columns(str(path), ["y", "a"], 1)):
            with pytest.raises(InputError) as err:
                read()
            assert str(err.value) == f"{path}: byte {len(data) - 2} is not valid UTF-8"


class TestReadBlocks:
    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("case", _HOSTILE, ids=lambda case: case[0])
    def test_hostile_files_read_in_small_blocks(self, tmp_path, monkeypatch, case, block):
        path = _hostile_file(tmp_path, case)
        monkeypatch.setattr(data_model, "READ_BLOCK_LINES", block)
        assert _outcome(load_csv, path, _SHARED_SPEC) == _outcome(_oracle_load_csv, path, _SHARED_SPEC)

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("case", [case for case in _HOSTILE if case[0] in _PLAIN],
                             ids=lambda case: case[0])
    def test_plain_files_take_the_one_pass_reader_in_small_blocks(self, tmp_path, monkeypatch, case, block):
        # a block of only empty records, as a one-line block of a blank line is, holds no row to check
        def per_cell(*args):
            raise AssertionError("the per-cell reader ran")

        path = _hostile_file(tmp_path, case)
        expected = _outcome(_oracle_load_csv, path, _SHARED_SPEC)
        monkeypatch.setattr(data_model, "READ_BLOCK_LINES", block)
        monkeypatch.setattr(data_model, "_parse_column", per_cell)
        assert _outcome(load_csv, path, _SHARED_SPEC) == expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("per_cell", [False, True], ids=["one-pass", "per-cell"])
    def test_chunked_files_read_in_small_blocks(self, tmp_path, monkeypatch, block, eol, per_cell):
        path = tmp_path / "blocks.csv"
        path.write_bytes(_chunked_text(eol, per_cell).encode("utf-8"))
        expected = _outcome(_oracle_load_csv, str(path), _SHARED_SPEC)
        assert isinstance(expected[0], bytes)
        monkeypatch.setattr(data_model, "READ_BLOCK_LINES", block)
        monkeypatch.setattr(data_model, "READ_CHUNK_BYTES", 5)
        assert _outcome(load_csv, str(path), _SHARED_SPEC) == expected
        assert _outcome(_read_columns_sample, str(path), _SHARED_SPEC) == expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_a_block_ends_only_where_a_record_ends(self, tmp_path, monkeypatch, block):
        # 1"5 holds a literal quote and the next quote opens a field the next line
        # closes: the first line holds an even number of quotes, yet the record goes on,
        # and the second line alone would read as one more good row
        rows = [",".join(map(repr, row)) for row in np.arange(48.0).reshape(12, 4).tolist()]
        text = "y,a,b,q,n,m\n" + "".join(f'{row},1"5,"a\n9.0,9.0,9.0,9.0,"\n' for row in rows)
        path = _write(tmp_path, "spans.csv", text)
        monkeypatch.setattr(data_model, "READ_BLOCK_LINES", block)
        got = _outcome(load_csv, path, _SHARED_SPEC)
        assert got == _outcome(_oracle_load_csv, path, _SHARED_SPEC)
        assert len(got[0]) == 12 * 8


def _oracle_write_csv(path, columns, names):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in range(len(columns[0])):
            writer.writerow([repr(float(col[r])) for col in columns])


_B = data_model.WRITE_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 12, _B - 1, _B, _B + 1, 2 * _B + 3])
def test_write_csv_bytes_match_csv_writer(tmp_path, n):
    # row counts on both sides of the writer's block boundaries
    rng = np.random.default_rng(5)
    y, a, b, c, q = rng.normal(size=(5, n))
    y[:8] = [-0.0, 0.0, 5e-324, 1e-300, 1e22, -1.7976931348623157e308, 0.1, 1 / 3][:n]
    names = ["y", "a", "b", "c", "q"]
    _oracle_write_csv(str(tmp_path / "old.csv"), [y, a, b, c, q], names)
    expected = (tmp_path / "old.csv").read_bytes()
    data_model.write_columns(str(tmp_path / "columns.csv"), names, [y, a, b, c, q])
    assert (tmp_path / "columns.csv").read_bytes() == expected
    if n >= MIN_ROWS:
        # strided columns of x and z, and b written once from its first role
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["b", "c"], tau0=0.0)
        obs = ObservationSet(y=y, x=np.column_stack([a, b]), z=np.column_stack([b, c]), q=q, tau0=0.0)
        assert write_csv(str(tmp_path / "new.csv"), obs, spec) == names
        assert (tmp_path / "new.csv").read_bytes() == expected


def _traced(call):
    """``call()``'s result, the bytes it allocated and still holds, and its traced peak."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


class TestCsvMemory:
    def test_write_peak_does_not_grow_with_rows(self, tmp_path):
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        path = str(tmp_path / "w.csv")
        peaks = []
        for n in (50_000, 200_000):
            obs = synthetic(n, 1, 1, seed=6)
            peaks.append(_traced(lambda: write_csv(path, obs, spec))[2])
        # rows are formatted a block at a time, so the peak is one block's
        assert peaks[1] < 1.25 * peaks[0]

    def test_load_retains_only_the_sample_it_returns(self, tmp_path):
        # the generator's layout: x's columns are also z's, six distinct of nine
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b", "c"], z_cols=["a", "b", "c", "d"], tau0=0.0)
        path = str(tmp_path / "r.csv")
        write_csv(path, synthetic(50_000, 3, 4, seed=7), spec)
        load_csv(path, spec)  # first-call caches are not the sample's
        obs, retained, _ = _traced(lambda: load_csv(path, spec))
        # x is a view of z's first three columns, so its memory is z's
        assert obs.x.base is obs.z
        own = sum(a.nbytes for a in (obs.y, obs.q, obs.z))
        # one copy of each distinct column, and no parsed matrix behind them
        assert own <= retained < own + 64 * 1024

    def test_load_peak_is_the_parse_and_the_sample_not_the_file(self, tmp_path):
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b", "c"], z_cols=["a", "b", "c", "d"], tau0=0.0)
        path = tmp_path / "big.csv"
        write_csv(str(path), synthetic(200_000, 3, 4, seed=7), spec)
        load_csv(str(path), spec)  # first-call caches are not the sample's
        obs, _, peak = _traced(lambda: load_csv(str(path), spec))
        own = sum(a.nbytes for a in (obs.y, obs.q, obs.z))
        # the parsed matrix of the six distinct columns, the sample copied out
        # of it, and a fixed allowance for one chunk and loadtxt's buffers
        allowance = own + 2 * 2**20
        assert allowance < path.stat().st_size / 2
        assert peak <= own + allowance

    def test_per_cell_peak_is_the_plain_peak_and_one_block(self, tmp_path):
        # an Arabic-Indic digit in the first row sends its block to the per-cell reader
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b", "c"], z_cols=["a", "b", "c", "d"], tau0=0.0)
        plain, per_cell = tmp_path / "plain.csv", tmp_path / "per-cell.csv"
        written = synthetic(200_000, 3, 4, seed=7)
        write_csv(str(plain), written, spec)
        data = plain.read_bytes()
        digit = re.compile(rb"\d").search(data, data.index(b"\n")).start()
        per_cell.write_bytes(data[:digit] + chr(0x0660 + data[digit] - ord("0")).encode() + data[digit + 1 :])
        load_csv(str(plain), spec)  # first-call caches are not the sample's
        peaks = []
        for path in (plain, per_cell):
            obs, _, peak = _traced(lambda: load_csv(str(path), spec))
            assert obs.y.tobytes() == written.y.tobytes()
            peaks.append(peak)
        # one block's records as strings (1024 lines, under 1 MiB), not the file's
        assert peaks[1] <= peaks[0] + 4 * 2**20

    @pytest.mark.parametrize(
        "x_cols", [["a", "b", "c"], ["b", "c"], ["c", "a"]], ids=["leading-run", "inner-run", "copy"]
    )
    def test_intercept_keeps_no_old_z_alive(self, tmp_path, x_cols):
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=x_cols, z_cols=["a", "b", "c", "d"], tau0=0.0)
        path = str(tmp_path / "i.csv")
        written = synthetic(20_000, 3, 4, seed=9)
        write_csv(path, written, ColumnSpec("y", "q", ["a", "b", "c"], ["a", "b", "c", "d"], 0.0))
        load_csv(path, spec).with_z_intercept()  # first-call caches are not the sample's
        obs, retained, _ = _traced(lambda: load_csv(path, spec).with_z_intercept())
        copied = x_cols == ["c", "a"]
        assert np.shares_memory(obs.x, obs.z) is not copied
        own = sum(a.nbytes for a in (obs.y, obs.q, obs.z, *([obs.x] if copied else [])))
        # y, q and the new z (and x when it is a copy): not the loaded z behind x
        assert own <= retained < own + 64 * 1024
        columns = {"a": 0, "b": 1, "c": 2}
        assert np.array_equal(obs.x, written.x[:, [columns[c] for c in x_cols]])
        assert np.array_equal(obs.z, np.column_stack([written.z, np.ones(20_000)]))


class TestReadColumnsMatrix:
    @pytest.mark.parametrize("blank_quoted_line", [False, True], ids=["one-pass", "per-cell"])
    def test_column_k_holds_names_k_on_both_paths(self, tmp_path, blank_quoted_line):
        # a line of only "" holds a quote, so csv.reader finds where each record ends
        values = np.arange(27.0).reshape(9, 3)
        text = "a,b,c\n" + _rows(values.tolist()) + ('\n""\n' if blank_quoted_line else "\n")
        table = read_columns(_write(tmp_path, "m.csv", text), ["c", "a", "c", "b"], MIN_ROWS)
        assert isinstance(table, np.ndarray)
        assert table.dtype == np.float64
        assert np.array_equal(table, values[:, [2, 0, 2, 1]])
        # column-major, so y and q are contiguous columns of the matrix
        assert table.flags.f_contiguous

    def test_a_body_of_empty_lines_is_a_matrix_of_no_rows(self, tmp_path):
        table = read_columns(_write(tmp_path, "e.csv", "a,b\n\n   \n"), ["b", "a", "b"], 0)
        assert table.shape == (0, 3) and table.dtype == np.float64

    def test_load_csv_slices_one_matrix(self, tmp_path):
        values = np.arange(45.0).reshape(9, 5)
        path = _write(tmp_path, "s.csv", "y,a,b,c,q\n" + _rows(values.tolist()) + "\n")
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["c", "a"], z_cols=["a", "b"], tau0=0.0)
        obs = load_csv(path, spec)
        assert np.array_equal(obs.y, values[:, 0]) and np.array_equal(obs.q, values[:, 4])
        assert np.array_equal(obs.x, values[:, [3, 1]])
        assert np.array_equal(obs.z, values[:, [1, 2]])
        assert obs.y.flags.c_contiguous and obs.q.flags.c_contiguous
        # row gathers, as every fit takes them, come back C-contiguous
        assert obs.x[[0, 3]].flags.c_contiguous and obs.z[[1, 2]].flags.c_contiguous


class TestWriteCsv:
    def test_each_name_keeps_its_first_role_and_the_header_is_returned(self, tmp_path):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(9, 5))
        obs = ObservationSet(y=a[:, 0], x=a[:, 1:3], z=a[:, [3, 4]], q=a[:, 4], tau0=0.0)
        # q is also x's first column and b is in x and z: both are written from x
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["q", "b"], z_cols=["c", "b"], tau0=0.0)
        path = tmp_path / "roles.csv"
        header = write_csv(str(path), obs, spec)
        assert header == ["y", "q", "b", "c"]
        lines = path.read_text().splitlines()
        assert lines[0] == "y,q,b,c"
        first = [float(v) for v in lines[1].split(",")]
        assert first == [a[0, 0], a[0, 1], a[0, 2], a[0, 3]]

    @pytest.mark.parametrize(
        "x_cols, z_cols",
        [(["a"], ["c", "d"]), (["a", "b", "e"], ["c", "d"]), (["a", "b"], ["c"]), (["a", "b"], ["c", "d", "e"])],
        ids=["x-short", "x-long", "z-short", "z-long"],
    )
    def test_spec_width_must_match_the_sample(self, tmp_path, x_cols, z_cols):
        # a short spec used to drop columns silently, and a long one hit numpy's IndexError
        obs = ObservationSet(y=np.zeros(9), x=np.ones((9, 2)), z=np.ones((9, 2)), q=np.zeros(9), tau0=0.0)
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=x_cols, z_cols=z_cols, tau0=0.0)
        with pytest.raises(DimensionMismatch, match="columns"):
            write_csv(str(tmp_path / "w.csv"), obs, spec)
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize(
        "names, lengths",
        [(["a", "b"], [3, 5]), (["a"], [3, 3]), (["a", "b", "c"], [3, 3]), (["a", "b", "c"], [4, 4, 2])],
        ids=["ragged", "more-columns", "more-names", "short-last"],
    )
    def test_columns_must_match_the_names_and_each_other(self, tmp_path, names, lengths):
        # the rows used to stop at the shortest column, under a header of any width
        path = tmp_path / "ragged.csv"
        with pytest.raises(DimensionMismatch, match="names for columns of lengths"):
            data_model.write_columns(str(path), names, [np.arange(float(n)) for n in lengths])
        assert not path.exists()


_N = 30


def _entry_points():
    obs = make_null_obs(seed=3, n=_N)
    return {
        "check_indices": lambda idx: check_indices(idx, _N),
        "take": obs.take,
        "order_by_eta": lambda idx: order_by_eta(np.zeros(_N), idx),
        "SplitAssignment": lambda idx: SplitAssignment(idx, np.arange(3), np.arange(3)),
        "match_controls": lambda idx: match_controls(np.zeros(len(idx)), idx, np.zeros(3), np.arange(3)),
    }


# SplitAssignment takes its row count from its parts and match_controls knows
# none, so only the dtype rule is checked here (TestSplitPartition has the rest)
_WITH_ROW_COUNT = ("check_indices", "take", "order_by_eta")


class TestRowIndices:
    @pytest.mark.parametrize("entry", sorted(_entry_points()))
    @pytest.mark.parametrize(
        "idx, dtype",
        [(np.arange(_N) % 3 == 0, "bool"), (np.linspace(0.0, 8.5, 9), "float64")],
        ids=["bool-mask", "float-array"],
    )
    def test_non_integer_dtype_is_rejected(self, entry, idx, dtype):
        # a mask used to become rows 0 and 1, and floats were truncated
        with pytest.raises(DimensionMismatch, match=f"got {dtype}"):
            _entry_points()[entry](idx)

    @pytest.mark.parametrize("entry", _WITH_ROW_COUNT)
    @pytest.mark.parametrize("row", [-1, _N], ids=["minus-one", "n"])
    def test_rows_outside_the_sample_are_rejected(self, entry, row):
        # -1 used to take the last row, and n raised numpy's bare IndexError
        with pytest.raises(IndexOutOfRange) as err:
            _entry_points()[entry](np.full(9, row))
        assert err.value.index == row

    def test_empty_array_of_any_dtype_passes(self):
        for empty in ([], np.array([], dtype=bool), np.array([], dtype=np.float64)):
            out = row_indices(empty)
            assert out.dtype == np.intp and out.size == 0
            assert check_indices(empty, 5).size == 0

    def test_integer_arrays_pass_as_intp(self):
        for dtype in (np.int32, np.int64, np.uint8, np.intp):
            out = check_indices(np.array([0, 4, 2], dtype=dtype), 5)
            assert out.dtype == np.intp and out.tolist() == [0, 4, 2]


class TestObservationSet:
    def test_rejects_nan(self):
        y = np.zeros(9)
        x = np.zeros((9, 1))
        q = np.zeros(9)
        bad = x.copy()
        bad[4, 0] = np.nan
        with pytest.raises(NonFiniteValue):
            ObservationSet(y=y, x=bad, z=x, q=q, tau0=0.0)

    @pytest.mark.parametrize("tau0", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold(self, tau0):
        with pytest.raises(InputError) as err:
            ObservationSet(y=np.zeros(9), x=np.zeros((9, 1)), z=np.zeros((9, 1)), q=np.zeros(9), tau0=tau0)
        message = str(err.value)
        assert "tau0" in message and repr(tau0) in message
        assert "row" not in message

    def test_rejects_too_few_rows(self):
        with pytest.raises(TooFewRows):
            ObservationSet(
                y=np.zeros(8), x=np.zeros((8, 1)), z=np.zeros((8, 1)), q=np.zeros(8), tau0=0.0
            )

    @pytest.mark.parametrize(
        "y, x, q, message",
        [
            (np.zeros((9, 1)), np.zeros((9, 1)), np.zeros(9), "one-dimensional"),
            (np.zeros(9), np.zeros((10, 1)), np.zeros(9), "row counts differ"),
            (np.zeros(9), np.zeros((9, 0)), np.zeros(9), "at least one column"),
        ],
        ids=["2d-y", "unequal-rows", "zero-column-x"],
    )
    def test_rejects_misshapen_columns(self, y, x, q, message):
        with pytest.raises(DimensionMismatch, match=message):
            ObservationSet(y=y, x=x, z=np.zeros((9, 1)), q=q, tau0=0.0)

    @pytest.mark.parametrize("role", ["x", "z"])
    @pytest.mark.parametrize("shape", [(30,), (30, 2, 1)], ids=["1d", "3d"])
    def test_covariates_need_two_dimensions(self, role, shape):
        # neither n values in a vector nor a stack of matrices is an (n, d) matrix
        columns = {"y": np.zeros(30), "x": np.zeros((30, 2)), "z": np.zeros((30, 2)), "q": np.zeros(30)}
        columns[role] = np.zeros(shape)
        with pytest.raises(DimensionMismatch) as err:
            ObservationSet(**columns, tau0=0.0)
        assert str(err.value) == f"{role} must be an (n, d) matrix, got shape {shape}"

    def test_z_intercept_appends_ones(self, null_obs):
        wide = null_obs.with_z_intercept()
        assert wide.d_z == null_obs.d_z + 1
        assert np.all(wide.z[:, -1] == 1.0)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_covariates_are_stored_row_major(self, layout):
        obs = synthetic(30, 3, 4, seed=2, layout=layout)
        reference = synthetic(30, 3, 4, seed=2)
        for stored, given in ((obs.x, reference.x), (obs.z, reference.z)):
            assert stored.strides[1] == stored.itemsize
            assert stored.strides[0] >= stored.shape[1] * stored.itemsize
            assert np.array_equal(stored, given)

    def test_row_major_views_are_not_copied(self):
        # the generator's x is a column slice of its C-ordered z
        covs = np.random.default_rng(4).standard_normal((30, 4))
        obs = ObservationSet(y=covs[:, 0], x=covs[:, :3], z=covs, q=covs[:, 3], tau0=0.0)
        assert np.shares_memory(obs.x, covs) and np.shares_memory(obs.z, covs)

    def test_loaded_covariates_are_row_major(self, tmp_path):
        # x is the first two of z's three columns, as synthetic draws them
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["a", "b", "c"], tau0=0.0)
        path = str(tmp_path / "rows.csv")
        written = synthetic(30, 2, 3, seed=5)
        write_csv(path, written, spec)
        obs = load_csv(path, spec)
        # z is C-ordered and x the view of its first two columns, as in the generator
        assert obs.z.flags.c_contiguous
        assert obs.x.base is obs.z and obs.x.strides == obs.z.strides
        assert np.array_equal(obs.x, written.x) and np.array_equal(obs.z, written.z)


class TestSplitThreeWay:
    def test_sizes_n10(self):
        s = split_three_way(10, seed=0)
        assert (len(s.i1), len(s.i2), len(s.i3)) == (3, 3, 4)

    def test_deterministic_under_seed(self):
        a = split_three_way(9, seed=7)
        b = split_three_way(9, seed=7)
        assert np.array_equal(a.i1, b.i1)
        assert np.array_equal(a.i2, b.i2)
        assert np.array_equal(a.i3, b.i3)

    def test_partition_properties_random_n(self):
        rng = np.random.default_rng(21)
        for n in rng.integers(9, 100_000, size=50):
            n = int(n)
            s = split_three_way(n, seed=int(rng.integers(0, 2**32)))
            assert len(s.i1) == len(s.i2) == n // 3
            assert len(s.i3) == n - 2 * (n // 3)
            union = np.concatenate([s.i1, s.i2, s.i3])
            assert len(np.unique(union)) == n
            assert union.min() == 0 and union.max() == n - 1

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            split_three_way(8, seed=0)


class TestSplitPartition:
    def test_valid_partition_is_stored_sorted(self):
        s = SplitAssignment(np.array([4, 0]), np.array([5, 2, 1]), np.array([3]))
        assert [p.tolist() for p in (s.i1, s.i2, s.i3)] == [[0, 4], [1, 2, 5], [3]]
        assert all(p.dtype == np.intp for p in (s.i1, s.i2, s.i3))

    def test_part_of_any_shape_is_the_rows_it_holds(self):
        # a 2-D part used to reach the score fit as a 3-D design
        s = SplitAssignment(np.array([[5, 0], [2, 1]]), np.array([3]), np.array([4]))
        assert s.i1.tolist() == [0, 1, 2, 5]

    def test_row_in_two_parts_is_rejected(self):
        # 6 indices, so rows 0..5; row 3 sits in the first and third parts
        with pytest.raises(DimensionMismatch, match=r"^row 3 appears more than once"):
            SplitAssignment(np.array([0, 3]), np.array([1, 2]), np.array([3, 4]))

    def test_row_twice_in_one_part_is_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"^row 4 appears more than once"):
            SplitAssignment(np.array([0, 1]), np.array([4, 2, 4]), np.array([3]))

    @pytest.mark.parametrize("part", [0, 1, 2])
    @pytest.mark.parametrize("row", [-1, 9], ids=["minus-one", "n"])
    def test_rows_outside_the_partition_are_rejected(self, part, row):
        # nine indices partition rows 0..8; -1 or 9 replaces one part's middle row
        parts = [np.arange(0, 3), np.arange(3, 6), np.arange(6, 9)]
        parts[part] = np.where(parts[part] == 3 * part + 1, row, parts[part])
        with pytest.raises(IndexOutOfRange) as err:
            SplitAssignment(*parts)
        assert err.value.index == row
        assert str(err.value) == f"index {row} out of range for 9 rows"

    def test_range_is_checked_before_repeats(self):
        # row 9 of nine indices also means some row is missing or repeated
        with pytest.raises(IndexOutOfRange):
            SplitAssignment(np.arange(0, 3), np.array([3, 3, 9]), np.arange(6, 9))


class TestTreatmentMask:
    def test_cutoff_is_treated(self):
        q = np.array([-4.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        obs = ObservationSet(
            y=np.zeros(9), x=np.ones((9, 1)), z=np.ones((9, 1)), q=q, tau0=0.0
        )
        mask = treatment_mask(obs)
        assert mask.tolist() == [False] * 4 + [True] * 5

    def test_all_below_threshold(self):
        obs = ObservationSet(
            y=np.zeros(9), x=np.ones((9, 1)), z=np.ones((9, 1)),
            q=np.linspace(-9, -1, 9), tau0=0.0,
        )
        assert not treatment_mask(obs).any()

    def test_popcount_complement(self, null_obs):
        mask = treatment_mask(null_obs)
        assert mask.sum() == null_obs.n - (~mask).sum()


def test_min_rows_constant_matches_split_requirement():
    assert MIN_ROWS == 9


class TestColumnSpecValidation:
    def test_y_and_q_must_differ(self):
        with pytest.raises(Exception):
            ColumnSpec(y_col="v", q_col="v", x_cols=["a"], z_cols=["a"], tau0=0.0)

    @pytest.mark.parametrize(
        "x_cols, z_cols, y_col, q_col, named",
        [
            (["a", "a"], ["b"], "y", "q", "a"),
            (["a"], ["b", "b"], "y", "q", "b"),
            (["y", "a"], ["b"], "y", "q", "y"),
            (["a"], ["a", "y"], "y", "q", "y"),
            (["a"], ["q", "a"], "y", "q", "q"),
        ],
        ids=["x-twice", "z-twice", "y-in-x", "y-in-z", "q-in-z"],
    )
    def test_degenerate_roles_rejected(self, x_cols, z_cols, y_col, q_col, named):
        with pytest.raises(DimensionMismatch, match=f"'{named}'"):
            ColumnSpec(y_col=y_col, q_col=q_col, x_cols=x_cols, z_cols=z_cols, tau0=0.0)

    @pytest.mark.parametrize("x_cols, z_cols", [([], ["a"]), (["a"], [])], ids=["x", "z"])
    def test_empty_roles_rejected(self, x_cols, z_cols):
        with pytest.raises(DimensionMismatch, match="nonempty"):
            ColumnSpec(y_col="y", q_col="q", x_cols=x_cols, z_cols=z_cols, tau0=0.0)

    def test_overlap_and_score_in_x_allowed(self):
        ColumnSpec(y_col="y", q_col="q", x_cols=["a", "b"], z_cols=["b", "a"], tau0=0.0)
        ColumnSpec(y_col="y", q_col="q", x_cols=["q", "a"], z_cols=["a"], tau0=0.0)

    @pytest.mark.parametrize("tau0", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tau0_rejected(self, tau0):
        with pytest.raises(InputError, match="threshold tau0 must be finite"):
            ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=tau0)

    def test_scientific_and_signed_cells_accepted(self, tmp_path):
        text = "y,a,q\n" + "\n".join(["+1.5,1e3,-2.5e-1"] * 9) + "\n"
        path = tmp_path / "sci.csv"
        path.write_text(text, encoding="utf-8")
        spec = ColumnSpec(y_col="y", q_col="q", x_cols=["a"], z_cols=["a"], tau0=0.0)
        obs = load_csv(str(path), spec)
        assert obs.y[0] == 1.5
        assert obs.x[0, 0] == 1000.0
        assert obs.q[0] == -0.25
