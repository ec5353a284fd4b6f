import pytest

from prtradeoff import (
    MixedPriorsError,
    MixedSchemaError,
    NegativeCountError,
    ParseError,
    ZeroTotalError,
    ingest,
)


def write(tmp_path, text, name="perf.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_counts_with_labels(tmp_path):
    path = write(tmp_path, "method,tn,fp,fn,tp\nm1,90,5,3,2\nm2,1,1,1,1\n")
    pset = ingest(path)
    assert pset.labels == ("m1", "m2")
    assert pset.parts.tolist() == [[0.9, 0.05, 0.03, 0.02], [0.25, 0.25, 0.25, 0.25]]


def test_counts_without_labels_and_column_order(tmp_path):
    path = write(tmp_path, "tp,fn,fp,tn\n2,3,5,90\n")
    pset = ingest(path)
    assert pset.labels is None
    assert pset.parts[0, 0] == 0.9


def test_blank_lines_and_extra_columns_ignored(tmp_path):
    path = write(tmp_path, "name,tn,fp,fn,tp,notes\na,1,1,1,1,hello\n\nb,2,1,1,0,x\n")
    pset = ingest(path)
    assert len(pset) == 2


def test_zero_total_row(tmp_path):
    path = write(tmp_path, "tn,fp,fn,tp\n1,1,1,1\n0,0,0,0\n")
    with pytest.raises(ZeroTotalError) as err:
        ingest(path)
    assert err.value.row == 3


def test_negative_count(tmp_path):
    path = write(tmp_path, "tn,fp,fn,tp\n1,-1,1,1\n")
    with pytest.raises(NegativeCountError):
        ingest(path)


def test_non_numeric_cell(tmp_path):
    path = write(tmp_path, "tn,fp,fn,tp\n1,x,1,1\n")
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.row == 2


@pytest.mark.parametrize(
    "rows, error, row, message",
    [
        (["1,-1,1,1", "1,x,1,1"], NegativeCountError, 2, "negative cell in [1.0, -1.0, 1.0, 1.0]"),
        (["nan,1,1,1", "-1,1,1,1"], ParseError, 2, "non-finite cell value nan"),
        (["nan,-1,1,1"], NegativeCountError, 2, "negative cell in [nan, -1.0, 1.0, 1.0]"),
        (["inf,1,1,1"], ParseError, 2, "non-finite cell value inf"),
        (["1e308,1e308,1,1", "1,1"], ParseError, 2, "normalization failed to reach the simplex"),
        (["1,1,1,1", "0,0,0,0", "1,x,1,1"], ZeroTotalError, 3, "all four cells are zero"),
    ],
)
def test_first_bad_count_row_decides_the_error(tmp_path, rows, error, row, message):
    path = write(tmp_path, "\n".join(["tn,fp,fn,tp", *rows]) + "\n")
    with pytest.raises(error) as err:
        ingest(path)
    assert type(err.value) is error
    assert err.value.row == row
    assert str(err.value) == f"row {row}: {message}"


def test_roc_with_prior_column(tmp_path):
    path = write(tmp_path, "method,fpr,tpr,prior_pos\nm1,0.1,0.8,0.2\n")
    assert ingest(path).parts[0].tolist() == pytest.approx([0.72, 0.08, 0.04, 0.16])


def test_roc_with_prior_argument(tmp_path):
    path = write(tmp_path, "fpr,tpr\n0.1,0.8\n0.2,0.9\n")
    pset = ingest(path, prior_pos=0.2)
    assert pset.parts[0, 2] + pset.parts[0, 3] == pytest.approx(0.2)
    with pytest.raises(ParseError):
        ingest(path)  # no prior anywhere


def test_roc_prior_must_be_shared(tmp_path):
    path = write(tmp_path, "fpr,tpr,prior_pos\n0.1,0.8,0.2\n0.2,0.9,0.3\n")
    with pytest.raises(MixedPriorsError):
        ingest(path)


def test_roc_prior_argument_conflict(tmp_path):
    path = write(tmp_path, "fpr,tpr,prior_pos\n0.1,0.8,0.2\n")
    assert len(ingest(path, prior_pos=0.2)) == 1  # agreeing values are fine
    with pytest.raises(MixedPriorsError):
        ingest(path, prior_pos=0.3)


def test_roc_range_checks(tmp_path):
    path = write(tmp_path, "fpr,tpr\n1.2,0.5\n")
    with pytest.raises(ParseError):
        ingest(path, prior_pos=0.5)
    path = write(tmp_path, "fpr,tpr\n0.2,0.5\n")
    with pytest.raises(ParseError):
        ingest(path, prior_pos=1.0)


def test_mixed_schema(tmp_path):
    path = write(tmp_path, "tn,fp,fn,tp,fpr,tpr\n1,1,1,1,0.5,0.5\n")
    with pytest.raises(MixedSchemaError):
        ingest(path)


def test_unrecognized_header(tmp_path):
    path = write(tmp_path, "a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        ingest(path)


def test_empty_file_and_no_rows(tmp_path):
    with pytest.raises(ParseError):
        ingest(write(tmp_path, ""))
    with pytest.raises(ParseError):
        ingest(write(tmp_path, "tn,fp,fn,tp\n"))


def test_short_row(tmp_path):
    path = write(tmp_path, "tn,fp,fn,tp\n1,1,1\n")
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.row == 2
