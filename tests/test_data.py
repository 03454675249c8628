from __future__ import annotations

import numpy as np
import pytest

from corrsel.data import (
    Dataset,
    SyntheticSpec,
    bootstrap_sample,
    generate_synthetic,
    load_csv,
    write_csv,
)
from corrsel.errors import (
    EmptyDataset,
    EmptyTestSet,
    InvalidOutcomeValue,
    InvalidSpec,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
)
from corrsel.seeding import RESEED_OFFSET
from corrsel.stats import spearman


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "loc,cc,bug\n10,1,0\n20,2,1\n30,3,0\n")
    d = load_csv(path, "bug")
    assert d.metric_names == ("loc", "cc")
    assert d.n_modules == 3
    assert d.rows[1].tolist() == [20.0, 2.0]
    assert d.outcome.tolist() == [False, True, False]


def test_load_csv_skips_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("a,b,bug\r\n1,2,0\r\n3,4,1\r\n".encode("utf-8-sig"))
    d = load_csv(path, "bug")
    assert d.metric_names == ("a", "b")
    assert d.column("a").tolist() == [1.0, 3.0]


def test_load_csv_outcome_words_any_case(tmp_path):
    path = _write(tmp_path, "loc,bug\n1,Clean\n2,DEFECTIVE\n")
    d = load_csv(path, "bug")
    assert d.outcome.tolist() == [False, True]


def test_load_csv_outcome_column_position_free(tmp_path):
    path = _write(tmp_path, "bug,loc,cc\n1,10,5\n0,20,6\n")
    d = load_csv(path, "bug")
    assert d.metric_names == ("loc", "cc")


def test_load_csv_invalid_outcome(tmp_path):
    path = _write(tmp_path, "loc,bug\n1,0\n2,maybe\n")
    with pytest.raises(InvalidOutcomeValue) as err:
        load_csv(path, "bug")
    assert err.value.row == 2


def test_load_csv_blank_cell(tmp_path):
    path = _write(tmp_path, "loc,cc,bug\n1,2,0\n,3,1\n")
    with pytest.raises(NonNumericCell) as err:
        load_csv(path, "bug")
    assert err.value.column == "loc"
    assert err.value.row == 2


def test_load_csv_non_finite_cell_rejected(tmp_path):
    path = _write(tmp_path, "loc,bug\nnan,0\n2,1\n")
    with pytest.raises(NonNumericCell):
        load_csv(path, "bug")


def test_load_csv_missing_outcome_column(tmp_path):
    path = _write(tmp_path, "loc,cc\n1,2\n")
    with pytest.raises(MissingColumn):
        load_csv(path, "bug")


def test_load_csv_outcome_named_twice(tmp_path):
    path = _write(tmp_path, "a,bug,bug\n1,0,0\n2,1,1\n")
    with pytest.raises(EmptyDataset, match="duplicate column name 'bug'"):
        load_csv(path, "bug")


def test_load_csv_empty_file(tmp_path):
    path = _write(tmp_path, "loc,bug\n")
    with pytest.raises(EmptyDataset):
        load_csv(path, "bug")


def test_load_csv_ragged_row_names_its_row(tmp_path):
    path = _write(tmp_path, "loc,cc,bug\n1,2,0\n\n3,1\n")
    with pytest.raises(MalformedCsv) as err:
        load_csv(path, "bug")
    assert str(err.value) == "row 3: 2 cells, expected 3"  # blank lines count as rows


def test_load_csv_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("loc,bug\n1,0\n2,1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(MalformedCsv, match="not UTF-8"):
        load_csv(path, "bug")


def test_load_csv_field_over_the_csv_limit(tmp_path):
    # a padded number that float() would read is refused as the csv module refuses it
    path = _write(tmp_path, "loc,bug\n1" + " " * 200_000 + ",0\n2,1\n")
    with pytest.raises(MalformedCsv, match="field larger than field limit"):
        load_csv(path, "bug")


def test_load_csv_quoted_header_spanning_lines(tmp_path):
    path = _write(tmp_path, 'loc,"cc\nnew",bug\r\n1,2,0\r\n3,4,1\r\n')
    d = load_csv(path, "bug")
    assert d.metric_names == ("loc", "cc\nnew")
    assert d.rows.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    d = Dataset(
        ("a", "b", "c"),
        rng.standard_normal((25, 3)) * np.array([1e-7, 1.0, 1e9]),
        rng.random(25) < 0.4,
    )
    path = tmp_path / "round.csv"
    write_csv(d, path, "bug")
    back = load_csv(path, "bug")
    assert back == d


def test_dataset_rejects_duplicate_names():
    with pytest.raises(EmptyDataset):
        Dataset(("a", "a"), np.zeros((2, 2)), np.array([True, False]))


def test_dataset_leaves_the_callers_arrays_writeable():
    x = np.arange(6.0).reshape(3, 2)
    y = np.array([True, False, True])
    d = Dataset(("a", "b"), x, y)
    assert x.flags.writeable and y.flags.writeable
    assert not d.rows.flags.writeable and not d.outcome.flags.writeable
    x[0, 0] = 99.0
    assert d.rows[0, 0] == 0.0
    with pytest.raises(ValueError):
        d.rows[0, 0] = 1.0


def test_dataset_rejects_nan():
    with pytest.raises(EmptyDataset):
        Dataset(("a",), np.array([[np.nan], [1.0]]), np.array([True, False]))


def test_dataset_rejects_shape_mismatch():
    with pytest.raises(EmptyDataset):
        Dataset(("a", "b"), np.zeros((2, 1)), np.array([True, False]))


def test_project_keeps_order_and_values():
    d = Dataset(("a", "b", "c"), np.arange(12.0).reshape(4, 3), np.array([1, 0, 1, 0], bool))
    sub = d.project(["c", "a"])
    assert sub.metric_names == ("c", "a")
    assert sub.rows[:, 0].tolist() == d.column("c").tolist()


def test_bootstrap_split_structure():
    rng = np.random.default_rng(4)
    d = Dataset(("a",), rng.standard_normal((50, 1)), rng.random(50) < 0.5)
    split = bootstrap_sample(d, seed=42)
    assert split.train.n_modules == 50
    assert len(split.draw_indices) == 50
    drawn = set(split.draw_indices.tolist())
    undrawn = [i for i in range(50) if i not in drawn]
    # test rows are exactly the undrawn source rows, in original order
    assert np.array_equal(split.test.rows[:, 0], d.rows[undrawn, 0])
    assert np.array_equal(split.test.outcome, d.outcome[undrawn])
    assert drawn.isdisjoint(undrawn)


def test_bootstrap_deterministic():
    d = Dataset(("a",), np.arange(10.0)[:, None], np.array([i % 2 == 0 for i in range(10)]))
    s1 = bootstrap_sample(d, seed=42)
    s2 = bootstrap_sample(d, seed=42)
    assert np.array_equal(s1.draw_indices, s2.draw_indices)
    assert s1.train == s2.train


def test_bootstrap_single_row_empty_test():
    d = Dataset(("a",), np.array([[1.0]]), np.array([True]))
    with pytest.raises(EmptyTestSet):
        bootstrap_sample(d, seed=0)


@pytest.mark.parametrize("n", [2, 3])
def test_bootstrap_reseeds_a_draw_that_takes_every_row(n):
    d = Dataset(("a",), np.arange(float(n))[:, None], np.arange(n) % 2 == 0)

    def takes_every_row(seed):
        return len(set(np.random.default_rng(seed).integers(0, n, n).tolist())) == n

    seed = next(s for s in range(1000) if takes_every_row(s) and not takes_every_row(s + RESEED_OFFSET))
    split = bootstrap_sample(d, seed)
    assert split.seed == seed + RESEED_OFFSET
    again = bootstrap_sample(d, seed + RESEED_OFFSET)
    assert again.seed == split.seed
    assert np.array_equal(split.draw_indices, again.draw_indices)
    assert split.train == again.train and split.test == again.test
    for seed in range(50):  # every split leaves a row out, and is the one drawn at its seed
        split = bootstrap_sample(d, seed)
        assert split.test.n_modules >= 1
        assert split.seed in {(seed + k * RESEED_OFFSET) % (1 << 64) for k in range(20)}
        assert bootstrap_sample(d, split.seed).seed == split.seed


def test_bootstrap_out_of_bag_mass_small():
    rng = np.random.default_rng(5)
    d = Dataset(("a",), rng.standard_normal((200, 1)), rng.random(200) < 0.5)
    fracs = []
    for seed in range(200):
        split = bootstrap_sample(d, seed)
        fracs.append(split.test.n_modules / 200)
    assert 0.34 < np.mean(fracs) < 0.40


def test_generate_synthetic_exact_clone():
    spec = SyntheticSpec(2, 100, (0.0, 0.0), ((0, 1, 0.0),), seed=9)
    d = generate_synthetic(spec)
    assert d.metric_names == ("m1", "m2", "m1_clone1")
    assert spearman(d.column("m1"), d.column("m1_clone1")) == 1.0


def test_generate_synthetic_independent_columns_weakly_correlated():
    spec = SyntheticSpec(4, 500, (0.0,) * 4, (), seed=10)
    d = generate_synthetic(spec)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(spearman(d.rows[:, i], d.rows[:, j])) < 0.3


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(3, 60, (1.0, 0.0, 0.0), ((1, 2, 0.5),), seed=77)
    assert generate_synthetic(spec) == generate_synthetic(spec)


def test_generate_synthetic_same_source_twice_unique_names():
    spec = SyntheticSpec(2, 50, (0.0, 0.0), ((0, 1, 0.1), (0, 2, 0.2)), seed=1)
    d = generate_synthetic(spec)
    assert d.metric_names == ("m1", "m2", "m1_clone1", "m1_clone2", "m1_clone3")


def test_synthetic_spec_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(0, 100, ())
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 5, (0.0, 0.0))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 100, (0.0,))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 100, (0.0, 0.0), ((5, 1, 0.1),))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(2, 100, (0.0, 0.0), ((0, 1, -0.1),))
