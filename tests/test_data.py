import csv
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedcl import data as dataio
from fedcl.data import DataError


def make_dataset(n, seed=0, flag=None):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 1, size=(n, 29))
    features[:, 0] = rng.integers(0, 2, size=n) if flag is None else flag
    labels = rng.uniform(1, 5, size=(n, 8))
    return dataio.Dataset(features, labels)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = make_dataset(50, seed=3)
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        loaded = dataio.load_csv(str(path))
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_three_row_file_order_preserved(self, tmp_path):
        ds = make_dataset(3, seed=4)
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        loaded = dataio.load_csv(str(path))
        assert len(loaded) == 3
        assert np.array_equal(loaded.labels, ds.labels)

    def test_missing_label_column_named(self, tmp_path):
        ds = make_dataset(3)
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        text = path.read_text().replace("label_vacuuming", "label_hoovering")
        path.write_text(text)
        with pytest.raises(DataError, match="label_vacuuming"):
            dataio.load_csv(str(path))

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        ds = make_dataset(3)
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "oops"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="row 3"):
            dataio.load_csv(str(path))

    def test_label_out_of_range_rejected(self, tmp_path):
        ds = make_dataset(3)
        ds.labels[1, 2] = 7.0
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        with pytest.raises(DataError, match=r"outside \[1, 5\]"):
            dataio.load_csv(str(path))

    def test_circle_flag_moved_to_index_zero(self, tmp_path):
        ds = make_dataset(5, seed=6)
        # write with the flag column last
        names = ds.feature_names[1:] + [dataio.CIRCLE_FLAG_COLUMN]
        shuffled = dataio.Dataset(
            np.concatenate([ds.features[:, 1:], ds.features[:, :1]], axis=1),
            ds.labels, names)
        path = tmp_path / "data.csv"
        dataio.save_csv(shuffled, str(path))
        loaded = dataio.load_csv(str(path))
        assert np.array_equal(loaded.features[:, 0], ds.features[:, 0])

    def test_duplicate_feature_column_named(self, tmp_path):
        # 29 feature columns, one of them twice: f_feat02 is missing
        path = tmp_path / "data.csv"
        dataio.save_csv(make_dataset(3), str(path))
        text = path.read_text()
        path.write_text(text.replace("f_feat02", "f_feat01", 1))
        with pytest.raises(DataError, match=r"duplicate columns \['f_feat01'\]"):
            dataio.load_csv(str(path))


def reference_load(path):
    """The per-cell float() parser load_csv replaced: csv rows, one float()
    per cell, the flag column first."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    names = [c for c in header if c.startswith("f_")]
    names = [dataio.CIRCLE_FLAG_COLUMN] + [c for c in names if c != dataio.CIRCLE_FLAG_COLUMN]
    features = np.array([[float(row[header.index(c)]) for c in names] for row in rows])
    labels = np.array([[float(row[header.index(c)]) for c in dataio.LABEL_COLUMNS] for row in rows])
    return features, labels


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def saved_lines(tmp_path, ds):
    """The lines save_csv writes for ds, header first."""
    path = tmp_path / "saved.csv"
    dataio.save_csv(ds, str(path))
    return path.read_text(encoding="utf-8").splitlines()


def with_cell(line, column, text):
    cells = line.split(",")
    cells[column] = text
    return ",".join(cells)


FIRST_LABEL = dataio.N_FEATURES  # save_csv writes the labels after the features


class TestCsvParse:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_then_load_is_bit_identical(self, data):
        n = data.draw(st.integers(1, 12))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        others = data.draw(arrays(np.float64, (n, dataio.N_FEATURES - 1), elements=finite))
        flag = data.draw(arrays(np.float64, (n, 1), elements=st.sampled_from([0.0, 1.0])))
        labels = data.draw(arrays(np.float64, (n, dataio.N_LABELS), elements=st.floats(1.0, 5.0)))
        at = data.draw(st.integers(0, dataio.N_FEATURES - 1))
        names = list(dataio.DEFAULT_FEATURE_COLUMNS[1:])
        names.insert(at, dataio.CIRCLE_FLAG_COLUMN)
        stored = np.concatenate([others[:, :at], flag, others[:, at:]], axis=1)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            dataio.save_csv(dataio.Dataset(stored, labels, names), path)
            loaded = dataio.load_csv(path)
        assert loaded.features.tobytes() == np.concatenate([flag, others], axis=1).tobytes()
        assert loaded.labels.tobytes() == labels.tobytes()

    def test_equals_per_cell_float_parser(self, tmp_path):
        # written the way the benchmark writes its file, plus edge values
        rng = np.random.default_rng(7)
        features = rng.uniform(0, 1, size=(400, 29))
        features[:, 0] = rng.integers(0, 2, size=400)
        features[:8, 1] = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                           -1e300, 1e-300, 0.1, 1 / 3]
        labels = rng.uniform(1, 5, size=(400, 8))
        labels[0] = [1.0, 5.0, 1.0000000000000002, 4.999999999999999, 3, 2, 2, 2]
        path = tmp_path / "data.csv"
        np.savetxt(path, np.hstack([features, labels]), fmt="%.17g", delimiter=",",
                   header=",".join(dataio.DEFAULT_FEATURE_COLUMNS + dataio.LABEL_COLUMNS),
                   comments="")
        loaded = dataio.load_csv(str(path))
        ref_features, ref_labels = reference_load(str(path))
        assert loaded.features.tobytes() == ref_features.tobytes()
        assert loaded.labels.tobytes() == ref_labels.tobytes()
        assert loaded.features.flags.c_contiguous and loaded.labels.flags.c_contiguous

    def test_first_bad_row_wins_across_kinds(self, tmp_path):
        ds = make_dataset(6)
        ds.labels[1, 2] = 7.0  # row 3: label out of range
        lines = saved_lines(tmp_path, ds)
        lines[4] = with_cell(lines[4], 1, "oops")  # row 5: non-numeric
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=r"row 3, column 'label_carry_warm_food': "
                                            r"label 7.0 outside \[1, 5\]"):
            dataio.load_csv(str(path))

    def test_first_label_out_of_range_in_row_major_order(self, tmp_path):
        ds = make_dataset(6)
        ds.labels[3, 1] = 0.5
        ds.labels[2, 6] = 9.0
        ds.labels[2, 4] = 6.0
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        with pytest.raises(DataError, match=r"row 4, column 'label_carry_big_objects': label 6.0"):
            dataio.load_csv(str(path))

    @pytest.mark.parametrize("at, row", [(2, 3), (4, 5)])
    def test_blank_line_names_its_row(self, tmp_path, at, row):
        lines = saved_lines(tmp_path, make_dataset(3))
        lines.insert(at, "")
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=rf"row {row} has 0 cells, expected 37"):
            dataio.load_csv(str(path))

    def test_every_row_one_cell_too_many(self, tmp_path):
        lines = saved_lines(tmp_path, make_dataset(3))
        path = tmp_path / "data.csv"
        write_lines(path, lines[:1] + [line + ",1.0" for line in lines[1:]])
        with pytest.raises(DataError, match="row 2 has 38 cells, expected 37"):
            dataio.load_csv(str(path))

    def test_header_only_gives_no_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        write_lines(path, saved_lines(tmp_path, make_dataset(3))[:1])
        loaded = dataio.load_csv(str(path))
        assert loaded.features.shape == (0, 29) and loaded.labels.shape == (0, 8)

    def test_one_row(self, tmp_path):
        ds = make_dataset(1, seed=8)
        path = tmp_path / "data.csv"
        dataio.save_csv(ds, str(path))
        loaded = dataio.load_csv(str(path))
        assert loaded.features.shape == (1, 29) and loaded.labels.shape == (1, 8)
        assert np.array_equal(loaded.features, ds.features)

    def test_quoted_cells_accepted(self, tmp_path):
        ds = make_dataset(4, seed=9)
        lines = saved_lines(tmp_path, ds)
        path = tmp_path / "data.csv"
        write_lines(path, lines[:1] + [",".join(f'"{c}"' for c in line.split(","))
                                       for line in lines[1:]])
        loaded = dataio.load_csv(str(path))
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_quoted_line_break_inside_a_cell_accepted(self, tmp_path):
        ds = make_dataset(3, seed=10)
        lines = saved_lines(tmp_path, ds)
        cell = lines[2].split(",")[1]
        lines[2] = with_cell(lines[2], 1, f'"{cell}\n"')  # row 3 spans two lines
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        loaded = dataio.load_csv(str(path))
        assert np.array_equal(loaded.features, ds.features)

    def test_hash_is_not_a_comment(self, tmp_path):
        lines = saved_lines(tmp_path, make_dataset(3))
        lines[2] = with_cell(lines[2], 3, "0.5#note")
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=r"row 3, column 'f_feat03': non-numeric value '0.5#note'"):
            dataio.load_csv(str(path))

    def test_nan_label_rejected(self, tmp_path):
        lines = saved_lines(tmp_path, make_dataset(3))
        lines[3] = with_cell(lines[3], FIRST_LABEL + 5, "nan")
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=r"row 4, column 'label_carry_small_objects': "
                                            r"label nan outside \[1, 5\]"):
            dataio.load_csv(str(path))

    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_cells_float_reads_but_loadtxt_refuses(self, tmp_path, cell):
        # underscores and non-ASCII digits: float() accepts them, load_csv does not
        lines = saved_lines(tmp_path, make_dataset(3))
        lines[2] = with_cell(lines[2], 2, cell)
        path = tmp_path / "data.csv"
        write_lines(path, lines)
        with pytest.raises(DataError, match=f"{path}: could not convert string '{cell}'"):
            dataio.load_csv(str(path))

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        dataio.save_csv(make_dataset(3), str(path))
        path.write_bytes(path.read_bytes() + b"\xff\xfe,1\n")
        with pytest.raises(DataError, match="not UTF-8"):
            dataio.load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            dataio.load_csv(str(path))


class TestSplit:
    def test_75_25_sizes(self):
        ds = make_dataset(1000)
        train, test = dataio.train_test_split(ds, 0.75, seed=1)
        assert (len(train), len(test)) == (750, 250)

    def test_floor_rule(self):
        ds = make_dataset(999)
        train, test = dataio.train_test_split(ds, 0.75, seed=1)
        assert (len(train), len(test)) == (749, 250)

    def test_deterministic_and_disjoint(self):
        ds = make_dataset(100, seed=9)
        a1, b1 = dataio.train_test_split(ds, 0.75, seed=5)
        a2, b2 = dataio.train_test_split(ds, 0.75, seed=5)
        assert np.array_equal(a1.features, a2.features)
        assert np.array_equal(b1.labels, b2.labels)
        union = np.concatenate([a1.features, b1.features])
        assert np.array_equal(np.sort(union, axis=0), np.sort(ds.features, axis=0))

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            dataio.train_test_split(make_dataset(10), 1.0, seed=0)

    def test_sets_are_the_rows_of_split_indices_in_one_copy(self):
        ds = make_dataset(40, seed=2)
        train, test = dataio.train_test_split(ds, 0.75, seed=4)
        train_rows, test_rows = dataio.split_indices(len(ds), 0.75, seed=4)
        assert np.array_equal(train.features, ds.features[train_rows])
        assert np.array_equal(test.labels, ds.labels[test_rows])
        assert train.features.base is test.features.base
        assert not np.shares_memory(train.features, ds.features)


class TestTakeRows:
    def test_pieces_are_consecutive_slices_of_one_copy(self):
        ds = make_dataset(30, seed=3)
        pieces = [np.array([4, 2]), np.array([], dtype=int), np.array([2, 29, 0])]
        taken = dataio.take_rows(ds, pieces)
        for piece, part in zip(pieces, taken):
            assert np.array_equal(part.features, ds.features[piece])
            assert np.array_equal(part.labels, ds.labels[piece])
            assert part.features.flags.c_contiguous
        assert taken[0].features.base is taken[2].features.base
        assert not np.shares_memory(taken[0].features, ds.features)


class TestPartition:
    def test_ten_equal_shards(self):
        parts = dataio.partition_clients(make_dataset(750), 10, seed=0)
        assert [len(p.shard) for p in parts] == [75] * 10

    def test_two_equal_shards(self):
        parts = dataio.partition_clients(make_dataset(750), 2, seed=0)
        assert [len(p.shard) for p in parts] == [375, 375]

    def test_remainder_rule(self):
        parts = dataio.partition_clients(make_dataset(7), 2, seed=0)
        assert [len(p.shard) for p in parts] == [4, 3]

    def test_disjoint_union(self):
        ds = make_dataset(53, seed=11)
        parts = dataio.partition_clients(ds, 5, seed=2)
        stacked = np.concatenate([p.shard.features for p in parts])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0))

    def test_too_many_clients(self):
        with pytest.raises(DataError):
            dataio.partition_clients(make_dataset(3), 4, seed=0)

    def test_shards_are_the_rows_of_partition_indices(self):
        ds = make_dataset(23, seed=5)
        parts = dataio.partition_clients(ds, 4, seed=1)
        indices = dataio.partition_indices(len(ds), 4, seed=1)
        assert [len(rows) for rows in indices] == [6, 6, 6, 5]
        for part, rows in zip(parts, indices):
            assert np.array_equal(part.shard.features, ds.features[rows])


class TestTaskSplit:
    def test_all_circle(self):
        split = dataio.split_tasks(make_dataset(20, flag=1.0))
        assert (len(split.task1), len(split.task2)) == (20, 0)

    def test_mixed_union_preserved(self):
        ds = make_dataset(100, seed=13)
        ds.features[:60, 0] = 1.0
        ds.features[60:, 0] = 0.0
        split = dataio.split_tasks(ds)
        assert (len(split.task1), len(split.task2)) == (60, 40)
        assert len(split.task1) + len(split.task2) == len(ds)

    def test_fair_coin_balance(self):
        # binomial(1000, 0.5): within 3 sigma of 500 (sigma ~ 15.8)
        ds, _ = dataio.synthetic_generate(1000, seed=17)
        split = dataio.split_tasks(ds)
        assert abs(len(split.task1) - 500) <= 3 * 15.82

    def test_non_binary_flag_rejected(self):
        ds = make_dataset(5, flag=1.0)
        ds.features[2, 0] = 0.5
        with pytest.raises(DataError):
            dataio.split_tasks(ds)


class TestAugment:
    def test_sigma_zero_doubles_identically(self):
        ds = make_dataset(10, seed=21)
        out = dataio.augment(ds, 0.0, seed=1)
        assert len(out) == 20
        assert np.array_equal(out.features[:10], out.features[10:])

    def test_labels_bit_identical(self):
        ds = make_dataset(40, seed=22)
        out = dataio.augment(ds, 0.01, seed=1)
        assert len(out) == 80
        assert np.array_equal(out.labels[:40], ds.labels)
        assert np.array_equal(out.labels[40:], ds.labels)

    def test_mean_absolute_perturbation(self):
        # E|N(0, sigma)| = sigma * sqrt(2/pi); 1e5 draws -> within 5%
        n = 100_000 // 29 + 1
        ds = make_dataset(n, seed=23)
        out = dataio.augment(ds, 0.01, seed=7)
        perturbation = np.abs(out.features[n:] - ds.features)
        expected = 0.01 * np.sqrt(2 / np.pi)
        assert abs(perturbation.mean() - expected) <= 0.05 * expected


    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # a NaN sigma fails a `sigma > 0` test and adds no noise; an infinite one gives inf features
        with pytest.raises(ValueError, match=f"^sigma must be finite and >= 0, got {sigma}$"):
            dataio.augment(make_dataset(5), sigma, seed=1)


class TestSynthetic:
    def test_deterministic(self):
        a, _ = dataio.synthetic_generate(100, seed=5)
        b, _ = dataio.synthetic_generate(100, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_noiseless_labels_match_map(self):
        ds, (a, b) = dataio.synthetic_generate(200, seed=6, noise_std=0.0)
        expected = np.clip(ds.features @ a.T + b, 1, 5)
        assert np.array_equal(ds.labels, expected)

    def test_least_squares_recovers_map(self):
        ds, (a, b) = dataio.synthetic_generate(10_000, seed=7, noise_std=0.1)
        x = np.concatenate([ds.features, np.ones((len(ds), 1))], axis=1)
        coef, *_ = np.linalg.lstsq(x, ds.labels, rcond=None)
        assert np.max(np.abs(coef[:-1].T - a)) <= 0.05
        assert np.max(np.abs(coef[-1] - b)) <= 0.05


class TestMinibatches:
    def test_partition_sizes(self):
        batches = dataio.minibatches(make_dataset(10), 4, seed=0, epoch=0)
        assert [len(b[0]) for b in batches] == [4, 4, 2]

    def test_trailing_singleton_dropped(self):
        batches = dataio.minibatches(make_dataset(9), 4, seed=0, epoch=0)
        assert [len(b[0]) for b in batches] == [4, 4]

    def test_epoch_shuffling(self):
        ds = make_dataset(32, seed=31)
        b0 = dataio.minibatches(ds, 8, seed=1, epoch=0)
        b0_again = dataio.minibatches(ds, 8, seed=1, epoch=0)
        b1 = dataio.minibatches(ds, 8, seed=1, epoch=1)
        assert all(np.array_equal(x[0], y[0]) for x, y in zip(b0, b0_again))
        assert not all(np.array_equal(x[0], y[0]) for x, y in zip(b0, b1))

    def test_coverage(self):
        ds = make_dataset(30, seed=32)
        batches = dataio.minibatches(ds, 7, seed=2, epoch=3)
        stacked = np.concatenate([b[0] for b in batches])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0))

    def test_oversized_batch_rejected(self):
        with pytest.raises(DataError):
            dataio.minibatches(make_dataset(5), 6, seed=0, epoch=0)
