import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from monocal import baselines, core, data_io


class TestCsvFormat:
    def test_exact_round_trip(self, tmp_path):
        path = str(tmp_path / "tiny.csv")
        z = np.array([[0.25, -1.5], [3.125, 0.1]])
        y = np.array([1, 0])
        data_io.write_dataset(path, z, y)
        z2, y2 = data_io.read_dataset(path)
        assert np.array_equal(z2, z)  # repr formatting round-trips exactly
        assert np.array_equal(y2, y)

    def test_written_text_is_shortest_repr(self, tmp_path):
        z = np.array([[0.1, float(np.float32(0.1)), -0.0], [5e-324, 1e300, -2.5]])
        dataset, matrix = tmp_path / "d.csv", tmp_path / "m.csv"
        data_io.write_dataset(str(dataset), z, np.array([2, 0]))
        data_io.write_matrix(str(matrix), z)
        rows = "0.1,0.10000000149011612,-0.0{}\n5e-324,1e+300,-2.5{}\n"
        assert dataset.read_text() == "z0,z1,z2,label\n" + rows.format(",2", ",0")
        assert matrix.read_text() == "p0,p1,p2\n" + rows.format("", "")

    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "tiny.csv")
        data_io.write_dataset(path, np.zeros((1, 3)), np.array([2]))
        with open(path) as fh:
            assert fh.readline().strip() == "z0,z1,z2,label"

    def test_malformed_header(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("a,b,label\n0.0,0.0,0\n")
        with pytest.raises(data_io.HeaderError):
            data_io.read_dataset(path)

    @pytest.mark.parametrize("text", ["z0,z1,label\n", "z0,z1,label\n\n"])
    def test_header_only(self, tmp_path, text):
        path_obj = tmp_path / "empty.csv"
        path_obj.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(data_io.DataFileError, match="no data rows"):
                data_io.read_dataset(str(path_obj))

    def test_label_out_of_range(self, tmp_path):
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("z0,z1,label\n0.0,1.0,2\n")
        with pytest.raises(data_io.LabelRangeError):
            data_io.read_dataset(str(path_obj))

    def test_non_integer_label(self, tmp_path):
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("z0,z1,label\n0.0,1.0,0.5\n")
        with pytest.raises(data_io.LabelRangeError, match="labels must be integers"):
            data_io.read_dataset(str(path_obj))

    def test_negative_label(self, tmp_path):
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("z0,z1,label\n0.0,1.0,-1\n")
        with pytest.raises(data_io.LabelRangeError, match="labels must lie in \\[0, 2\\)"):
            data_io.read_dataset(str(path_obj))

    def test_matrix_is_not_a_dataset(self, tmp_path):
        path = str(tmp_path / "p.csv")
        data_io.write_matrix(path, np.array([[0.25, 0.75], [1.0, 0.0]]))
        with pytest.raises(data_io.HeaderError):
            data_io.read_dataset(path)


class TestCsvMatrix:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "p.csv")
        a = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        data_io.write_matrix(path, a)
        assert np.array_equal(data_io.read_matrix(path), a)

    @pytest.mark.parametrize("text", ["p0,p1\n", "p0,p1\n\n"])
    def test_header_only(self, tmp_path, text):
        path_obj = tmp_path / "empty.csv"
        path_obj.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(data_io.DataFileError, match="no data rows"):
                data_io.read_matrix(str(path_obj))

    @pytest.mark.parametrize("text", [
        "",
        "z0,z1\n0.5,0.5\n",
        "p0,p2\n0.5,0.5\n",
        "z0,z1,label\n0.5,0.5,1\n",
        "p0,p1\n0.25,0.25,0.5\n",
    ])
    def test_malformed_header(self, tmp_path, text):
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text(text)
        with pytest.raises(data_io.HeaderError):
            data_io.read_matrix(str(path_obj))


class TestRawBinaryFormat:
    def test_round_trip_is_bitwise_at_f32(self, tmp_path):
        rng = np.random.default_rng(1)
        # Data representable in float32 round-trips bitwise.
        z = rng.normal(0, 3, (17, 5)).astype(np.float32).astype(np.float64)
        y = rng.integers(0, 5, 17)
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, z, y)
        z2, y2 = data_io.read_dataset(path)
        assert np.array_equal(z2, z)
        assert np.array_equal(y2, y)

    @pytest.mark.parametrize("block_doubles", [1, 3 * 5, 7 * 5, 10**6])
    def test_blocked_read_is_the_whole_payload(self, tmp_path, monkeypatch, block_doubles):
        # One entry (less than a row), 3 and 7 rows (short last blocks of 17) and one block.
        rng = np.random.default_rng(3)
        z = rng.normal(0, 3, (17, 5)).astype(np.float32)
        y = rng.integers(0, 5, 17)
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, z, y)
        raw = Path(path).read_bytes()
        monkeypatch.setattr(core, "BLOCK_DOUBLES", block_doubles)
        z2, y2 = data_io.read_dataset(path)
        # A block is the file's float32 values; the whole matrix is their float64 widening.
        whole = np.frombuffer(raw, "<f4", 17 * 5).reshape(17, 5)
        assert np.asarray(z2).tobytes() == whole.astype(np.float64).tobytes()
        assert all(z2[rows].dtype == np.float32 for rows in core._row_blocks((17, 5)))
        assert all(z2[rows].tobytes() == whole[rows].tobytes() for rows in core._row_blocks((17, 5)))
        assert y2.tobytes() == np.frombuffer(raw, "<u4", 17, 17 * 5 * 4).astype(np.int64).tobytes()
        data_io.write_matrix(path, z)
        assert data_io.read_matrix(path).tobytes() == z.astype(np.float64).tobytes()

    def test_dataset_logits_are_read_by_block(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 3, (40, 6)).astype(np.float32)
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, z, rng.integers(0, 6, 40))
        monkeypatch.setattr(core, "BLOCK_DOUBLES", 7 * 6)
        z2, _ = data_io.read_dataset(path)
        assert isinstance(z2, data_io.BinaryLogits) and z2.shape == (40, 6)
        assert z2[5:12].dtype == np.float32 and z2[5:12].tobytes() == z[5:12].tobytes()
        assert z2[38:50].tobytes() == z[38:].tobytes() and z2[40:].shape == (0, 6)
        # Every read opens the file for itself, so threads read blocks independently.
        blocks = core._map_blocks(lambda rows: z2[rows], z2.shape, threads=3)
        assert np.concatenate(blocks).tobytes() == z.tobytes()
        assert core.validate_logits(z2).tobytes() == z.astype(np.float64).tobytes()

    @pytest.mark.parametrize("index", [
        slice(None, None, 2), slice(None, None, -1), 3, -1, np.int64(3), (slice(1, 3), 0), [1, 2], np.arange(2), ...,
    ])
    def test_only_a_slice_of_consecutive_rows_is_read(self, tmp_path, index):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((4, 3)), np.zeros(4, dtype=int))
        z, _ = data_io.read_dataset(path)
        with pytest.raises(ValueError, match="^a binary payload is read by slices of consecutive rows$"):
            z[index]

    def test_payload_cut_after_the_read_fails_the_block_read(self, tmp_path):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((3, 4)), np.zeros(3, dtype=int))
        z, _ = data_io.read_dataset(path)
        Path(path).write_bytes(Path(path).read_bytes()[: 4 * 4 + 8])
        assert z[:1].shape == (1, 4)
        for read in (lambda: z[1:3], lambda: np.asarray(z)):
            with pytest.raises(data_io.SidecarError, match="ended before"):
                read()

    def test_empty_payload_is_refused(self, tmp_path):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((1, 3)), np.zeros(1, dtype=int))
        Path(path).write_bytes(b"")
        Path(path + ".meta.json").write_text('{"v": 1, "n": 0, "m": 3, "dtype": "f32"}')
        with pytest.raises(ValueError, match="need n >= 1 samples and m >= 2 classes, got shape \\(0, 3\\)"):
            data_io.read_dataset(path)

    @pytest.mark.parametrize("cut", [4, 3 * 4, 3 * 4 + 38])
    def test_short_read(self, tmp_path, monkeypatch, cut):
        # A file that shrinks after its size is checked: cut in the logits or the labels.
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((3, 4)), np.zeros(3, dtype=int))
        size = Path(path).stat().st_size
        Path(path).write_bytes(Path(path).read_bytes()[:-cut])
        monkeypatch.setattr(data_io.os.path, "getsize", lambda p: size)
        with pytest.raises(data_io.SidecarError, match="ended before"):
            data_io.read_dataset(path)

    def test_sidecar_contents(self, tmp_path):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((3, 4)), np.zeros(3, dtype=int))
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta == {"v": 1, "n": 3, "m": 4, "dtype": "f32"}

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "data.bin"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(data_io.SidecarError, match="missing"):
            data_io.read_dataset(str(path))

    # Each malformed sidecar of a 3 x 4 dataset, and the start of its error.
    MALFORMED_SIDECARS = [
        ('"v n m dtype"', "sidecar .* is not a JSON object"),
        ("1", "sidecar .* is not a JSON object"),
        ("null", "sidecar .* is not a JSON object"),
        ('{"v": 1, "n": [3], "m": 4, "dtype": "f32"}', "field 'n' must be a JSON integer, got \\[3\\]"),
        ('{"v": 1, "n": 3.7, "m": 4, "dtype": "f32"}', "field 'n' must be a JSON integer, got 3.7"),
        ('{"v": 1, "n": 3, "m": "4", "dtype": "f32"}', "field 'm' must be a JSON integer, got '4'"),
        ('{"v": true, "n": 3, "m": 4, "dtype": "f32"}', "field 'v' must be a JSON integer, got True"),
        ('{"v": 1, "n": 3, "m": 4, "dtype": "f32"', "unparseable sidecar"),
        (b"\xff\xfe{", "unparseable sidecar"),
        ('{"v": 1, "n": 3, "m": 4}', "lacks field 'dtype'"),
        ('{"v": 2, "n": 3, "m": 4, "dtype": "f32"}', "unsupported sidecar version/dtype"),
        ('{"v": 1, "n": 3, "m": 4, "dtype": "f64"}', "unsupported sidecar version/dtype"),
    ]

    @pytest.mark.parametrize("sidecar, error", MALFORMED_SIDECARS)
    def test_malformed_sidecar(self, tmp_path, sidecar, error):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((3, 4)), np.zeros(3, dtype=int))
        Path(path + ".meta.json").write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
        with pytest.raises(data_io.SidecarError, match=error):
            data_io.read_dataset(path)

    def test_size_mismatch(self, tmp_path):
        path = str(tmp_path / "data.bin")
        data_io.write_dataset(path, np.zeros((3, 4)), np.zeros(3, dtype=int))
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(data_io.SidecarError, match="bytes"):
            data_io.read_dataset(path)

    def test_label_out_of_range(self, tmp_path):
        path = str(tmp_path / "data.bin")
        z = np.zeros((2, 3))
        data_io.write_dataset(path, z, np.array([0, 1]))
        # Rewrite the label block with an out-of-range value.
        raw = bytearray(Path(path).read_bytes())
        raw[-8:] = np.array([0, 3], dtype="<u4").tobytes()
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(data_io.LabelRangeError):
            data_io.read_dataset(path)

    def test_size_rule_tells_the_file_kinds_apart(self, tmp_path):
        dataset, matrix = str(tmp_path / "data.bin"), str(tmp_path / "probs.bin")
        data_io.write_dataset(dataset, np.zeros((3, 4)), np.zeros(3, dtype=int))
        data_io.write_matrix(matrix, np.zeros((3, 4)))
        with pytest.raises(data_io.SidecarError, match="bytes"):
            data_io.read_dataset(matrix)
        with pytest.raises(data_io.SidecarError, match="bytes"):
            data_io.read_matrix(dataset)

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.random((9, 4)).astype(np.float32).astype(np.float64)
        for name in ("probs.bin", "probs.csv"):
            path = str(tmp_path / name)
            data_io.write_matrix(path, a)
            assert np.array_equal(data_io.read_matrix(path), a)


class TestRefusals:
    @pytest.mark.parametrize("call, message", [
        (lambda path: data_io.write_matrix(path, np.zeros(3)), "expected a 2-D matrix"),
        (lambda path: data_io.write_matrix(path, np.eye(2), fmt="txt"), "unknown format 'txt'"),
        (lambda path: data_io.write_dataset(path, np.eye(2), [0, 1], fmt="txt"), "unknown format 'txt'"),
        (lambda path: data_io.read_matrix(path, fmt="txt"), "unknown format 'txt'"),
        (lambda path: data_io.read_dataset(path, fmt="txt"), "unknown format 'txt'"),
        (lambda path: data_io.write_dataset(path + ".txt", np.eye(2), [0, 1]), "cannot infer format from"),
        (lambda path: data_io.read_dataset(path + ".txt"), "cannot infer format from"),
    ])
    def test_refused_before_any_file_is_touched(self, tmp_path, call, message):
        path = tmp_path / "data.csv"
        path.write_bytes(b"keep me\n")
        with pytest.raises(ValueError, match=message):
            call(str(path))
        assert path.read_bytes() == b"keep me\n"
        assert list(tmp_path.iterdir()) == [path]


class TestSplit:
    def test_half_split_sizes(self):
        z = np.arange(20, dtype=float).reshape(10, 2)
        y = np.arange(10) % 2
        (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 0.5, seed=0)
        assert zc.shape == (5, 2) and zt.shape == (5, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0, 1, (40, 3))
        y = rng.integers(0, 3, 40)
        a = data_io.split_dataset(z, y, 0.3, seed=9)
        b = data_io.split_dataset(z, y, 0.3, seed=9)
        assert np.array_equal(a[0][0], b[0][0])
        assert np.array_equal(a[1][1], b[1][1])

    def test_union_is_original_multiset(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 1, (25, 4))
        y = rng.integers(0, 4, 25)
        (zc, yc), (zt, yt) = data_io.split_dataset(z, y, 0.4, seed=1)
        rebuilt = np.concatenate([zc, zt])
        assert rebuilt.shape == z.shape
        order_a = np.lexsort(rebuilt.T)
        order_b = np.lexsort(z.T)
        assert np.array_equal(rebuilt[order_a], z[order_b])
        assert np.array_equal(np.sort(np.concatenate([yc, yt])), np.sort(y))

    def test_disjoint_parts(self):
        z = np.arange(12, dtype=float).reshape(6, 2)
        y = np.zeros(6, dtype=int)
        (zc, _), (zt, _) = data_io.split_dataset(z, y, 0.5, seed=2)
        seen = {tuple(row) for row in zc} | {tuple(row) for row in zt}
        assert len(seen) == 6

    def test_rejects_empty_part(self):
        z = np.zeros((3, 2))
        y = np.zeros(3, dtype=int)
        with pytest.raises(ValueError, match="empty part"):
            data_io.split_dataset(z, y, 0.01, seed=0)
        with pytest.raises(ValueError, match="strictly between"):
            data_io.split_dataset(z, y, 1.0, seed=0)


class TestSyntheticGenerator:
    def test_calibrated_config_recovers_true_probs(self):
        cfg = data_io.SynthConfig(n=5000, m=10, alpha=0.5, overconfidence=1.0, seed=0)
        z, y, true_probs = data_io.generate_synthetic(cfg)
        assert np.abs(core.softmax_rows(z) - true_probs).max() <= 1e-9

    def test_seed_determinism(self):
        cfg = data_io.SynthConfig(n=300, m=5, seed=42)
        a = data_io.generate_synthetic(cfg)
        b = data_io.generate_synthetic(cfg)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_overconfidence_inflates_confidence(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=2.5, seed=1)
        z, y, _ = data_io.generate_synthetic(cfg)
        p = core.softmax_rows(z)
        gap = p.max(axis=1).mean() - (core.argmax_rows(p) == y).mean()
        assert gap >= 0.05

    def test_calibrated_ts_temperature_near_one(self):
        cfg = data_io.SynthConfig(n=20_000, m=10, alpha=0.5, overconfidence=1.0, seed=3)
        z, y, _ = data_io.generate_synthetic(cfg)
        assert abs(baselines.fit_ts(z, y).payload["T"] - 1.0) <= 0.05

    def test_row_max_nonnegative(self):
        # Top score per sample is non-negative, like real classifier logits.
        cfg = data_io.SynthConfig(n=1000, m=10, alpha=0.5, overconfidence=2.5, seed=4)
        z, _, _ = data_io.generate_synthetic(cfg)
        assert z.max(axis=1).min() >= 0.0

    def test_labels_follow_true_probs(self):
        cfg = data_io.SynthConfig(n=50_000, m=5, alpha=1.0, overconfidence=1.0, seed=5)
        _, y, true_probs = data_io.generate_synthetic(cfg)
        # Empirical class frequency tracks the mean generating probability.
        freq = np.bincount(y, minlength=5) / 50_000
        np.testing.assert_allclose(freq, true_probs.mean(axis=0), atol=0.01)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            data_io.SynthConfig(n=0)
        with pytest.raises(ValueError):
            data_io.SynthConfig(alpha=0.0)
        nan, inf = float("nan"), float("inf")
        for field in ("alpha", "overconfidence"):
            for value in (nan, inf, -inf):
                with pytest.raises(ValueError, match="alpha and overconfidence must be finite and > 0"):
                    data_io.SynthConfig(**{field: value})
