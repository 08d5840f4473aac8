import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import save_dataset_csv
from protomem import data
from protomem.data import (
    CIFAR_RECORD_BYTES,
    LabeledDataset,
    load_cifar_batch,
    load_dataset,
    save_dataset,
    split_fscil,
)
from protomem.errors import (
    ClassIdRangeError,
    InsufficientClassesError,
    InsufficientSamplesError,
    MalformedFileError,
    SettingValueError,
)
from protomem.harness import validate_stream


def toy_dataset(rng, n=3, dim=4):
    return LabeledDataset(rng.standard_normal((n, dim)), rng.integers(0, 3, n))


class TestBinaryContainer:
    def test_round_trip_f64_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng)
        path = tmp_path / "d.ofds"
        save_dataset(ds, path, dtype="f64")
        for fmt in ("raw-binary", "auto"):  # auto reads a non-.csv path as raw-binary
            back = load_dataset(path, format=fmt)
            np.testing.assert_array_equal(back.inputs, ds.inputs)
            np.testing.assert_array_equal(back.labels, ds.labels)

    def test_round_trip_f32_tolerance(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = toy_dataset(rng)
        path = tmp_path / "d.ofds"
        save_dataset(ds, path, dtype="f32")
        back = load_dataset(path)
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=1e-7)

    def test_u8_scaled_to_unit_interval(self, tmp_path):
        ds = LabeledDataset(np.array([[0.0, 0.5, 1.0]]), np.array([2]))
        path = tmp_path / "d.ofds"
        save_dataset(ds, path, dtype="u8")
        back = load_dataset(path)
        assert back.inputs.min() >= 0.0 and back.inputs.max() <= 1.0
        np.testing.assert_allclose(back.inputs, ds.inputs, atol=1 / 255)

    def test_labels_must_fit_u32(self, tmp_path):
        # the label column is u32: 2**32 + 5 would reload as 5
        ds = LabeledDataset(np.zeros((2, 3)), [1, 2**32 + 5])
        with pytest.raises(ClassIdRangeError):
            save_dataset(ds, tmp_path / "d.ofds")
        assert not (tmp_path / "d.ofds").exists()

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = toy_dataset(rng)
        path = tmp_path / "d.ofds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(MalformedFileError):
            load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "d.ofds"
        save_dataset(toy_dataset(np.random.default_rng(4)), path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(MalformedFileError, match="8 bytes past the payload"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.ofds"
        path.write_bytes(b"BAD!" + bytes(32))
        with pytest.raises(MalformedFileError):
            load_dataset(path)

    def test_bad_dtype_code(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = toy_dataset(rng)
        path = tmp_path / "d.ofds"
        save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[16] = 77
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedFileError):
            load_dataset(path)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = toy_dataset(rng)
        path = tmp_path / "d.csv"
        save_dataset_csv(ds, path)
        for fmt in ("csv", "auto"):  # auto reads a .csv path as CSV
            back = load_dataset(path, format=fmt)
            np.testing.assert_array_equal(back.inputs, ds.inputs)  # repr round-trips
            np.testing.assert_array_equal(back.labels, ds.labels)

    def test_header_check(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n0,0,1\n")
        with pytest.raises(MalformedFileError):
            load_dataset(path, format="csv")

    def test_header_without_a_feature_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label\n0\n1\n")
        with pytest.raises(MalformedFileError, match="no feature column"):
            load_dataset(path, format="csv")


class TestCifar:
    def make_record(self, coarse, fine, fill):
        return bytes([coarse, fine]) + bytes([fill]) * 3072

    def test_two_records_exact(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(self.make_record(1, 42, 255) + self.make_record(0, 7, 0))
        for ds in (load_cifar_batch(path), load_dataset(path, format="cifar")):
            assert len(ds) == 2
            assert ds.labels.tolist() == [42, 7]
            assert ds.inputs[0].min() == 1.0 and ds.inputs[0].max() == 1.0
            assert not ds.inputs[1].any()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        ds = load_cifar_batch(path)
        assert len(ds) == 0

    def test_bad_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(CIFAR_RECORD_BYTES - 1))
        with pytest.raises(MalformedFileError):
            load_cifar_batch(path)


SRC = Path(data.__file__).parent
_FRAMING = {"write_frame", "read_frame"}
# calls that read or write a file's bytes without `open`
_BYTE_IO = {"read_bytes", "write_bytes", "fromfile", "tofile", "memmap"}


def _is_mode(node, binary):
    """A string constant that reads as an `open` mode, binary or not."""
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    return set(node.value) <= set("rwxabt+") and ("b" in node.value) == binary


def framing_leaks(source: str, open_ok=False):
    """(line, what) of each binary file access, unless `open_ok`, and of each
    use of a `*_MAGIC` constant other than as the magic argument of
    `write_frame` or `read_frame`."""
    framed, magics, found = set(), [], []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(getattr(node, "ctx", None), ast.Load) and str(name).endswith("_MAGIC"):
            magics.append((node.lineno, name, id(node)))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        call = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if call in _FRAMING and len(node.args) > 1:
            framed.add(id(node.args[1]))
        args = [*node.args, *(k.value for k in node.keywords)]
        mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
        unknown_mode = mode is not None and not _is_mode(mode, False)
        if open_ok:
            continue
        if call == "open" and (any(_is_mode(a, True) for a in args) or unknown_mode):
            found.append((node.lineno, "binary open"))
        elif call in _BYTE_IO:
            found.append((node.lineno, call))
    return sorted(found + [(line, name) for line, name, key in magics if key not in framed])


class TestOneFraming:
    """data.write_frame and data.read_frame are the one place that frames a
    binary file, so a framing change or a new header check reaches every
    format, and data.py is the one module that opens a file in binary."""

    def test_guard_sees_every_form(self):
        source = "\n".join([
            'EM_MAGIC = b"OFEM"',
            "write_frame(p, EM_MAGIC, 1, 'I', ())",
            "data.read_frame(p, memory.EM_MAGIC, 1, 'I')",
            "fh.write(EM_MAGIC)",
            "ok = blob[:4] == backbone.PARAMS_MAGIC",
            "_save_rows(p, EM_MAGIC)",
            "write_frame(p, b'OFEM', 1, 'I', (), EM_MAGIC)",
            "open(p, 'rb')",
            "open(p, mode='wb')",
            "io.open(p, 'r+b')",
            "path.open('ab')",
            "open(p, 'r', encoding='utf-8')",
            "open(p)",
            "open(p, mode=m)",
            "path.read_bytes()",
            "np.fromfile(p)",
        ])
        magic, binary = [4, 5, 6, 7], [8, 9, 10, 11, 14, 15, 16]
        assert [line for line, _ in framing_leaks(source)] == sorted(magic + binary)
        assert [line for line, _ in framing_leaks(source, open_ok=True)] == magic

    @pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
    def test_only_data_frames_binary_files(self, module):
        source = (SRC / module).read_text(encoding="utf-8")
        leaks = framing_leaks(source, open_ok=module == "data.py")
        assert [f"{module}:{line}: {what}" for line, what in leaks] == []


def synthetic_classes(num_classes, per_class, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((num_classes * per_class, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    return LabeledDataset(inputs, labels)


class TestSplitFscil:
    def test_paper_arithmetic_uses_all_classes(self):
        ds = synthetic_classes(100, 8)
        stream = split_fscil(ds, base_classes=60, ways=5, shots=5,
                             per_class_cap=2, test_per_class=1, seed=0)
        assert len(stream.sessions) == 8
        all_ids = set(stream.base.class_ids())
        for s in stream.sessions:
            all_ids |= set(s.class_ids())
        assert all_ids == set(range(100))

    def test_desk_default_valid(self):
        ds = synthetic_classes(18, 30)
        stream = split_fscil(ds, base_classes=10, ways=2, shots=5,
                             per_class_cap=20, test_per_class=5, seed=3, sessions=4)
        assert validate_stream(stream) == []
        assert len(stream.sessions) == 4

    def test_too_many_sessions_rejected(self):
        ds = synthetic_classes(100, 8)
        with pytest.raises(InsufficientClassesError):
            split_fscil(ds, base_classes=60, ways=5, shots=5,
                        per_class_cap=2, test_per_class=1, seed=0, sessions=9)

    def test_negative_test_per_class_rejected(self):
        ds = synthetic_classes(5, 4)
        with pytest.raises(SettingValueError, match="test_per_class"):
            split_fscil(ds, base_classes=2, ways=1, shots=2,
                        per_class_cap=2, test_per_class=-1, seed=0)
        # pretraining needs no test set
        stream = split_fscil(ds, base_classes=2, ways=1, shots=2,
                             per_class_cap=2, test_per_class=0, seed=0)
        assert len(stream.test) == 0 and len(stream.base) == 4

    def test_insufficient_samples(self):
        ds = synthetic_classes(5, 4)
        with pytest.raises(InsufficientSamplesError):
            split_fscil(ds, base_classes=2, ways=1, shots=2,
                        per_class_cap=3, test_per_class=2, seed=0)

    def test_same_seed_same_split(self):
        ds = synthetic_classes(12, 20)
        a = split_fscil(ds, 6, 2, 3, 8, 4, seed=11)
        b = split_fscil(ds, 6, 2, 3, 8, 4, seed=11)
        np.testing.assert_array_equal(a.base.inputs, b.base.inputs)
        np.testing.assert_array_equal(a.test.inputs, b.test.inputs)
        for sa, sb in zip(a.sessions, b.sessions):
            np.testing.assert_array_equal(sa.inputs, sb.inputs)

    def test_different_seed_different_selection(self):
        ds = synthetic_classes(12, 20)
        a = split_fscil(ds, 6, 2, 3, 8, 4, seed=11)
        b = split_fscil(ds, 6, 2, 3, 8, 4, seed=12)
        assert not np.array_equal(a.base.inputs, b.base.inputs)

    def test_shot_counts_exact(self):
        ds = synthetic_classes(10, 25)
        stream = split_fscil(ds, 4, 3, 5, 10, 5, seed=2)
        for s in stream.sessions:
            for cid in s.class_ids():
                assert int((s.labels == cid).sum()) == 5

    def test_no_sample_reuse(self):
        ds = synthetic_classes(8, 12, dim=3, seed=5)
        stream = split_fscil(ds, 4, 2, 3, 6, 3, seed=9)
        rows = [tuple(r) for part in [stream.base, *stream.sessions, stream.test]
                for r in part.inputs]
        assert len(rows) == len(set(rows))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_validate_by_construction(self, seed):
        ds = synthetic_classes(9, 10, seed=1)
        stream = split_fscil(ds, 3, 2, 2, 4, 3, seed=seed)
        assert validate_stream(stream) == []


class TestLabeledDataset:
    def test_subset_and_indices(self):
        ds = synthetic_classes(4, 3)
        sub = ds.subset_by_classes([1, 3])
        assert sub.class_ids() == [1, 3]
        assert len(sub) == 6
        np.testing.assert_array_equal(ds.indices_of(2), [6, 7, 8])

    def test_take_and_subset_copy_rows_in_order(self):
        ds = synthetic_classes(4, 3)
        before = ds.inputs.copy()
        sub = ds.subset_by_classes([3, 1, 1])
        np.testing.assert_array_equal(sub.labels, [1, 1, 1, 3, 3, 3])
        np.testing.assert_array_equal(sub.inputs, before[ds.labels % 2 == 1])
        part = ds.take([5, 0])
        np.testing.assert_array_equal(part.labels, ds.labels[[5, 0]])
        np.testing.assert_array_equal(part.inputs, before[[5, 0]])
        sub.inputs[:] = part.inputs[:] = -1.0
        np.testing.assert_array_equal(ds.inputs, before)
        assert len(ds.subset_by_classes([])) == 0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.nan, 1.0]]), np.array([0]))

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.ones((1, 2)), np.array([-1]))
