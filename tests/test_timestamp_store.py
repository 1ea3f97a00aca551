"""Tests for the :class:`repro.temporal.TimestampStore` subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConstructionError, DatasetError, QueryError
from repro.queries import DeltaTimestampCodec
from repro.temporal import TimestampStore

INTEGRAL = [10.0, 12.0, 15.0, 15.0, 21.0]
FRACTIONAL = [0.25, 1.4, 3.33, 9.99]


@pytest.fixture()
def mixed_store():
    """Integral (delta-encoded), fractional (raw fallback), gap, single sample."""
    return TimestampStore([INTEGRAL, FRACTIONAL, None, [42.0]])


class TestLosslessRoundTrip:
    def test_decodes_exactly(self, mixed_store):
        assert mixed_store.get(0) == INTEGRAL
        assert mixed_store.get(1) == FRACTIONAL
        assert mixed_store.get(2) is None
        assert mixed_store.get(3) == [42.0]

    def test_as_lists_preserves_gaps_and_order(self, mixed_store):
        assert mixed_store.as_lists() == [INTEGRAL, FRACTIONAL, None, [42.0]]
        assert list(mixed_store) == [INTEGRAL, FRACTIONAL, None, [42.0]]

    def test_save_load_is_lossless(self, mixed_store, tmp_path):
        path = mixed_store.save(tmp_path / "timestamps.npz")
        reloaded = TimestampStore.load(path)
        assert reloaded.as_lists() == mixed_store.as_lists()
        assert reloaded.size_in_bits() == mixed_store.size_in_bits()
        assert reloaded.codec.resolution == mixed_store.codec.resolution

    def test_empty_store_round_trips(self, tmp_path):
        store = TimestampStore()
        reloaded = TimestampStore.load(store.save(tmp_path / "empty.npz"))
        assert len(reloaded) == 0
        assert not reloaded.any_timestamped

    def test_all_gaps_round_trip(self, tmp_path):
        store = TimestampStore([None, None, None])
        reloaded = TimestampStore.load(store.save(tmp_path / "gaps.npz"))
        assert reloaded.as_lists() == [None, None, None]
        assert not reloaded.any_timestamped

    def test_single_sample_round_trips(self, tmp_path):
        store = TimestampStore([[3.5], [7.0]])
        reloaded = TimestampStore.load(store.save(tmp_path / "one.npz"))
        assert reloaded.as_lists() == [[3.5], [7.0]]

    def test_random_float_fleet_round_trips(self, tmp_path):
        rng = np.random.default_rng(11)
        fleet = [
            list(rng.uniform(0, 100) + np.cumsum(rng.uniform(1, 30, rng.integers(1, 20))))
            for _ in range(25)
        ]
        fleet[5] = None
        fleet[17] = None
        store = TimestampStore(fleet)
        reloaded = TimestampStore.load(store.save(tmp_path / "fleet.npz"))
        assert reloaded.as_lists() == store.as_lists() == fleet


class TestPointLookups:
    """Sampled-prefix-sum point lookups decode exactly like full decodes."""

    def test_matches_full_decode_on_mixed_store(self, mixed_store):
        for trajectory_id, times in enumerate(mixed_store.as_lists()):
            if times is None:
                assert mixed_store.timestamp(trajectory_id, 0) is None
                continue
            for edge_index, expected in enumerate(times):
                looked_up = mixed_store.timestamp(trajectory_id, edge_index)
                assert looked_up == expected

    def test_matches_full_decode_across_anchor_boundaries(self):
        # Long integral entries exercise several prefix-sum anchors; the
        # point lookup must reproduce the sequential cumsum bit-for-bit.
        rng = np.random.default_rng(11)
        fleet = []
        for _ in range(8):
            n = int(rng.integers(60, 400))
            start = float(rng.integers(0, 86_400))
            dwell = rng.integers(1, 120, size=n).astype(np.float64)
            fleet.append(list(start + np.cumsum(dwell) - dwell[0]))
        store = TimestampStore(fleet)
        for trajectory_id, times in enumerate(fleet):
            decoded = store.get(trajectory_id)
            for edge_index in range(len(times)):
                assert store.timestamp(trajectory_id, edge_index) == decoded[edge_index]

    def test_matches_full_decode_on_raw_fallback(self):
        rng = np.random.default_rng(13)
        times = list(np.cumsum(rng.uniform(0.1, 7.3, size=150)))
        store = TimestampStore([times])
        decoded = store.get(0)
        for edge_index in range(len(times)):
            assert store.timestamp(0, edge_index) == decoded[edge_index]

    def test_gap_returns_none(self, mixed_store):
        assert mixed_store.timestamp(2, 0) is None
        assert mixed_store.timestamp(2, 99) is None

    def test_out_of_range_edge_rejected(self, mixed_store):
        with pytest.raises(QueryError, match="edge index"):
            mixed_store.timestamp(0, len(INTEGRAL))
        with pytest.raises(QueryError, match="edge index"):
            mixed_store.timestamp(0, -1)

    def test_out_of_range_trajectory_rejected(self, mixed_store):
        with pytest.raises(QueryError, match="out of range"):
            mixed_store.timestamp(99, 0)

    def test_survives_save_load(self, mixed_store, tmp_path):
        archive = mixed_store.save(tmp_path / "timestamps.npz")
        reloaded = TimestampStore.load(archive)
        assert reloaded.timestamp(0, 2) == INTEGRAL[2]
        assert reloaded.timestamp(1, 3) == FRACTIONAL[3]


class TestEncodingChoice:
    def test_integral_data_uses_delta_encoding(self):
        store = TimestampStore([INTEGRAL])
        # 64-bit start + 4 deltas at 3 bits (max delta 6) + width byte + presence
        assert store.size_in_bits() == 64 + 4 * 3 + 8 + 1

    def test_fractional_data_falls_back_to_raw(self):
        store = TimestampStore([FRACTIONAL])
        assert store.size_in_bits() == 4 * 64 + 8 + 1

    def test_delta_encoding_beats_raw_floats(self):
        integral = TimestampStore([INTEGRAL])
        assert integral.size_in_bits() < len(INTEGRAL) * 64

    def test_coarser_codec_respected(self, tmp_path):
        codec = DeltaTimestampCodec(resolution=5.0)
        store = TimestampStore([[0.0, 5.0, 15.0]], codec=codec)
        reloaded = TimestampStore.load(store.save(tmp_path / "coarse.npz"))
        assert reloaded.get(0) == [0.0, 5.0, 15.0]
        assert reloaded.codec.resolution == 5.0


class TestGrowth:
    def test_append_and_extend(self, tmp_path):
        store = TimestampStore()
        store.append([1.0, 2.0])
        store.extend([None, [4.0]])
        assert len(store) == 3
        assert store.n_timestamped == 2
        assert store.has_timestamps(0) and not store.has_timestamps(1)

        # A bulk extend stores exactly what appending one at a time stores.
        rng = np.random.default_rng(5)
        fleet = [
            INTEGRAL,
            FRACTIONAL,
            None,
            [42.0],
            [0.5, 1.0, 3.5, 3.5],  # multiples of the 0.5 s resolution
            [7.25],
            None,
            list(1e6 + np.cumsum(rng.uniform(0.0, 9.0, 40))),  # fractional
            list(2e6 + np.cumsum(rng.integers(0, 20, 70)) * 0.5),
            [1.0, 1e17, 1e17 + 0.5],
        ] * 3
        codec = DeltaTimestampCodec(resolution=0.5)
        bulk = TimestampStore(codec=codec)
        bulk.extend(fleet)
        single = TimestampStore(codec=codec)
        for times in fleet:
            single.append(times)

        def kinds(s):
            return [
                None if e is None else e.encoded is not None for e in s._entries
            ]

        assert kinds(bulk) == kinds(single)
        assert True in kinds(bulk) and False in kinds(bulk)
        assert bulk.as_lists() == single.as_lists() == [
            None if times is None else [float(v) for v in times] for times in fleet
        ]
        assert bulk.size_in_bits() == single.size_in_bits()
        bulk_path = bulk.save(tmp_path / "bulk.npz", compress=False)
        single_path = single.save(tmp_path / "single.npz", compress=False)
        assert bulk_path.read_bytes() == single_path.read_bytes()

    def test_flags(self):
        assert not TimestampStore().fully_timestamped
        assert TimestampStore([[1.0]]).fully_timestamped
        assert not TimestampStore([[1.0], None]).fully_timestamped
        assert TimestampStore([[1.0], None]).any_timestamped


class TestValidation:
    def test_decreasing_rejected(self):
        with pytest.raises(ConstructionError, match="non-decreasing"):
            TimestampStore([[5.0, 1.0]])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConstructionError):
            TimestampStore([[]])

    def test_out_of_range_id_rejected(self, mixed_store):
        with pytest.raises(QueryError, match="out of range"):
            mixed_store.get(99)
        with pytest.raises(QueryError, match="out of range"):
            mixed_store.get(-1)

    def test_missing_archive_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            TimestampStore.load(tmp_path / "nope.npz")

    def test_unsupported_version_rejected(self, mixed_store, tmp_path):
        path = mixed_store.save(tmp_path / "store.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["format_version"] = np.asarray([999], dtype=np.int64)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConstructionError, match="version"):
            TimestampStore.load(path)

    def test_zero_length_entry_rejected(self, tmp_path):
        store = TimestampStore([INTEGRAL, [5.0]])
        path = store.save(tmp_path / "store.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["lengths"] = arrays["lengths"].copy()
        arrays["lengths"][1] = 0
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConstructionError, match="corrupt"):
            TimestampStore.load(path)

    def test_decreasing_raw_archive_rejected(self, tmp_path):
        store = TimestampStore([FRACTIONAL])
        path = store.save(tmp_path / "store.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["raw_values"] = arrays["raw_values"][::-1].copy()
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConstructionError, match="decreasing"):
            TimestampStore.load(path)

    def test_negative_delta_archive_rejected(self, tmp_path):
        store = TimestampStore([INTEGRAL])
        path = store.save(tmp_path / "store.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays["deltas"] = -np.abs(arrays["deltas"]) - 1
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConstructionError, match="negative"):
            TimestampStore.load(path)

    @pytest.mark.parametrize("payload", ["deltas", "raw_values"])
    def test_truncated_payload_rejected(self, mixed_store, tmp_path, payload):
        # An archive whose entry lengths disagree with the stored payload must
        # fail loudly instead of silently decoding short timestamp lists.
        path = mixed_store.save(tmp_path / "store.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        arrays[payload] = arrays[payload][:-1]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ConstructionError, match="corrupt"):
            TimestampStore.load(path)
