"""Streaming writer/reader API."""

import io

import numpy as np
import pytest

from repro.core import compress, decompress
from repro.errors import PFPLUsageError
from repro.io import PFPLReader, PFPLWriter


@pytest.fixture
def chunks_of_data(rng):
    base = np.cumsum(rng.normal(0, 0.05, 30_000)).astype(np.float32)
    # irregular append sizes, including tiny and cross-chunk ones
    cuts = [0, 10, 11, 4000, 4096, 9000, 20_001, 30_000]
    return base, [base[a:b] for a, b in zip(cuts, cuts[1:])]


class TestWriter:
    def test_incremental_equals_one_shot(self, chunks_of_data):
        base, pieces = chunks_of_data
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="abs", error_bound=1e-3) as w:
            for piece in pieces:
                w.append(piece)
        streamed = sink.getvalue()
        oneshot = compress(base, "abs", 1e-3)
        assert streamed == oneshot  # byte-identical to the batch API

    def test_decodes_with_standard_decoder(self, chunks_of_data):
        base, pieces = chunks_of_data
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="rel", error_bound=1e-2) as w:
            for piece in pieces:
                w.append(piece)
        out = decompress(sink.getvalue())
        assert out.size == base.size

    def test_noa_requires_range(self):
        with pytest.raises(ValueError, match="value_range"):
            PFPLWriter(io.BytesIO(), mode="noa", error_bound=1e-3)

    def test_noa_with_range(self, chunks_of_data):
        base, pieces = chunks_of_data
        rng_v = float(base.max() - base.min())
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="noa", error_bound=1e-3,
                        value_range=rng_v) as w:
            for piece in pieces:
                w.append(piece)
        out = decompress(sink.getvalue())
        err = np.abs(base.astype(np.float64) - out.astype(np.float64)).max()
        assert err <= 1e-3 * rng_v

    def test_append_after_close_rejected(self):
        w = PFPLWriter(io.BytesIO(), mode="abs", error_bound=1e-3)
        w.close()
        with pytest.raises(ValueError):
            w.append(np.zeros(4, dtype=np.float32))

    def test_empty_stream(self):
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="abs", error_bound=1e-3):
            pass
        assert decompress(sink.getvalue()).size == 0

    def test_exception_skips_write(self):
        sink = io.BytesIO()
        with pytest.raises(RuntimeError):
            with PFPLWriter(sink, mode="abs", error_bound=1e-3) as w:
                w.append(np.ones(10, dtype=np.float32))
                raise RuntimeError("boom")
        assert sink.getvalue() == b""  # no partial container


class TestWriterMisuse:
    """Misuse must fail with precise, typed errors -- not silent corruption."""

    def test_append_after_abort_names_the_abort(self):
        w = PFPLWriter(io.BytesIO(), mode="abs", error_bound=1e-3)
        w.append(np.ones(10, dtype=np.float32))
        w.abort()
        with pytest.raises(PFPLUsageError, match="aborted"):
            w.append(np.zeros(4, dtype=np.float32))

    def test_append_after_close_names_the_close(self):
        w = PFPLWriter(io.BytesIO(), mode="abs", error_bound=1e-3)
        w.close()
        with pytest.raises(PFPLUsageError, match="closed"):
            w.append(np.zeros(4, dtype=np.float32))

    def test_noa_append_beyond_declared_range_rejected(self):
        # NOA's bound is eps * value_range; values widening the span past
        # the declaration would invalidate already-written chunks.
        with PFPLWriter(io.BytesIO(), mode="noa", error_bound=1e-3,
                        value_range=2.0) as w:
            w.append(np.linspace(0.0, 2.0, 100, dtype=np.float32))
            with pytest.raises(PFPLUsageError, match="value_range"):
                w.append(np.array([3.5], dtype=np.float32))
            # The rejected append left no trace: count unchanged, and
            # valid appends still work.
            assert w.values_appended == 100
            w.append(np.array([1.0], dtype=np.float32))
            assert w.values_appended == 101

    def test_noa_range_check_ignores_nonfinite(self):
        sink = io.BytesIO()
        with PFPLWriter(sink, mode="noa", error_bound=1e-3,
                        value_range=1.0) as w:
            w.append(np.array([0.0, np.inf, np.nan, 0.5], dtype=np.float32))
        out = decompress(sink.getvalue())
        assert np.isinf(out[1]) and np.isnan(out[2])


class TestReader:
    @pytest.fixture
    def stream(self, chunks_of_data):
        base, _ = chunks_of_data
        return compress(base, "abs", 1e-3), base

    def test_len_and_chunks(self, stream):
        blob, base = stream
        r = PFPLReader(blob)
        assert len(r) == base.size
        assert r.n_chunks == (base.size + 4095) // 4096

    def test_windowed_read(self, stream):
        blob, base = stream
        r = PFPLReader(io.BytesIO(blob))
        window = r.read(5000, 2000)
        full = decompress(blob)
        assert np.array_equal(window, full[5000:7000])

    def test_slicing(self, stream):
        blob, base = stream
        r = PFPLReader(blob)
        full = decompress(blob)
        assert np.array_equal(r[100:300], full[100:300])
        assert r[7] == full[7]
        assert r[-1] == full[-1]

    def test_step_slicing_rejected(self, stream):
        blob, _ = stream
        with pytest.raises(ValueError):
            PFPLReader(blob)[::2]

    def test_out_of_range_index_raises_indexerror(self, stream):
        # Regression: indices past the end (or below -count) used to fall
        # through to the decoder and fail obscurely; they must raise
        # IndexError so iteration protocols terminate correctly.
        blob, base = stream
        r = PFPLReader(blob)
        with pytest.raises(IndexError, match=str(base.size)):
            r[base.size]
        with pytest.raises(IndexError):
            r[-base.size - 1]
        # Boundary values still resolve.
        full = decompress(blob)
        assert r[base.size - 1] == full[-1]
        assert r[-base.size] == full[0]
