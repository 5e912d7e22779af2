"""Seeded telemetry-discipline violations: traced twins (analyzed as core/kernel.py)."""


def twin_if_else(tel, kernel, chunk):
    if tel.enabled:
        with tel.span("encode_chunk", cat="encode"):
            return kernel.encode_chunk(chunk)
    else:
        return kernel.encode_chunk(chunk)


def twin_early_exit(tel, fn, item):
    if not tel.enabled:
        return fn(item)
    with tel.span("chunk_exec", cat="scheduler"):
        return fn(item)


def _encode_chunk_traced(self, words, tel):
    with tel.span("quantize", cat="encode"):
        return words


def twin_expression(tel, quantizer, flat):
    return _timed(tel, quantizer.prepare(flat)) if tel.enabled else quantizer.prepare(flat)


def one_path_is_fine(tel, kernel, chunk):
    with tel.span("encode_chunk", cat="encode"):
        blob = kernel.encode_chunk(chunk)
    tel.add("chunks_encoded_total")
    return blob


def telemetry_only_guard_is_fine(tel, kernel, chunk):
    blob = kernel.encode_chunk(chunk)
    if tel.enabled:
        tel.add("chunk_bytes_out_total", len(blob))
    return blob


def early_exit_sharing_no_call_is_fine(tel, blobs):
    if not tel.enabled:
        return None
    tel.add("chunk_bytes_out_total", sum(len(b) for b in blobs))
    return blobs
