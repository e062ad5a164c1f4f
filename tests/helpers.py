"""Shared test utilities: checkpoint surgery."""

import json


def rewrite_checkpoint_header(src, dst, mutate):
    """Copy checkpoint ``src`` to ``dst`` with ``mutate`` applied to its
    parsed JSON header; the payload bytes are kept as they are."""
    magic, header, payload = src.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    mutate(header)
    dst.write_bytes(b"\n".join((magic, json.dumps(header).encode(),
                                payload)))
