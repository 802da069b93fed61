"""Per-edge reference implementations, kept only as test oracles.

Each module here is the plain-Python version of a step that
``src/repro`` now runs over arrays: the varint codec and summary
writer/reader, tuple-set reconstruction, the structural checks, the
partition constructor and validator, and the shard stitch and serving
cut. ``test_differential.py`` asserts the array versions agree with
them on random summaries; nothing in ``src/`` imports them.
"""
