"""Per-edge reference implementations, kept only as test oracles.

Each module here is the plain-Python version of a step that
``src/repro`` now runs over arrays: the varint codec and summary
writer/reader, tuple-set reconstruction, the structural checks, the
partition constructor and validator, the shard stitch and serving cut,
LDME's three hot-path kernels (``kernels.py``: the dict ``W`` build,
per-row DOPH and the scalar encode scan) and the divide's ``np.unique``
numbering and dict grouping (``divide.py``). The ``test_*differential``
modules here and ``tests/kernels/`` assert the array versions agree with
them; nothing in ``src/`` imports them.
"""
