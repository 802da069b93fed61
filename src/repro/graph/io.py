"""Graph and summary serialization.

Three plain-text graph formats (edge list, adjacency list, and the
whitespace-separated "LAW-style" format used by the paper's datasets after
conversion) plus a line-oriented format for summarization outputs so that a
summary computed once can be stored, shipped and queried later without the
original graph.
"""

from __future__ import annotations

import gzip
import io
import itertools
import os
import warnings
from typing import IO, List, Optional, Tuple, Union

import numpy as np

from ..errors import CorruptSummaryError
from ..ioutil import atomic_write
from .builder import GraphBuilder
from .graph import Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_adjacency",
    "write_adjacency",
    "read_graph_binary",
    "write_graph_binary",
    "load_graph",
    "save_graph",
    "write_summary",
    "read_summary",
    "write_partition",
    "read_partition",
]

PathLike = Union[str, "os.PathLike[str]"]


def _open_text(path: PathLike, mode: str) -> IO[str]:
    """Open ``path`` as text, transparently handling ``.gz`` suffixes."""
    path = os.fspath(path)
    if path.endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, mode + "b"))  # type: ignore[arg-type]
    return open(path, mode, encoding="utf-8")


def _atomic_text(path: PathLike):
    """Atomic-write counterpart of ``_open_text(path, "w")``.

    Every text writer in this module goes through here so an interrupted
    write (crash, SIGKILL, full disk) never clobbers a previous good file
    — the temp file is simply abandoned and unlinked.
    """
    path = os.fspath(path)
    if path.endswith(".gz"):
        return atomic_write(
            path,
            open_fn=lambda tmp: io.TextIOWrapper(gzip.open(tmp, "wb")),
        )
    return atomic_write(path, "w", encoding="utf-8")


# ----------------------------------------------------------------------
# edge list format: one "u v" pair per line; '#' or '%' comments allowed
# ----------------------------------------------------------------------
#: Lines handed to one ``np.loadtxt`` call. The reader holds one block of
#: text at a time, so this bounds its memory beyond the parsed ids.
_BLOCK_LINES = 1 << 18


def _parse_block(lines: List[str]) -> np.ndarray:
    """The first two columns of ``lines`` as an ``(m, 2)`` int64 array.

    Raises :class:`ValueError` on a line without two integer ids.
    """
    with warnings.catch_warnings():
        # A block of only comments and blank lines is not an error.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=np.int64, usecols=(0, 1),
                          comments=("#", "%"), ndmin=2)


def _clean_ids(lines: List[str]) -> Optional[np.ndarray]:
    """``_parse_block(lines)``, or ``None`` on a bad line or negative id."""
    try:
        ids = _parse_block(lines)
    except ValueError:
        return None
    return None if ids.size and ids.min() < 0 else ids


def _block_error(
    path: PathLike, lines: List[str], first_lineno: int
) -> ValueError:
    """The error for the first bad line of a block that failed to parse.

    ``np.loadtxt`` numbers only data rows, so the bad line is found by
    bisecting the block; everything before ``lo`` is known to be clean.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _clean_ids(lines[lo:mid]) is not None:
            lo = mid
        else:
            hi = mid
    line = lines[lo]
    where = f"{path}:{first_lineno + lo}"
    try:
        _parse_block([line])
    except ValueError:
        return ValueError(f"{where}: expected 'u v', got {line.strip()!r}")
    return ValueError(f"{where}: negative node id")


def read_edge_list(path: PathLike, num_nodes: int = None) -> Graph:
    """Read a whitespace-separated edge list file.

    Node ids must be non-negative integers; columns after the second are
    ignored. ``#`` and ``%`` start a comment, and blank lines are skipped.
    Directed inputs are symmetrized (matching the paper's preprocessing).
    The file is parsed in blocks of :data:`_BLOCK_LINES` lines.
    """
    blocks = []
    with _open_text(path, "r") as fh:
        for first_lineno in itertools.count(1, _BLOCK_LINES):
            lines = list(itertools.islice(fh, _BLOCK_LINES))
            if not lines:
                break
            ids = _clean_ids(lines)
            if ids is None:
                raise _block_error(path, lines, first_lineno)
            blocks.append(ids)
    pairs = np.concatenate(blocks) if blocks else np.empty((0, 2), np.int64)
    del blocks
    if num_nodes is None:
        num_nodes = int(pairs.max()) + 1 if pairs.size else 0
    return Graph.from_edge_arrays(num_nodes, pairs[:, 0], pairs[:, 1])


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write each undirected edge once as ``u v`` (with ``u < v``)."""
    src, dst = graph.edge_arrays()
    with _atomic_text(path) as fh:
        fh.write(f"# nodes {graph.num_nodes} edges {graph.num_edges}\n")
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u} {v}\n")


# ----------------------------------------------------------------------
# adjacency list format: "v: n1 n2 n3" per line
# ----------------------------------------------------------------------
def read_adjacency(path: PathLike) -> Graph:
    """Read an adjacency list file of the form ``v: n1 n2 ...``."""
    builder = GraphBuilder()
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            if ":" not in line:
                raise ValueError(f"{path}:{lineno}: missing ':' separator")
            head, _, tail = line.partition(":")
            v = int(head)
            builder.add_node(v)
            for token in tail.split():
                builder.add_edge(v, int(token))
    # Labels are ints here; compact while preserving numeric identity where
    # the file enumerates every node id.
    labels = builder.labels
    graph = builder.build()
    if labels == sorted(labels) and labels == list(range(len(labels))):
        return graph
    # Remap back onto the original integer id space.
    n = max(labels) + 1
    src, dst = graph.edge_arrays()
    label_arr = np.asarray(labels, dtype=np.int64)
    return Graph.from_edge_arrays(n, label_arr[src], label_arr[dst])


def write_adjacency(graph: Graph, path: PathLike) -> None:
    """Write each node's full adjacency row, one node per line."""
    with _atomic_text(path) as fh:
        for v in range(graph.num_nodes):
            row = " ".join(str(u) for u in graph.neighbors(v).tolist())
            fh.write(f"{v}: {row}\n")


# ----------------------------------------------------------------------
# binary CSR format (.npz): zero-parse loading for large graphs
# ----------------------------------------------------------------------
def write_graph_binary(graph: Graph, path: PathLike) -> None:
    """Store the CSR arrays directly (compressed ``.npz``), atomically."""
    with atomic_write(os.fspath(path), "wb") as fh:
        np.savez_compressed(fh, indptr=graph.indptr, indices=graph.indices)


def read_graph_binary(path: PathLike) -> Graph:
    """Load a graph written by :func:`write_graph_binary`."""
    with np.load(os.fspath(path)) as data:
        if "indptr" not in data or "indices" not in data:
            raise ValueError(f"{path}: not a CSR graph archive")
        return Graph(data["indptr"], data["indices"])


def load_graph(path: PathLike) -> Graph:
    """Load a graph, dispatching on extension.

    ``.adj``/``.adj.gz`` → adjacency list, ``.npz`` → binary CSR,
    anything else → edge list.
    """
    name = os.fspath(path)
    if name.endswith(".adj") or name.endswith(".adj.gz"):
        return read_adjacency(path)
    if name.endswith(".npz"):
        return read_graph_binary(path)
    return read_edge_list(path)


def save_graph(graph: Graph, path: PathLike) -> None:
    """Save a graph, dispatching on extension (see :func:`load_graph`)."""
    name = os.fspath(path)
    if name.endswith(".adj") or name.endswith(".adj.gz"):
        write_adjacency(graph, path)
    elif name.endswith(".npz"):
        write_graph_binary(graph, path)
    else:
        write_edge_list(graph, path)


# ----------------------------------------------------------------------
# partition checkpoint format: "sid m1 m2 ..." per supernode
# ----------------------------------------------------------------------
def write_partition(partition, path: PathLike) -> None:
    """Checkpoint a :class:`~repro.core.partition.SupernodePartition`.

    Pairs with the ``initial_partition`` warm-start argument of
    :meth:`repro.core.base.BaseSummarizer.summarize`: a long run can be
    checkpointed and resumed in another process.
    """
    with _atomic_text(path) as fh:
        fh.write(f"#ldme-partition num_nodes={partition.num_nodes}\n")
        for sid in sorted(partition.supernode_ids()):
            members = " ".join(map(str, sorted(partition.members(sid))))
            fh.write(f"{sid} {members}\n")


def read_partition(path: PathLike):
    """Load a partition written by :func:`write_partition`."""
    from ..core.partition import SupernodePartition

    num_nodes = None
    members = {}
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#ldme-partition"):
                for token in line.split():
                    if token.startswith("num_nodes="):
                        num_nodes = int(token.split("=", 1)[1])
                continue
            parts = [int(tok) for tok in line.split()]
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'sid members...'")
            members[parts[0]] = parts[1:]
    if num_nodes is None:
        raise ValueError(f"{path}: missing '#ldme-partition' header")
    return SupernodePartition.from_members(num_nodes, members)


# ----------------------------------------------------------------------
# summary output format
# ----------------------------------------------------------------------
def write_summary(summarization, path: PathLike) -> None:
    """Serialize a :class:`~repro.core.summary.Summarization` to text.

    Sections are introduced by header lines: ``S`` (one supernode per line:
    id then members), ``P`` (superedges), ``C+`` and ``C-`` (correction
    edges). The original node count is recorded so the graph can be rebuilt
    without external information.
    """
    with _atomic_text(path) as fh:
        fh.write(f"#ldme-summary num_nodes={summarization.num_nodes}\n")
        fh.write("S\n")
        for sid in summarization.supernode_ids():
            members = " ".join(map(str, summarization.members(sid)))
            fh.write(f"{sid} {members}\n")
        fh.write("P\n")
        for a, b in summarization.superedges:
            fh.write(f"{a} {b}\n")
        fh.write("C+\n")
        for u, v in summarization.corrections.additions:
            fh.write(f"{u} {v}\n")
        fh.write("C-\n")
        for u, v in summarization.corrections.deletions:
            fh.write(f"{u} {v}\n")


def read_summary(path: PathLike):
    """Deserialize a summary written by :func:`write_summary`.

    Malformed files raise :class:`~repro.errors.CorruptSummaryError` (a
    :class:`ValueError` subclass) naming the offending line, instead of
    crashing deep inside parsing or returning a half-read summary.
    """
    from ..core.summary import CorrectionSet, Summarization

    num_nodes = None
    section = None
    members = {}
    superedges: List[Tuple[int, int]] = []
    additions: List[Tuple[int, int]] = []
    deletions: List[Tuple[int, int]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#ldme-summary"):
                for token in line.split():
                    if token.startswith("num_nodes="):
                        num_nodes = int(token.split("=", 1)[1])
                continue
            if line in ("S", "P", "C+", "C-"):
                section = line
                continue
            try:
                parts = [int(tok) for tok in line.split()]
            except ValueError:
                raise CorruptSummaryError(
                    str(path), f"line {lineno}: non-integer token in {line!r}"
                ) from None
            if section != "S" and len(parts) != 2:
                raise CorruptSummaryError(
                    str(path),
                    f"line {lineno}: expected an edge pair, got {line!r}",
                )
            if section == "S":
                members[parts[0]] = parts[1:]
            elif section == "P":
                superedges.append((parts[0], parts[1]))
            elif section == "C+":
                additions.append((parts[0], parts[1]))
            elif section == "C-":
                deletions.append((parts[0], parts[1]))
            else:
                raise CorruptSummaryError(
                    str(path), f"line {lineno}: data before section header"
                )
    if num_nodes is None:
        raise CorruptSummaryError(
            str(path), "missing '#ldme-summary' header"
        )
    try:
        return Summarization.from_members(
            num_nodes=num_nodes,
            members=members,
            superedges=superedges,
            corrections=CorrectionSet(additions=additions,
                                      deletions=deletions),
        )
    except ValueError as exc:
        raise CorruptSummaryError(
            str(path), f"invalid summary structure: {exc}"
        ) from exc
