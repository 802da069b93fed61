"""Member-by-member partition construction and validation."""

from typing import Dict, Iterable, List, Mapping

import numpy as np


def from_members_problem(num_nodes: int,
                         members: Mapping[int, Iterable[int]]) -> str:
    """The ``ValueError`` message the member walk raises ('' if none)."""
    node2super = np.full(num_nodes, -1, dtype=np.int64)
    try:
        for sid, mem in members.items():
            mem_list = [int(v) for v in mem]
            if not mem_list:
                raise ValueError(f"supernode {sid} has no members")
            for v in mem_list:
                if not 0 <= v < num_nodes:
                    raise ValueError(f"member {v} out of range")
                if node2super[v] != -1:
                    raise ValueError(f"node {v} assigned to two supernodes")
                node2super[v] = sid
        if np.any(node2super < 0):
            missing = int(np.flatnonzero(node2super < 0)[0])
            raise ValueError(f"node {missing} not covered by any supernode")
    except ValueError as exc:
        return str(exc)
    return ""


def validate_problem(members: Dict[int, List[int]],
                     node2super: np.ndarray) -> str:
    """The ``AssertionError`` message ``validate`` raises ('' if none)."""
    seen = np.zeros(node2super.size, dtype=bool)
    try:
        for sid, mem in members.items():
            if not mem:
                raise AssertionError(f"supernode {sid} is empty")
            for v in mem:
                if seen[v]:
                    raise AssertionError(f"node {v} appears twice")
                seen[v] = True
                if node2super[v] != sid:
                    raise AssertionError(
                        f"node2super[{v}] = {node2super[v]} != {sid}"
                    )
        if not seen.all():
            missing = int(np.flatnonzero(~seen)[0])
            raise AssertionError(f"node {missing} not in any supernode")
    except AssertionError as exc:
        return str(exc)
    return ""
