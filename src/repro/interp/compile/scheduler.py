"""Ranked combinational scheduling (silicon-style logic cones).

Continuous assigns are topologically levelled by their data
dependencies: a process that only reads primary inputs is rank 0, a
process reading rank-0 outputs is rank 1, and so on.  Executing pending processes in
rank order guarantees that one sweep settles any acyclic design —
writes only ever re-mark processes *later* in the sweep.  Processes
caught in a dependency cycle are placed after every ranked process and
iterate to fixpoint (or trip the convergence guard, which is how
combinational loops are reported).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set


def rank_order(reads: Sequence[Set[str]], writes: Sequence[Set[str]]) -> List[int]:
    """Order process indices by dependency rank (ties by index).

    ``reads[i]``/``writes[i]`` are the signal names process *i* is
    sensitive to / drives.  Returns a permutation of ``range(len(reads))``.
    """
    n = len(reads)
    writers_of: Dict[str, List[int]] = {}
    for i, names in enumerate(writes):
        for name in names:
            writers_of.setdefault(name, []).append(i)
    succ: List[Set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for j, names in enumerate(reads):
        for name in names:
            for i in writers_of.get(name, ()):
                if i != j and j not in succ[i]:
                    succ[i].add(j)
                    indegree[j] += 1
    rank = [0] * n
    queue = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for j in succ[i]:
            if rank[i] + 1 > rank[j]:
                rank[j] = rank[i] + 1
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    # Cycle members (never dequeued) settle iteratively after all ranks.
    if head < n:
        cycle_rank = max(rank) + 1 if rank else 1
        dequeued = set(queue)
        for i in range(n):
            if i not in dequeued:
                rank[i] = cycle_rank
    return sorted(range(n), key=lambda i: (rank[i], i))


def acyclic_count(reads: Sequence[Set[str]], writes: Sequence[Set[str]]) -> int:
    """How many processes occupy the acyclic prefix of ``rank_order``.

    ``rank_order`` places every Kahn-dequeued process strictly before
    the trailing group (cycle members plus anything downstream of one,
    which all share the synthetic trailing rank).  The count is what an
    activity-set dispatcher needs: positions below it settle in one
    forward pass (writes only re-mark strictly later positions), while
    positions at or above it must iterate to fixpoint.
    """
    n = len(reads)
    writers_of: Dict[str, List[int]] = {}
    for i, names in enumerate(writes):
        for name in names:
            writers_of.setdefault(name, []).append(i)
    succ: List[Set[int]] = [set() for _ in range(n)]
    indegree = [0] * n
    for j, names in enumerate(reads):
        for name in names:
            for i in writers_of.get(name, ()):
                if i != j and j not in succ[i]:
                    succ[i].add(j)
                    indegree[j] += 1
    queue = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        for j in succ[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                queue.append(j)
    return head
