"""Seeded generator for the ``grid`` workload's scenario document.

The document is a connected square grid with a share of its street
segments closed, a stepwise dusk-to-night ambient schedule, and people
whose destinations are reachable and whose start ticks are spread over
the first half of the run. The same seed gives the same document, byte
for byte, on every Python version: only ``random.Random.randrange`` and
``random.Random.random`` are used, and both are stable for integer seeds.

The program under test sees only the returned document, through
``lumenloop.scenario.parse_scenario``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque

SIDE = 18
MAX_TICKS = 90
PEOPLE = 70
CLOSED_SHARE = 0.15  # share of grid edges removed, connectivity permitting
DUSK_STEPS = 5  # ambient levels from dusk down to full night


def _grid_edges(side: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(side):
        for c in range(side):
            pid = r * side + c
            if c < side - 1:
                edges.append((pid, pid + 1))
            if r < side - 1:
                edges.append((pid, pid + side))
    return edges


def reachable_from(adjacency: dict[int, set[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for n in adjacency[node]:
            if n not in seen:
                seen.add(n)
                queue.append(n)
    return seen


def grid_document(
    seed: int,
    side: int = SIDE,
    max_ticks: int = MAX_TICKS,
    people: int = PEOPLE,
    closed_share: float = CLOSED_SHARE,
) -> dict:
    """Build one scenario document from ``seed``."""
    rng = random.Random(seed)
    n_poles = side * side
    adjacency: dict[int, set[int]] = {pid: set() for pid in range(n_poles)}
    edges = _grid_edges(side)
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    # Close edges in a seeded order, skipping any whose removal would
    # split the grid, until the closed share is reached.
    rng.shuffle(edges)
    to_close = int(len(edges) * closed_share)
    for a, b in edges:
        if to_close == 0:
            break
        adjacency[a].discard(b)
        adjacency[b].discard(a)
        if len(reachable_from(adjacency, a)) == n_poles:
            to_close -= 1
        else:
            adjacency[a].add(b)
            adjacency[b].add(a)

    # Dusk: a lit start above the movement threshold, then strictly
    # later steps with strictly lower levels, ending in full night.
    step_ticks = sorted(rng.sample(range(1, max_ticks // 2), DUSK_STEPS - 1))
    top = 0.6 + 0.2 * rng.random()
    levels = [top * (DUSK_STEPS - 1 - i) / (DUSK_STEPS - 1) for i in range(DUSK_STEPS)]
    schedule = [
        {"from_tick": tick, "level": level}
        for tick, level in zip([0, *step_ticks], levels)
    ]

    persons = []
    for pid in range(people):
        origin = rng.randrange(n_poles)
        destination = rng.randrange(n_poles - 1)
        if destination >= origin:
            destination += 1
        # Even spread over the first half of the run, jittered.
        slot = pid * (max_ticks // 2) // people
        start = min(slot + rng.randrange(3), max_ticks // 2)
        persons.append({
            "id": pid, "origin": origin, "destination": destination, "start_tick": start,
        })

    return {
        "name": f"grid{side}x{side}-seed{seed}",
        "max_ticks": max_ticks,
        "movement_threshold": 0.5,
        "rng_seed": seed,
        "ambient_schedule": schedule,
        "poles": [
            {"id": pid, "neighbors": sorted(adjacency[pid])} for pid in range(n_poles)
        ],
        "people": persons,
    }


def document_sha256(doc: dict) -> str:
    """Digest of the canonical JSON form of a document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
