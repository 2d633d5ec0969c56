"""Scenario documents: schema, validation, and the built-in environments.

A scenario document is UTF-8 JSON with exactly the top-level keys
``name, max_ticks, movement_threshold, rng_seed, ambient_schedule, poles,
people``. Unknown keys are rejected (SchemaError); semantic violations
raise ValidationError with the offending field path. ``rng_seed`` is a
reserved integer key: it is required and type-checked, but the dynamics are
deterministic and ignore it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .documents import as_int, as_number, parse_json, read_text
from .errors import SchemaError, ValidationError


@dataclass(frozen=True)
class PoleSpec:
    id: int
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class PersonSpec:
    id: int
    origin: int
    destination: int
    start_tick: int


@dataclass(frozen=True)
class AmbientEntry:
    from_tick: int
    level: float


@dataclass(frozen=True)
class ScenarioSpec:
    """Immutable environment description; safe to share across runs."""

    name: str
    max_ticks: int
    movement_threshold: float
    ambient_schedule: tuple[AmbientEntry, ...]
    poles: tuple[PoleSpec, ...]
    people: tuple[PersonSpec, ...]

    @cached_property
    def compiled(self):
        """Routes, neighbour matrix and ambient per tick for the tick loop.

        Built by ``engine.compile_scenario`` on first use, then kept with
        this instance; the fields it derives from are frozen.
        """
        from .engine import compile_scenario  # the engine imports this module

        return compile_scenario(self)

    def neighbor_map(self) -> dict[int, tuple[int, ...]]:
        return {p.id: p.neighbors for p in self.poles}

    def ambient_at(self, tick: int) -> float:
        """Ambient level at ``tick``: last schedule entry in effect, else 0."""
        level = 0.0
        for entry in self.ambient_schedule:
            if entry.from_tick <= tick:
                level = entry.level
            else:
                break
        return level


TOP_LEVEL_KEYS = {
    "name", "max_ticks", "movement_threshold", "rng_seed",
    "ambient_schedule", "poles", "people",
}


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = keys - obj.keys()
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    unknown = obj.keys() - keys
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Validate a parsed scenario document and build a ScenarioSpec."""
    _require_keys(doc, TOP_LEVEL_KEYS, "scenario")

    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError("name: expected a nonempty string")
    max_ticks = as_int(doc["max_ticks"], "max_ticks")
    threshold = as_number(doc["movement_threshold"], "movement_threshold")
    as_int(doc["rng_seed"], "rng_seed")

    if not isinstance(doc["ambient_schedule"], list):
        raise SchemaError("ambient_schedule: expected an array")
    schedule = []
    for i, entry in enumerate(doc["ambient_schedule"]):
        where = f"ambient_schedule[{i}]"
        _require_keys(entry, {"from_tick", "level"}, where)
        schedule.append(AmbientEntry(
            as_int(entry["from_tick"], f"{where}.from_tick"),
            as_number(entry["level"], f"{where}.level"),
        ))

    if not isinstance(doc["poles"], list):
        raise SchemaError("poles: expected an array")
    poles = []
    for i, entry in enumerate(doc["poles"]):
        where = f"poles[{i}]"
        _require_keys(entry, {"id", "neighbors"}, where)
        if not isinstance(entry["neighbors"], list):
            raise SchemaError(f"{where}.neighbors: expected an array")
        poles.append(PoleSpec(
            as_int(entry["id"], f"{where}.id"),
            tuple(as_int(n, f"{where}.neighbors[{j}]") for j, n in enumerate(entry["neighbors"])),
        ))

    if not isinstance(doc["people"], list):
        raise SchemaError("people: expected an array")
    people = []
    for i, entry in enumerate(doc["people"]):
        where = f"people[{i}]"
        _require_keys(entry, {"id", "origin", "destination", "start_tick"}, where)
        people.append(PersonSpec(
            as_int(entry["id"], f"{where}.id"),
            as_int(entry["origin"], f"{where}.origin"),
            as_int(entry["destination"], f"{where}.destination"),
            as_int(entry["start_tick"], f"{where}.start_tick"),
        ))

    spec = ScenarioSpec(
        name=name,
        max_ticks=max_ticks,
        movement_threshold=threshold,
        ambient_schedule=tuple(schedule),
        poles=tuple(poles),
        people=tuple(people),
    )
    _validate(spec)
    return spec


def _validate(spec: ScenarioSpec) -> None:
    if spec.max_ticks <= 0:
        raise ValidationError("must be positive", path="max_ticks")
    if not 0.0 <= spec.movement_threshold <= 1.0:
        raise ValidationError(
            f"must be in [0, 1], got {spec.movement_threshold}", path="movement_threshold"
        )

    last_from = -1
    for i, entry in enumerate(spec.ambient_schedule):
        if entry.from_tick < 0:
            raise ValidationError("must be >= 0", path=f"ambient_schedule[{i}].from_tick")
        if entry.from_tick <= last_from:
            raise ValidationError(
                "from_tick values must be strictly increasing",
                path=f"ambient_schedule[{i}].from_tick",
            )
        last_from = entry.from_tick
        if not 0.0 <= entry.level <= 1.0:
            raise ValidationError(
                f"must be in [0, 1], got {entry.level}", path=f"ambient_schedule[{i}].level"
            )

    pole_ids = [p.id for p in spec.poles]
    if not pole_ids:
        raise ValidationError("at least one pole required", path="poles")
    if len(set(pole_ids)) != len(pole_ids):
        raise ValidationError("duplicate pole ids", path="poles")
    id_set = set(pole_ids)

    neighbor_sets = {p.id: set(p.neighbors) for p in spec.poles}
    for i, pole in enumerate(spec.poles):
        if len(set(pole.neighbors)) != len(pole.neighbors):
            raise ValidationError("duplicate neighbor ids", path=f"poles[{i}].neighbors")
        for n in pole.neighbors:
            if n == pole.id:
                raise ValidationError(
                    f"pole {pole.id} lists itself as a neighbor", path=f"poles[{i}].neighbors"
                )
            if n not in id_set:
                raise ValidationError(
                    f"unknown pole id {n}", path=f"poles[{i}].neighbors"
                )
            if pole.id not in neighbor_sets[n]:
                raise ValidationError(
                    f"asymmetric neighbor: {pole.id} -> {n} has no reverse edge",
                    path=f"poles[{i}].neighbors",
                )

    person_ids = [p.id for p in spec.people]
    if len(set(person_ids)) != len(person_ids):
        raise ValidationError("duplicate person ids", path="people")
    for i, person in enumerate(spec.people):
        for field in ("origin", "destination"):
            value = getattr(person, field)
            if value not in id_set:
                raise ValidationError(
                    f"person {person.id}: unknown pole id {value}",
                    path=f"people[{i}].{field}",
                )
        if not 0 <= person.start_tick < spec.max_ticks:
            raise ValidationError(
                f"person {person.id}: start_tick must satisfy 0 <= t < max_ticks",
                path=f"people[{i}].start_tick",
            )
        if distances_to(spec, person.destination).get(person.origin) is None:
            raise ValidationError(
                f"person {person.id}: no path from {person.origin} to {person.destination}",
                path=f"people[{i}].destination",
            )


def distances_to(spec: ScenarioSpec, target: int) -> dict[int, int]:
    """BFS hop counts from every reachable pole to ``target``."""
    neighbors = spec.neighbor_map()
    dist = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        for n in sorted(neighbors[node]):
            if n not in dist:
                dist[n] = dist[node] + 1
                queue.append(n)
    return dist


def shortest_path(spec: ScenarioSpec, origin: int, destination: int) -> list[int]:
    """Shortest path origin..destination; ties broken by lowest neighbor id.

    At each step the walk moves to the lowest-id neighbor that reduces the
    BFS distance to the destination.
    """
    dist = distances_to(spec, destination)
    if origin not in dist:
        raise ValidationError(f"no path from {origin} to {destination}")
    neighbors = spec.neighbor_map()
    path = [origin]
    current = origin
    while current != destination:
        current = min(n for n in neighbors[current] if dist.get(n) == dist[current] - 1)
        path.append(current)
    return path


def load_scenario(source: str | Path) -> ScenarioSpec:
    """Load a scenario from a built-in name or a JSON file path.

    A document already parsed from JSON goes to parse_scenario.
    """
    if source in BUILTIN_SCENARIOS:
        return builtin_scenario(source)
    return parse_scenario(parse_json(read_text(source), source))


def _grid_document(name: str, side: int, max_ticks: int, people: list[dict]) -> dict:
    """Square grid with rook (4-way) adjacency, row-major pole ids."""
    poles = []
    for r in range(side):
        for c in range(side):
            pid = r * side + c
            neighbors = []
            if r > 0:
                neighbors.append(pid - side)
            if r < side - 1:
                neighbors.append(pid + side)
            if c > 0:
                neighbors.append(pid - 1)
            if c < side - 1:
                neighbors.append(pid + 1)
            poles.append({"id": pid, "neighbors": sorted(neighbors)})
    return {
        "name": name,
        "max_ticks": max_ticks,
        "movement_threshold": 0.5,
        "rng_seed": 0,
        "ambient_schedule": [{"from_tick": 0, "level": 0.0}],
        "poles": poles,
        "people": people,
    }


def builtin_scenario_document(name: str) -> dict:
    """Built-in scenario documents; night-time grids with corner-to-corner routes."""
    if name == "scenario1":
        return _grid_document("scenario1", side=3, max_ticks=60, people=[
            {"id": 0, "origin": 0, "destination": 8, "start_tick": 0},
            {"id": 1, "origin": 2, "destination": 6, "start_tick": 5},
            {"id": 2, "origin": 8, "destination": 0, "start_tick": 10},
        ])
    if name == "scenario2":
        return _grid_document("scenario2", side=5, max_ticks=100, people=[
            {"id": 0, "origin": 0, "destination": 24, "start_tick": 0},
            {"id": 1, "origin": 4, "destination": 20, "start_tick": 5},
            {"id": 2, "origin": 20, "destination": 4, "start_tick": 10},
            {"id": 3, "origin": 24, "destination": 0, "start_tick": 15},
            {"id": 4, "origin": 2, "destination": 22, "start_tick": 20},
            {"id": 5, "origin": 10, "destination": 14, "start_tick": 25},
        ])
    raise ValidationError(f"unknown built-in scenario {name!r}")


BUILTIN_SCENARIOS = ("scenario1", "scenario2")


def builtin_scenario(name: str) -> ScenarioSpec:
    return parse_scenario(builtin_scenario_document(name))
