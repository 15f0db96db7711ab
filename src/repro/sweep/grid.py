"""Declarative scenario grids: the cartesian product of run families.

The paper's claims (Tables 1-2, per-model convergence rates) quantify
over *families* of executions -- every model, every admissible fault
count, every adversary, many seeds.  A :class:`GridSpec` captures such
a family declaratively as the cartesian product of its axes; each point
of the product is a :class:`CellSpec`, a fully-primitive (and therefore
picklable and hashable) description of one simulation run.

Cells deliberately hold only short names and numbers -- never strategy
or algorithm objects -- so a grid can be shipped to worker processes
and each cell rebuilt independently via
:func:`repro.api.mobile_config`.  The cell's ``seed`` feeds the
``derive_rng`` stream derivation, which makes every cell's execution a
pure function of the cell alone: results never depend on which worker
ran it, or in which order.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from itertools import product

from ..faults.models import get_semantics
from ..runtime.families import DEFAULT_FAMILY, get_family, stacking_key
from ..topology import DEFAULT_TOPOLOGY

__all__ = ["CellSpec", "GridSpec", "shard_cells"]


@dataclass(frozen=True)
class CellSpec:
    """One point of a sweep grid: a complete, primitive run description.

    ``n=None`` means "the model's Table 2 minimum for ``f``", resolved
    when the cell is materialized into a config.

    ``scenario`` selects the config builder (see
    :mod:`repro.sweep.scenarios`): the default ``"mobile"`` is the
    :func:`repro.api.mobile_config` family; ``"static-mixed"``,
    ``"stall"`` and ``"mixed-stall"`` describe the static-substrate and
    lower-bound configurations the experiments sweep over.  Scenario
    parameters beyond the shared fields (e.g. ``(a, s, b)`` counts)
    travel in ``params``, a sorted tuple of ``(name, value)`` pairs so
    the cell stays hashable and picklable; a mapping passed at
    construction is normalized automatically.

    ``family`` names the protocol-level algorithm family executing the
    cell (see :mod:`repro.runtime.families`) -- ``algorithm`` remains
    the MSR function *within* the family, so ``families x algorithms``
    sweeps compare protocol designs under identical folds.

    ``topology`` names the communication graph by spec string (see
    :mod:`repro.topology`); the default ``"complete"`` is the paper's
    full mesh and is omitted from descriptions and cache encodings so
    pre-topology cells keep their identity.
    """

    model: str
    f: int
    n: int | None
    algorithm: str
    movement: str
    attack: str
    epsilon: float
    seed: int
    rounds: int | None = None
    max_rounds: int = 1_000
    scenario: str = "mobile"
    params: tuple[tuple[str, object], ...] = ()
    family: str = DEFAULT_FAMILY
    topology: str = DEFAULT_TOPOLOGY

    def __post_init__(self) -> None:
        pairs = (
            self.params.items()
            if isinstance(self.params, Mapping)
            else self.params
        )
        # Sorted in both forms: semantically identical cells must share
        # one key (and one cache hash) however their params were spelt.
        normalized = tuple(sorted((str(name), value) for name, value in pairs))
        object.__setattr__(self, "params", normalized)

    @property
    def key(self) -> tuple:
        """Stable, sortable identity of the cell within any grid.

        Covers every field (``None`` sentinels mapped to sortable
        ints): hand-built cell lists may legitimately differ only in
        round budget, and such cells must not collide.
        """
        return (
            self.model,
            self.f,
            self.n if self.n is not None else 0,
            self.algorithm,
            self.movement,
            self.attack,
            self.epsilon,
            self.seed,
            self.rounds if self.rounds is not None else -1,
            self.max_rounds,
            self.scenario,
            self.params,
            self.family,
            self.topology,
        )

    @property
    def resolved_n(self) -> int | None:
        """``n``, or the model's Table 2 minimum for ``f`` when unset.

        The width :func:`repro.api.mobile_config` gives an ``n=None``
        cell.  ``None`` when the model or ``f`` is invalid (the cell's
        config build then fails on its own).
        """
        if self.n is not None:
            return self.n
        try:
            return get_semantics(self.model).required_n(self.f)
        except (KeyError, ValueError):
            return None

    @property
    def _stacking(self) -> tuple | None:
        """The cell's :func:`~repro.runtime.families.stacking_key`, or
        ``None`` when the engine cannot stack it with other cells."""
        n = self.resolved_n
        if self.scenario != "mobile" or n is None:
            return None
        return stacking_key(
            n,
            self.f,
            self.algorithm.strip().lower(),
            self.family,
            self.model,
            self.topology,
        )

    @property
    def stack_key(self) -> tuple:
        """Cross-run group of the cell: cells sharing it stack together.

        For a cell the engine can stack -- a ``mobile`` cell whose
        family, after
        :meth:`~repro.runtime.families.ProtocolFamily.lite_equivalent`,
        is a scalar family -- this is the engine's own
        :func:`~repro.runtime.families.stacking_key` ``(n, f,
        algorithm, folded family, model)``: attack, movement, epsilon,
        round budget, seed and the family itself may differ inside one
        ``(R, n)`` stack (see :func:`repro.sweep.engine.run_cell_many`).
        Every other cell keys as its ``key`` minus the ``seed``, so
        its group differs only in RNG streams.  ``n=None`` resolves to
        the Table 2 minimum first (:attr:`resolved_n`), so it stacks
        with the explicit ``n`` of the same width.  Partitioning any
        cell list by ``stack_key`` is a true partition: every cell
        lands in exactly one group, and groups never mix scenarios,
        models, widths or folded families.
        """
        stacking = self._stacking
        if stacking is not None:
            return stacking
        n = self.resolved_n
        return (
            self.model,
            self.f,
            n if n is not None else 0,
            self.algorithm,
            self.movement,
            self.attack,
            self.epsilon,
            self.rounds if self.rounds is not None else -1,
            self.max_rounds,
            self.scenario,
            self.params,
            self.family,
            self.topology,
        )

    @property
    def folded_family(self) -> str:
        """The family whose rounds the cell's stacked lite run executes.

        The scalar family a stackable cell folds as (``"bonomi"`` for a
        declared tseng or witness cell), else the cell's own family --
        what the cell costs to run
        (:func:`~repro.sweep.backends.estimate_cell_cost`).
        """
        stacking = self._stacking
        return self.family if stacking is None else stacking[3]

    def params_dict(self) -> dict[str, object]:
        """The scenario parameters as a plain dictionary."""
        return dict(self.params)

    def to_config(self):
        """Materialize the validated :class:`SimulationConfig`.

        Raises :class:`ValueError` when the cell lies below the model's
        resilience bound (an explicit ``n`` can undercut Table 2), or
        when the cell's scenario rejects its parameters.
        """
        from .scenarios import build_cell_config

        return build_cell_config(self)

    def describe(self) -> str:
        """Compact one-line cell label for tables and error messages."""
        n = "min" if self.n is None else str(self.n)
        prefix = "" if self.scenario == "mobile" else f"[{self.scenario}] "
        suffix = "".join(
            f" {name}={value}" for name, value in self.params
        )
        # Family/topology tags only off their defaults keep pre-family
        # (and pre-topology) cell tables -- and the goldens embedding
        # them -- byte-identical.
        family = (
            "" if self.family == DEFAULT_FAMILY else f" fam={self.family}"
        )
        topology = (
            ""
            if self.topology == DEFAULT_TOPOLOGY
            else f" topo={self.topology}"
        )
        return (
            f"{prefix}{self.model} f={self.f} n={n} {self.algorithm} "
            f"{self.movement}/{self.attack} eps={self.epsilon:g} "
            f"seed={self.seed}{family}{topology}{suffix}"
        )


def _as_tuple(values, name: str) -> tuple:
    """Normalize an axis: scalars become 1-tuples, sequences tuples."""
    if values is None:
        return (None,)
    if isinstance(values, (str, int, float)):
        return (values,)
    if isinstance(values, Sequence):
        normalized = tuple(values)
        if not normalized:
            raise ValueError(f"grid axis {name!r} must not be empty")
        return normalized
    raise TypeError(f"grid axis {name!r}: expected scalar or sequence, got {values!r}")


@dataclass(frozen=True)
class GridSpec:
    """A declarative scenario family: the product of its axes.

    Every axis accepts either a scalar or a sequence; scalars are
    normalized to singleton axes at construction.  The one exception is
    ``seeds``, which rejects a bare integer: ``seeds=16`` would be
    ambiguous between "the single seed 16" and the seed *count* that
    :func:`repro.api.sweep_grid` expands to ``range(16)`` -- pass the
    sequence you mean.  ``cells()`` yields the cartesian product in a
    deterministic order (axes vary rightmost-fastest, like
    :func:`itertools.product`).

    The ``families x topologies`` corner of the product is pruned by
    *structural* compatibility: a registered family that requires the
    complete graph is never crossed with a non-``"complete"`` spec
    (running it would only produce a guaranteed per-cell error), so a
    single grid expresses head-to-head comparisons like "witness on a
    ring vs bonomi on the full mesh".  A grid whose every combination
    is incompatible is rejected at construction.  Unknown family names
    are *not* pruned -- their cells run and report the unknown-family
    error, exactly as before.
    """

    models: tuple[str, ...] = ("M1", "M2", "M3")
    fs: tuple[int, ...] = (1,)
    ns: tuple[int | None, ...] = (None,)
    algorithms: tuple[str, ...] = ("ftm",)
    movements: tuple[str, ...] = ("round-robin",)
    attacks: tuple[str, ...] = ("split",)
    epsilons: tuple[float, ...] = (1e-3,)
    seeds: tuple[int, ...] = (0,)
    rounds: int | None = None
    max_rounds: int = 1_000
    families: tuple[str, ...] = (DEFAULT_FAMILY,)
    topologies: tuple[str, ...] = (DEFAULT_TOPOLOGY,)

    def __post_init__(self) -> None:
        if isinstance(self.seeds, int):
            raise TypeError(
                f"GridSpec(seeds={self.seeds}) is ambiguous: pass the "
                f"sequence you mean, e.g. range({self.seeds}) for that "
                f"many seeds or ({self.seeds},) for that single seed "
                "(repro.sweep_grid(seeds=K) expands K to range(K))"
            )
        for axis in (
            "models",
            "fs",
            "ns",
            "algorithms",
            "movements",
            "attacks",
            "epsilons",
            "seeds",
            "families",
            "topologies",
        ):
            object.__setattr__(self, axis, _as_tuple(getattr(self, axis), axis))
        if not self.family_topology_pairs():
            raise ValueError(
                f"grid crosses families {self.families} only with "
                f"topologies {self.topologies}, and every combination is "
                "structurally incompatible (complete-graph families on "
                "partial graphs); add 'complete' to the topologies or a "
                "relay-based family such as 'witness'"
            )

    def family_topology_pairs(self) -> list[tuple[str, str]]:
        """The compatible ``(family, topology)`` combinations, in order.

        Family-major (preserving the pre-topology cell order for
        single-topology grids), with structurally impossible pairs --
        a complete-graph family on a non-complete spec -- removed.
        Compatibility is decided on the *spec string* alone (``n`` is
        unknown here), so a spec that happens to resolve to a complete
        graph at some ``n`` (e.g. a wide ring on a tiny system) is
        still pruned for complete-only families.
        """
        pairs = []
        for family in self.families:
            for topology in self.topologies:
                if topology != DEFAULT_TOPOLOGY:
                    try:
                        requires_complete = get_family(family).requires_complete
                    except KeyError:
                        # Unknown family: keep the cell so the sweep
                        # reports its error instead of hiding the typo.
                        requires_complete = False
                    if requires_complete:
                        continue
                pairs.append((family, topology))
        return pairs

    def __len__(self) -> int:
        return len(self.family_topology_pairs()) * (
            len(self.models)
            * len(self.fs)
            * len(self.ns)
            * len(self.algorithms)
            * len(self.movements)
            * len(self.attacks)
            * len(self.epsilons)
            * len(self.seeds)
        )

    def cells(self) -> Iterator[CellSpec]:
        """Yield every cell of the product, deterministically ordered.

        ``families`` varies outermost (then ``topologies``) so each
        family's cells stay contiguous; single-family single-topology
        grids keep their pre-family order exactly.
        """
        for family, topology in self.family_topology_pairs():
            for model, f, n, algorithm, movement, attack, epsilon, seed in product(
                self.models,
                self.fs,
                self.ns,
                self.algorithms,
                self.movements,
                self.attacks,
                self.epsilons,
                self.seeds,
            ):
                yield CellSpec(
                    model=model,
                    f=f,
                    n=n,
                    algorithm=algorithm,
                    movement=movement,
                    attack=attack,
                    epsilon=epsilon,
                    seed=seed,
                    rounds=self.rounds,
                    max_rounds=self.max_rounds,
                    family=family,
                    topology=topology,
                )

    def describe(self) -> str:
        """Axis-by-axis summary, e.g. for CLI banners."""
        parts = []
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                rendered = ",".join("min" if v is None else str(v) for v in value)
                parts.append(f"{spec_field.name}=[{rendered}]")
        return f"{len(self)} cells: " + " ".join(parts)


def shard_cells(
    cells: Sequence[CellSpec], index: int, count: int
) -> list[CellSpec]:
    """The cells that shard ``index`` of ``count`` owns, in key order.

    Shard ``index`` owns every cell whose rank in the grid's key order
    is congruent to ``index`` modulo ``count`` -- a pure function of
    the grid, independent of cell order, so concurrent invocations
    never overlap and together cover the grid.
    """
    if count < 1:
        raise ValueError(f"shard_count must be at least 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard_index must be in [0, {count}), got {index}")
    ordered = sorted(cells, key=lambda cell: cell.key)
    return ordered[index::count]
