"""The declarative artifact registry behind ``python -m repro``.

Experiment modules register their figure/table producers with the
:func:`artifact` decorator::

    @artifact("fig3", csv=True,
              description="Fig. 3: fixed vs flexible, synchronous")
    def _fig3(seed=None):
        return run_fig03(seed=default_seed(seed))

The CLI (and anything else) then iterates the registry generically:
``render(name, seed=...)`` produces the text form, ``render_csv`` the
CSV form where supported.  Each artifact keeps the result of the last
seed it was produced for, so rendering both forms of one seed never
re-runs a simulation, and rendering many seeds holds one result, not
one per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

#: Seed artifacts fall back to when the CLI passes none (the paper's year).
DEFAULT_ARTIFACT_SEED = 2017


def default_seed(seed: Optional[int]) -> int:
    """Resolve an optional CLI seed to the registry default."""
    return DEFAULT_ARTIFACT_SEED if seed is None else seed


def _default_text_renderer(result: object) -> str:
    for attr in ("as_table", "as_text"):
        method = getattr(result, attr, None)
        if callable(method):
            return method()
    raise TypeError(
        f"artifact result {type(result).__name__} has neither as_table() "
        f"nor as_text(); pass an explicit text renderer"
    )


@dataclass(frozen=True)
class ArtifactSpec:
    """One registered artifact: how to produce and render it."""

    name: str
    producer: Callable[..., object]
    text: Callable[[object], str]
    csv: Optional[Callable[[object], str]]
    description: str = ""

    @property
    def supports_csv(self) -> bool:
        return self.csv is not None


class ArtifactRegistry:
    """Ordered name → :class:`ArtifactSpec` mapping with a result cache.

    Two caches cooperate here:

    * the **in-memory** result-object cache, which lets one producer
      run serve both the text and CSV forms within a process.  It keeps
      one result per artifact, the last seed's: a long-lived process
      (``repro serve`` renders any seed a client asks for) would
      otherwise keep every seed's simulation alive.  It is
      *process-local by design*: sweep pool workers are
      fresh processes and therefore always start with an empty cache, so
      a worker can never observe another cell's results.  Tests that
      need a clean slate call :meth:`clear_cache` instead of poking
      ``_results``;
    * an optional **on-disk** render cache (:meth:`attach_store`): the
      *rendered* text/CSV strings are persisted in a
      :class:`~repro.store.ResultStore` keyed by (artifact, seed, form)
      plus the store's code-version salt, so repeated ``repro figN``
      invocations across processes skip the simulation entirely.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ArtifactSpec] = {}
        self._results: Dict[str, Tuple[Optional[int], object]] = {}
        self._store = None

    # -- registration -------------------------------------------------------
    def artifact(
        self,
        name: str,
        *,
        csv: Union[bool, Callable[[object], str]] = False,
        text: Union[None, str, Callable[[object], str]] = None,
        description: str = "",
    ):
        """Decorator registering ``fn(seed=None) -> result object``.

        ``text`` may be an attribute name or a callable; by default the
        result's ``as_table()`` (falling back to ``as_text()``) renders
        the artifact.  ``csv=True`` uses the result's ``as_csv()``; a
        callable customizes it.
        """

        if isinstance(text, str):
            attr = text
            text_renderer: Callable[[object], str] = lambda r: getattr(r, attr)()
        elif callable(text):
            text_renderer = text
        else:
            text_renderer = _default_text_renderer

        if csv is True:
            csv_renderer: Optional[Callable[[object], str]] = lambda r: r.as_csv()
        elif callable(csv):
            csv_renderer = csv
        else:
            csv_renderer = None

        def register(fn: Callable[..., object]) -> Callable[..., object]:
            if name in self._specs:
                raise ValueError(f"artifact {name!r} is already registered")
            self._specs[name] = ArtifactSpec(
                name=name,
                producer=fn,
                text=text_renderer,
                csv=csv_renderer,
                description=description,
            )
            return fn

        return register

    # -- lookup -------------------------------------------------------------
    def names(self) -> List[str]:
        """Registered artifact names, in registration order."""
        return list(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, name: str) -> ArtifactSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown artifact {name!r}; known: {', '.join(self._specs)}"
            ) from None

    # -- the on-disk render cache -------------------------------------------
    def attach_store(self, store) -> None:
        """Serve/persist rendered artifacts through a ``ResultStore``."""
        self._store = store

    def detach_store(self) -> None:
        self._store = None

    def _render_spec(self, name: str, seed: Optional[int], form: str) -> dict:
        # `repro fig3` and `repro fig3 --seed 2017` are the same render;
        # address both by the resolved seed.
        return {"artifact": name, "seed": default_seed(seed), "form": form}

    def _rendered(self, name: str, seed: Optional[int], form: str,
                  render: Callable[[], str]) -> str:
        if self._store is None:
            return render()
        spec = self._render_spec(name, seed, form)
        cached = self._store.get(spec)
        if isinstance(cached, str):
            return cached
        text = render()
        self._store.put(spec, text)
        return text

    # -- production ---------------------------------------------------------
    def result_for(self, name: str, seed: Optional[int] = None) -> object:
        """Produce the result object, or reuse the artifact's last one if
        it was produced for the same seed."""
        cached = self._results.get(name)
        if cached is not None and cached[0] == seed:
            return cached[1]
        # Free the previous seed's result before producing this one.
        del cached
        self._results.pop(name, None)
        result = self.get(name).producer(seed=seed)
        self._results[name] = (seed, result)
        return result

    def render(self, name: str, seed: Optional[int] = None) -> str:
        """The artifact's text form (table or evolution chart)."""
        spec = self.get(name)
        return self._rendered(
            name, seed, "text", lambda: spec.text(self.result_for(name, seed))
        )

    def render_csv(self, name: str, seed: Optional[int] = None) -> str:
        """The artifact's CSV form; raises for artifacts without one."""
        spec = self.get(name)
        if spec.csv is None:
            raise KeyError(f"artifact {name!r} has no CSV form")
        return self._rendered(
            name, seed, "csv", lambda: spec.csv(self.result_for(name, seed))
        )

    def clear_cache(self) -> None:
        """Drop the in-memory result cache (the public test hook)."""
        self._results.clear()


#: The process-wide registry ``python -m repro`` serves from.
REGISTRY = ArtifactRegistry()

#: Module-level decorator bound to the global registry.
artifact = REGISTRY.artifact

_BUILTIN_MODULES = (
    "repro.experiments.fig01_cr_vs_dmr",
    "repro.experiments.fig03_sync",
    "repro.experiments.fig04_05_evolution",
    "repro.experiments.fig06_07_async",
    "repro.experiments.fig08_heterogeneous",
    "repro.experiments.fig09_inhibitor",
    "repro.experiments.fig10_12_realapps",
    "repro.experiments.scalability",
    "repro.experiments.resilience",
)


def builtin_registry() -> ArtifactRegistry:
    """The global registry with every paper artifact loaded.

    Importing the experiment modules triggers their ``@artifact``
    registrations; the import order fixes the ``repro list`` order.
    """
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    return REGISTRY
