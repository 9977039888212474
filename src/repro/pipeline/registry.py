"""Solver and OBC-method registries: the pipeline's extension points.

The production flow of the paper is a fixed staged pipeline, but the
*implementations* plugged into each stage vary — four linear solvers
(Fig. 8), four boundary-condition algorithms (Section 3A), and whatever a
downstream user brings along.  Instead of string ``if/elif`` chains buried
in the solve path, each family lives in a :class:`Registry`:

* ``SOLVERS`` — callables ``fn(a, ob, inj, *, num_partitions, info)
  -> psi`` solving ``(A - Sigma^RB) psi = Inj`` for a block
  tridiagonal ``A`` and an :class:`~repro.obc.selfenergy.OpenBoundary`.
  ``info`` is an optional dict the solver may fill with diagnostics
  (e.g. SplitSolve's per-phase times), surfaced on the stage trace.
* ``OBC_METHODS`` — callables ``fn(lead, energy, **kwargs) ->
  OpenBoundary``.  Methods registered with ``uses_pevp=True`` accept a
  ``pevp=`` keyword so a per-k cache can hand them a pre-assembled
  :class:`~repro.obc.polynomial.PolynomialEVP`.

Third-party extensions register without editing any core module::

    from repro.pipeline import register_solver

    @register_solver("my-solver")
    def my_solver(a, ob, inj, *, num_partitions=1, info=None):
        ...

The special solver name ``"auto"`` is resolved by
:func:`resolve_solver_name` through the flop cost models of
:mod:`repro.perfmodel.costmodel` — the OMEN-style choice between
SplitSolve (GPU) and RGF (CPU) from block count, block size, and
right-hand-side count.
"""

from __future__ import annotations

from repro.utils.errors import ConfigurationError

#: Sentinel solver name resolved through the cost model at solve time.
AUTO = "auto"


class Registry:
    """A named family of interchangeable implementations.

    Entries are registered under a string name with optional metadata and
    looked up with :meth:`get`; unknown names raise
    :class:`~repro.utils.errors.ConfigurationError` listing what is
    available.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict = {}
        self._meta: dict = {}

    def register(self, name: str, *, overwrite: bool = False, **meta):
        """Decorator registering a callable under ``name``.

        Re-registering an existing name raises unless ``overwrite=True``
        (guards against two plugins silently fighting over a name).
        """
        name = str(name)

        def deco(fn):
            if name in self._entries and not overwrite:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered; pass "
                    f"overwrite=True to replace it")
            self._entries[name] = fn
            self._meta[name] = dict(meta)
            return fn

        return deco

    def get(self, name: str):
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(sorted(self._entries)) or '(none)'}") from None

    def meta(self, name: str) -> dict:
        """Metadata attached at registration (empty dict if none)."""
        self.get(name)
        return dict(self._meta[name])

    def names(self) -> list:
        return sorted(self._entries)

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests tearing down extensions)."""
        self._entries.pop(name, None)
        self._meta.pop(name, None)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(sorted(self._entries))

    def __repr__(self):
        return f"Registry({self.kind!r}, entries={self.names()})"


#: The pipeline registries.  Built-in entries are registered by
#: :mod:`repro.solvers.dispatch` and :mod:`repro.obc.selfenergy`.
SOLVERS = Registry("solver")
OBC_METHODS = Registry("OBC method")


def register_solver(name: str, *, overwrite: bool = False, **meta):
    """Decorator: add a linear solver to the pipeline's SOLVE stage."""
    return SOLVERS.register(name, overwrite=overwrite, **meta)


def register_obc_method(name: str, *, overwrite: bool = False, **meta):
    """Decorator: add a boundary method to the pipeline's OBC stage."""
    return OBC_METHODS.register(name, overwrite=overwrite, **meta)


def get_solver(name: str):
    return SOLVERS.get(name)


def get_obc_method(name: str):
    return OBC_METHODS.get(name)


def resolve_solver_name(name: str, *, num_blocks: int, block_size: int,
                        num_rhs: int, num_partitions: int = 1,
                        hermitian: bool = False,
                        coupling_widths=None, boundary_widths=None,
                        is_complex: bool = True) -> str:
    """Map ``"auto"`` to a concrete registered solver via the cost model.

    Explicit names pass through unchanged (after a registry existence
    check, so a typo fails before any work is done).  The widths are the supports SplitSolve would
    run on and ``is_complex`` the dtype of its A(E), for its price.
    """
    if name == AUTO:
        from repro.perfmodel.costmodel import choose_solver
        name = choose_solver(num_blocks=num_blocks, block_size=block_size,
                             num_rhs=num_rhs, num_partitions=num_partitions,
                             hermitian=hermitian,
                             coupling_widths=coupling_widths,
                             boundary_widths=boundary_widths,
                             is_complex=is_complex)
    SOLVERS.get(name)
    return name
