"""Two cache levels: what a run shares, and what one potential owns.

One momentum point of the paper's (k, E) grid solves hundreds of energy
points against the *same* Hamiltonian, and a Schroedinger-Poisson run
solves that grid once per iteration against the *same* leads: the
contact cells are potential-frozen, so ``with_potential`` passes the
lead blocks through untouched and Sigma^RB(E) does not change between
iterations, bias points, or the SCF loop and the final spectrum.

:class:`DeviceFamily` holds everything about ``(structure, basis,
num_cells, k-grid)`` that does not depend on the potential - the
energy-independent set-up of :class:`~repro.obc.polynomial.PolynomialFamily`
one level up:

* the image-resolved H_R / S_R, built once, and the potential-free
  ``DeviceMatrices`` assembled from them per k-point;
* one :class:`KPointSetup` per k-point: S's blocks and the
  :class:`~repro.linalg.EnergyOperator` that builds ``A(E)`` from them,
  the lead's :class:`~repro.obc.polynomial.PolynomialFamily` and the
  :class:`~repro.linalg.BlockStructure` of every ``A(E)``;
* one :class:`BoundaryMemo` of :class:`OpenBoundary` results keyed
  ``(lead content fingerprint, energy, method, sorted kwargs)``, whose
  lifetime is the family's, i.e. the run's - never the process's;
* the Gamma lead's band scan, which every energy grid of the run reads.

``family.caches(potential)`` hands out one :class:`DeviceCache` per
k-point for that potential; they read and fill the family's memo.  A
``DeviceCache`` hoists what one potential fixes out of the energy loop:

* ``kept_blocks()`` cuts H's blocks where S is non-zero out of the
  potential's H once - with the shared energy-free blocks, one H-sized
  set, not H, S and A side by side;
* ``a_matrix(E)`` is one axpy per kept block (the diagonal for an
  orthogonal basis, every block for a non-orthogonal one); where S is
  zero, ``A(E)`` is ``E*0 - H``, built once per k-point and sign class
  of E and shared by every energy and every potential.  Every ``A(E)``
  carries the k-point's :class:`~repro.linalg.BlockStructure` -
  coupling support and Hermiticity of ``E*S - H``, worked out from
  ``(H, S)`` the first time a solver asks (neither depends on the
  energy or on the potential);
* ``polynomial(E)`` reuses the lead's ``PolynomialFamily`` so the
  per-energy PolynomialEVP is one subtraction per coefficient plus the
  Schur reduction onto the family's interface orbitals (index sets
  worked out once per lead);
* ``boundary(E, method, ...)`` shares :class:`OpenBoundary` results
  between callers hitting the same (lead, energy, method, kwargs).

A ``DeviceCache`` made without a family (``DeviceCache(device)``) owns a
private memo and :class:`KPointSetup`: the same code path, shared with
nobody.

Caching contract: everything handed out is **shared and read-only**:
S's blocks (zero-stride views and the process's shared identities
where S = I), the energy-free blocks of ``A(E)`` and the kept H blocks
carry ``writeable=False``, so a consumer that writes into one raises
instead of corrupting the next energy.  None of the built-in solvers
writes into its input blocks (``assemble_t`` copies the two corner
blocks it modifies); ``tests/test_energy_operator.py`` drives each of
them over such a cache.  Bitwise equivalence with the uncached path holds
because extraction, the axpy and the OBC solves are deterministic and
performed on identical inputs.  A cache is valid for exactly one
:class:`~repro.hamiltonian.device.DeviceMatrices` instance; anything
producing new matrices (``with_potential``) needs a new cache from the
same family.

All memoization is lock-guarded: one cache, and one family's memo, may
be shared by the threads of a :class:`~repro.parallel.ThreadTaskRunner`
solving different energies.  Two threads that miss the same key both
solve it; the first result published is the one everybody gets.
"""

from __future__ import annotations

import itertools
import os
import threading

from repro.cache.keys import lead_content_hash
from repro.hamiltonian import transverse_k_grid
from repro.hamiltonian.device import device_at_k, real_space_device
from repro.linalg import (BlockStructure, EnergyOperator, block_support,
                          stored_nbytes)
from repro.linalg.assembly import freeze
from repro.obc.polynomial import PolynomialFamily
from repro.observability.spans import current_tracer
from repro.pipeline.registry import OBC_METHODS
from repro.utils.errors import ConfigurationError


class BoundaryMemo:
    """Lock-guarded :class:`OpenBoundary` memo shared by a run's caches.

    Keys are ``(lead content fingerprint, energy, method, sorted
    kwargs)``.  The first value published under a key wins; a later
    caller publishing under that key gets it back, so every caller
    holds the identical object.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            return self._entries.get(key)

    def publish(self, key, value):
        with self._lock:
            return self._entries.setdefault(key, value)


class KPointSetup:
    """What the caches of one k-point share, whatever their potential.

    Built from the k-point's potential-free device: the
    :class:`~repro.linalg.EnergyOperator` (S's blocks and the
    energy-free blocks of ``A(E)``), the lead's
    :class:`~repro.obc.polynomial.PolynomialFamily`, the
    :class:`~repro.linalg.BlockStructure` of every ``A(E)`` and the
    lead's content fingerprint - each on first use, under a lock.
    A potential changes H only where S has a stored entry, and the
    device matrices come out of sparse sums (``assemble_k``,
    ``with_potential``), which store no zero: so H's blocks where S is
    empty, and the energy-free blocks built from them, are bitwise the
    same at every potential.
    """

    def __init__(self, device):
        self.device = device
        self._lock = threading.Lock()
        self._operator = None
        self._polynomials = None
        self._lead_key = None
        #: coupling support and Hermiticity of every ``A(E)``, real E:
        #: spanned by the potential-free ``(H, S)`` - a potential only
        #: adds multiples of S's entries to H - and worked out from
        #: them, extracted for that one evaluation, when a solver first
        #: asks
        self.structure = BlockStructure(
            lambda: (device.h_blocks(), self.operator().s))

    def operator(self) -> EnergyOperator:
        with self._lock:
            if self._operator is None:
                s = self.device.s_blocks()
                freeze(s.blocks())
                self._operator = EnergyOperator(s, self.device.hmat)
            return self._operator

    def polynomials(self) -> PolynomialFamily:
        with self._lock:
            if self._polynomials is None:
                lead = self.device.lead
                self._polynomials = PolynomialFamily(lead.h_cells,
                                                     lead.s_cells)
            return self._polynomials

    def lead_key(self) -> str:
        with self._lock:
            if self._lead_key is None:
                self._lead_key = lead_content_hash(self.device.lead)
            return self._lead_key


class DeviceCache:
    """Read-through cache wrapping one ``DeviceMatrices``.

    ``memo`` and ``setup`` are the potential-invariant parts a
    :class:`DeviceFamily` shares between its caches; a cache made
    without them owns private ones (``setup`` then built from
    ``device``).
    """

    def __init__(self, device, memo: BoundaryMemo | None = None,
                 setup: KPointSetup | None = None):
        self.device = device
        self._lock = threading.Lock()
        self._setup = setup if setup is not None else KPointSetup(device)
        self._memo = memo if memo is not None else BoundaryMemo()
        self._kept = None
        self._boundary_support = None

    # -- delegated geometry (so a cache can stand in for the device) -------

    @property
    def lead(self):
        return self.device.lead

    @property
    def num_blocks(self) -> int:
        return self.device.num_blocks

    @property
    def block_sizes(self):
        return self.device.block_sizes

    @property
    def num_orbitals(self) -> int:
        return self.device.num_orbitals

    # -- cached products ---------------------------------------------------

    def operator(self) -> EnergyOperator:
        """The k-point's :class:`~repro.linalg.EnergyOperator`."""
        return self._setup.operator()

    def kept_blocks(self) -> list:
        """H's blocks where S is non-zero (``operator().touched``), cut
        from this cache's device once, read-only: with the operator's
        energy-free blocks, all ``A(E)`` is built from."""
        op = self.operator()
        with self._lock:
            if self._kept is None:
                self._kept = freeze(op.h_blocks(self.device.hmat,
                                                op.touched))
            return self._kept

    def h_blocks(self):
        """H as block-tridiagonal, cut afresh: the cache keeps only
        :meth:`kept_blocks`."""
        return self.device.h_blocks()

    def s_blocks(self):
        """S's blocks, shared by the k-point's caches, read-only."""
        return self.operator().s

    def stored_nbytes(self) -> int:
        """Bytes of the blocks ``A(E)`` is built from besides S: the
        kept H blocks and the energy-free blocks of every sign class met
        so far (one H-sized set for energies of one class)."""
        return stored_nbytes(self.kept_blocks()) \
            + self.operator().stored_free_nbytes()

    def warm(self) -> None:
        """Materialize the block extractions (the PREPARE stage body)."""
        self.kept_blocks()

    def structure(self) -> BlockStructure:
        """Coupling support and Hermiticity of every ``A(E)``, real E:
        the k-point's, worked out once when a solver first reads a
        fact."""
        return self._setup.structure

    def boundary_support(self) -> tuple:
        """``(rows_first, rows_last)``: the rows of the first and last
        device block that Sigma^RB and Inj can touch at any energy.

        Sigma_L and the left injection are ``T10 @ ...``, Sigma_R and
        the right one ``T01 @ ...`` with ``T01 = E*S01 - H01``, so they
        vanish outside the column / row support of the lead's folded
        coupling ``(H01, S01)`` - which the contact cells fix, not the
        energy or the potential.
        """
        with self._lock:
            if self._boundary_support is None:
                lead = self.device.lead
                rows, cols = block_support(lead.h01, lead.s01)
                self._boundary_support = (cols, rows)
            return self._boundary_support

    def is_complex(self) -> bool:
        """Whether ``A(E)`` is complex128 rather than float64 (real H
        and S; the energies of a cache are real): the dtype SplitSolve's
        Step 1 runs in, and is priced in."""
        return self.operator().scalars(0.0).dtype.kind == "c"

    def a_matrix(self, energy: float):
        """A(E) = E*S - H: :meth:`a_matrix_batch` of one energy."""
        return self.a_matrix_batch([energy]).point(0)

    def a_matrix_batch(self, energies):
        """Stacked A(E) = E*S - H for a whole energy vector, one pass.

        Returns a :class:`~repro.linalg.BatchedBlockTridiag` whose slice
        ``j`` is bitwise identical to ``a_matrix(energies[j])``: one
        broadcast axpy per kept block, and the operator's shared
        energy-free blocks everywhere else
        (:meth:`~repro.linalg.EnergyOperator.assemble`).  Every ``A(E)``
        carries the cache's :meth:`structure`.
        """
        return self.operator().assemble([float(e) for e in energies],
                                        self.kept_blocks(),
                                        structure=self.structure())

    def polynomial(self, energy: float):
        """The lead PolynomialEVP at ``energy``, via the shared family."""
        return self._setup.polynomials().at_energy(energy)

    def _memo_key(self, energy: float, method: str, kwargs: dict):
        """``(lead fingerprint, energy, method, sorted kwargs)``; ``None``
        when the kwargs are unhashable, which disables sharing for that
        call."""
        try:
            kw_key = tuple(sorted(kwargs.items()))
            hash(kw_key)
        except TypeError:
            return None
        return (self._setup.lead_key(), energy, method, kw_key)

    def boundary(self, energy: float, method: str, **kwargs):
        """OpenBoundary at (energy, method, kwargs), shared across callers."""
        return self.lookup_boundary(energy, method, **kwargs)[0]

    def lookup_boundary(self, energy: float, method: str, **kwargs):
        """``(OpenBoundary, reused)`` at (energy, method, kwargs).

        ``reused`` says the memo already held it and nothing was solved.
        Mode-based methods (registry meta ``uses_pevp``) receive the
        family-built PolynomialEVP.  Unhashable kwargs disable sharing
        for that call but still compute correctly.
        """
        fn = OBC_METHODS.get(method)
        uses_pevp = bool(OBC_METHODS.meta(method).get("uses_pevp"))
        key = self._memo_key(float(energy), method, kwargs)
        tracer = current_tracer()
        if key is not None:
            hit = self._memo.get(key)
            if hit is not None:
                if tracer is not None:
                    tracer.metrics.counter("obc_point_cache_hits").inc()
                return hit, True
        if tracer is not None:
            tracer.metrics.counter("obc_point_cache_misses").inc()
        if uses_pevp:
            ob = fn(self.device.lead, energy,
                    pevp=self.polynomial(energy), **kwargs)
        else:
            ob = fn(self.device.lead, energy, **kwargs)
        if key is not None:
            ob = self._memo.publish(key, ob)
        return ob, False


_FAMILY_TOKENS = itertools.count()


class DeviceFamily:
    """Potential-invariant set-up of one (structure, basis, cells, k-grid).

    Built once per run by whichever driver owns the run
    (:func:`~repro.core.production.run_production` for a sweep,
    :func:`~repro.poisson.scf.schroedinger_poisson` for its loop,
    :func:`~repro.core.runner.compute_spectrum` for a standalone
    spectrum) and handed down, like ``task_runner``.  It dies with that
    call: there is no process-wide registry of families.

    Memory: the memo holds one ``OpenBoundary`` per distinct
    (k, E, method, kwargs) the run asks for - the union of its energy
    grids, independent of SCF iterations and bias points.
    """

    def __init__(self, structure, basis, num_cells: int, num_k: int = 1):
        self.structure = structure
        self.basis = basis
        self.num_cells = int(num_cells)
        self.num_k = int(num_k)
        self.kgrid = transverse_k_grid(num_k)
        #: slab order and H_R / S_R, shared by every k-point
        self.real_space = real_space_device(structure, basis, num_cells)
        #: the potential-free device of every k-point
        self.devices = [device_at_k(self.real_space, (0.0, kz))
                        for kz, _w in self.kgrid]
        self._gamma = None
        self.memo = BoundaryMemo()
        self._setups = [KPointSetup(d) for d in self.devices]
        #: the Gamma lead's band scan, filled by the first energy grid
        #: (:func:`repro.core.energygrid.family_energy_grid`)
        self.lead_bands = None
        #: names this family in picklable unit specs, so a worker process
        #: keeps one device and one memo per family, not per spectrum
        self.token = f"{os.getpid()}:{next(_FAMILY_TOKENS)}"

    def gamma_device(self):
        """The potential-free device at k = 0: the SCF loop and the
        production sweep take their energy grids (its lead) and the
        Mulliken overlap from it whatever the k-grid.  It is the first
        k-point of every odd grid; an even grid assembles it from the
        shared H_R / S_R on first use."""
        if self._gamma is None:
            self._gamma = self.devices[0] if self.kgrid[0, 0] == 0.0 \
                else device_at_k(self.real_space)
        return self._gamma

    def cache(self, ik: int, potential=None) -> DeviceCache:
        """The :class:`DeviceCache` of k-point ``ik`` at ``potential``."""
        dev = self.devices[ik]
        if potential is not None:
            dev = dev.with_potential(potential)
        return DeviceCache(dev, memo=self.memo, setup=self._setups[ik])

    def caches(self, potential=None) -> list:
        """One :class:`DeviceCache` per k-point, all at ``potential``."""
        return [self.cache(ik, potential)
                for ik in range(len(self.devices))]


def as_family(family, structure, basis, num_cells: int,
              num_k: int) -> DeviceFamily:
    """``family`` if it was built for exactly these inputs (anything else
    is a different device: raise), a new private one when ``None``."""
    if family is None:
        return DeviceFamily(structure, basis, num_cells, num_k)
    if (structure is not family.structure or basis is not family.basis
            or int(num_cells) != family.num_cells
            or int(num_k) != family.num_k):
        raise ConfigurationError(
            "device family was built for a different "
            "(structure, basis, num_cells, num_k)")
    return family


def as_cache(device_or_cache) -> DeviceCache:
    """Wrap a DeviceMatrices in a cache; pass an existing cache through."""
    if isinstance(device_or_cache, DeviceCache):
        return device_or_cache
    return DeviceCache(device_or_cache)
