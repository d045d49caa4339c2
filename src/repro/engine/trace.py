"""Work accounting for query execution.

The executor does not measure host wall-clock time (which would make
every figure depend on the machine running the reproduction). Instead
every operator charges the work it performs to a :class:`WorkTrace`:
abstract CPU units and page-level I/O events. The virtualization layer
(:class:`repro.virt.perf.VMPerfModel`) converts a trace into simulated
seconds for a given resource allocation.

The CPU unit charges below are the *ground truth* of the simulation —
the executor's analogue of instructions retired. They are deliberately
richer than the optimizer's cost formulas (startup overheads, per-hit
buffer charges, hash and sort constants), so calibrating the optimizer
against measurements is a genuine fitting problem, as it is on real
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- CPU unit schedule --------------------------------------------------
# One "unit" is an abstract quantum of CPU work; the physical machine is
# rated in units/second. Relative magnitudes follow folk knowledge about
# row engines: touching a tuple costs ~10x a predicate step, hashing is
# a few predicate steps, etc.

#: Charged for every tuple an operator pulls from a scan.
CPU_TUPLE_UNITS = 120.0
#: Charged per primitive predicate/expression step (comparison,
#: arithmetic op, column fetch).
CPU_OPERATOR_UNITS = 12.0
#: Charged per tuple emitted through an index scan (descent amortized).
CPU_INDEX_TUPLE_UNITS = 60.0
#: Charged per byte examined by LIKE pattern matching.
CPU_LIKE_BYTE_UNITS = 10.0
#: Charged per tuple inserted into / probed against a hash table.
CPU_HASH_UNITS = 45.0
#: Charged per comparison during sorting.
CPU_SORT_COMPARE_UNITS = 18.0
#: Charged per tuple passed through an aggregation transition.
CPU_AGG_TRANSITION_UNITS = 30.0
#: Charged once when an operator starts (plan node startup).
CPU_OPERATOR_STARTUP_UNITS = 2_000.0
#: Charged per buffer-pool hit (locating + pinning a resident page).
CPU_BUFFER_HIT_UNITS = 25.0
#: Charged per page processed by a scan in addition to per-tuple work
#: (page header parsing, slot iteration).
CPU_PAGE_PROCESS_UNITS = 180.0

#: Ceiling under which double-precision floats represent every integer
#: exactly (see :meth:`WorkTrace.add_cpu_repeated`).
EXACT_CPU_LIMIT = float(2**53)


@dataclass
class WorkTrace:
    """Accumulated CPU and I/O work for one execution.

    Attributes are plain counters; :meth:`merge` combines traces from
    sub-executions (e.g. the statements of a workload).
    """

    cpu_units: float = 0.0
    seq_page_reads: int = 0
    random_page_reads: int = 0
    buffer_hits: int = 0
    page_writes: int = 0
    tuples_processed: int = 0
    # Instrumentation counters (do not add CPU by themselves): page
    # *requests* by access intent regardless of hit/miss, and the
    # fine-grained work categories calibration fits parameters to.
    seq_page_requests: int = 0
    random_page_requests: int = 0
    predicate_ops: int = 0
    like_bytes: int = 0
    index_tuples: int = 0

    # -- charging -------------------------------------------------------

    def add_cpu(self, units: float) -> None:
        """Charge raw CPU units."""
        if units < 0:
            raise ValueError("cannot charge negative CPU work")
        self.cpu_units += units

    def add_cpu_repeated(self, n: int, units: float) -> None:
        """Charge *units* *n* consecutive times.

        Operators count their per-row steps and charge them here. The
        result is the double the *n* additions land on: while the
        accumulator, *units* and the total are integers below
        :data:`EXACT_CPU_LIMIT` every partial sum is exact, so one
        multiply-and-add gets there; otherwise (a sort's fractional
        comparison charge came first) the additions are performed.
        """
        if n < 0 or units < 0:
            raise ValueError("cannot charge negative CPU work")
        cpu = self.cpu_units
        total = cpu + n * units
        if total < EXACT_CPU_LIMIT and cpu.is_integer() and units.is_integer():
            self.cpu_units = total
        else:
            for _ in range(n):
                cpu += units
            self.cpu_units = cpu

    def add_tuples(self, n: int, units_per_tuple: float = CPU_TUPLE_UNITS) -> None:
        """Count *n* tuples and charge each its per-tuple CPU work."""
        self.add_cpu_repeated(n, units_per_tuple)
        self.tuples_processed += n

    def add_seq_read(self, pages: int = 1) -> None:
        """Record *pages* sequential page reads from disk."""
        if pages < 0:
            raise ValueError("negative page count")
        self.seq_page_reads += pages

    def add_random_read(self, pages: int = 1) -> None:
        """Record *pages* random page reads from disk."""
        if pages < 0:
            raise ValueError("negative page count")
        self.random_page_reads += pages

    def add_buffer_hit(self, pages: int = 1) -> None:
        """Record page requests satisfied from the buffer pool."""
        if pages < 0:
            raise ValueError("negative page count")
        self.buffer_hits += pages
        self.cpu_units += pages * CPU_BUFFER_HIT_UNITS

    def add_page_write(self, pages: int = 1) -> None:
        """Record dirty pages written back."""
        if pages < 0:
            raise ValueError("negative page count")
        self.page_writes += pages

    # -- aggregate views ---------------------------------------------------

    @property
    def total_page_reads(self) -> int:
        """Physical page reads (sequential + random), excluding hits."""
        return self.seq_page_reads + self.random_page_reads

    @property
    def total_page_requests(self) -> int:
        """All page requests, hit or miss."""
        return self.total_page_reads + self.buffer_hits

    def hit_ratio(self) -> float:
        """Buffer hit ratio over all page requests (1.0 when no requests)."""
        requests = self.total_page_requests
        if requests == 0:
            return 1.0
        return self.buffer_hits / requests

    def merge(self, other: "WorkTrace") -> None:
        """Fold *other*'s counters into this trace."""
        self.cpu_units += other.cpu_units
        self.seq_page_reads += other.seq_page_reads
        self.random_page_reads += other.random_page_reads
        self.buffer_hits += other.buffer_hits
        self.page_writes += other.page_writes
        self.tuples_processed += other.tuples_processed
        self.seq_page_requests += other.seq_page_requests
        self.random_page_requests += other.random_page_requests
        self.predicate_ops += other.predicate_ops
        self.like_bytes += other.like_bytes
        self.index_tuples += other.index_tuples

    def copy(self) -> "WorkTrace":
        """An independent copy of the counters."""
        return WorkTrace(
            cpu_units=self.cpu_units,
            seq_page_reads=self.seq_page_reads,
            random_page_reads=self.random_page_reads,
            buffer_hits=self.buffer_hits,
            page_writes=self.page_writes,
            tuples_processed=self.tuples_processed,
            seq_page_requests=self.seq_page_requests,
            random_page_requests=self.random_page_requests,
            predicate_ops=self.predicate_ops,
            like_bytes=self.like_bytes,
            index_tuples=self.index_tuples,
        )

    def __repr__(self) -> str:
        return (
            f"WorkTrace(cpu={self.cpu_units:.0f}u, seq={self.seq_page_reads}, "
            f"rand={self.random_page_reads}, hits={self.buffer_hits}, "
            f"tuples={self.tuples_processed})"
        )
