"""Machine-independent cost accounting.

The paper's intrinsic quantities are *space* (stored tuples) and *answering
time* (work done in the online phase).  Wall-clock time in pure Python is a
misleading proxy for either, so the engine threads every hash probe, tuple
scan, and tuple store through a :class:`Counters` instance.  Benchmarks report
these counts next to (secondary) wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counters:
    """Mutable bundle of operation counters.

    Attributes:
        probes: number of hash-table lookups performed.
        scans: number of tuples read by iterating a relation or index bucket.
        stores: number of tuples written into a materialized structure.
        joins_emitted: number of tuples emitted by join operators.
    """

    probes: int = 0
    scans: int = 0
    stores: int = 0
    joins_emitted: int = 0
    notes: dict = field(default_factory=dict)

    def reset(self) -> None:
        """Zero every counter (notes included)."""
        self.probes = 0
        self.scans = 0
        self.stores = 0
        self.joins_emitted = 0
        self.notes = {}

    @property
    def online_work(self) -> int:
        """Total online work: probes plus scans plus emitted join tuples."""
        return self.probes + self.scans + self.joins_emitted

    def snapshot(self) -> dict:
        """Return a plain-dict copy of the counter values."""
        return {
            "probes": self.probes,
            "scans": self.scans,
            "stores": self.stores,
            "joins_emitted": self.joins_emitted,
            "online_work": self.online_work,
        }

    def delta_since(self, snapshot: "Counters") -> "Counters":
        """The work done since ``snapshot`` was taken (``self - snapshot``).

        The monotone way to attribute per-probe work to a shared counter
        bundle: take a :meth:`copy` before the probe, diff after.  Never
        :meth:`reset` a shared bundle mid-stream — concurrent readers
        (per-shard serving counters, the observability layer) rely on the
        totals only ever growing.
        """
        return self - snapshot

    def __sub__(self, other: "Counters") -> "Counters":
        return Counters(
            probes=self.probes - other.probes,
            scans=self.scans - other.scans,
            stores=self.stores - other.stores,
            joins_emitted=self.joins_emitted - other.joins_emitted,
        )

    def __iadd__(self, other: "Counters") -> "Counters":
        """Accumulate ``other``'s operation counts into this bundle."""
        self.probes += other.probes
        self.scans += other.scans
        self.stores += other.stores
        self.joins_emitted += other.joins_emitted
        return self

    def copy(self) -> "Counters":
        return Counters(
            probes=self.probes,
            scans=self.scans,
            stores=self.stores,
            joins_emitted=self.joins_emitted,
            notes=dict(self.notes),
        )


#: Process-wide default counter bundle.  Operators accept an explicit
#: ``counters=`` argument; when omitted they fall back to this instance.
global_counters = Counters()


def reset_counters() -> Counters:
    """Reset and return the process-wide counter bundle."""
    global_counters.reset()
    return global_counters
