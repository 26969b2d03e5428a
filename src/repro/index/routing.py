"""Cluster-routed bank selection: IVF-style sublinear search at scale.

Every other backend scans *all* banks per query.  That is faithful to a
single CAM tile but not to how a multi-bank FeFET deployment reaches
millions of rows: the multi-bit CAM literature (arxiv 2011.07095)
organises arrays into banks and activates only the few a query can win
in.  :class:`RoutedBackend` reproduces that organisation in software:

1. **cluster** — k-means over the stored integer codes, with the
   assignment step riding the same exact integer machinery as every
   search (:class:`repro.core.kernel.LUTKernel` over the metric's
   per-element distance table);
2. **pin** — each cluster owns its own sharded :class:`FerexBackend`,
   so cluster membership *is* bank placement, decided at ``add`` /
   ``compact`` time;
3. **route** — a search first scores the query against the centroids
   (one tiny kernel evaluation) and only the ``top_p`` nearest
   clusters' banks run the real search.  The scan cost per query drops
   from O(all banks) to O(top_p banks) — sublinear in the stored set
   for a fixed cluster geometry.

Within the selected banks the existing search machinery runs
unchanged, in either of two inner modes:

* ``inner="flat"`` (default) — each probed cluster answers through the
  full-precision LTA path (:meth:`FerexBackend.search`) and candidates
  merge on (analog distance, global position), exactly like the flat
  backend's bank merge.  With ``top_p >= n_clusters`` every bank is
  probed and results are **bit-identical to flat search** (the
  property test sweeps metrics x bits, including after remove /
  compact / reconfigure).
* ``inner="tiered"`` — probed clusters are voltaged at ``coarse_bits``
  and nominate ``refine_factor * k`` candidates via the shortlist
  readout; an exact full-precision rescore decides, mirroring
  :class:`TieredBackend` within the routed subset.

Routing is approximate exactly insofar as a true neighbor lives in an
unprobed cluster.  The accounting is honest: every search records
:attr:`RoutedBackend.last_routing` (probed clusters, scanned-row
fraction, forced probe expansions), ``benchmarks/bench_routing.py``
tracks recall@10 against exhaustive search, and a query whose ``top_p``
clusters hold fewer than ``k`` live rows automatically widens its probe
set in routing order — the backend never pads a result row it could
have answered.

Streaming ingest at scale rides two maintenance behaviours:

* **watermark compaction** — ``deactivate`` tracks each cluster's
  tombstone ratio and re-programs any cluster crossing
  ``compact_watermark`` in the background of the write (global
  positions are untouched; only cluster-local rows move), so a
  long-lived index under churn never accumulates dead rows that banks
  keep scanning;
* **deterministic re-pinning** — ``rebuild`` (the index ``compact``)
  and :meth:`reconfigure_routing` re-train and re-pin from the live
  set.

Persistence discipline
----------------------
Centroids are *derived but not re-derivable* state: an index grown
incrementally trained on its first batch, while a replica rebuilt from
a snapshot would train on the whole set.  The backend therefore exports
its trained centroids through :meth:`export_options` (folded into the
index's ``backend_options`` metadata by ``save``/``export_state``), and
adopting a snapshot assigns every row to its nearest *exported*
centroid — the same rule every incremental ``add`` used, so replicas
(including shared-memory pool workers) route and answer exactly like
the publisher.

Device variation note: per-row variation draws are keyed by physical
placement, which routing reassigns on every re-pin; cluster banks
therefore run ideal devices (the same choice :class:`TieredBackend`
makes for its coarse tier), keeping routed answers deterministic and
the ``top_p = n_clusters`` flat parity exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.config import BankConfig, as_bank_config, quantize_codes
from ..core.kernel import LUTKernel
from .backends import BACKENDS, FerexBackend, metric_element_lut

#: Global-position sentinel for unfilled candidate slots: orders after
#: every real position in the lexsort merge.
_PAD_POSITION = np.int64(2**62)


def train_centroids(
    vectors: np.ndarray,
    n_clusters: int,
    config: BankConfig,
    iters: int = 8,
    seed: int = 0,
) -> np.ndarray:
    """k-means over integer codes under ``config``'s metric — exact
    integer assignment distances via :class:`LUTKernel`, centroid
    updates snapped back onto the code alphabet.

    Returns ``(m, dims)`` integer centroids with
    ``m = min(n_clusters, len(vectors))``.  Deterministic under
    ``seed`` (initial picks and empty-cluster reseeds); assignment ties
    break to the lowest cluster index.
    """
    vectors = np.asarray(vectors, dtype=int)
    if vectors.ndim != 2 or not len(vectors):
        raise ValueError("training needs a (n, dims) code matrix")
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    m = min(int(n_clusters), len(vectors))
    picks = rng.choice(len(vectors), size=m, replace=False)
    centroids = vectors[np.sort(picks)].copy()
    hi = config.n_values - 1
    for _ in range(max(1, int(iters))):
        assign = assign_codes(vectors, centroids, config)
        sums = np.zeros((m, vectors.shape[1]), dtype=np.int64)
        np.add.at(sums, assign, vectors)
        counts = np.bincount(assign, minlength=m)
        empty = counts == 0
        if empty.any():
            # Reseed dead centroids onto random members; the update
            # below then leaves them exactly on those codes.
            reseeds = rng.choice(len(vectors), size=int(empty.sum()))
            sums[empty] = vectors[reseeds]
            counts[empty] = 1
        updated = np.clip(
            np.rint(sums / counts[:, None]).astype(int), 0, hi
        )
        if np.array_equal(updated, centroids):
            break
        centroids = updated
    return centroids


def assign_codes(
    vectors: np.ndarray, centroids: np.ndarray, config: BankConfig
) -> np.ndarray:
    """Nearest-centroid assignment under the config's exact metric
    (ties to the lowest cluster index) — one kernel evaluation."""
    table = _routing_kernel(centroids, config).scores(
        np.asarray(vectors, dtype=np.int64)
    )
    return np.argmin(table, axis=1)


def _routing_kernel(centroids: np.ndarray, config: BankConfig) -> LUTKernel:
    """The centroid-scoring kernel: stored codes are the centroids, the
    LUT is the metric's per-element distance table — the same shape the
    GPU backend executes, tiny here (``n_clusters`` rows)."""
    return LUTKernel(
        np.asarray(centroids, dtype=np.int64),
        metric_element_lut(config.resolved, config.bits),
    )


@dataclass
class _Cluster:
    """One routing cell: a sharded FeReX backend plus the mapping from
    its local rows back to global insertion positions."""

    sub: FerexBackend
    #: (written,) global position of each local row, strictly
    #: ascending — the invariant that makes local (current, position)
    #: tie-breaks equal global ones.
    globals_: np.ndarray
    #: (written,) does the local row still compete?
    alive: np.ndarray

    @property
    def written(self) -> int:
        return len(self.globals_)

    @property
    def n_live(self) -> int:
        return int(self.alive.sum())

    @property
    def n_dead(self) -> int:
        return self.written - self.n_live


class RoutedBackend:
    """Cluster-routed sharded search: k-means routing over per-cluster
    :class:`FerexBackend` banks.

    Parameters beyond the common backend set
    ----------------------------------------
    n_clusters:
        Routing cells to train (clamped to the training-set size).
    top_p:
        Clusters probed per query (IVF's ``nprobe``).  Automatically
        widened per query when the probed clusters hold fewer than
        ``k`` live rows.
    routing_seed / kmeans_iters / train_rows:
        k-means determinism knobs: RNG seed, Lloyd iterations, and the
        insertion-order prefix size training sees.
    compact_watermark:
        Tombstone ratio beyond which ``deactivate`` re-programs a
        cluster in the background of the write.
    inner:
        ``"flat"`` (full-precision LTA within probed banks) or
        ``"tiered"`` (coarse ``coarse_bits`` banks + exact rescore of
        ``refine_factor * k`` nominees).
    centroids:
        Trained centroids to adopt (the persistence path; see
        :meth:`export_options`).  Ignored when they do not fit the
        configured alphabet — e.g. after ``reconfigure`` to fewer
        bits — in which case training re-runs on the next ``add``.
    seed:
        Accepted for registry-signature compatibility; cluster banks
        run ideal devices regardless (see the module docstring).
    """

    name = "routed"

    def __init__(
        self,
        metric: "str | BankConfig",
        bits: Optional[int] = None,
        dims: Optional[int] = None,
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
        n_clusters: int = 16,
        top_p: int = 4,
        routing_seed: int = 0,
        kmeans_iters: int = 8,
        train_rows: int = 32768,
        compact_watermark: float = 0.35,
        inner: str = "flat",
        coarse_bits: int = 1,
        refine_factor: int = 8,
        centroids: Optional[list] = None,
    ):
        if dims is None:
            raise ValueError("dims is required")
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if top_p < 1:
            raise ValueError("top_p must be >= 1")
        if kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if train_rows < 1:
            raise ValueError("train_rows must be >= 1")
        if not 0.0 < compact_watermark <= 1.0:
            raise ValueError("compact_watermark must be in (0, 1]")
        if inner not in ("flat", "tiered"):
            raise ValueError(
                f"unknown inner mode {inner!r}; known: 'flat', 'tiered'"
            )
        if coarse_bits < 1:
            raise ValueError("coarse_bits must be >= 1")
        if refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")
        self.config = as_bank_config(metric, bits)
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        self.n_clusters = int(n_clusters)
        self.top_p = int(top_p)
        self.routing_seed = int(routing_seed)
        self.kmeans_iters = int(kmeans_iters)
        self.train_rows = int(train_rows)
        self.compact_watermark = float(compact_watermark)
        self.inner = inner
        self.coarse_bits = min(int(coarse_bits), self.config.bits)
        self.refine_factor = int(refine_factor)
        #: Auto-compactions performed by the tombstone watermark.
        self.n_auto_compactions = 0
        #: Accounting for the most recent search (None before one):
        #: probed clusters, scanned rows, scan fraction, expansions.
        self.last_routing: Optional[dict] = None
        # Rescore / re-pin mirror of everything physically written
        # (int16: values are code levels), plus the global -> (cluster,
        # local row) maps.  -1 in the local map marks a tombstone whose
        # row a watermark compaction already reclaimed.
        self._vectors = np.empty((0, dims), dtype=np.int16)
        self._alive = np.empty(0, dtype=bool)
        self._cluster_of = np.empty(0, dtype=np.int32)
        self._local_of = np.empty(0, dtype=np.int64)
        self._centroids: Optional[np.ndarray] = None
        self._clusters: List[_Cluster] = []
        self._router: Optional[LUTKernel] = None
        if centroids is not None:
            adopted = np.asarray(centroids, dtype=int)
            if (
                adopted.ndim == 2
                and adopted.shape[1] == dims
                and len(adopted)
                and adopted.min() >= 0
                and adopted.max() < self.config.n_values
            ):
                self._install_centroids(adopted)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_banks(self) -> int:
        """Physical banks across every cluster."""
        return sum(cluster.sub.n_banks for cluster in self._clusters)

    @property
    def n_trained_clusters(self) -> int:
        """Routing cells actually trained (0 before the first add)."""
        return len(self._clusters)

    @property
    def centroids(self) -> Optional[np.ndarray]:
        """Trained (m, dims) centroid codes; None before training."""
        if self._centroids is None:
            return None
        return self._centroids.copy()

    def cluster_sizes(self) -> np.ndarray:
        """(m,) live rows per cluster (the routing-fanout histogram)."""
        return np.array(
            [cluster.n_live for cluster in self._clusters], dtype=np.int64
        )

    def export_options(self) -> dict:
        """The backend's live routing configuration as JSON-able
        ``backend_options`` — including the trained centroids, which a
        snapshot cannot re-derive (training depended on insertion
        history).  ``FerexIndex`` folds this into persistence metadata
        so replicas route exactly like the exporter."""
        return {
            "n_clusters": self.n_clusters,
            "top_p": self.top_p,
            "routing_seed": self.routing_seed,
            "kmeans_iters": self.kmeans_iters,
            "train_rows": self.train_rows,
            "compact_watermark": self.compact_watermark,
            "inner": self.inner,
            "coarse_bits": self.coarse_bits,
            "refine_factor": self.refine_factor,
            "centroids": (
                None
                if self._centroids is None
                else self._centroids.tolist()
            ),
        }

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def _sub_config(self) -> BankConfig:
        if self.inner == "tiered":
            return BankConfig(self.config.metric, self.coarse_bits)
        return BankConfig(self.config.metric, self.config.bits)

    def _sub_codes(self, vectors: np.ndarray) -> np.ndarray:
        """Codes as a cluster bank stores them (quantised for the
        tiered inner mode)."""
        sub_bits = self._sub_config().bits
        if sub_bits == self.config.bits:
            return np.asarray(vectors, dtype=int)
        return quantize_codes(
            np.asarray(vectors, dtype=int), self.config.bits, sub_bits
        )

    def _install_centroids(self, centroids: np.ndarray) -> None:
        """Adopt trained centroids: one empty cluster per centroid."""
        self._centroids = np.asarray(centroids, dtype=int)
        self._router = None
        config = self._sub_config()
        self._clusters = [
            _Cluster(
                sub=FerexBackend(
                    config,
                    dims=self.dims,
                    bank_rows=self.bank_rows,
                    encoder=self.encoder,
                    seed=None,
                ),
                globals_=np.empty(0, dtype=np.int64),
                alive=np.empty(0, dtype=bool),
            )
            for _ in range(len(self._centroids))
        ]

    #: Rows per centroid-kernel evaluation during assignment: bounds
    #: the transient (chunk, n_clusters) score table so pinning a
    #: million-row ingest never materialises a gigabyte intermediate.
    _ASSIGN_CHUNK = 65536

    def _assign(self, vectors: np.ndarray) -> np.ndarray:
        if self._router is None:
            self._router = _routing_kernel(self._centroids, self.config)
        vectors = np.asarray(vectors, dtype=np.int64)
        out = np.empty(len(vectors), dtype=np.int64)
        for lo in range(0, len(vectors), self._ASSIGN_CHUNK):
            block = vectors[lo : lo + self._ASSIGN_CHUNK]
            out[lo : lo + len(block)] = np.argmin(
                self._router.scores(block), axis=1
            )
        return out

    def _route(self, queries: np.ndarray) -> np.ndarray:
        """(n, m) exact query-to-centroid distances."""
        if self._router is None:
            self._router = _routing_kernel(self._centroids, self.config)
        return self._router.scores(np.asarray(queries, dtype=np.int64))

    def _append(
        self, assign: np.ndarray, vectors: np.ndarray, start: int
    ) -> None:
        """Pin newly-assigned vectors to their clusters, keeping each
        cluster's local order global-position ascending."""
        for ci in range(len(self._clusters)):
            members = np.flatnonzero(assign == ci)
            if not len(members):
                continue
            cluster = self._clusters[ci]
            local_start = cluster.written
            cluster.sub.add(self._sub_codes(vectors[members]))
            positions = start + members.astype(np.int64)
            cluster.globals_ = np.concatenate(
                [cluster.globals_, positions]
            )
            cluster.alive = np.concatenate(
                [cluster.alive, np.ones(len(members), dtype=bool)]
            )
            self._cluster_of[positions] = ci
            self._local_of[positions] = local_start + np.arange(
                len(members), dtype=np.int64
            )

    # ------------------------------------------------------------------
    # Mutation (the SearchBackend protocol)
    # ------------------------------------------------------------------
    def add(self, vectors: np.ndarray) -> None:
        vectors = np.asarray(vectors, dtype=int)
        if not len(vectors):
            return
        start = len(self._vectors)
        self._vectors = np.concatenate(
            [self._vectors, vectors.astype(np.int16)]
        )
        self._alive = np.concatenate(
            [self._alive, np.ones(len(vectors), dtype=bool)]
        )
        self._cluster_of = np.concatenate(
            [self._cluster_of, np.full(len(vectors), -1, dtype=np.int32)]
        )
        self._local_of = np.concatenate(
            [self._local_of, np.full(len(vectors), -1, dtype=np.int64)]
        )
        if self._centroids is None:
            prefix = np.asarray(
                self._vectors[: min(len(self._vectors), self.train_rows)],
                dtype=int,
            )
            self._install_centroids(
                train_centroids(
                    prefix,
                    self.n_clusters,
                    self.config,
                    iters=self.kmeans_iters,
                    seed=self.routing_seed,
                )
            )
        self._append(self._assign(vectors), vectors, start)

    def deactivate(self, positions: np.ndarray) -> None:
        positions = np.asarray(positions, dtype=np.int64)
        self._alive[positions] = False
        touched = {}
        for position in positions:
            ci = int(self._cluster_of[position])
            touched.setdefault(ci, []).append(
                int(self._local_of[position])
            )
        for ci, locals_ in touched.items():
            cluster = self._clusters[ci]
            locals_ = np.asarray(locals_, dtype=np.int64)
            cluster.alive[locals_] = False
            cluster.sub.deactivate(locals_)
            if (
                cluster.written
                and cluster.n_dead / cluster.written
                >= self.compact_watermark
            ):
                self._compact_cluster(ci)

    def _compact_cluster(self, ci: int) -> None:
        """Re-program one tombstone-heavy cluster from its live rows.

        Global positions are untouched — only cluster-local rows move —
        so the index (and every position-keyed guarantee above it)
        never notices; reclaimed tombstones simply stop occupying bank
        rows the search would otherwise mask per query.
        """
        cluster = self._clusters[ci]
        keep = np.flatnonzero(cluster.alive)
        dead = cluster.globals_[~cluster.alive]
        live = cluster.globals_[keep]
        self._local_of[dead] = -1
        cluster.sub.rebuild(
            self._sub_codes(self._vectors[live].astype(int))
        )
        cluster.globals_ = live
        cluster.alive = np.ones(len(live), dtype=bool)
        self._local_of[live] = np.arange(len(live), dtype=np.int64)
        self.n_auto_compactions += 1

    def rebuild(self, vectors: np.ndarray) -> None:
        """Fresh build of the live set (the index ``compact``):
        re-train on the new insertion order and re-pin everything."""
        vectors = np.asarray(vectors, dtype=int)
        self._vectors = np.empty((0, self.dims), dtype=np.int16)
        self._alive = np.empty(0, dtype=bool)
        self._cluster_of = np.empty(0, dtype=np.int32)
        self._local_of = np.empty(0, dtype=np.int64)
        self._centroids = None
        self._router = None
        self._clusters = []
        if len(vectors):
            self.add(vectors)

    # ------------------------------------------------------------------
    # Routing reconfiguration
    # ------------------------------------------------------------------
    def reconfigure_routing(
        self,
        top_p: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Online routing reconfigure: ``top_p`` moves instantly (it is
        a search-time knob); ``n_clusters`` re-trains k-means on the
        live set and re-pins every cluster.  Returns the effective
        ``(top_p, n_clusters)``.  Global positions survive either way.
        """
        if top_p is not None:
            if int(top_p) < 1:
                raise ValueError("top_p must be >= 1")
            self.top_p = int(top_p)
        if n_clusters is not None:
            if int(n_clusters) < 1:
                raise ValueError("n_clusters must be >= 1")
            self.n_clusters = int(n_clusters)
            if self._centroids is not None:
                self._repin()
        return self.top_p, self.n_clusters

    def _repin(self) -> None:
        """Re-train on the live rows (insertion-order prefix) and
        re-pin them; reclaimed tombstones drop out entirely."""
        live = np.flatnonzero(self._alive)
        if not len(live):
            self._centroids = None
            self._router = None
            self._clusters = []
            return
        vectors = self._vectors[live].astype(int)
        self._install_centroids(
            train_centroids(
                vectors[: self.train_rows],
                self.n_clusters,
                self.config,
                iters=self.kmeans_iters,
                seed=self.routing_seed,
            )
        )
        self._cluster_of[:] = -1
        self._local_of[:] = -1
        assign = self._assign(vectors)
        for ci in range(len(self._clusters)):
            members = live[assign == ci]
            if not len(members):
                continue
            cluster = self._clusters[ci]
            cluster.sub.add(
                self._sub_codes(self._vectors[members].astype(int))
            )
            cluster.globals_ = members.astype(np.int64)
            cluster.alive = np.ones(len(members), dtype=bool)
            self._cluster_of[members] = ci
            self._local_of[members] = np.arange(
                len(members), dtype=np.int64
            )

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _probe_plan(
        self, queries: np.ndarray, need: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Routing pass: per query, the clusters to probe.

        Returns ``(member, p_eff, live_counts)`` where ``member`` is an
        (n, m) boolean probe matrix covering the ``top_p`` nearest
        clusters by (centroid distance, cluster index) — widened per
        query, in routing order, until the probed clusters hold at
        least ``need`` live rows.
        """
        n = len(queries)
        m = len(self._clusters)
        distances = self._route(queries)
        order = np.argsort(distances, axis=1, kind="stable")
        live_counts = self.cluster_sizes()
        cum = np.cumsum(live_counts[order], axis=1)
        base = min(self.top_p, m)
        needed = np.sum(cum < need, axis=1) + 1
        p_eff = np.minimum(np.maximum(base, needed), m)
        max_p = int(p_eff.max())
        probe = order[:, :max_p]
        mask = np.arange(max_p)[None, :] < p_eff[:, None]
        member = np.zeros((n, m), dtype=bool)
        member[np.arange(n)[:, None], probe] = mask
        self.last_routing = {
            "n_queries": n,
            "n_clusters": m,
            "top_p": base,
            "probed_clusters_mean": float(p_eff.mean()),
            "expanded_queries": int((p_eff > base).sum()),
            "rows_scanned": int((live_counts[probe] * mask).sum()),
            "rows_live": int(live_counts.sum()) * n,
        }
        self.last_routing["scan_fraction"] = (
            self.last_routing["rows_scanned"]
            / max(1, self.last_routing["rows_live"])
        )
        return member, p_eff, live_counts

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route, search within the probed clusters, merge on
        (distance, global position).

        ``inner="flat"`` distances are analog unit currents exactly as
        the flat backend reports them; ``inner="tiered"`` distances are
        exact integer rescores (as floats), like the tiered backend.
        """
        queries = np.asarray(queries, dtype=int)
        if self.inner == "tiered":
            return self._search_tiered(queries, k)
        member, _, live_counts = self._probe_plan(queries, k)
        n = len(queries)
        contributions = np.minimum(live_counts[None, :], k) * member
        cap = int(contributions.sum(axis=1).max())
        cand_pos = np.full((n, cap), _PAD_POSITION, dtype=np.int64)
        cand_dist = np.full((n, cap), np.inf)
        fill = np.zeros(n, dtype=np.int64)
        # Quantise once for the whole batch; the per-cluster code is an
        # elementwise function of the query row, so slicing rows out of
        # the precomputed table is bit-identical to re-encoding them.
        sub_queries = self._sub_codes(queries)
        for ci, cluster in enumerate(self._clusters):
            rows = np.flatnonzero(member[:, ci])
            kc = min(k, cluster.n_live)
            if not len(rows) or kc == 0:
                continue
            local, dist = cluster.sub.search(sub_queries[rows], kc)
            cols = fill[rows, None] + np.arange(kc)[None, :]
            cand_pos[rows[:, None], cols] = cluster.globals_[local]
            cand_dist[rows[:, None], cols] = dist
            fill[rows] += kc
        order = np.lexsort((cand_pos, cand_dist))[:, :k]
        return (
            np.take_along_axis(cand_pos, order, axis=1),
            np.take_along_axis(cand_dist, order, axis=1),
        )

    def _search_tiered(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Tiered inner mode: coarse shortlist within probed clusters,
        one exact full-precision rescore across the union."""
        nominate = max(k * self.refine_factor, k)
        member, _, live_counts = self._probe_plan(queries, k)
        n = len(queries)
        contributions = np.minimum(live_counts[None, :], nominate) * member
        cap = int(contributions.sum(axis=1).max())
        cand_pos = np.full((n, cap), _PAD_POSITION, dtype=np.int64)
        fill = np.zeros(n, dtype=np.int64)
        sub_queries = self._sub_codes(queries)
        for ci, cluster in enumerate(self._clusters):
            rows = np.flatnonzero(member[:, ci])
            cc = min(nominate, cluster.n_live)
            if not len(rows) or cc == 0:
                continue
            # The lexsort below re-ranks the union, so each cluster's
            # shortlist may come back in position order, unsorted.
            local = cluster.sub.shortlist(
                sub_queries[rows], cc, ordered=False
            )
            cols = fill[rows, None] + np.arange(cc)[None, :]
            cand_pos[rows[:, None], cols] = cluster.globals_[local]
            fill[rows] += cc
        padded = cand_pos == _PAD_POSITION
        rescored = self.config.resolved.rowwise(
            queries.astype(np.int16),
            self._vectors[np.where(padded, 0, cand_pos)],
            self.config.bits,
            validate=False,
        ).astype(float)
        rescored[padded] = np.inf
        order = np.lexsort((cand_pos, rescored))[:, :k]
        return (
            np.take_along_axis(cand_pos, order, axis=1),
            np.take_along_axis(rescored, order, axis=1),
        )

    def shortlist(self, queries: np.ndarray, c: int) -> np.ndarray:
        """(n, c) nearest global positions by row-current readout
        within the routed subset — the probe plan widens until the
        probed clusters hold ``c`` live rows, then per-cluster
        shortlists merge on (unit current, global position)."""
        queries = np.asarray(queries, dtype=int)
        member, _, live_counts = self._probe_plan(queries, c)
        n = len(queries)
        contributions = np.minimum(live_counts[None, :], c) * member
        cap = int(contributions.sum(axis=1).max())
        cand_pos = np.full((n, cap), _PAD_POSITION, dtype=np.int64)
        cand_units = np.full((n, cap), np.inf)
        fill = np.zeros(n, dtype=np.int64)
        sub_queries = self._sub_codes(queries)
        for ci, cluster in enumerate(self._clusters):
            rows = np.flatnonzero(member[:, ci])
            cc = min(c, cluster.n_live)
            if not len(rows) or cc == 0:
                continue
            local, units = cluster.sub.shortlist(
                sub_queries[rows], cc, with_units=True
            )
            cols = fill[rows, None] + np.arange(cc)[None, :]
            cand_pos[rows[:, None], cols] = cluster.globals_[local]
            cand_units[rows[:, None], cols] = units
            fill[rows] += cc
        order = np.lexsort((cand_pos, cand_units))[:, :c]
        return np.take_along_axis(cand_pos, order, axis=1)


BACKENDS[RoutedBackend.name] = RoutedBackend
