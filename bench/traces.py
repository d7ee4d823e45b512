"""Seeded columnar traffic for the benchmark workloads.

Three flow-size laws, one assembly step.  Each generator draws a flow
table (sizes, keys, lifetime) and :func:`_assemble` turns it into a
:class:`~repro.traffic.columnar.ColumnarTrace` covering a cycle of
``windows`` trace windows with *exactly* ``per_window`` packets in each:
rows are ordered by their position in the cycle and then re-timed by rank,
so the seed changes keys and packet order but never how much work a
window holds.  Flow sizes are stratified quantiles of their law (the
PrintQueue ``generate_flows_by_CDF_sample`` idea), not random draws, for
the same reason — a heavy tail sampled at random would make two seeds two
different workloads.

:class:`RotatingReplaySource` replays a cycle forever with a fresh key
population on every pass; see its docstring for why a plain loop would
not do.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.packet import Proto, TcpFlags
from repro.traffic.columnar import ColumnarTrace

__all__ = [
    "DATA_MINING_CDF",
    "WEB_SEARCH_CDF",
    "ROTATE_SHIFT",
    "RotatingReplaySource",
    "caida_cycle",
    "elephants_cycle",
    "mice_cycle",
    "window_rows",
]

#: (cumulative probability, flow size in KB) samples of the two
#: datacenter flow-size distributions PrintQueue's traffic generator uses
#: (SNIPPETS.md); a step function, as there.
WEB_SEARCH_CDF = ((0.15, 6), (0.2, 13), (0.3, 19), (0.4, 33), (0.53, 53),
                  (0.6, 133), (0.7, 667), (0.8, 1333), (0.9, 3333),
                  (0.97, 6667), (1.0, 20000))
DATA_MINING_CDF = ((0.5, 1), (0.6, 2), (0.7, 3), (0.8, 7), (0.9, 267),
                   (0.95, 2107), (0.99, 66667), (1.0, 666667))
#: Payload bytes per packet in the same generator.
_MSS = 1046

#: Keys move by ``pass << ROTATE_SHIFT`` per replay pass.  2**21 is the
#: per-seed entry limit of ``HashFamily.bulk_cache``; every generator
#: below keeps its client and server indices under it, so two passes
#: never share an address.
ROTATE_SHIFT = 21

_CLIENT_BASE = 0x0A000000      # 10.0.0.0
_SERVER_BASE = 0x80000000      # 128.0.0.0
_SERVICE_PORTS = np.array([80, 443, 22, 25, 53, 123, 8080, 3306, 6881, 179])
_SERVICE_WEIGHTS = np.array([0.30, 0.34, 0.02, 0.03, 0.08, 0.02, 0.08,
                             0.03, 0.06, 0.04])
_LENGTHS = np.array([64, 120, 576, 1500])
_LENGTH_WEIGHTS = np.array([0.35, 0.15, 0.15, 0.35])
#: Extra packets generated beyond the budget so that replies (whose
#: number depends on the protocol draw) never leave a cycle short; the
#: surplus is dropped at random rows.
_SURPLUS = 1.05

#: Concurrent long-lived flows of the elephants workload.
_ELEPHANT_FLOWS = 400

_COLUMNS = ("sip", "dip", "proto", "sport", "dport", "tcp_flags", "len",
            "ttl", "dns_ancount")


def _cdf_packets(cdf: Sequence[Tuple[float, int]], flows: int,
                 upto: float = 1.0) -> np.ndarray:
    """Stratified flow sizes in packets: the ``flows`` mid-quantiles of
    ``cdf`` restricted to its first ``upto`` probability mass."""
    probs = np.array([p for p, _ in cdf])
    kbytes = np.array([kb for _, kb in cdf])
    quantiles = (np.arange(flows) + 0.5) / flows * upto
    size_kb = kbytes[np.searchsorted(probs, quantiles, side="left")]
    return np.ceil(size_kb * 1024 / _MSS).astype(np.int64)


def _fit_budget(sizes: np.ndarray, budget: int) -> np.ndarray:
    """Scale a size multiset to ``budget`` packets (every flow keeps one)."""
    scaled = np.floor(sizes * (budget / sizes.sum())).astype(np.int64)
    return np.maximum(scaled, 1)


def _assemble(
    rng: np.random.Generator,
    sizes: np.ndarray,
    span: np.ndarray,
    clients: int,
    servers: int,
    server_skew: float,
    windows: int,
    per_window: int,
    window_s: float,
    host_pairs: Sequence[Tuple[object, object]],
    name: str,
) -> ColumnarTrace:
    """Flow table -> a cycle of ``windows`` x ``per_window`` packets.

    ``sizes`` are forward packets per flow and ``span`` each flow's
    lifetime as a share of the cycle; flows start uniformly over the
    cycle and wrap around its end, so every window sees the same mix.
    Servers are drawn as ``servers * u**server_skew`` — 1.0 is uniform,
    larger concentrates flows on a few hot servers so that per-key
    thresholds are crossed and reports flow.
    """
    flows = len(sizes)
    sizes = rng.permutation(sizes)
    start = rng.random(flows)
    sip = _CLIENT_BASE + rng.integers(0, clients, size=flows)
    dip = _SERVER_BASE + (
        servers * rng.random(flows) ** server_skew
    ).astype(np.int64)
    sport = rng.integers(1024, 65535, size=flows)
    dport = rng.choice(_SERVICE_PORTS, size=flows,
                       p=_SERVICE_WEIGHTS / _SERVICE_WEIGHTS.sum())
    draw = rng.random(flows)
    is_dns = draw < 0.04
    is_udp = is_dns | (draw < 0.16)
    dport = np.where(is_dns, 53, dport)
    proto = np.where(is_udp, int(Proto.UDP), int(Proto.TCP))
    pair = rng.integers(0, len(host_pairs), size=flows)

    # Forward rows: the k-th packet of a flow sits in the k-th slice of
    # the flow's lifetime (jittered), so SYN < ACK... < FIN in time.
    total = int(sizes.sum())
    flow_of = np.repeat(np.arange(flows), sizes)
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    k = np.arange(total) - first
    size_of = sizes[flow_of]
    pos = start[flow_of] + span[flow_of] * (k + rng.random(total)) / size_of
    tcp = ~is_udp[flow_of]
    flags = np.where(tcp, int(TcpFlags.ACK), 0)
    flags[tcp & (k == 0)] = int(TcpFlags.SYN)
    flags[tcp & (k == size_of - 1) & (size_of > 2)] = (
        int(TcpFlags.FIN) | int(TcpFlags.ACK)
    )
    length = rng.choice(_LENGTHS, size=total,
                        p=_LENGTH_WEIGHTS / _LENGTH_WEIGHTS.sum())
    length[k == 0] = 64
    cols: Dict[str, np.ndarray] = {
        "sip": sip[flow_of], "dip": dip[flow_of], "proto": proto[flow_of],
        "sport": sport[flow_of], "dport": dport[flow_of],
        "tcp_flags": flags, "len": length,
        "ttl": np.full(total, 64, dtype=np.int64),
        "dns_ancount": np.zeros(total, dtype=np.int64),
    }
    pair_of = pair[flow_of]

    # Reply rows: a SYN-ACK for every TCP flow of two packets or more, a
    # DNS answer for every DNS flow — reverse direction, just after the
    # flow's opener.
    opener = np.flatnonzero(k == 0)
    synack = opener[tcp[opener] & (size_of[opener] >= 2)]
    answer = opener[is_dns[flow_of[opener]]]
    reply = np.concatenate([synack, answer])
    n_syn = len(synack)
    reply_cols = {
        "sip": cols["dip"][reply], "dip": cols["sip"][reply],
        "proto": cols["proto"][reply],
        "sport": cols["dport"][reply], "dport": cols["sport"][reply],
        "tcp_flags": np.concatenate([
            np.full(n_syn, int(TcpFlags.SYNACK)),
            np.zeros(len(answer), dtype=np.int64),
        ]),
        "len": np.concatenate([
            np.full(n_syn, 64), np.full(len(answer), 220),
        ]),
        "ttl": np.full(len(reply), 64, dtype=np.int64),
        "dns_ancount": np.concatenate([
            np.zeros(n_syn, dtype=np.int64),
            rng.integers(1, 4, size=len(answer)),
        ]),
    }
    pos = np.concatenate([pos, pos[reply] + 1e-6]) % 1.0
    pair_of = np.concatenate([pair_of, pair_of[reply]])
    for cname in _COLUMNS:
        cols[cname] = np.concatenate(
            [cols[cname], reply_cols[cname]]
        ).astype(np.int64)

    budget = windows * per_window
    if len(pos) < budget:
        raise ValueError(
            f"{name}: flow table yields {len(pos)} packets, "
            f"budget is {budget}"
        )
    keep = np.sort(rng.choice(len(pos), size=budget, replace=False))
    order = keep[np.argsort(pos[keep], kind="stable")]
    # Re-time by rank: row r belongs to window r // per_window, evenly
    # spaced inside it (mid-slot, so no row sits on a window boundary).
    rank = np.arange(budget)
    ts = (rank // per_window
          + (rank % per_window + 0.5) / per_window) * window_s
    hosts = tuple(h for hp in host_pairs for h in hp)
    return ColumnarTrace(
        {cname: cols[cname][order] for cname in _COLUMNS}, ts,
        src_host_ids=2 * pair_of[order], dst_host_ids=2 * pair_of[order] + 1,
        host_table=hosts, name=name,
    )


def mice_cycle(seed: int, windows: int, per_window: int, window_s: float,
               host_pairs: Sequence[Tuple[object, object]]) -> ColumnarTrace:
    """Data-mining flow sizes cut at the 80th percentile: 1-7 packets a
    flow, about two on average, each flow gone within 20 ms.  Clients are
    drawn from 2**21 addresses and servers from 2**18, so nearly every
    flow brings keys no earlier window has seen."""
    rng = np.random.default_rng(seed)
    budget = windows * per_window
    mean = _cdf_packets(DATA_MINING_CDF, 1000, upto=0.8).mean()
    flows = int(budget * _SURPLUS / mean) + 1
    sizes = _cdf_packets(DATA_MINING_CDF, flows, upto=0.8)
    span = np.full(flows, 0.02 / (windows * window_s))
    return _assemble(rng, sizes, span, clients=1 << ROTATE_SHIFT,
                     servers=1 << 18, server_skew=4.0, windows=windows,
                     per_window=per_window, window_s=window_s,
                     host_pairs=host_pairs, name=f"mice-{seed}")


def elephants_cycle(seed: int, windows: int, per_window: int,
                    window_s: float,
                    host_pairs: Sequence[Tuple[object, object]],
                    ) -> ColumnarTrace:
    """The full web-search flow-size law over a few hundred long-lived
    flows (each alive for 30-100 % of the cycle), sizes normalised to the
    packet budget: the same keys recur in every window."""
    rng = np.random.default_rng(seed)
    flows = _ELEPHANT_FLOWS
    budget = int(windows * per_window * _SURPLUS) + flows
    sizes = _fit_budget(_cdf_packets(WEB_SEARCH_CDF, flows), budget)
    span = rng.uniform(0.3, 1.0, size=flows)
    return _assemble(rng, sizes, span, clients=4000, servers=400,
                     server_skew=2.0, windows=windows,
                     per_window=per_window, window_s=window_s,
                     host_pairs=host_pairs, name=f"elephants-{seed}")


def caida_cycle(seed: int, windows: int, per_window: int, window_s: float,
                host_pairs: Sequence[Tuple[object, object]]) -> ColumnarTrace:
    """The repo's CAIDA-like profile (``traffic.generators``: Pareto(1.2)
    flow sizes capped at 1/12 of the trace, one flow per 12 packets, 4000
    clients, 400 servers), flows alive for the whole cycle and spread
    over ``host_pairs``."""
    rng = np.random.default_rng(seed)
    budget = int(windows * per_window * _SURPLUS)
    flows = max(8, budget // 12)
    quantiles = (np.arange(flows) + 0.5) / flows
    pareto = np.minimum((1.0 - quantiles) ** (-1 / 1.2), budget / 12)
    sizes = _fit_budget(pareto, budget + flows)
    span = np.ones(flows)
    return _assemble(rng, sizes, span, clients=4000, servers=400,
                     server_skew=2.0, windows=windows,
                     per_window=per_window, window_s=window_s,
                     host_pairs=host_pairs, name=f"caida-{seed}")


def window_rows(cycle: ColumnarTrace, windows: int, index: int,
                rows: Optional[int] = None) -> ColumnarTrace:
    """Window ``index`` of a cycle (its first ``rows`` packets if given)."""
    per_window = len(cycle) // windows
    start = index * per_window
    stop = start + (per_window if rows is None else min(rows, per_window))
    return cycle.slice(start, stop)


class RotatingReplaySource:
    """Replays a cycle forever, one window per call, keys fresh per pass.

    Same ``window(epoch, window_s)`` contract as ``service.sources.
    TraceSource`` (not subclassed: importing the service package would put
    asyncio and the HTTP stack into every set-up time).

    ``HashFamily.bulk_cache`` memoises key -> digest across windows, so a
    plainly looped trace turns every hash miss into a hit from the second
    pass on and the run would measure a different program than its first
    pass did.  Pass *p* therefore adds ``p << ROTATE_SHIFT`` to ``sip`` and
    ``dip``: flow sizes, packet order and the hosts stay as generated while
    the address population is new.  Timestamps move with the epoch, as
    ``service.sources.ReplaySource`` does when looping.

    Epochs ``0 .. warmup-1`` replay the head of the cycle unrotated (pass
    0); epoch ``warmup`` starts pass 1 at the cycle's first window, so
    every timed pass carries the whole cycle.
    """

    def __init__(self, cycle: ColumnarTrace, windows: int, warmup: int):
        if len(cycle) % windows:
            raise ValueError("cycle length must be a multiple of windows")
        if warmup > windows:
            raise ValueError("warm-up cannot exceed one cycle")
        self.cycle = cycle
        self.windows = windows
        self.warmup = warmup
        self.per_window = len(cycle) // windows
        #: Timestamps of window 0; window ``e`` adds ``e * window_s``.
        self._ts0 = cycle.ts[:self.per_window].copy()

    def locate(self, epoch: int) -> Tuple[int, int]:
        """(pass index, window of the cycle) replayed at ``epoch``."""
        if epoch < self.warmup:
            return 0, epoch
        done, local = divmod(epoch - self.warmup, self.windows)
        return done + 1, local

    def window(self, epoch: int, window_s: float) -> ColumnarTrace:
        pass_index, local = self.locate(epoch)
        chunk = window_rows(self.cycle, self.windows, local)
        # 512 passes before addresses wrap: far beyond any run length.
        offset = (pass_index % 512) << ROTATE_SHIFT
        columns = dict(chunk.columns)
        columns["sip"] = chunk.columns["sip"] + offset
        columns["dip"] = chunk.columns["dip"] + offset
        return ColumnarTrace(
            columns, self._ts0 + epoch * window_s,
            chunk.src_host_ids, chunk.dst_host_ids, chunk.host_table,
            name=f"{self.cycle.name}#p{pass_index}w{local}",
        )
