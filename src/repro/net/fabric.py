"""The cluster interconnect.

A :class:`Fabric` connects named nodes through a non-blocking switch
(full bisection bandwidth, as in the paper's 32-machine InfiniBand
testbed): the contended resources are each node's NIC transmit and
receive sides, not the core.  Transfers charge

    base latency + payload / min(tx bandwidth, rx bandwidth)

while holding the sender's TX lane and the receiver's RX lane, so
concurrent flows to or from one node queue behind each other.

Failure state lives here: nodes and directed links can be marked down,
and every transfer checks that state both when it starts and when it
would complete (a mid-flight crash loses the transfer).
"""

from repro.net.errors import LinkDown, RemoteNodeDown
from repro.hw.latency import NetworkSpec
from repro.sim import Resource


class Nic:
    """A node's network interface: independent TX and RX lanes."""

    def __init__(self, env, node_id, spec):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.tx = Resource(env, capacity=1, name="nic-tx:{}".format(node_id))
        self.rx = Resource(env, capacity=1, name="nic-rx:{}".format(node_id))
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0


class Fabric:
    """A switched cluster network with failure injection hooks."""

    def __init__(self, env, spec=None, core_concurrency=0):
        """``core_concurrency`` > 0 caps concurrent transfers through
        the switch core — an oversubscribed fabric.  0 models full
        bisection bandwidth (the paper testbed's non-blocking fabric).
        """
        self.env = env
        self.spec = spec or NetworkSpec()
        self._nics = {}
        self._down_nodes = set()
        self._down_links = set()  # directed (src, dst) pairs
        self._degraded = {}  # node_id -> latency/bandwidth multiplier
        self._lane_orders = {}  # (src, dst) -> (lane, lane) in acquire order
        self._core = (
            Resource(env, capacity=core_concurrency, name="fabric-core")
            if core_concurrency > 0 else None
        )
        self.total_bytes = 0
        self.total_messages = 0

    # -- topology ------------------------------------------------------

    def add_node(self, node_id):
        """Attach a node; returns its :class:`Nic`."""
        if node_id in self._nics:
            raise ValueError("node {!r} already attached".format(node_id))
        nic = Nic(self.env, node_id, self.spec)
        self._nics[node_id] = nic
        return nic

    def nic(self, node_id):
        """The :class:`Nic` of an attached node."""
        return self._nics[node_id]

    @property
    def node_ids(self):
        return list(self._nics)

    # -- failure state ---------------------------------------------------

    def set_node_down(self, node_id, down=True):
        """Mark a node crashed (or recovered with ``down=False``)."""
        if node_id not in self._nics:
            raise KeyError(node_id)
        if down:
            self._down_nodes.add(node_id)
        else:
            self._down_nodes.discard(node_id)

    def set_link_down(self, src, dst, down=True, symmetric=True):
        """Partition the directed path ``src -> dst`` (both ways by default)."""
        pairs = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for pair in pairs:
            if down:
                self._down_links.add(pair)
            else:
                self._down_links.discard(pair)

    def set_degraded(self, node_id, factor=1.0):
        """Degrade every path touching ``node_id`` by ``factor``.

        Models a flaky NIC/cable renegotiating at a lower rate (the
        paper's RDMA-link degradation scenario): transfers to or from
        the node take ``factor`` times as long.  ``factor <= 1``
        restores full speed.
        """
        if node_id not in self._nics:
            raise KeyError(node_id)
        if factor <= 1.0:
            self._degraded.pop(node_id, None)
        else:
            self._degraded[node_id] = float(factor)

    def degrade_factor(self, src, dst):
        """The latency multiplier currently applied to ``src -> dst``."""
        return max(
            1.0,
            self._degraded.get(src, 1.0),
            self._degraded.get(dst, 1.0),
        )

    def is_node_down(self, node_id):
        return node_id in self._down_nodes

    def is_reachable(self, src, dst):
        """True if a transfer ``src -> dst`` could start right now."""
        return (
            src not in self._down_nodes
            and dst not in self._down_nodes
            and (src, dst) not in self._down_links
        )

    def _check_path(self, src, dst):
        if dst in self._down_nodes:
            raise RemoteNodeDown(dst)
        if src in self._down_nodes:
            raise RemoteNodeDown(src)
        if (src, dst) in self._down_links:
            raise LinkDown(src, dst)

    # -- data movement -----------------------------------------------------

    def transfer_time(self, nbytes, base_latency=None):
        """Uncontended wire time for ``nbytes``."""
        if base_latency is None:
            base_latency = self.spec.rdma_latency
        return base_latency + nbytes / self.spec.bandwidth

    def control_send(self, src, dst, nbytes):
        """Generator: one control-plane message from ``src`` to ``dst``.

        Control traffic (heartbeats, telemetry reports, balance plans)
        travels two-sided SEND/RECV, so it pays the send/recv surcharge
        on top of the base RDMA latency.  Same failure semantics as
        :meth:`transfer`.
        """
        yield from self.transfer(
            src,
            dst,
            nbytes,
            base_latency=self.spec.rdma_latency + self.spec.send_recv_extra,
            op="control",
        )

    def transfer(self, src, dst, nbytes, base_latency=None, op="data"):
        """Generator: move ``nbytes`` from ``src`` to ``dst``.

        Holds the sender's TX lane and receiver's RX lane for the wire
        time; raises a :class:`~repro.net.errors.NetworkError` subclass
        if the path is (or goes) down.  ``op`` labels the traffic class
        ("data" or "control") for tracing only.
        """
        tracer = self.env.tracer
        if not tracer.enabled:
            yield from self._transfer(src, dst, nbytes, base_latency)
            return
        began = self.env.now
        span = tracer.begin("net.send", src=src, dst=dst, nbytes=nbytes, op=op)
        try:
            yield from self._transfer(src, dst, nbytes, base_latency)
        except Exception as error:
            tracer.end(span, ok=False, error=type(error).__name__)
            raise
        tracer.end(span, ok=True)
        tracer.latency("net", "send." + op, self.env.now - began)

    def fanout(self, src, dsts, nbytes_each, base_latency=None, op="data"):
        """Generator: one fan-out round from ``src`` to every ``dsts``.

        The SWARM-style single-round write primitive: the sender posts
        one doorbell that replicates ``nbytes_each`` to every
        destination in parallel, holding its TX lane for *one* wire
        time (the slowest path) instead of once per copy.  All paths
        are checked at start and at completion — a destination that is
        (or goes) down fails the whole round; nothing is delivered
        partially.  Emits a single ``net.send`` span carrying the
        ``dsts`` list and a ``fanout`` count.
        """
        dsts = list(dsts)
        if not dsts:
            return
        tracer = self.env.tracer
        if not tracer.enabled:
            yield from self._fanout(src, dsts, nbytes_each, base_latency)
            return
        began = self.env.now
        span = tracer.begin(
            "net.send",
            src=src,
            dsts=dsts,
            nbytes=nbytes_each * len(dsts),
            op=op,
            fanout=len(dsts),
        )
        try:
            yield from self._fanout(src, dsts, nbytes_each, base_latency)
        except Exception as error:
            tracer.end(span, ok=False, error=type(error).__name__)
            raise
        tracer.end(span, ok=True)
        tracer.latency("net", "send." + op, self.env.now - began)

    def _fanout(self, src, dsts, nbytes_each, base_latency=None):
        for dst in dsts:
            self._check_path(src, dst)
        src_nic = self._nics[src]
        # Acquire the TX lane plus every destination RX lane in one
        # canonical global order (same rule as ``_transfer``): no cycle
        # of holders can form whatever else is in flight.
        lanes = sorted(
            [("{}:tx".format(src), src_nic.tx)]
            + [
                ("{}:rx".format(dst), self._nics[dst].rx)
                for dst in dsts
            ],
            key=lambda pair: pair[0],
        )
        granted = []
        try:
            for _key, lane in lanes:
                request = lane.request()
                yield request
                granted.append((lane, request))
            if self._core is not None:
                core_request = self._core.request()
                yield core_request
                granted.append((self._core, core_request))
            yield self.env.timeout(max(
                self.transfer_time(nbytes_each, base_latency)
                * self.degrade_factor(src, dst)
                for dst in dsts
            ))
            # Any endpoint that died mid-flight loses the whole round.
            for dst in dsts:
                self._check_path(src, dst)
            src_nic.bytes_sent += nbytes_each * len(dsts)
            src_nic.messages_sent += 1
            for dst in dsts:
                self._nics[dst].bytes_received += nbytes_each
            self.total_bytes += nbytes_each * len(dsts)
            self.total_messages += 1
        finally:
            for lane, request in granted:
                lane.release(request)

    def _transfer(self, src, dst, nbytes, base_latency=None):
        self._check_path(src, dst)
        src_nic = self._nics[src]
        dst_nic = self._nics[dst]
        lanes = self._lane_orders.get((src, dst))
        if lanes is None:
            # Acquire lanes in a canonical global order so that
            # concurrent transfers can never hold-and-wait in a cycle
            # (deadlock).  A node's NIC is never replaced, so the order
            # is worked out once per pair.
            keyed = sorted(
                [("{}:tx".format(src), src_nic.tx),
                 ("{}:rx".format(dst), dst_nic.rx)],
                key=lambda pair: pair[0],
            )
            lanes = tuple(lane for _key, lane in keyed)
            self._lane_orders[(src, dst)] = lanes
        granted = []
        try:
            for lane in lanes:
                request = lane.request()
                yield request
                granted.append((lane, request))
            if self._core is not None:
                # The core is acquired only after both lanes, and its
                # holders never wait on lanes, so no cycle can form.
                core_request = self._core.request()
                yield core_request
                granted.append((self._core, core_request))
            yield self.env.timeout(
                self.transfer_time(nbytes, base_latency)
                * self.degrade_factor(src, dst)
            )
            # A node or link that died mid-flight loses the transfer.
            self._check_path(src, dst)
            src_nic.bytes_sent += nbytes
            src_nic.messages_sent += 1
            dst_nic.bytes_received += nbytes
            self.total_bytes += nbytes
            self.total_messages += 1
        finally:
            for lane, request in granted:
                lane.release(request)
