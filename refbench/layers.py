"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps each layer's public calls for the duration of
a ``with`` block and restores the originals afterwards.  A wrapper
times the call (and, when the call returns a generator, every resume
of that generator, so simulated processes are charged for the host
time they really run).  A layer's *self time* is the time inside its
wrapped calls that no nested wrapped call covers, so the self times of
all layers add up to the time inside outermost wrapped calls by
construction.  What can go wrong is the timing stack itself: a frame
left open when the block exits, or wrapped calls that claim more time
than the run took (see :meth:`LayerTrace.closure_problems`).

Process bodies are charged to the layer of the module their generator
was written in: the KV client loop to ``runner``, the serving loop to
``serve``, RDMA service loops to ``net``, erasure repair to ``ec`` and
so on.  Bodies from modules outside every layer (``repro.core``,
``repro.hw``) are charged to ``other``.

Wrapping replaces attributes on classes and modules, including every
alias that a ``from x import f`` created in another ``repro`` module.
"""

import sys
import time
from collections import Counter, defaultdict
from types import GeneratorType

#: Module prefix -> layer, most specific first.
MODULE_LAYERS = (
    ("repro.sim.flatpath", "flatpath"),
    ("repro.sim", "sim"),
    ("repro.swap", "swap"),
    ("repro.tiers.erasure", "ec"),
    ("repro.tiers", "tiers"),
    ("repro.net", "net"),
    ("repro.mem", "mem"),
    ("repro.faults", "faults"),
    ("repro.workloads", "workloads"),
    ("repro.serve", "serve"),
    ("repro.trace.histogram", "histogram"),
    ("repro.experiments.runner", "runner"),
)

#: Every layer a metric is reported for, in report order.
LAYERS = tuple(layer for _prefix, layer in MODULE_LAYERS) + ("other",)


def layer_of_module(module_name):
    for prefix, layer in MODULE_LAYERS:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return layer
    return "other"


class LayerTrace:
    """Self time and call counts per wrapped call, while installed.

    ``calls`` counts calls by label (``"Environment.step"``);
    ``counts`` holds the extra counters wrappers record (bytes through
    the erasure codec, refused reservations, transfer attempts).
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        #: Seconds inside outermost wrapped calls.
        self.covered_s = 0.0
        #: Timing frames still open when the block exited.
        self.open_frames = 0
        #: Label -> layer of every wrapped call and process body.
        self.layer_of_label = {}
        self._stack = []
        #: Every ``(owner, name, original)`` this trace replaced.
        self._replaced = []
        #: id(wrapper) -> (wrapper, original), for module functions.
        self._wrappers = {}
        self._layer_by_file = {}

    # -- the timing stack ----------------------------------------------------

    def _enter(self, label):
        self._stack.append([label, time.perf_counter(), 0.0])

    def _exit(self):
        label, began, child = self._stack.pop()
        elapsed = time.perf_counter() - began
        self.self_s[label] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        else:
            self.covered_s += elapsed

    def _timed(self, label, generator):
        """Resume ``generator`` under ``label`` each time, like ``yield from``."""
        send = generator.send
        value = None
        error = None
        while True:
            self._enter(label)
            try:
                yielded = send(value) if error is None else generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            value = error = None
            try:
                value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as caught:  # delivered into the generator
                error = caught

    def _call(self, label, function, args, kwargs):
        self.calls[label] += 1
        self._enter(label)
        try:
            result = function(*args, **kwargs)
        finally:
            self._exit()
        if type(result) is GeneratorType:
            return self._timed(label, result)
        return result

    # -- installation --------------------------------------------------------

    def _set(self, owner, name, value):
        self._replaced.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrapper_original(self, value):
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def wrap(self, owner, name, layer, count=None, before=None):
        """Wrap ``owner.name`` (a class or module attribute) under ``layer``.

        ``count(trace, args, kwargs, result)``, when given, records
        extra counters after each call; ``before(trace, args, kwargs)``
        may return replacement ``(args, kwargs)``.  For a module
        function every alias of it in a loaded ``repro`` module is
        wrapped too.
        """
        original = owner.__dict__[name]
        label = "{}.{}".format(getattr(owner, "__name__", owner), name)
        self.layer_of_label[label] = layer
        call = self._call

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            result = call(label, original, args, kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        if isinstance(owner, type):
            self._set(owner, name, wrapper)
            return
        self._wrappers[id(wrapper)] = (wrapper, original)
        for module in _repro_modules():
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._set(module, alias, wrapper)

    def wrap_processes(self, process_class):
        """Charge each process resume to its generator's module's layer."""
        original = process_class.__dict__["_resume"]
        layer_of_file = self._layer_by_file
        enter, exit_ = self._enter, self._exit
        own_code = self._timed.__code__

        def _resume(process, event):
            code = getattr(process._generator, "gi_code", None)
            if code is None or code is own_code:
                return original(process, event)
            label = layer_of_file.get(code.co_filename)
            if label is None:
                label = "process:" + _module_of_file(code.co_filename)
                layer_of_file[code.co_filename] = label
                self.layer_of_label[label] = layer_of_module(label[len("process:"):])
            enter(label)
            try:
                return original(process, event)
            finally:
                exit_()

        self._set(process_class, "_resume", _resume)

    def restore(self):
        """Put every original back, including aliases of a wrapper that
        modules imported while the block ran took."""
        for owner, name, original in reversed(self._replaced):
            setattr(owner, name, original)
        for module in _repro_modules():
            for alias, value in list(vars(module).items()):
                original = self._wrapper_original(value)
                if original is not None:
                    setattr(module, alias, original)

    def leftovers(self):
        """Names still bound to something other than the original."""
        found = [
            "{}.{}".format(getattr(owner, "__name__", owner), name)
            for owner, name, original in self._replaced
            if owner.__dict__.get(name) is not original
        ]
        for module in _repro_modules():
            for alias, value in vars(module).items():
                if self._wrapper_original(value) is not None:
                    found.append("{}.{}".format(module.__name__, alias))
        return found

    # -- results -------------------------------------------------------------

    def layer_self_s(self):
        """Self seconds per layer (every layer of :data:`LAYERS`)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for label, seconds in self.self_s.items():
            totals[self.layer_of_label[label]] += seconds
        return totals

    def __enter__(self):
        install(self)
        return self

    def closure_problems(self, elapsed_s):
        """What is wrong with the timing of a block whose run took
        ``elapsed_s`` seconds (timed by the caller, around the run)."""
        problems = []
        if self.open_frames:
            problems.append("{} timing frames left open".format(self.open_frames))
        if self.covered_s > elapsed_s * (1 + 1e-9):
            problems.append("wrapped calls cover {:.6f} s of a {:.6f} s run".format(
                self.covered_s, elapsed_s))
        return problems

    def __exit__(self, *exc_info):
        self.open_frames = len(self._stack)
        self.restore()
        return False


def _repro_modules():
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _module_of_file(filename):
    for name, module in list(sys.modules.items()):
        if getattr(module, "__file__", None) == filename:
            return name
    return filename


# -- what is wrapped -------------------------------------------------------------


def _count_bytes(key, position):
    def count(trace, args, _kwargs, _result):
        value = args[position]
        trace.counts[key] += value if isinstance(value, int) else len(value)
    return count


def _count_reconstruct(trace, args, _kwargs, _result):
    trace.counts["ec.reconstruct_bytes"] += args[2]


def _count_refusal(trace, _args, _kwargs, result):
    trace.counts["mem.reserves"] += 1
    if not result:
        trace.counts["mem.refusals"] += 1


def _count_requests(trace, _args, _kwargs, result):
    trace.counts["serve.arrival_requests"] += len(result)


def _count_attempts(trace, args, kwargs):
    """Hand ``retrying`` an attempt callable that counts each attempt."""
    positional = len(args) > 2
    attempt = args[2] if positional else kwargs["attempt"]

    def counted():
        trace.counts["net.attempts"] += 1
        return attempt()

    if positional:
        return args[:2] + (counted,) + args[3:], kwargs
    return args, dict(kwargs, attempt=counted)


def _count_fault(trace, args, _kwargs, _result):
    if args[1] not in args[0].RECOVERY_KINDS:
        trace.counts["faults.injected"] += 1


def install(trace):
    """Wrap every layer's public calls on ``trace``."""
    from repro.faults.driver import FaultDriver
    from repro.mem import page as mem_page
    from repro.mem.allocator import SlabAllocator
    from repro.mem.arena import Arena, UniformAllocator
    from repro.mem.buffer_pool import RdmaBufferPool
    from repro.mem.shared_pool import SharedMemoryPool
    from repro.net import retry
    from repro.net.fabric import Fabric
    from repro.serve import arrivals
    from repro.serve.accountant import ClassAccount
    from repro.sim import flatpath
    from repro.sim.engine import Environment
    from repro.sim.process import Process
    from repro.swap.base import VirtualMemory
    from repro.tiers.cascade import TierCascade
    from repro.tiers.erasure import ErasureCodedRemoteTier, StripeCodec
    from repro.tiers.remote import RemoteArea
    from repro.trace.histogram import LatencyHistogram
    from repro.workloads import batch
    from repro.workloads.kv import KvWorkloadSpec
    from repro.workloads.ml import MlWorkloadSpec

    try:
        trace.wrap_processes(Process)
        trace.wrap(Environment, "step", "sim")
        trace.wrap(Environment, "timeout", "sim")
        for name in ("access", "flush", "run_batch"):
            trace.wrap(VirtualMemory, name, "swap")
        trace.wrap(flatpath, "advance", "flatpath")
        trace.wrap(flatpath, "inline_jump", "flatpath")
        for name in ("swap_out", "swap_in", "place", "demote"):
            trace.wrap(TierCascade, name, "tiers")
        trace.wrap(StripeCodec, "encode", "ec", _count_bytes("ec.encode_bytes", 1))
        trace.wrap(StripeCodec, "reconstruct", "ec", _count_reconstruct)
        # The erasure tier charges its codec analytically instead of
        # running StripeCodec on page contents: count the bytes it
        # charges for, and time its put/get calls as the codec layer.
        trace.wrap(ErasureCodedRemoteTier, "put", "ec")
        trace.wrap(ErasureCodedRemoteTier, "get", "ec")
        trace.wrap(ErasureCodedRemoteTier, "_encode_time", "ec",
                   _count_bytes("ec.encode_bytes", 1))
        trace.wrap(ErasureCodedRemoteTier, "_decode_time", "ec",
                   _count_bytes("ec.reconstruct_bytes", 1))
        trace.wrap(Fabric, "transfer", "net")
        trace.wrap(Fabric, "fanout", "net")
        trace.wrap(retry, "retrying", "net", before=_count_attempts)
        trace.wrap(RemoteArea, "reserve", "mem", _count_refusal)
        trace.wrap(RemoteArea, "release", "mem")
        trace.wrap(SharedMemoryPool, "try_reserve", "mem", _count_refusal)
        trace.wrap(SharedMemoryPool, "remove", "mem")
        trace.wrap(RdmaBufferPool, "reserve", "mem", _count_refusal)
        trace.wrap(RdmaBufferPool, "reserve_entry", "mem", _count_refusal)
        trace.wrap(RdmaBufferPool, "release", "mem")
        trace.wrap(RdmaBufferPool, "release_entry", "mem")
        for allocator in (SlabAllocator, Arena, UniformAllocator):
            for name in ("allocate", "free", "allocate_entry", "free_entry"):
                trace.wrap(allocator, name, "mem")
        trace.wrap(mem_page, "make_pages", "mem")
        trace.wrap(FaultDriver, "_note", "faults", _count_fault)
        trace.wrap(arrivals, "aggregate", "serve", _count_requests)
        trace.wrap(ClassAccount, "record_completion", "serve")
        trace.wrap(LatencyHistogram, "record", "histogram")
        for name in ("iter_operations", "ops_batch", "iter_accesses", "as_batch"):
            trace.wrap(KvWorkloadSpec, name, "workloads")
        for name in ("iter_accesses", "as_batch"):
            trace.wrap(MlWorkloadSpec, name, "workloads")
        trace.wrap(batch, "materialize", "workloads")
        trace.wrap(batch, "flatten_requests", "workloads")
    except BaseException:
        trace.restore()
        raise
