"""The runtime router: instantiate, wire, and drive a configuration.

A :class:`Router` is built from a *finished* RouterGraph and never
mutates afterwards (§5.1: configurations are static; to change one, the
user installs an entirely new configuration).  Compound elements must
already be flattened (:mod:`repro.core.flatten` does this, as the Click
kernel parser does automatically).

Archives may carry generated element code (from click-fastclassifier or
click-devirtualize).  Like Click, which "will first compile the source
code and dynamically link with the result" (§4), the router execs the
bundled Python source and adds the classes it exports to the
configuration's private class table before resolving class names.
"""

from __future__ import annotations

from collections import ChainMap

from ..errors import ClickSemanticError
from ..graph.ports import PULL, PUSH, resolve_processing
from .element import Element
from .registry import ELEMENT_CLASSES, default_specs

GENERATED_MEMBER_SUFFIX = ".py"
EXPORT_NAME = "ELEMENT_EXPORTS"


def compile_archive_classes(archive):
    """Exec every ``*.py`` archive member; collect the element classes
    each exports via an ``ELEMENT_EXPORTS`` list.

    Members are compiled in archive order, and each sees the classes
    earlier members exported (as ``GENERATED_CLASSES``) — so that, e.g.,
    click-devirtualize's generated code can specialize element classes
    click-fastclassifier generated earlier in the chain.
    """
    classes = {}
    for member_name, source in archive.items():
        if not member_name.endswith(GENERATED_MEMBER_SUFFIX):
            continue
        namespace = {"Element": Element, "GENERATED_CLASSES": dict(classes)}
        code = compile(source, "<archive:%s>" % member_name, "exec")
        exec(code, namespace)  # noqa: S102 - configuration-bundled code
        for cls in namespace.get(EXPORT_NAME, []):
            classes[cls.class_name] = cls
    return classes


class Router:
    """A running router built from a configuration graph."""

    def __init__(self, graph, extra_classes=None, meter=None, devices=None, profile=None):
        self.graph = graph
        self.meter = meter
        self.adaptive = None
        self._adaptive_config = None
        # Inert on a single router, but it must round-trip through
        # .profile so a sharded plane's shard-local routers can
        # reconstruct the full profile.
        self._divide_capacity = False
        self.supervisor = None
        self.fault_injector = None
        self.retired = False
        # Keep the caller's mapping object (even when empty): device
        # lookups go through its .get, so callers may pass lazy or
        # auto-populating mappings.
        self.devices = {} if devices is None else devices
        # Layer per-configuration classes over the global registry
        # instead of copying it: building a router stops being
        # O(registry size), and the registry stays shared and read-only.
        overlay = dict(compile_archive_classes(graph.archive))
        if extra_classes:
            overlay.update(extra_classes)
        self._classes = ChainMap(overlay, ELEMENT_CLASSES)
        self.elements = {}
        self._tasks = []
        self.fastpath = None
        self._mode = "reference"
        self._batch = False
        self._build()
        if profile is not None:
            self.configure(profile)

    # -- construction ---------------------------------------------------------

    def _build(self):
        graph = self.graph
        if graph.element_classes:
            raise ClickSemanticError(
                "runtime router requires a flattened configuration "
                "(compound classes remain: %s)" % ", ".join(graph.element_classes)
            )
        # Instantiate.
        for decl in graph.elements.values():
            cls = self._classes.get(decl.class_name)
            if cls is None:
                raise ClickSemanticError(
                    "unknown element class %r for element %r" % (decl.class_name, decl.name)
                )
            element = cls(decl.name, decl.config)
            element.router = self
            self.elements[decl.name] = element

        # Resolve push/pull over the whole configuration.
        specs = default_specs(extra_classes=self._classes.values())
        resolved = resolve_processing(graph, specs)

        # Allocate and wire ports.
        for name, element in self.elements.items():
            ninputs = graph.input_count(name)
            noutputs = graph.output_count(name)
            cls = type(element)
            counts = specs[cls.class_name].port_counts
            if not counts.inputs_ok(ninputs):
                raise ClickSemanticError(
                    "%s (%s) has %d input(s); %r allowed"
                    % (name, cls.class_name, ninputs, counts.text)
                )
            if not counts.outputs_ok(noutputs):
                raise ClickSemanticError(
                    "%s (%s) has %d output(s); %r allowed"
                    % (name, cls.class_name, noutputs, counts.text)
                )
            element.set_nports(ninputs, noutputs)

        for name in self.elements:
            in_codes, out_codes = resolved[name]
            for port, code in enumerate(out_codes):
                conns = graph.connections_from(name, port)
                if not conns:
                    raise ClickSemanticError(
                        "%s output [%d] is unconnected" % (name, port)
                    )
                if code == PUSH and len(conns) > 1:
                    raise ClickSemanticError(
                        "%s push output [%d] has %d connections; push outputs "
                        "connect to exactly one input" % (name, port, len(conns))
                    )
                if code == PUSH:
                    conn = conns[0]
                    self.elements[name].output(port).connect(
                        self.elements[conn.to_element], conn.to_port
                    )
            for port, code in enumerate(in_codes):
                conns = graph.connections_to(name, port)
                if not conns:
                    raise ClickSemanticError("%s input [%d] is unconnected" % (name, port))
                if code == PULL and len(conns) > 1:
                    raise ClickSemanticError(
                        "%s pull input [%d] has %d connections; pull inputs "
                        "connect to exactly one output" % (name, port, len(conns))
                    )
                if code == PULL:
                    conn = conns[0]
                    self.elements[name].input(port).connect(
                        self.elements[conn.from_element], conn.from_port
                    )

        # Initialize, collect tasks in declaration order.
        for element in self.elements.values():
            element.initialize()
            if element.is_task():
                self._tasks.append(element)

    # -- execution mode --------------------------------------------------------

    @property
    def mode(self):
        """``"reference"`` (the interpreting oracle), ``"fast"``, or
        ``"adaptive"`` (tiered profile-guided recompilation)."""
        return self._mode

    def compile_fastpath(self, batch=False):
        """Compile this router's fast path (without installing it) and
        return the :class:`~repro.runtime.fastpath.FastPath`."""
        from ..runtime.codegen_cache import default_cache
        from ..runtime.fastpath import FastPath

        if self.fastpath is not None and self.fastpath.installed:
            self.fastpath.uninstall()
        self.fastpath = FastPath(self, batch=batch, cache=default_cache())
        return self.fastpath

    @property
    def profile(self):
        """The :class:`~repro.runtime.profile.ExecutionProfile` this
        router currently runs under (reconstructed from live state, so
        it survives hot-swaps and supervisor demotions)."""
        from ..runtime.profile import ExecutionProfile

        supervisor = self.supervisor
        return ExecutionProfile(
            mode=self._mode,
            batch=self._batch,
            adaptive=self._adaptive_config,
            supervised=supervisor is not None,
            supervisor=supervisor.config if supervisor is not None else None,
            divide_capacity=self._divide_capacity,
        )

    def configure(self, profile=None):
        """Apply an :class:`~repro.runtime.profile.ExecutionProfile`:
        the execution tier (compiling on first use), batch flavor,
        adaptive configuration, and supervision, as one declarative
        switch.  ``None`` means the default reference profile.  Returns
        ``self``."""
        from ..runtime.profile import ExecutionProfile

        if profile is None:
            profile = ExecutionProfile()
        if profile.workers > 1:
            raise ValueError(
                "a plain Router is single-shard; profiles with workers > 1 "
                "need a ShardedRouter (use build_router, which dispatches)"
            )
        if not profile.supervised and self.supervisor is not None:
            self.supervisor.detach()
        if (
            self.adaptive is not None
            and profile.adaptive is not self._adaptive_config
        ):
            # A changed adaptive config must rebuild the engine, not be
            # silently ignored by the mode switch below.
            self.adaptive.uninstall()
            self.adaptive = None
        self._adaptive_config = profile.adaptive
        self._divide_capacity = profile.divide_capacity
        self._set_mode(profile.mode, batch=profile.batch)
        if profile.supervised:
            self._attach_supervisor(profile.supervisor)
        return self

    def _set_mode(self, mode, batch=False):
        """Switch between the reference interpreter, the compiled fast
        path, and the adaptive tiered engine; compiles on first use
        (and on batch-flavor change)."""
        if mode not in ("reference", "fast", "adaptive", "fdd"):
            raise ValueError(
                "mode must be 'reference', 'fast', 'adaptive', or 'fdd', "
                "not %r" % (mode,)
            )
        # Mode changes swap port lists wholesale; supervision wraps the
        # current ports, so it must come off first and back on after.
        supervisor = self.supervisor
        if supervisor is not None:
            supervisor_config = supervisor.config
            supervisor.detach()
        if self.adaptive is not None and (
            getattr(self.adaptive, "mode_label", "adaptive") != mode
            or self.adaptive.batch != bool(batch)
        ):
            self.adaptive.uninstall()
            self.adaptive = None
        if mode == "reference":
            if self.fastpath is not None and self.fastpath.installed:
                self.fastpath.uninstall()
        elif mode in ("adaptive", "fdd"):
            if self.adaptive is None:
                if mode == "fdd":
                    from ..runtime.fdd import FDDEngine as engine_class
                else:
                    from ..runtime.adaptive import AdaptiveEngine as engine_class

                if self.fastpath is not None and self.fastpath.installed:
                    self.fastpath.uninstall()
                self.adaptive = engine_class(
                    self, config=self._adaptive_config, batch=batch
                )
                self.adaptive.install()
        else:
            if self.fastpath is None or self.fastpath.batch != bool(batch):
                self.compile_fastpath(batch=batch)
            self.fastpath.install()
        self._mode = mode
        self._batch = bool(batch) if mode != "reference" else False
        if supervisor is not None:
            self._attach_supervisor(supervisor_config)
        return self

    def _attach_supervisor(self, config=None):
        """Attach (or re-attach) supervised execution: error boundaries
        around every compiled chain entry, tiered demotion, circuit
        breakers, and the task watchdog.  Returns the supervisor."""
        from ..runtime.supervisor import Supervisor

        if self.supervisor is not None:
            self.supervisor.detach()
        supervisor = Supervisor(self, config=config)
        supervisor.attach()
        return supervisor

    def detach_supervisor(self):
        """Remove supervision, restoring the unwrapped ports."""
        if self.supervisor is not None:
            self.supervisor.detach()

    def retire(self):
        """Decommission this router after a hot-swap: supervision and
        compiled state come off, and the scheduler goes inert.  The
        wiring and element state stay readable (the new router's
        ``take_state`` handlers already copied what they needed)."""
        if self.retired:
            return
        self.detach_supervisor()
        if self.adaptive is not None:
            self.adaptive.uninstall()
            self.adaptive = None
        if self.fastpath is not None and self.fastpath.installed:
            self.fastpath.uninstall()
        self._mode = "reference"
        self.retired = True

    def force_deopt(self, reason="forced"):
        """Deterministic harness hook: force the adaptive engine back to
        tier 1 (profiles reset, specialized code discarded).  A no-op in
        the other modes — which is what makes a forced deopt a valid
        differential-testing event: it must never change behaviour,
        only which tier executes it.  Returns True if a deopt happened."""
        if self.adaptive is None:
            return False
        self.adaptive.deopt(reason)
        return True

    def bump_arp_epochs(self):
        """Deterministic harness hook: invalidate every ARPQuerier's
        baked-header guard (as a table change would) without altering
        table contents.  Returns the number of elements bumped."""
        bumped = 0
        for element in self.elements.values():
            if hasattr(element, "_arp_epoch"):
                element._arp_epoch += 1
                bumped += 1
        return bumped

    # -- access ------------------------------------------------------------------

    def __getitem__(self, name):
        return self.elements[name]

    def find(self, name):
        """The element named ``name``, or None."""
        return self.elements.get(name)

    def elements_of_class(self, class_name):
        """All element instances of the given class."""
        return [e for e in self.elements.values() if e.class_name == class_name]

    @property
    def tasks(self):
        return list(self._tasks)

    # -- driving --------------------------------------------------------------------

    def run_tasks(self, iterations=1):
        """Drive the polling scheduler: each iteration gives every task
        element one run_task call (Click's constantly-active kernel
        thread, round-robin).  A retired router (after a hot-swap) is
        inert.  Under supervision each task call gets a containing
        boundary and watchdog bookkeeping."""
        if self.retired:
            return 0
        if self.supervisor is not None:
            return self._run_tasks_supervised(iterations)
        useful = 0
        adaptive = self.adaptive
        for _ in range(iterations):
            worked = 0
            for task in self._tasks:
                if self.meter is not None:
                    self.meter.on_task(task)
                if task.run_task():
                    worked += 1
            useful += worked
            if adaptive is not None and not worked:
                # An idle scheduler pass is when Click would do
                # housekeeping; the adaptive engine uses it to promote
                # chains whose profiles matured off the packet path.
                adaptive.on_idle()
        return useful

    def _run_tasks_supervised(self, iterations):
        """The supervised scheduler loop: the port boundaries drop the
        exact packet that raised; this task-level backstop catches
        anything that escapes them (and counts the pass as worked — the
        task did consume input before failing), so a supervised router
        never lets a task kill the driver."""
        useful = 0
        adaptive = self.adaptive
        supervisor = self.supervisor
        for _ in range(iterations):
            worked = 0
            for task in self._tasks:
                if supervisor.task_benched(task):
                    continue
                try:
                    did = task.run_task()
                except Exception as exc:  # noqa: BLE001 - supervised backstop
                    supervisor.on_task_error(task, exc)
                    did = True
                else:
                    supervisor.note_task(task, did)
                if did:
                    worked += 1
            useful += worked
            if adaptive is not None and not worked:
                adaptive.on_idle()
        return useful

    def push_packet(self, element_name, port, packet):
        """Inject a packet into a push input (testing convenience)."""
        element = self.elements[element_name]
        if self.meter is not None:
            self.meter.on_element_work(element)
        element.push(port, packet)

    # -- handlers (Click's /click/<element>/<handler> interface) -----------

    def read_handler(self, path):
        """Read ``"element.handler"`` (or ``"element/handler"``)."""
        element_name, handler = self._split_handler_path(path)
        return self.elements[element_name].read_handler(handler)

    def write_handler(self, path, value):
        """Write ``value`` to ``"element.handler"``."""
        element_name, handler = self._split_handler_path(path)
        self.elements[element_name].write_handler(handler, value)

    @staticmethod
    def _split_handler_path(path):
        for separator in (".", "/"):
            if separator in path:
                element_name, _, handler = path.rpartition(separator)
                return element_name, handler
        raise KeyError("bad handler path %r (want element.handler)" % path)


def build_router(graph, **kwargs):
    """Flatten ``graph`` if needed and build a router from it: a plain
    :class:`Router`, or — when the profile carries ``workers > 1`` — a
    :class:`~repro.runtime.shard.ShardedRouter` fanning the profile out
    across hash-partitioned worker shards."""
    if graph.element_classes:
        from ..core.flatten import flatten

        graph = flatten(graph)
    profile = kwargs.get("profile")
    if profile is not None and getattr(profile, "workers", 1) > 1:
        from ..runtime.shard import ShardedRouter

        return ShardedRouter(graph, **kwargs)
    return Router(graph, **kwargs)
