"""Benchmark-side tracing: wrap each layer's public calls from outside.

Nothing in ``src/`` is edited.  :func:`install` replaces the layer entry
points listed in :data:`WRAPS` (methods on their classes, module functions
in every loaded ``repro`` module that imported them by name) with thin
wrappers that record a span per call.  Each span has a name, start, end,
parent and the statement or job id of the root it ran under.  A layer's
self time is its span time minus the time its wrapped children cover.

Hot calls (one or more per training tuple) are aggregated in place rather
than kept as span records, so a traced run holds a bounded number of spans
in memory; everything is written out once, by :meth:`Tracer.dump`, when the
run ends.  State is per thread, so the serve daemon's connection thread and
job threads never share a stack or a counter.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

# (module, attribute path, layer, hot, post-hook name)
#
# A post-hook turns (args, kwargs, result) into exact counts recorded next
# to the call's timing; see _POST below.
WRAPS = [
    # ml.kernel — the per-tuple reference step and the fused GLM kernels.
    ("repro.ml.models.linear", "GeneralizedLinearModel.step_example", "ml.kernel", True, None),
    ("repro.ml.models.linear", "GeneralizedLinearModel.step_block", "ml.kernel", True, "rows"),
    ("repro.ml.models.linear", "GeneralizedLinearModel.step_chunks", "ml.kernel", True, None),
    ("repro.ml.kernels", "glm_epoch_dense", "ml.kernel", True, None),
    ("repro.ml.kernels", "glm_epoch_sparse", "ml.kernel", True, None),
    ("repro.ml.kernels", "glm_epoch_dense_chunks", "ml.kernel", True, None),
    ("repro.ml.kernels", "glm_epoch_sparse_chunks", "ml.kernel", True, None),
    # ml.eval — per-epoch loss/score and EVALUATE/PREDICT scoring.
    ("repro.ml.models.linear", "GeneralizedLinearModel.loss", "ml.eval", False, None),
    ("repro.ml.models.linear", "LogisticRegression.score", "ml.eval", False, None),
    ("repro.ml.models.linear", "LogisticRegression.predict", "ml.eval", False, None),
    # db.operators — the Volcano shuffle operators and the SGD root.
    ("repro.db.operators", "BlockShuffleOperator.next", "db.operators", True, None),
    ("repro.db.operators", "RidBlockShuffleOperator.next", "db.operators", True, None),
    ("repro.db.operators", "TupleShuffleOperator.next", "db.operators", True, None),
    ("repro.db.operators", "SGDOperator.execute", "db.operators", False, None),
    # storage.heap / storage.bufferpool
    ("repro.storage.heapfile", "HeapFile.read_page_batch", "storage.heap", True, "batch_rows"),
    ("repro.storage.heapfile", "HeapFile.read_tuple", "storage.heap", True, "one_row"),
    ("repro.storage.heapfile", "HeapFile.scan", "storage.heap", True, "one_row"),
    ("repro.storage.heapfile", "HeapFile.insert", "storage.heap", False, None),
    ("repro.storage.heapfile", "HeapFile.update", "storage.heap", False, None),
    ("repro.storage.heapfile", "HeapFile.delete", "storage.heap", False, None),
    ("repro.storage.heapfile", "HeapFile.position_of", "storage.heap", True, None),
    ("repro.storage.bufferpool", "BufferPool.get_page_traced", "storage.bufferpool", True, "pool"),
    ("repro.storage.bufferpool", "BufferPool.get_batch_traced", "storage.bufferpool", True, "pool"),
    # db.catalog — DML with index maintenance and the post-DML refresh.
    ("repro.db.catalog", "TableInfo.insert_rows", "db.catalog", False, None),
    ("repro.db.catalog", "TableInfo.delete_rids", "db.catalog", False, None),
    ("repro.db.catalog", "TableInfo.update_rids", "db.catalog", False, None),
    # storage.index
    ("repro.storage.index.bptree", "BPlusTree.insert", "storage.index", False, None),
    ("repro.storage.index.bptree", "BPlusTree.delete", "storage.index", False, None),
    ("repro.storage.index.bptree", "BPlusTree.range", "storage.index", True, "examined_one"),
    # db.where / db.query
    ("repro.db.where", "plan_where_access", "db.where", False, None),
    ("repro.db.where", "choose_where_path", "db.where", False, None),
    ("repro.db.where", "qualifying_positions", "db.where", False, None),
    ("repro.db.where", "index_candidates", "db.where", False, None),
    ("repro.db.where", "index_qualifying_positions", "db.where", False, None),
    ("repro.db.query", "Predicate.mask", "db.where", False, "examined_rows"),
    ("repro.db.query", "parse_query", "db.query", False, None),
    # ml.persistence
    ("repro.ml.persistence", "save_checkpoint", "ml.persistence", False, None),
    ("repro.ml.persistence", "durable_write", "ml.persistence", False, "bytes_arg1"),
    # core.dataset / storage.blockfile
    ("repro.core.dataset", "CorgiPileDataset.__iter__", "core.dataset", True, None),
    ("repro.core.dataset", "CorgiPileDataset.iter_fills", "core.dataset", True, None),
    ("repro.storage.blockfile", "write_block_file", "storage.blockfile", False, None),
    ("repro.storage.blockfile", "BlockFileReader.read_block", "storage.blockfile", True, None),
    ("repro.storage.blockfile", "BlockFileReader.read_block_batch", "storage.blockfile", True, None),
    # serve — admission, job execution, per-request handlers, frames.
    ("repro.serve.jobs", "JobManager.submit", "serve.jobs", False, "job_result"),
    ("repro.serve.jobs", "JobManager._execute", "serve.jobs", False, "job_arg"),
    ("repro.serve.session", "Session.handle", "serve.session", False, None),
    ("repro.serve.protocol", "send_frame", "serve.protocol", True, None),
    ("repro.serve.protocol", "recv_frame", "serve.protocol", True, None),
    # parallel.hopper — parent side only; spawned workers are not wrapped.
    ("repro.parallel.hopper", "HopperEngine.run", "parallel.hopper", False, "hopper"),
]


def _rows(args, kwargs, result):
    y = args[2] if len(args) > 2 else kwargs.get("y")
    return {"rows": len(y)}


def _batch_rows(args, kwargs, result):
    return {"rows": len(result)}


def _one_row(args, kwargs, result):
    return {"rows": 1}


def _pool(args, kwargs, result):
    return {"misses": 0 if result[1] else 1}


def _examined_rows(args, kwargs, result):
    return {"examined": len(result)}


def _examined_one(args, kwargs, result):
    return {"examined": 1}


def _bytes_arg1(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    data = args[1] if len(args) > 1 else kwargs["data"]
    # Job journal records carry wall-clock timestamps, so their length
    # moves by a few bytes run to run; count them apart.
    return {"journal_bytes" if path.endswith(".json") else "bytes": len(data)}


def _job_result(args, kwargs, result):
    return {"tag:job": result.job_id}


def _job_arg(args, kwargs, result):
    return {"tag:job": args[1].job_id}


def _request_kind(args) -> str:
    """Root kind of one daemon request: read, write, submit, status, ..."""
    request = args[1]
    rtype = request.get("type", "?")
    if rtype != "sql":
        return f"req:{rtype}"
    sql = str(request.get("sql", ""))
    head = sql[:200].upper()
    if " TRAIN BY " in head:
        return "req:submit"
    if " EVALUATE BY " in head or " PREDICT BY " in head:
        return "req:read"
    if head.lstrip().startswith(("INSERT", "UPDATE", "DELETE")):
        return "req:write"
    return "req:sql"


#: Wrapped calls that, opened on an idle thread, name their root by request.
ROOT_KINDS = {"serve.session.Session.handle": _request_kind}


def _hopper(args, kwargs, result):
    return {
        "tag:slot_walls": list(result.slot_walls),
        "tag:bubble_ratio": result.schedule.bubble_ratio,
        "tag:tuples": result.tuples_processed,
    }


_POST = {
    "rows": _rows,
    "batch_rows": _batch_rows,
    "one_row": _one_row,
    "pool": _pool,
    "examined_rows": _examined_rows,
    "examined_one": _examined_one,
    "bytes_arg1": _bytes_arg1,
    "job_result": _job_result,
    "job_arg": _job_arg,
    "hopper": _hopper,
}


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []
        # (name, root kind, counted) -> [calls, total_s, self_s, {count: n}]
        self.agg: dict = {}
        self.spans: list[dict] = []


class Tracer:
    """In-memory spans + per-call aggregates for one process."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: list[tuple] = []
        self.layers: dict[str, str] = {}
        self.missing: list[str] = []
        self.t0 = time.perf_counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- frames ---------------------------------------------------------
    def _enter(self, name: str, kind: str | None = None, counted: bool = True, args=None):
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
            root_kind, root_counted, root_tags, parent_id = parent[4], parent[5], parent[6], parent[0]
        else:
            # A wrapped call with no open root becomes its own root (the
            # daemon's request and job threads).
            classify = ROOT_KINDS.get(name)
            own = classify(args) if classify is not None and args is not None else name
            root_kind, root_counted, root_tags, parent_id = own, counted, None, None
        span_id = next(self._ids)
        if kind is not None:
            root_kind, root_counted, root_tags = kind, counted, None
        if root_tags is None:
            # Every span carries the id of the op (statement, request or
            # job) it ran under.
            root_tags = {"root_id": span_id}
        frame = [span_id, name, time.perf_counter(), 0.0, root_kind, root_counted,
                 root_tags, parent_id]
        stack.append(frame)
        return frame

    def _exit(self, frame, hot: bool, counts=None) -> None:
        end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        total = end - frame[2]
        self_time = total - frame[3]
        if state.stack:
            state.stack[-1][3] += total
        key = (frame[1], frame[4], frame[5])
        entry = state.agg.get(key)
        if entry is None:
            entry = state.agg[key] = [0, 0.0, 0.0, {}]
        entry[0] += 1
        entry[1] += total
        entry[2] += self_time
        tags = None
        if counts:
            for k, v in counts.items():
                if k.startswith("tag:"):
                    if tags is None:
                        tags = {}
                    tags[k[4:]] = v
                else:
                    entry[3][k] = entry[3].get(k, 0) + v
        if tags and "job" in tags and not state.stack:
            frame[6]["job"] = tags["job"]
        if not hot:
            span = {
                "id": frame[0],
                "name": frame[1],
                "start": frame[2] - self.t0,
                "end": end - self.t0,
                "self": self_time,
                "parent": frame[7],
                "root": frame[4],
                "counted": frame[5],
            }
            span.update(frame[6])
            if tags:
                span.update(tags)
            state.spans.append(span)

    @contextlib.contextmanager
    def root(self, kind: str, counted: bool = True):
        """A benchmark-side root span around one operation (TRAIN, read, ...)."""
        frame = self._enter("root:" + kind, kind=kind, counted=counted)
        try:
            yield frame
        finally:
            self._exit(frame, hot=False)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name: str, hot: bool, post):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            tracer._exit(frame, True)
                            return
                        except BaseException:
                            tracer._exit(frame, True)
                            raise
                        tracer._exit(frame, True, post(args, kwargs, item) if post else None)
                        yield item
                finally:
                    it.close()

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, args=args)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, hot)
                raise
            tracer._exit(frame, hot, post(args, kwargs, result) if post else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, wraps=WRAPS) -> None:
        """Wrap every listed entry point that exists; record the rest as missing."""
        for module_name, path, layer, hot, post_name in wraps:
            name = f"{module_name.removeprefix('repro.')}.{path}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                attr = parts[-1]
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapped = self._wrap(original, name, hot, _POST.get(post_name))
            self.layers[name] = layer
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._installed.append((owner, attr, original))
                continue
            # A module function: rebind it everywhere it was imported by name.
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and getattr(
                    mod, attr, None
                ) is original:
                    setattr(mod, attr, wrapped)
                    self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- queries --------------------------------------------------------
    def _merged(self) -> dict:
        merged: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, (calls, total, self_s, counts) in list(state.agg.items()):
                entry = merged.setdefault(key, [0, 0.0, 0.0, {}])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
                for k, v in counts.items():
                    entry[3][k] = entry[3].get(k, 0) + v
        return merged

    def spans(self) -> list[dict]:
        with self._lock:
            states = list(self._states)
        out = [s for state in states for s in state.spans]
        out.sort(key=lambda s: s["start"])
        return out

    def summary(self) -> dict:
        """JSON-ready aggregates: one row per (call, root kind, counted)."""
        return {
            "layers": self.layers,
            "missing": self.missing,
            "agg": [
                {"name": k[0], "root": k[1], "counted": k[2], "calls": v[0],
                 "total_s": v[1], "self_s": v[2], "counts": v[3]}
                for k, v in self._merged().items()
            ],
        }

    def dump(self, path) -> None:
        """Write the aggregates and every recorded span (the only file write)."""
        doc = self.summary()
        doc["spans"] = self.spans()
        with open(path, "w") as fh:
            json.dump(doc, fh)


class TraceView:
    """Read-side helpers over a :meth:`Tracer.summary` document."""

    def __init__(self, doc: dict):
        self.layers = doc["layers"]
        self.rows = doc["agg"]
        self.spans = doc.get("spans", [])

    def _select(self, roots, layer=None, names=None, counted_only=False):
        for row in self.rows:
            if roots is not None and row["root"] not in roots:
                continue
            if counted_only and not row["counted"]:
                continue
            if layer is not None and self.layers.get(row["name"]) != layer:
                continue
            if names is not None and row["name"] not in names:
                continue
            yield row

    def self_s(self, roots, layer=None, names=None) -> float:
        return sum(r["self_s"] for r in self._select(roots, layer, names))

    def total_s(self, roots, names) -> float:
        return sum(r["total_s"] for r in self._select(roots, None, names))

    def calls(self, roots, layer=None, names=None, counted_only=False) -> int:
        return sum(r["calls"] for r in self._select(roots, layer, names, counted_only))

    def count(self, key, roots, layer=None, names=None, counted_only=False) -> int:
        return sum(
            r["counts"].get(key, 0) for r in self._select(roots, layer, names, counted_only)
        )
