/* _speedups: C implementation of the event-kernel core.
 *
 * EventCore is the hot half of repro.sim.kernel.Simulator: a binary
 * heap of (time, key, callback, args) entries with lazy cancellation,
 * a fused pop+dispatch run loop, and O(1) live-event accounting.  The
 * pure-Python twin lives in repro/sim/event.py (PyEventCore); the two
 * must stay behaviourally identical — tests/sim/test_engines.py drives
 * them side by side and compares event orders and trace digests.
 *
 * Ordering contract (same as the Python core): events fire by
 * (time, priority, seq); seq is a monotone counter so equal-time,
 * equal-priority events fire in scheduling order.  priority and seq
 * are packed into one 64-bit key, key = priority * 2^52 + seq, so the
 * tie-break is a single integer comparison.  seq stays below 2^52
 * (4.5e15 events — decades of simulated work) and priority is bounded
 * to +/-2^30 at the API edge, so the packing cannot collide.
 *
 * Build: tools/build_speedups.sh (plain gcc, no pip).  Import is
 * optional — repro.sim.kernel falls back to the Python core.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* priority * PRI_SHIFT + seq */
#define PRI_SHIFT (1LL << 52)
#define PRI_LIMIT (1LL << 30)

typedef struct {
    double time;
    long long key;       /* priority * PRI_SHIFT + seq */
    PyObject *cb;        /* strong ref; NULL => cancelled */
    PyObject *args;      /* strong ref or NULL (no args) */
} entry_t;

typedef struct {
    PyObject_HEAD
    double now;
    long long fired;     /* events dispatched (exposed as events_fired) */
    long long live;      /* scheduled - fired - cancelled (exposed as pending) */
    long long seq;
    int running;
    entry_t *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    PyObject *trace_hook;  /* NULL or callable(time, priority, callback) */
    long long trace_sample;      /* call the hook every Nth dispatch */
    long long trace_skip;        /* dispatches until the next hook call */
    long long trace_dispatches;  /* dispatches seen while a hook was set */
} EventCore;

static PyObject *SimulationError;  /* borrowed from repro.sim.errors at init */

/* ------------------------------------------------------------------ */
/* Heap primitives                                                     */
/* ------------------------------------------------------------------ */

static inline int
entry_lt(const entry_t *a, const entry_t *b)
{
    if (a->time < b->time)
        return 1;
    if (a->time > b->time)
        return 0;
    return a->key < b->key;
}

static int
heap_reserve(EventCore *self, Py_ssize_t need)
{
    Py_ssize_t cap;
    entry_t *grown;

    if (need <= self->capacity)
        return 0;
    cap = self->capacity ? self->capacity * 2 : 64;
    while (cap < need)
        cap *= 2;
    grown = PyMem_Realloc(self->heap, cap * sizeof(entry_t));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = grown;
    self->capacity = cap;
    return 0;
}

static int
heap_push(EventCore *self, double time, long long key,
          PyObject *cb, PyObject *args)
{
    entry_t *heap;
    Py_ssize_t pos, parent;

    if (heap_reserve(self, self->size + 1) < 0)
        return -1;
    heap = self->heap;
    pos = self->size++;
    while (pos > 0) {
        parent = (pos - 1) >> 1;
        if (!(time < heap[parent].time ||
              (time == heap[parent].time && key < heap[parent].key)))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos].time = time;
    heap[pos].key = key;
    heap[pos].cb = cb;
    heap[pos].args = args;
    return 0;
}

/* Remove the root.  The root's cb/args refs are NOT released: the
 * caller has already taken ownership of them. */
static void
heap_pop_root(EventCore *self)
{
    entry_t *heap = self->heap;
    entry_t moved;
    Py_ssize_t pos, child, end;

    end = --self->size;
    if (end == 0)
        return;
    moved = heap[end];
    pos = 0;
    child = 1;
    while (child < end) {
        if (child + 1 < end && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (!entry_lt(&heap[child], &moved))
            break;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = moved;
}

/* Discard cancelled entries sitting at the root. */
static void
heap_purge_cancelled(EventCore *self)
{
    while (self->size > 0 && self->heap[0].cb == NULL) {
        Py_XDECREF(self->heap[0].args);
        self->heap[0].args = NULL;
        heap_pop_root(self);
    }
}

static void
heap_clear_entries(EventCore *self)
{
    Py_ssize_t i;

    for (i = 0; i < self->size; i++) {
        Py_XDECREF(self->heap[i].cb);
        Py_XDECREF(self->heap[i].args);
    }
    self->size = 0;
}

/* ------------------------------------------------------------------ */
/* Shared helpers                                                      */
/* ------------------------------------------------------------------ */

static inline long long
key_priority(long long key)
{
    /* floor(key / PRI_SHIFT) for seq in [1, PRI_SHIFT) */
    if (key >= 0)
        return key / PRI_SHIFT;
    return -((-key + PRI_SHIFT - 1) / PRI_SHIFT);
}

/* Per-dispatch hook gate: counts the dispatch and decides whether the
 * sampling countdown lets this one through to the Python hook.  The
 * skipped path is a decrement and a branch — no Python call at all. */
static inline int
trace_hook_due(EventCore *self)
{
    self->trace_dispatches++;
    if (--self->trace_skip > 0)
        return 0;
    self->trace_skip = self->trace_sample;
    return 1;
}

static int
call_trace_hook(EventCore *self, double time, long long key, PyObject *cb)
{
    PyObject *res;
    PyObject *time_obj = PyFloat_FromDouble(time);
    PyObject *pri_obj;

    if (time_obj == NULL)
        return -1;
    pri_obj = PyLong_FromLongLong(key_priority(key));
    if (pri_obj == NULL) {
        Py_DECREF(time_obj);
        return -1;
    }
    res = PyObject_CallFunctionObjArgs(self->trace_hook, time_obj,
                                       pri_obj, cb, NULL);
    Py_DECREF(time_obj);
    Py_DECREF(pri_obj);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Common scheduling body: validates priority, builds the args tuple,
 * pushes, and returns the handle (the packed key as a Python int). */
static PyObject *
schedule_common(EventCore *self, double time, PyObject *const *args,
                Py_ssize_t nargs, PyObject *kwnames)
{
    long long priority = 0;
    long long key, seq;
    PyObject *cb, *argtuple = NULL;
    Py_ssize_t extra, i;

    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            int is_priority = PyUnicode_CompareWithASCIIString(name,
                                                               "priority");
            if (is_priority == 0) {
                priority = PyLong_AsLongLong(value);
                if (priority == -1 && PyErr_Occurred())
                    return NULL;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "schedule() got an unexpected keyword "
                             "argument %R", name);
                return NULL;
            }
        }
        if (priority >= PRI_LIMIT || priority <= -PRI_LIMIT) {
            PyErr_Format(SimulationError,
                         "priority %lld out of range (|priority| < 2^30)",
                         priority);
            return NULL;
        }
    }

    cb = args[1];
    extra = nargs - 2;
    if (extra > 0) {
        argtuple = PyTuple_New(extra);
        if (argtuple == NULL)
            return NULL;
        for (i = 0; i < extra; i++) {
            PyObject *item = args[2 + i];
            Py_INCREF(item);
            PyTuple_SET_ITEM(argtuple, i, item);
        }
    }

    seq = ++self->seq;
    key = priority ? priority * PRI_SHIFT + seq : seq;
    Py_INCREF(cb);
    if (heap_push(self, time, key, cb, argtuple) < 0) {
        Py_DECREF(cb);
        Py_XDECREF(argtuple);
        return NULL;
    }
    self->live++;
    return PyLong_FromLongLong(key);
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
core_schedule(EventCore *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    double delay;

    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, callback, *args, priority=0)");
        return NULL;
    }
    delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationError,
                     "cannot schedule into the past (delay=%R)", args[0]);
        return NULL;
    }
    return schedule_common(self, self->now + delay, args, nargs, kwnames);
}

static PyObject *
core_schedule_at(EventCore *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    double time;

    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(time, callback, *args, priority=0)");
        return NULL;
    }
    time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        PyErr_Format(SimulationError,
                     "cannot schedule at t=%R < now=%R", args[0], now_obj);
        Py_XDECREF(now_obj);
        return NULL;
    }
    return schedule_common(self, time, args, nargs, kwnames);
}

static PyObject *
core_cancel(EventCore *self, PyObject *handle)
{
    long long key;
    Py_ssize_t i;

    key = PyLong_AsLongLong(handle);
    if (key == -1 && PyErr_Occurred())
        return NULL;
    for (i = 0; i < self->size; i++) {
        if (self->heap[i].key == key && self->heap[i].cb != NULL) {
            Py_CLEAR(self->heap[i].cb);
            Py_CLEAR(self->heap[i].args);
            self->live--;
            break;
        }
    }
    Py_RETURN_NONE;  /* cancelling twice (or a fired event) is a no-op */
}

static PyObject *
core_peek_time(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    heap_purge_cancelled(self);
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->heap[0].time);
}

/* Fire the next live event.  Returns 1 on fire, 0 when empty, -1 on
 * error (exception set). */
static int
fire_next(EventCore *self)
{
    double t;
    long long key;
    PyObject *cb, *cbargs, *res;

    heap_purge_cancelled(self);
    if (self->size == 0)
        return 0;
    t = self->heap[0].time;
    key = self->heap[0].key;
    cb = self->heap[0].cb;
    cbargs = self->heap[0].args;
    heap_pop_root(self);
    self->now = t;
    self->fired++;
    self->live--;
    if (self->trace_hook != NULL && trace_hook_due(self) &&
        call_trace_hook(self, t, key, cb) < 0) {
        Py_DECREF(cb);
        Py_XDECREF(cbargs);
        return -1;
    }
    if (cbargs != NULL)
        res = PyObject_Call(cb, cbargs, NULL);
    else
        res = PyObject_CallNoArgs(cb);
    Py_DECREF(cb);
    Py_XDECREF(cbargs);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 1;
}

static PyObject *
core_step(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    int status = fire_next(self);

    if (status < 0)
        return NULL;
    return PyBool_FromLong(status);
}

static PyObject *
core_run(EventCore *self, PyObject *const *args, Py_ssize_t nargs,
         PyObject *kwnames)
{
    double until = 0.0;
    int have_until = 0;
    long long max_events = -1;
    long long fired_here = 0;
    PyObject *until_obj = NULL, *max_obj = NULL;
    Py_ssize_t i;

    if (nargs > 0)
        until_obj = args[0];
    if (nargs > 1)
        max_obj = args[1];
    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "run(until=None, max_events=None)");
        return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "until") == 0) {
                if (until_obj != NULL) {
                    PyErr_SetString(PyExc_TypeError,
                                    "run() got duplicate 'until'");
                    return NULL;
                }
                until_obj = value;
            }
            else if (PyUnicode_CompareWithASCIIString(name,
                                                      "max_events") == 0) {
                if (max_obj != NULL) {
                    PyErr_SetString(PyExc_TypeError,
                                    "run() got duplicate 'max_events'");
                    return NULL;
                }
                max_obj = value;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    if (until_obj != NULL && until_obj != Py_None) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
        have_until = 1;
    }
    if (max_obj != NULL && max_obj != Py_None) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }

    self->running = 1;
    while (self->running) {
        entry_t *top;

        if (max_events >= 0 && fired_here >= max_events)
            break;
        heap_purge_cancelled(self);
        if (self->size == 0)
            break;
        top = &self->heap[0];
        if (have_until && top->time > until)
            break;
        {
            double t = top->time;
            long long key = top->key;
            PyObject *cb = top->cb;
            PyObject *cbargs = top->args;
            PyObject *res;

            heap_pop_root(self);
            self->now = t;
            self->fired++;
            self->live--;
            fired_here++;
            if (self->trace_hook != NULL && trace_hook_due(self) &&
                call_trace_hook(self, t, key, cb) < 0) {
                Py_DECREF(cb);
                Py_XDECREF(cbargs);
                self->running = 0;
                return NULL;
            }
            if (cbargs != NULL)
                res = PyObject_Call(cb, cbargs, NULL);
            else
                res = PyObject_CallNoArgs(cb);
            Py_DECREF(cb);
            Py_XDECREF(cbargs);
            if (res == NULL) {
                self->running = 0;
                return NULL;
            }
            Py_DECREF(res);
        }
    }
    self->running = 0;
    if (have_until && self->now < until)
        self->now = until;
    Py_RETURN_NONE;
}

static PyObject *
core_stop(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    self->running = 0;
    Py_RETURN_NONE;
}

static PyObject *
core_reset(EventCore *self, PyObject *Py_UNUSED(ignored))
{
    heap_clear_entries(self);
    self->now = 0.0;
    self->fired = 0;
    self->live = 0;
    Py_RETURN_NONE;
}

static PyObject *
core_set_trace_hook(EventCore *self, PyObject *hook)
{
    if (hook == Py_None) {
        Py_CLEAR(self->trace_hook);
    }
    else {
        Py_INCREF(hook);
        Py_XSETREF(self->trace_hook, hook);
    }
    Py_RETURN_NONE;
}

static PyObject *
core_set_trace_sample(EventCore *self, PyObject *arg)
{
    long long rate = PyLong_AsLongLong(arg);

    if (rate == -1 && PyErr_Occurred())
        return NULL;
    if (rate < 1) {
        PyErr_Format(PyExc_ValueError,
                     "sample rate must be >= 1, got %lld", rate);
        return NULL;
    }
    self->trace_sample = rate;
    self->trace_skip = rate;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Type plumbing                                                       */
/* ------------------------------------------------------------------ */

static int
core_init(EventCore *self, PyObject *args, PyObject *kwargs)
{
    /* Accept and ignore arbitrary arguments so cooperative
     * super().__init__() chains work from Python subclasses. */
    heap_clear_entries(self);
    self->now = 0.0;
    self->fired = 0;
    self->live = 0;
    self->seq = 0;
    self->running = 0;
    self->trace_sample = 1;
    self->trace_skip = 1;
    self->trace_dispatches = 0;
    return 0;
}

static int
core_traverse(EventCore *self, visitproc visit, void *arg)
{
    Py_ssize_t i;

    for (i = 0; i < self->size; i++) {
        Py_VISIT(self->heap[i].cb);
        Py_VISIT(self->heap[i].args);
    }
    Py_VISIT(self->trace_hook);
    return 0;
}

static int
core_clear(EventCore *self)
{
    heap_clear_entries(self);
    Py_CLEAR(self->trace_hook);
    return 0;
}

static void
core_dealloc(EventCore *self)
{
    PyObject_GC_UnTrack(self);
    heap_clear_entries(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_CLEAR(self->trace_hook);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef core_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))core_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule(delay, callback, *args, priority=0) -> handle"},
    {"schedule_at", (PyCFunction)(void (*)(void))core_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule_at(time, callback, *args, priority=0) -> handle"},
    {"cancel", (PyCFunction)core_cancel, METH_O,
     "cancel(handle): lazily cancel a scheduled event (idempotent)"},
    {"peek_time", (PyCFunction)core_peek_time, METH_NOARGS,
     "Time of the earliest live event, or None if empty."},
    {"step", (PyCFunction)core_step, METH_NOARGS,
     "Fire the next event.  Returns False when the queue is empty."},
    {"run", (PyCFunction)(void (*)(void))core_run,
     METH_FASTCALL | METH_KEYWORDS,
     "run(until=None, max_events=None)"},
    {"stop", (PyCFunction)core_stop, METH_NOARGS,
     "Stop a running run() loop after the current event."},
    {"reset", (PyCFunction)core_reset, METH_NOARGS,
     "Drop all pending events and rewind the clock."},
    {"_set_trace_hook", (PyCFunction)core_set_trace_hook, METH_O,
     "Install hook(time, priority, callback), or None to disable."},
    {"_set_trace_sample", (PyCFunction)core_set_trace_sample, METH_O,
     "Forward only every Nth dispatch to the trace hook (restarts the "
     "countdown); trace_dispatches still counts every dispatch."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef core_members[] = {
    {"now", T_DOUBLE, offsetof(EventCore, now), READONLY,
     "current simulation time (ns)"},
    {"events_fired", T_LONGLONG, offsetof(EventCore, fired), READONLY,
     "number of events dispatched so far"},
    {"pending", T_LONGLONG, offsetof(EventCore, live), READONLY,
     "number of live (non-cancelled, unfired) events"},
    {"trace_dispatches", T_LONGLONG, offsetof(EventCore, trace_dispatches),
     READONLY,
     "dispatches that occurred while a trace hook was installed "
     "(sampled or not); monotone across reset()"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.EventCore",
    .tp_basicsize = sizeof(EventCore),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE |
                 Py_TPFLAGS_HAVE_GC),
    .tp_doc = "C event-kernel core (heap + dispatch loop)",
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_members = core_members,
    .tp_init = (initproc)core_init,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._speedups",
    .m_doc = "C accelerator for the repro.sim event kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *module, *errors;

    errors = PyImport_ImportModule("repro.sim.errors");
    if (errors == NULL)
        return NULL;
    SimulationError = PyObject_GetAttrString(errors, "SimulationError");
    Py_DECREF(errors);
    if (SimulationError == NULL)
        return NULL;

    if (PyType_Ready(&EventCoreType) < 0)
        return NULL;
    module = PyModule_Create(&speedups_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&EventCoreType);
    if (PyModule_AddObject(module, "EventCore",
                           (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(&EventCoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
