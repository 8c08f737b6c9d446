/* CPython-API materialization of the flat gate arena.
 *
 * The one arena routine that must create Python objects: at the end of a
 * compile the flat clause store is turned back into the legacy clause
 * ``list`` objects, partitioned into the hard set and the statement
 * groups.  Doing this walk in C removes the dominant cost of large cold
 * compiles, without changing a byte of the result: the object graph built
 * here is identical to the one :meth:`GateArena.materialize` builds in
 * pure Python, which remains the always-available fallback.
 *
 * Unlike the other cores this library includes Python.h, so it is built
 * only when the interpreter's headers are present and is loaded with
 * ``ctypes.PyDLL`` (the GIL stays held; every entry point runs Python
 * allocation machinery).
 *
 * Entry point:
 *   repro_materialize(lits, cend, cgid, nclauses, ngroups)
 *     -> (hard, grouped)
 */

#include <Python.h>
#include <stdint.h>

typedef int64_t i64;

PyObject *repro_materialize(i64 *lits, i64 *cend, i64 *cgid, i64 nclauses,
                            i64 ngroups) {
    PyObject *hard = PyList_New(0);
    PyObject *grouped = PyList_New(ngroups);
    PyObject *result = NULL;

    if (!hard || !grouped)
        goto fail;
    for (i64 g = 0; g < ngroups; g++) {
        PyObject *bucket = PyList_New(0);
        if (!bucket)
            goto fail;
        PyList_SET_ITEM(grouped, g, bucket);
    }
    i64 start = 0;
    for (i64 i = 0; i < nclauses; i++) {
        i64 end = cend[i];
        PyObject *clause = PyList_New(end - start);
        if (!clause)
            goto fail;
        for (i64 k = start; k < end; k++) {
            PyObject *lit = PyLong_FromLongLong(lits[k]);
            if (!lit) {
                Py_DECREF(clause);
                goto fail;
            }
            PyList_SET_ITEM(clause, k - start, lit);
        }
        i64 gid = cgid[i];
        PyObject *bucket = gid < 0 ? hard : PyList_GET_ITEM(grouped, gid);
        int failed = PyList_Append(bucket, clause) < 0;
        Py_DECREF(clause);
        if (failed)
            goto fail;
        start = end;
    }

    result = PyTuple_Pack(2, hard, grouped);
fail:
    Py_XDECREF(hard);
    Py_XDECREF(grouped);
    return result;
}
