/* Compiled twin of ``pykernels``: the same search kernels over machine words.
 *
 * Graphs have order <= 64, so each adjacency mask fits one uint64_t.  The
 * algorithms, candidate order, node accounting and results, (status, witness
 * or None, nodes) with FOUND exactly when a witness comes back, are those of
 * pykernels.py, whose module docstring proves the reachability invariant and
 * the peel, so both backends return identical tuples.  The dispatcher in
 * topocompat._kernels routes larger graphs to the pure backend.  Backtracking
 * keeps explicit stacks, and the deadline is read from time.monotonic every
 * 4096 nodes.  Both cycle entries parse their own arguments and share
 * cycle_result.  The library calls only longest_cycle; cycle_with_length is
 * kept for the tracer's kernel section and the parity tests until a
 * cycle_search entry replaces both.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAXN 64
#define NODE_CAP (1LL << 62)
#define BIT(v) ((uint64_t)1 << (v))
#define CTZ(x) __builtin_ctzll(x)
#define POPCOUNT(x) __builtin_popcountll(x)

enum { FOUND = 0, EXHAUSTED = 1, BUDGET_EXCEEDED = 2 };

static PyObject *monotonic; /* time.monotonic */

typedef struct {
    long long max_nodes, nodes;
    double deadline;
} Budget;

/* The node cap clamped to 2^62, and the absolute deadline (0: none). */
static int budget_init(Budget *b, PyObject *max_nodes, double deadline)
{
    int overflow;
    long long cap = PyLong_AsLongLongAndOverflow(max_nodes, &overflow);
    if (cap == -1 && PyErr_Occurred())
        return -1;
    b->max_nodes = (overflow > 0 || cap > NODE_CAP) ? NODE_CAP : cap;
    b->nodes = 0;
    b->deadline = deadline;
    return 0;
}

/* Count one node: 1 when the node cap or the deadline is passed, -1 on error. */
static int budget_hit(Budget *b)
{
    if (++b->nodes > b->max_nodes)
        return 1;
    if ((b->nodes & 4095) || b->deadline <= 0)
        return 0;
    PyObject *now = PyObject_CallNoArgs(monotonic);
    if (now == NULL)
        return -1;
    double t = PyFloat_AsDouble(now);
    Py_DECREF(now);
    return (t == -1.0 && PyErr_Occurred()) ? -1 : t > b->deadline;
}

static int check_order(int n)
{
    if (n >= 0 && n <= MAXN)
        return 0;
    PyErr_SetString(PyExc_ValueError, "compiled kernel handles orders <= 64 only");
    return -1;
}

static uint64_t all_mask(int n)
{
    return n >= 64 ? ~(uint64_t)0 : BIT(n) - 1;
}

/* seq[0..n-1] as words: masks when max is 0, else ints in 0..max-1. */
static int read_seq(PyObject *seq, int n, uint64_t *out, int max)
{
    for (int i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(seq, i);
        if (item == NULL)
            return -1;
        out[i] = PyLong_AsUnsignedLongLong(item);
        Py_DECREF(item);
        if (out[i] == (uint64_t)-1 && PyErr_Occurred())
            return -1;
        if (max && out[i] >= (uint64_t)max) {
            PyErr_SetString(PyExc_ValueError, "order holds a vertex out of range");
            return -1;
        }
    }
    return 0;
}

static PyObject *list_of(const int *v, int len)
{
    PyObject *list = PyList_New(len);
    for (int i = 0; list != NULL && i < len; i++) {
        PyObject *item = PyLong_FromLong(v[i]);
        if (item == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* -- subgraph isomorphism ------------------------------------------------- */

static PyObject *subgraph_search(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"task_n", "task_adj", "host_n", "host_adj", "order",
                             "max_nodes", "deadline", NULL};
    int tn, hn;
    PyObject *task_adj, *host_adj, *order_seq, *max_nodes;
    double deadline;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOiOOOd", kwlist, &tn, &task_adj, &hn,
                                     &host_adj, &order_seq, &max_nodes, &deadline))
        return NULL;
    if (check_order(tn) < 0 || check_order(hn) < 0)
        return NULL;
    if (tn > hn)
        return Py_BuildValue("iOi", EXHAUSTED, Py_None, 0);
    if (tn == 0) /* the empty map embeds an empty task */
        return Py_BuildValue("i[]i", FOUND, 0);
    uint64_t t_adj[MAXN], h_adj[MAXN], ord[MAXN], prev[MAXN], cands[MAXN];
    int need[MAXN], h_deg[MAXN], img[MAXN];
    Budget b;
    if (budget_init(&b, max_nodes, deadline) < 0 || read_seq(task_adj, tn, t_adj, 0) < 0
        || read_seq(host_adj, hn, h_adj, 0) < 0 || read_seq(order_seq, tn, ord, tn) < 0)
        return NULL;
    for (int v = 0; v < hn; v++)
        h_deg[v] = POPCOUNT(h_adj[v]);
    /* need[i]: degree of order[i]; prev[i]: earlier positions adjacent to it */
    for (int i = 0; i < tn; i++) {
        need[i] = POPCOUNT(t_adj[ord[i]]);
        prev[i] = 0;
        for (int j = 0; j < i; j++)
            if ((t_adj[ord[i]] >> ord[j]) & 1)
                prev[i] |= BIT(j);
    }
    /* explicit stack: positions 0..i-1 are mapped to img[0..i-1], which
     * used collects, and cands[i] holds the untried candidates for i */
    uint64_t all = all_mask(hn), used = 0;
    int i = 0, hit, status = EXHAUSTED;
    cands[0] = all;
    for (;;) {
        uint64_t cand = cands[i];
        int v = -1;
        while (cand && v < 0) {
            int x = CTZ(cand);
            cand &= cand - 1;
            if (h_deg[x] >= need[i])
                v = x;
        }
        if (v < 0) {
            if (i == 0)
                break;
            used &= ~BIT(img[--i]);
            continue;
        }
        cands[i] = cand;
        if ((hit = budget_hit(&b)) < 0)
            return NULL;
        if (hit) {
            status = BUDGET_EXCEEDED;
            break;
        }
        img[i] = v;
        if (i + 1 == tn) {
            int mapping[MAXN];
            for (int j = 0; j < tn; j++)
                mapping[ord[j]] = img[j];
            return Py_BuildValue("iNL", FOUND, list_of(mapping, tn), b.nodes);
        }
        used |= BIT(v);
        cand = all & ~used;
        for (uint64_t pm = prev[++i]; pm; pm &= pm - 1)
            cand &= h_adj[img[CTZ(pm)]];
        cands[i] = cand;
    }
    return Py_BuildValue("iOL", status, Py_None, b.nodes);
}

/* -- simple-cycle search -------------------------------------------------- */

/* Grow comp inside dom layer by layer until it holds want or is closed. */
static uint64_t grow(const uint64_t *adj, uint64_t dom, uint64_t comp, uint64_t want)
{
    uint64_t frontier = comp;
    while (frontier && (want & ~comp)) {
        uint64_t next = 0;
        for (; frontier; frontier &= frontier - 1)
            next |= adj[CTZ(frontier)];
        frontier = next & dom & ~comp;
        comp |= frontier;
    }
    return comp;
}

/* The reachable free set once w is pushed, as pykernels._reach_after; *one
 * says on entry whether reach is one component, and on return whether the
 * new set is. */
static uint64_t reach_after(const uint64_t *adj, uint64_t reach, int *one, int w)
{
    uint64_t rest = reach & ~BIT(w), seeds = adj[w] & rest, first = seeds & -seeds;
    if (*one) {
        *one = !(seeds & ~grow(adj, rest, first, seeds));
        return rest;
    }
    uint64_t comp = grow(adj, rest, first, rest), left = seeds & ~comp;
    *one = !left;
    return left ? comp | grow(adj, rest, left, rest) : comp;
}

/* Drop from r, over and over, every vertex with fewer than two neighbours in
 * r | keep, as pykernels._peel: only the vertices of todo and the neighbours
 * of dropped ones are checked.  With keep = {head, anchor}, no vertex of a
 * path from the head back to the anchor through r is dropped, and a dropped
 * vertex is a leaf of G[r], so r stays one component if it was one.  A child
 * starts from the old head's neighbours, the only vertices whose support
 * shrank; the root checks all of r. */
static uint64_t peel(const uint64_t *adj, uint64_t r, uint64_t keep, uint64_t todo)
{
    for (todo &= r; todo;) {
        int v = CTZ(todo);
        uint64_t nb = adj[v] & (r | keep);
        todo &= todo - 1;
        if (!(nb & (nb - 1))) {
            r &= ~BIT(v);
            todo |= adj[v] & r;
        }
    }
    return r;
}

/* The longest simple cycle longer than *best_len with at most limit vertices,
 * as pykernels._cycle_search: FOUND once it has raised *best_len and filled
 * best, else EXHAUSTED or BUDGET_EXCEEDED, or -1 with an exception set. */
static int cycle_search(int n, const uint64_t *adj, int *best_len, int limit, Budget *b,
                        int *best)
{
    /* explicit stack: path[0..d] is the path, with head path[d]; for i < d,
     * exts[i] holds the untried extensions of path[i], reach[i] the free
     * vertices reachable from path[i], and one[i] whether they are connected */
    int path[MAXN], one[MAXN], hit, status = EXHAUSTED;
    uint64_t exts[MAXN], reach[MAXN];
    for (int a = 0; a < n && n - a > *best_len; a++) {
        uint64_t a_bit = BIT(a), adj_a = adj[a], allowed = all_mask(n) & ~((a_bit << 1) - 1);
        if (POPCOUNT(adj_a & allowed) < 2)
            continue;
        path[0] = a;
        int d = 0;
        for (;;) {
            if ((hit = budget_hit(b)))
                return hit < 0 ? -1 : BUDGET_EXCEEDED;
            int head = path[d], plen = d + 1;
            if (plen >= 3 && ((adj[head] >> a) & 1) && plen > *best_len) {
                *best_len = plen;
                memcpy(best, path, plen * sizeof(int));
                status = FOUND;
                if (plen == limit)
                    return FOUND;
            }
            uint64_t ext = 0;
            if (plen < limit) {
                int c = d ? one[d - 1] : 0;
                uint64_t r = reach_after(adj, d ? reach[d - 1] : allowed | a_bit, &c, head);
                r = peel(adj, r, a_bit | BIT(head), d ? adj[path[d - 1]] : r);
                if ((adj_a & (r | BIT(head))) && plen + POPCOUNT(r) > *best_len) {
                    ext = adj[head] & r;
                    reach[d] = r;
                    one[d] = c;
                }
            }
            if (!ext) {
                /* backtrack past the head and every vertex with nothing left to try */
                for (d--; d >= 0 && !exts[d]; d--)
                    ;
                if (d < 0)
                    break;
                ext = exts[d];
            }
            exts[d] = ext & (ext - 1);
            path[++d] = CTZ(ext);
        }
    }
    return status;
}

/* Both cycle entries once their arguments are parsed: cycle_search's tuple. */
static PyObject *cycle_result(int n, PyObject *adj_seq, int best_len, int limit,
                              PyObject *max_nodes, double deadline)
{
    int best[MAXN], status;
    uint64_t adj[MAXN];
    Budget b;
    if (budget_init(&b, max_nodes, deadline) < 0 || read_seq(adj_seq, n, adj, 0) < 0
        || (status = cycle_search(n, adj, &best_len, limit, &b, best)) < 0)
        return NULL;
    PyObject *witness = status == FOUND ? list_of(best, best_len) : Py_NewRef(Py_None);
    return Py_BuildValue("iNL", status, witness, b.nodes);
}

static PyObject *longest_cycle(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "adj", "max_nodes", "deadline", NULL};
    int n;
    PyObject *adj_seq, *max_nodes;
    double deadline;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOOd", kwlist, &n, &adj_seq, &max_nodes,
                                     &deadline)
        || check_order(n) < 0)
        return NULL;
    return cycle_result(n, adj_seq, 0, n, max_nodes, deadline);
}

static PyObject *cycle_with_length(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "adj", "k", "max_nodes", "deadline", NULL};
    int n, k;
    PyObject *adj_seq, *max_nodes;
    double deadline;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "iOiOd", kwlist, &n, &adj_seq, &k, &max_nodes,
                                     &deadline)
        || check_order(n) < 0)
        return NULL;
    if (k < 3 || k > n)
        return Py_BuildValue("iOi", EXHAUSTED, Py_None, 0);
    return cycle_result(n, adj_seq, k - 1, k, max_nodes, deadline);
}

/* -- module --------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"subgraph_search", (PyCFunction)(void (*)(void))subgraph_search,
     METH_VARARGS | METH_KEYWORDS, "Find one injective edge-preserving map of task into host."},
    {"longest_cycle", (PyCFunction)(void (*)(void))longest_cycle, METH_VARARGS | METH_KEYWORDS,
     "The longest simple cycle, or EXHAUSTED with None if there is none."},
    {"cycle_with_length", (PyCFunction)(void (*)(void))cycle_with_length,
     METH_VARARGS | METH_KEYWORDS, "Find one simple cycle of length exactly k, or prove none."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "Compiled twin of pykernels: machine-word search kernels for orders <= 64.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    PyObject *time = PyImport_ImportModule("time");
    if (time == NULL)
        return NULL;
    monotonic = PyObject_GetAttrString(time, "monotonic");
    Py_DECREF(time);
    if (monotonic == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m != NULL
        && (PyModule_AddIntConstant(m, "FOUND", FOUND) < 0
            || PyModule_AddIntConstant(m, "EXHAUSTED", EXHAUSTED) < 0
            || PyModule_AddIntConstant(m, "BUDGET_EXCEEDED", BUDGET_EXCEEDED) < 0))
        Py_CLEAR(m);
    return m;
}
