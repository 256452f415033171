/* Local-search ascent on a binary Boolean VCSP, in exact fixed-width arithmetic.

   The native twin of the Python loop search._ascend, which stays the
   reference.  One loop runs all three selection rules, chosen by argument:
     STEEPEST  a variable of maximal gain, the lowest index on ties, with the
               same tie count and "error" tie policy as search._Steepest;
     RANDOM    sorted(improving)[random.Random(seed).randrange(count)], drawn
               as randrange draws it, from words the caller drew from that
               Random (see "Random draws" below);
     FIRST     the next improving variable in a cyclic scan order, resuming
               just past the last flip.
   Every rule has the same minimum gain and max_steps guard.  The instance's
   arrays are only read, so threads may share them.  The caller's other
   buffers belong to one call, and so does the scratch, which each call
   allocates and frees.  A whole run is one call from the caller's
   assignment, but for a RANDOM run whose words run out: it stops with DRAWN,
   and the caller runs it again with more, which repeats what it read.

   The loop is written once, at the end of this file, and compiled at two
   widths, with one signature, by including the file into itself:
     vcsp_ascend     int64_t cells; the caller guarantees
                     |constant| + sum|unary| + sum|binary| < 2^62;
     vcsp_ascend128  __int128 values, where the compiler has them, on
                     little-endian machines; the caller guarantees the same
                     sum < 2^126.  Each cell is 16 little-endian bytes, read
                     and written with memcpy, since the caller's buffers need
                     not be 16-byte aligned.
   Under its bound no fitness, gradient or gain can overflow its width.

   A recorded run writes each step as one record of three cells, (variable,
   gain, fitness after), at either width; at int64 they are the array of a
   search.Steps, which the replay and CSV functions below read.
   The kernel grows the records with realloc and hands them to the caller,
   who frees them with vcsp_free, as it does the ascent-graph search's
   arrays.  That search, the sign-dependence arcs of landscape.orient, the
   chain-weight check and the semismoothness count, at the end of the int64
   part, read the same arrays as vcsp_ascend.

   Compiled on first use by search._native_kernel and called through ctypes
   with no argtypes (but for vcsp_free), which converts each argument by its
   Python type: ints as C int, so every integer parameter is int32_t except
   the 64-bit ones (max_steps and n_words, the trace functions' counts, the
   CSV one's d, the start mask, fitness and cap of the ascent-graph search,
   and the weight check's S), which the caller passes as ctypes int64s or
   uint64s, and every pointer as a ctypes array, bytes, a byref() or None. */
#ifndef VALUE

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PEAK = 0, LIMIT = 1, TIE = 2, NO_MEMORY = 3, DRAWN = 4 };  /* why the run stopped */

enum { STEEPEST = 0, RANDOM = 1, FIRST = 2 };  /* the selection rules */

/* Slots of res[]. */
enum { R_STEPS, R_FIT_START, R_FIT_END, R_MIN_GAIN, R_TIES, R_TIE_MOVES, R_TIE_GAIN };

/* The loop is inlined once per rule, so each rule's loop carries no test of
   the others' branches.  Each width's entry point, and so its loop, starts
   on a 64-byte boundary: otherwise the loop's place in the cache lines moves
   with the size of whatever the library holds before it.  On a 2-core Xeon
   a 32-byte shift took the median 4,096-step steepest call on
   chain(16, 16, +-) from about 0.067 to 0.085 ms. */
#if defined(__GNUC__)
#define PER_RULE static inline __attribute__((always_inline))
#define LINE_ALIGNED __attribute__((aligned(64)))
#else
#define PER_RULE static inline
#define LINE_ALIGNED
#endif

/* Resizes the array at *p to n items of size bytes; 0 when that fails, with
   *p as it was. */
static int resize(void **p, int64_t n, size_t size)
{
    if ((uint64_t)n > SIZE_MAX / size)
        return 0;
    void *q = realloc(*p, (size_t)n * size);
    if (!q)
        return 0;
    *p = q;
    return 1;
}

/* Frees what the kernel handed to the caller: step records, graph arrays. */
void vcsp_free(void *p)
{
    free(p);
}

/* --- Random draws, from words the caller drew from random.Random ---

   The words of random.Random(seed).getrandbits(32 * N), 4 little-endian
   bytes each, least significant first, are those of N calls of
   getrandbits(32).  randbelow(n), for 0 < n < 2^31, draws from them as
   randrange(n) does (Random._randbelow_with_getrandbits): the top k =
   n.bit_length() bits of the next word, redrawn while they are n or more.
   *next is the index of the next of the n_words words; it returns -1 when
   they run out. */
static int32_t randbelow(const unsigned char *words, int64_t n_words, int64_t *next, int32_t n)
{
    int k = 0;
    uint32_t r;
    while (n >> k)
        k++;
    do {
        if (*next == n_words)
            return -1;
        const unsigned char *b = words + 4 * (*next)++;
        r = ((uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
             | (uint32_t)b[3] << 24) >> (32 - k);
    } while (r >= (uint32_t)n);
    return (int32_t)r;
}

/* --- A Fenwick tree over the improving flags of variables 0 .. d-1 ---

   tree[1 .. d]; tree[i] counts the improving variables among
   i - (i & -i) .. i - 1.  top is the largest power of two <= d. */

static void fenwick_add(int32_t *tree, int32_t d, int32_t v, int32_t delta)
{
    for (int32_t i = v + 1; i <= d; i += i & -i)
        tree[i] += delta;
}

/* The improving variable with r improving variables below it. */
static int32_t fenwick_find(const int32_t *tree, int32_t d, int32_t top, int32_t r)
{
    int32_t p = 0;
    for (int32_t step = top; step; step >>= 1) {
        if (p + step <= d && tree[p + step] <= r) {
            p += step;
            r -= tree[p];
        }
    }
    return p;
}

/* vcsp_ascend: the loop at int64, on arrays of int64_t. */
#define VALUE int64_t
#define CELL int64_t
#define LOAD(p, i) ((p)[i])
#define STORE(p, i, v) ((p)[i] = (v))
#define ASCEND vcsp_ascend
#define LOOP ascend_loop64
#include "_ascend.c"  /* this file: the loop below, at this width */
#undef VALUE
#undef CELL
#undef LOAD
#undef STORE
#undef ASCEND
#undef LOOP

/* --- Recorded int64 traces: replay and CSV rows ---

   search.replay and search.write_trace_csv hand over a search.Steps' int64
   array: the records as vcsp_ascend wrote them.  The Python loops stay the
   reference: they run every trace whose steps are not a Steps, and replay
   runs its loop again after any failure here, so that it raises its own
   message. */

/* Replays n steps over the instance's int64 arrays (as vcsp_ascend reads
   them) from the assignment x at fitness *fit.  Each step is checked as
   search.replay checks it: the variable is in [0, d), the recorded gain is
   the gain of flipping it at x and is positive, and the fitness after it is
   the recorded one.  Returns 0 with the end in x and its fitness in *fit,
   so that a next call continues from there, or else the number (from 1) of
   the first of the n steps that fails.  Every step that gets as far as the
   sum is a real move of the instance, so under vcsp_ascend's bound on the
   weights nothing overflows. */
int64_t vcsp_replay64(int32_t d, const void *const *arrays, uint8_t *x, int64_t n,
                      const int64_t *steps, int64_t *fit)
{
    const int64_t *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    int64_t f = *fit;
    for (int64_t t = 0; t < n; t++) {
        int64_t v = steps[3 * t], gain = steps[3 * t + 1];
        if (v < 0 || v >= d)
            return t + 1;
        int64_t g = unary[v];
        for (int32_t k = off[v]; k < off[v + 1]; k++)
            if (x[nbr[k]])
                g += w[k];
        if (x[v])
            g = -g;
        if (g != gain || gain <= 0)
            return t + 1;
        x[v] ^= 1;
        f += gain;
        if (f != steps[3 * t + 2])
            return t + 1;
    }
    *fit = f;
    return 0;
}

/* Writes v in decimal at out; returns the end. */
static char *put_int64(char *out, int64_t v)
{
    char digits[20], *p = digits + sizeof digits;
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    do
        *--p = (char)('0' + u % 10);
    while (u /= 10);
    if (v < 0)
        *out++ = '-';
    size_t len = (size_t)(digits + sizeof digits - p);
    memcpy(out, p, len);
    return out + len;
}

/* Writes steps t0 .. t0 + n - 1 as the CSV rows "t,v,label,gain,after\r\n"
   that search.write_trace_csv writes, numbered from t0 + 1, into out;
   returns the number of bytes written.  Variable v in [0, d) has the label
   label[label_off[v] .. label_off[v + 1]); any other v has an empty one.  A
   row takes at most 85 bytes besides its label. */
int64_t vcsp_csv_rows64(int64_t t0, int64_t n, const int64_t *steps, int64_t d,
                        const int32_t *label_off, const char *label, char *out)
{
    char *p = out;
    for (int64_t t = t0; t < t0 + n; t++) {
        int64_t v = steps[3 * t];
        p = put_int64(p, t + 1);
        *p++ = ',';
        p = put_int64(p, v);
        *p++ = ',';
        if (v >= 0 && v < d) {
            memcpy(p, label + label_off[v], (size_t)(label_off[v + 1] - label_off[v]));
            p += label_off[v + 1] - label_off[v];
        }
        *p++ = ',';
        p = put_int64(p, steps[3 * t + 1]);
        *p++ = ',';
        p = put_int64(p, steps[3 * t + 2]);
        *p++ = '\r';
        *p++ = '\n';
    }
    return p - out;
}

/* --- Ascent graphs at int64 ---

   The native twin of the loop of landscape.ascent_graph, which stays the
   reference: a breadth-first search over every improving flip from a start,
   for d <= 64 variables, so that an assignment is a uint64_t mask (bit v is
   x_v).  The nodes are their own queue, in discovery order, and each node's
   edges come in ascending variable.  An open-addressing table of node
   indices, at most half full, finds a mask's node.  A node's gains are
   recomputed from its mask in O(d + edges), so none are stored.

   That recomputation has no branch on the mask: each weight is added under
   a mask of all ones or all zeros, the sign is flipped by xor and subtract,
   and every variable is written to a list whose count grows only when its
   gain is positive.  Over breadth-first masks a branch on a bit is taken
   about as often as not, so it was mispredicted about half the time; on a
   2-core Xeon the search over chain(3, 3, +) from the other peak went from
   about 155 to 84 us. */

enum { G_NODES, G_FITNESS, G_OFFSETS, G_EDGES };  /* the slots of graph[] */

/* A table of 2^bits empty slots (-1), or NULL. */
static int32_t *empty_table(int bits)
{
    if (((uint64_t)1 << bits) > SIZE_MAX / sizeof(int32_t))
        return NULL;
    size_t bytes = ((size_t)1 << bits) * sizeof(int32_t);
    int32_t *table = malloc(bytes);
    if (table)
        memset(table, 0xff, bytes);
    return table;
}

/* The slot of mask in a table of 2^bits slots: its first free slot when
   mask is not there, probing linearly from a Fibonacci hash. */
static uint64_t find_slot(const int32_t *table, int bits, const uint64_t *nodes, uint64_t mask)
{
    uint64_t full = ((uint64_t)1 << bits) - 1, h = (mask * 0x9E3779B97F4A7C15U) >> (64 - bits);
    while (table[h] >= 0 && nodes[table[h]] != mask)
        h = (h + 1) & full;
    return h;
}

/* The ascent graph from the mask start, of fitness fit, over the instance's
   int64 arrays (as vcsp_ascend reads them), on d <= 64 variables.  graph[]
   holds four NULLs on entry and the arrays on return, also after a failure,
   for the caller to pass to vcsp_free: the masks (uint64_t) and their fitness
   (int64_t) in discovery order, and the CSR offsets and edge targets
   (int32_t), with the numbers of nodes and of edges in size[0] and size[1].
   Returns PEAK when the search is done; LIMIT when a new node is found
   while cap or more are known, where the reference raises; NO_MEMORY when
   an allocation fails or a count would pass INT32_MAX. */
int vcsp_ascent_graph64(int32_t d, const void *const *arrays, uint64_t start, int64_t fit,
                        int64_t cap, void **graph, int64_t *size)
{
    const int64_t *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    int64_t n = 1, m = 0, node_cap = 64, edge_cap = 256;
    int bits = 7;
    int32_t *table = empty_table(bits);
    int status = NO_MEMORY;
    if (!(table && resize(&graph[G_NODES], node_cap, sizeof(uint64_t))
          && resize(&graph[G_FITNESS], node_cap, sizeof(int64_t))
          && resize(&graph[G_OFFSETS], node_cap + 1, sizeof(int32_t))
          && resize(&graph[G_EDGES], edge_cap, sizeof(int32_t))))
        goto done;
    uint64_t *nodes = graph[G_NODES];
    int64_t *fitness = graph[G_FITNESS];
    int32_t *offsets = graph[G_OFFSETS], *edges = graph[G_EDGES];
    nodes[0] = start;
    fitness[0] = fit;
    table[find_slot(table, bits, nodes, start)] = 0;
    for (int64_t k = 0; k < n; k++) {
        uint64_t x = nodes[k];
        int32_t imp[64], n_up = 0;  /* the improving variables, ascending, */
        int64_t gain[64];           /* and their gains */
        offsets[k] = (int32_t)m;
        for (int32_t v = 0; v < d; v++) {
            int64_t g = unary[v], flip = -(int64_t)(x >> v & 1);
            for (int32_t e = off[v]; e < off[v + 1]; e++)
                g += w[e] & -(int64_t)(x >> nbr[e] & 1);
            imp[n_up] = v;
            gain[n_up] = (g ^ flip) - flip;  /* -g where x_v = 1 */
            n_up += gain[n_up] > 0;
        }
        for (int32_t j = 0; j < n_up; j++) {
            int32_t v = imp[j];
            int64_t g = gain[j];
            uint64_t y = x ^ (uint64_t)1 << v, h = find_slot(table, bits, nodes, y);
            int32_t b = table[h];
            if (b < 0) {  /* a new node */
                if (n >= cap) {
                    status = LIMIT;
                    goto done;
                }
                if (n == node_cap) {
                    if (n == INT32_MAX)
                        goto done;
                    node_cap = n > INT32_MAX / 2 ? INT32_MAX : 2 * n;
                    if (!(resize(&graph[G_NODES], node_cap, sizeof(uint64_t))
                          && resize(&graph[G_FITNESS], node_cap, sizeof(int64_t))
                          && resize(&graph[G_OFFSETS], node_cap + 1, sizeof(int32_t))))
                        goto done;
                    nodes = graph[G_NODES];
                    fitness = graph[G_FITNESS];
                    offsets = graph[G_OFFSETS];
                }
                b = (int32_t)n++;
                nodes[b] = y;
                fitness[b] = fitness[k] + g;
                table[h] = b;
                if (2 * n > (int64_t)1 << bits) {  /* rebuild the table twice as large */
                    int32_t *wider = empty_table(bits + 1);
                    if (!wider)
                        goto done;
                    free(table);
                    table = wider;
                    bits++;
                    for (int32_t i = 0; i < n; i++)
                        table[find_slot(table, bits, nodes, nodes[i])] = i;
                }
            }
            if (m == edge_cap) {
                if (m == INT32_MAX)
                    goto done;
                edge_cap = m > INT32_MAX / 2 ? INT32_MAX : 2 * m;
                if (!resize(&graph[G_EDGES], edge_cap, sizeof(int32_t)))
                    goto done;
                edges = graph[G_EDGES];
            }
            edges[m++] = b;
        }
    }
    offsets[n] = (int32_t)m;
    status = PEAK;
done:
    free(table);
    size[0] = n;
    size[1] = m;
    return status;
}

/* --- Orientation at int64 ---

   The native twin of landscape._orient_loop, which stays the reference:
   the part of orient that reads the weights.  Neighbour b of v (its b-th
   CSR entry) is a sign source of v when some assignment of v's other
   neighbours gives v's gradient a different three-valued sign (0 is its own
   sign) with b at 0 and at 1.  An edge is a conflict when each end is a
   sign source of the other, and otherwise carries an arc from each sign
   source to the variable that depends on it.  The order of the arcs needs
   no weights, so landscape.orient finds it in Python for both paths. */

enum { CONFLICT = 5 };  /* a status of vcsp_orient64, after the ones above */

static int sign64(int64_t g)
{
    return (g > 0) - (g < 0);
}

/* Whether bit h of the masks of a table of size entries changes the sign
   of some entry: whether table[m] and table[m | h] differ in sign for some
   m without bit h. */
static int changes_sign(const int64_t *table, size_t size, size_t h)
{
    for (size_t base = 0; base < size; base += 2 * h)
        for (size_t m = base; m < base + h; m++)
            if (sign64(table[m]) != sign64(table[m + h]))
                return 1;
    return 0;
}

/* The sign-dependence arcs of the instance's int64 arrays (as vcsp_ascend
   reads them) on d variables.  Each variable's gradient table, in the mask
   order of core._gradient_table, is built by doubling into one buffer of
   2^(max degree) entries.  The edges are then walked in the order of
   sorted(inst.binaries): i ascending, then its neighbours j > i ascending.
   arcs has room for two int32_t a binary.  Returns LIMIT, before any work,
   when a degree is above cap or 31; NO_MEMORY when the scratch cannot be
   allocated; CONFLICT at the first edge whose ends depend on each other,
   with the edge (i < j) in info[0] and info[1]; PEAK otherwise, with info[0]
   arcs (a, b), b depending on a, in arcs[] in edge order. */
int vcsp_orient64(int32_t d, const void *const *arrays, int32_t cap, int32_t *arcs,
                  int32_t *info)
{
    const int64_t *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    int32_t max_deg = 0;
    for (int32_t v = 0; v < d; v++)
        if (off[v + 1] - off[v] > max_deg)
            max_deg = off[v + 1] - off[v];
    if (max_deg > cap || max_deg > 31)
        return LIMIT;
    size_t n = d > 0 ? (size_t)d : 1, entries = off[d] > 0 ? (size_t)off[d] : 1;
    int64_t *table = NULL;
    if (((size_t)1 << max_deg) <= SIZE_MAX / sizeof *table)
        table = malloc(((size_t)1 << max_deg) * sizeof *table);
    int32_t *next = malloc(n * sizeof *next);
    uint8_t *source = malloc(entries);  /* per CSR entry: a sign source? */
    int status = NO_MEMORY;
    if (!(table && next && source))
        goto done;

    for (int32_t v = 0; v < d; v++) {
        int32_t deg = off[v + 1] - off[v];
        size_t size = (size_t)1 << deg;
        table[0] = unary[v];
        for (int32_t b = 0; b < deg; b++) {
            size_t h = (size_t)1 << b;
            for (size_t m = 0; m < h; m++)
                table[h + m] = table[m] + w[off[v] + b];
        }
        for (int32_t b = 0; b < deg; b++)
            source[off[v] + b] = (uint8_t)changes_sign(table, size, (size_t)1 << b);
    }

    /* Entry k of i's row holds j; j's row lists its neighbours below j
       first, in ascending order, so next[j] walks to the entry that holds i
       as the edges (i, j) come in ascending i. */
    int32_t n_arcs = 0;
    for (int32_t v = 0; v < d; v++)
        next[v] = off[v];
    for (int32_t i = 0; i < d; i++) {
        for (int32_t k = off[i]; k < off[i + 1]; k++) {
            int32_t j = nbr[k];
            if (j < i)
                continue;
            int i_on_j = source[k], j_on_i = source[next[j]++];
            if (i_on_j && j_on_i) {
                info[0] = i;
                info[1] = j;
                status = CONFLICT;
                goto done;
            }
            if (j_on_i || i_on_j) {
                arcs[2 * n_arcs] = j_on_i ? i : j;
                arcs[2 * n_arcs++ + 1] = j_on_i ? j : i;
            }
        }
    }
    info[0] = n_arcs;
    status = PEAK;
done:
    free(table);
    free(next);
    free(source);
    return status;
}

/* --- Chain weight checks at int64 ---

   The twin of generator._validate_weights' per-variable loop, which stays
   the reference and runs after any failure here, so every message is its
   own.  Returns 0 when every variable v of the instance's int64 arrays (as
   vcsp_ascend reads them) on d variables passes, else 1 + the first that
   fails: its unary is negative, or S where v is top (the '+' top, -1 under
   '-'); its magnitude exceeds the sum of its outgoing binaries; it has at
   most 3 neighbours, checked before its gradient table is built; no sum of
   its c incoming binaries (table[1 .. 2^c)) is in (0, slack]; and every
   table entry is nonzero with magnitude s[v] or at least S - s[v].  The
   caller keeps 0 < S < 2^41; under vcsp_ascend's bound no sum overflows. */
int vcsp_validate64(int32_t d, const void *const *arrays, int64_t S, int32_t top,
                    const int64_t *s)
{
    const int64_t *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    int64_t table[8];
    for (int32_t v = 0; v < d; v++) {
        int64_t u = unary[v], size = u < 0 ? -u : u, outgoing = 0, slack = size;
        int32_t deg = off[v + 1] - off[v], c = 0;
        if (v == top ? u != S : u >= 0)
            return v + 1;
        for (int32_t k = off[v]; k < off[v + 1]; k++) {
            c += nbr[k] < v;
            outgoing += nbr[k] > v ? w[k] : 0;
            slack -= nbr[k] > v && w[k] < 0 ? w[k] : 0;
        }
        if ((v != top && size <= outgoing) || deg > 3)
            return v + 1;
        table[0] = u;
        for (int32_t b = 0; b < deg; b++)
            for (int32_t m = 0; m < 1 << b; m++)
                table[(1 << b) + m] = table[m] + w[off[v] + b];
        for (int32_t m = 1; m < 1 << c; m++)
            if (table[m] - u > 0 && table[m] - u <= slack)
                return v + 1;
        /* below -2^62, S - s[v] would overflow, and exceeds every |g| < 2^62 */
        int64_t large = s[v] < -(INT64_C(1) << 62) ? INT64_MAX : S - s[v];
        for (int32_t m = 0; m < 1 << deg; m++) {
            int64_t g = table[m] < 0 ? -table[m] : table[m];
            if (!g || (g != s[v] && g < large))
                return v + 1;
        }
    }
    return 0;
}

/* --- Semismoothness at int64 ---

   The twin of landscape._superset_sum, which stays the reference, step for
   step, but it only decides: check_semismooth runs the reference after a
   fail, so every violation is the reference's.  Returns 0 when every face
   of the cube of the instance's int64 arrays (as vcsp_ascend reads them) on
   d variables has exactly one peak, 1 when some face has not, NO_MEMORY
   when the tables cannot be allocated.  The caller keeps 0 <= d <= 24, so
   every mask and count fits a uint32_t.  fit[] (8 bytes a mask) is freed
   before cnt[] (4) is allocated, beside up[] (4). */

/* The number of ones in x, in plain C99. */
static int ones32(uint32_t x)
{
    x -= x >> 1 & 0x55555555u;
    x = (x & 0x33333333u) + (x >> 2 & 0x33333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0fu;
    return (int)((x * 0x01010101u) >> 24);
}

int vcsp_semismooth64(int32_t d, const void *const *arrays)
{
    const int64_t *constant = arrays[0], *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    uint32_t n = (uint32_t)1 << d, *cnt = NULL;
    int64_t *fit = malloc((size_t)n * sizeof *fit);
    uint32_t *up = malloc((size_t)n * sizeof *up);
    int status = NO_MEMORY;
    if (!(fit && up))
        goto done;
    fit[0] = constant[0];
    for (int32_t v = 0; v < d; v++) {  /* a row lists its neighbours below v first */
        uint32_t h = (uint32_t)1 << v;
        for (uint32_t x = 0; x < h; x++) {
            int64_t f = fit[x] + unary[v];
            for (int32_t e = off[v]; e < off[v + 1] && nbr[e] < v; e++)
                f += w[e] & -(int64_t)(x >> nbr[e] & 1);
            fit[h + x] = f;
        }
    }
    for (uint32_t x = 0; x < n; x++) {
        uint32_t u = 0;
        for (int32_t v = 0; v < d; v++)
            u |= (uint32_t)(fit[x] >= fit[x ^ (uint32_t)1 << v]) << v;
        up[x] = u;
    }
    free(fit);
    fit = NULL;
    cnt = calloc(n, sizeof *cnt);
    if (!cnt)
        goto done;
    for (uint32_t x = 0; x < n; x++)
        cnt[up[x]]++;
    for (int32_t v = 0; v < d; v++) {  /* cnt[s] += cnt[s | bit v], s without v */
        uint32_t h = (uint32_t)1 << v;
        for (uint32_t base = 0; base < n; base += 2 * h)
            for (uint32_t s = base; s < base + h; s++)
                cnt[s] += cnt[s + h];
    }
    status = 0;
    for (uint32_t s = 1; s < n && !status; s++)
        status = cnt[s] != n >> ones32(s);
done:
    free(fit);
    free(up);
    free(cnt);
    return status;
}

#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) \
    && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__

__extension__ typedef __int128 int128;

/* One 16-byte value as it lies in the caller's buffers: alignment 1. */
typedef struct { unsigned char bytes[16]; } cell128;

static int128 load128(const cell128 *p)
{
    int128 v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store128(cell128 *p, int128 v)
{
    memcpy(p, &v, sizeof v);
}

#define VALUE int128
#define CELL cell128
#define LOAD(p, i) load128(&(p)[i])
#define STORE(p, i, v) store128(&(p)[i], (v))
#define ASCEND vcsp_ascend128
#define LOOP ascend_loop128
#include "_ascend.c"  /* this file: the loop below, at this width */

#endif

#else  /* the loop: function ASCEND at width VALUE, over arrays of CELL */

/* The loop under one rule, with the scratch ASCEND allocated: gain[v] is the
   fitness change of flipping v.  Under STEEPEST, imp lists the improving
   variables in any order and pos[v] is v's slot in imp or -1; under RANDOM,
   imp is the Fenwick tree of the improving flags; FIRST needs neither, as
   it reads the flags off gain[].  The records *out holds grow before the
   step that would not fit: 1,024 at first, then twice as many. */
PER_RULE int LOOP(const int rule, int32_t d, const CELL *constant, const int32_t *off,
                  const int32_t *nbr, const CELL *w, const CELL *unary, uint8_t *x,
                  int64_t max_steps, int32_t stop_on_tie, const int32_t *order,
                  const unsigned char *words, int64_t n_words, void **out, CELL *res,
                  CELL *gain, int32_t *imp, int32_t *pos)
{
    VALUE fit = LOAD(constant, 0);
    int32_t n_imp = 0, top = 1;
    for (int32_t i = 0; i < d; i++) {
        VALUE g = LOAD(unary, i);
        for (int32_t k = off[i]; k < off[i + 1]; k++) {
            if (x[nbr[k]]) {
                g += LOAD(w, k);
                if (x[i] && nbr[k] > i)
                    fit += LOAD(w, k);
            }
        }
        if (x[i]) {
            fit += LOAD(unary, i);
            g = -g;
        }
        STORE(gain, i, g);
        if (rule == STEEPEST) {
            pos[i] = -1;
            if (g > 0) {
                pos[i] = n_imp;
                imp[n_imp] = i;
            }
        } else if (rule == RANDOM) {
            imp[i + 1] = g > 0;
        }
        n_imp += g > 0;
    }
    if (rule == RANDOM) {  /* build the tree over the flags in place, in O(d) */
        for (int32_t i = 1; i <= d; i++) {
            int32_t parent = i + (i & -i);
            if (parent <= d)
                imp[parent] += imp[i];
        }
        while (top <= d / 2)
            top *= 2;
    }
    STORE(res, R_FIT_START, fit);

    int64_t steps = 0, ties = 0, cap = 0;  /* cap: the records *out holds */
    int64_t drawn = 0;  /* RANDOM's words read */
    CELL *rec = NULL;
    uint32_t scan = 0;  /* FIRST's position in order */
    VALUE min_gain = 0;
    int status = PEAK;
    while (n_imp > 0) {
        if (steps == max_steps) {
            status = LIMIT;
            break;
        }
        if (out && steps == cap) {
            cap = cap ? 2 * cap : 1024;
            if (!resize(out, cap, 3 * sizeof(CELL))) {
                status = NO_MEMORY;
                break;
            }
            rec = *out;
        }
        int32_t best = -1;
        VALUE best_g = 0;
        if (rule == STEEPEST) {
            int64_t nmax = 1;
            for (int32_t k = 0; k < n_imp; k++) {
                int32_t v = imp[k];
                VALUE g = LOAD(gain, v);
                if (g > best_g) {
                    best = v;
                    best_g = g;
                    nmax = 1;
                } else if (g == best_g) {
                    nmax++;
                    if (v < best)
                        best = v;
                }
            }
            if (nmax > 1) {
                if (stop_on_tie) {
                    STORE(res, R_TIE_MOVES, nmax);
                    STORE(res, R_TIE_GAIN, best_g);
                    status = TIE;
                    break;
                }
                ties++;
            }
            int32_t last = imp[n_imp - 1];  /* swap-remove best from imp */
            imp[pos[best]] = last;
            pos[last] = pos[best];
            pos[best] = -1;
        } else if (rule == RANDOM) {
            int32_t r = randbelow(words, n_words, &drawn, n_imp);
            if (r < 0) {
                status = DRAWN;
                break;
            }
            best = fenwick_find(imp, d, top, r);
            fenwick_add(imp, d, best, -1);
            best_g = LOAD(gain, best);
        } else {
            do {
                best = order ? order[scan] : (int32_t)scan;
                if (++scan == (uint32_t)d)
                    scan = 0;
            } while (!(LOAD(gain, best) > 0));
            best_g = LOAD(gain, best);
        }
        n_imp--;

        fit += best_g;
        x[best] ^= 1;
        STORE(gain, best, -best_g);
        for (int32_t k = off[best]; k < off[best + 1]; k++) {
            int32_t u = nbr[k];
            VALUE dg = x[best] ? LOAD(w, k) : -LOAD(w, k);  /* change of u's gradient */
            VALUE old = LOAD(gain, u);
            VALUE g = old + (x[u] ? -dg : dg);
            STORE(gain, u, g);
            if (rule == STEEPEST) {
                if (g > 0 && pos[u] < 0) {
                    pos[u] = n_imp;
                    imp[n_imp++] = u;
                } else if (g <= 0 && pos[u] >= 0) {
                    int32_t last = imp[--n_imp];
                    imp[pos[u]] = last;
                    pos[last] = pos[u];
                    pos[u] = -1;
                }
            } else if ((g > 0) != (old > 0)) {
                int32_t delta = g > 0 ? 1 : -1;
                n_imp += delta;
                if (rule == RANDOM)
                    fenwick_add(imp, d, u, delta);
            }
        }

        if (out) {
            STORE(rec, 3 * steps, best);
            STORE(rec, 3 * steps + 1, best_g);
            STORE(rec, 3 * steps + 2, fit);
        }
        steps++;
        if (min_gain == 0 || best_g < min_gain)
            min_gain = best_g;
    }
    STORE(res, R_STEPS, steps);
    STORE(res, R_FIT_END, fit);
    STORE(res, R_MIN_GAIN, min_gain);
    STORE(res, R_TIES, ties);
    return status;
}

/* d variables; arrays holds the instance's five arrays, in this order: the
   constant in constant[0], the binary neighbours of i in nbr[off[i] ..
   off[i+1]) with weights w[] (CSR), and unary[].  They are only read, and
   one block per instance lets the caller pass them as one argument.  x holds
   the start on entry and the end on return.  max_steps < 0 means no limit.
   rule picks the selection rule.  Under STEEPEST, a tie with stop_on_tie set
   stops the run before the tied step and reports the tie's size and gain.
   Under RANDOM, the draws read the n_words words at words (see randbelow),
   and the run stops with DRAWN before a step that needs more.  Under FIRST,
   the scan goes through order[] (a permutation of 0 .. d-1, or NULL for 0,
   1, .., d-1) from its first position.  When out is not NULL, *out is NULL
   on entry, and on return it holds the run's records, or NULL after no
   step: step t's variable, gain and the fitness after it are the CELLs at
   3t, 3t + 1 and 3t + 2.  The caller owns them and frees them with
   vcsp_free.  The run stops with NO_MEMORY if the scratch cannot be
   allocated or the records cannot grow; *out then holds the records so
   far. */
LINE_ALIGNED int ASCEND(int32_t d, const void *const *arrays, uint8_t *x, int64_t max_steps,
                        int32_t rule, int32_t stop_on_tie, const int32_t *order,
                        const unsigned char *words, int64_t n_words, void **out, CELL *res)
{
    const CELL *constant = arrays[0], *w = arrays[3], *unary = arrays[4];
    const int32_t *off = arrays[1], *nbr = arrays[2];
    /* Two blocks, not one: the compiler then knows that gain and imp do not
       alias, and the loop ran about 10% faster than with one shared block. */
    size_t n = d > 0 ? (size_t)d : 1;  /* malloc(0) may return NULL */
    CELL *gain = malloc(n * sizeof *gain);
    int32_t *imp = malloc((2 * n + 1) * sizeof *imp);
    int status = NO_MEMORY;
    if (gain && imp) {
        int32_t *pos = imp + n;
        if (rule == STEEPEST)
            status = LOOP(STEEPEST, d, constant, off, nbr, w, unary, x, max_steps, stop_on_tie,
                          order, words, n_words, out, res, gain, imp, pos);
        else if (rule == RANDOM)
            status = LOOP(RANDOM, d, constant, off, nbr, w, unary, x, max_steps, stop_on_tie,
                          order, words, n_words, out, res, gain, imp, pos);
        else
            status = LOOP(FIRST, d, constant, off, nbr, w, unary, x, max_steps, stop_on_tie,
                          order, words, n_words, out, res, gain, imp, pos);
    }
    free(gain);
    free(imp);
    return status;
}

#endif
