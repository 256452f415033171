/* Steepest ascent on a binary Boolean VCSP, in exact fixed-width arithmetic.

   The native twin of the Python loop in search.steepest_ascent, which stays
   the reference: the same lowest-index tie rule, tie count, minimum gain,
   max_steps guard and "error" tie policy.  The instance's arrays are only
   read, so threads may share them.  The caller's other buffers belong to one
   call, and so does the scratch, which each call allocates and frees.

   The loop is written once, at the end of this file, and compiled at two
   widths, with one signature, by including the file into itself:
     vcsp_steepest     int64_t cells; the caller guarantees
                       |constant| + sum|unary| + sum|binary| < 2^62;
     vcsp_steepest128  __int128 values, where the compiler has them, on
                       little-endian machines; the caller guarantees the same
                       sum < 2^126.  Each cell is 16 little-endian bytes,
                       read and written with memcpy, since the caller's
                       buffers need not be 16-byte aligned.
   Under its bound no fitness, gradient or gain can overflow its width.

   Compiled on first use by search._native_kernel and called through ctypes. */
#ifndef VALUE

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { PEAK = 0, LIMIT = 1, TIE = 2, NO_MEMORY = 3 };  /* why the run stopped */

/* Slots of res[]. */
enum { R_STEPS, R_FIT_START, R_FIT_END, R_MIN_GAIN, R_TIES, R_TIE_MOVES, R_TIE_GAIN };

/* vcsp_steepest: the loop at int64, on arrays of int64_t. */
#define VALUE int64_t
#define CELL int64_t
#define LOAD(p, i) ((p)[i])
#define STORE(p, i, v) ((p)[i] = (v))
#define STEEPEST vcsp_steepest
#include "_steepest.c"  /* this file: the loop below, at this width */
#undef VALUE
#undef CELL
#undef LOAD
#undef STORE
#undef STEEPEST

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
#define STEEPEST vcsp_steepest128
#include "_steepest.c"  /* this file: the loop below, at this width */

#endif

#else  /* the loop: function STEEPEST at width VALUE, over arrays of CELL */

/* d variables and the constant in constant[0]; binary neighbours of i are
   nbr[off[i] .. off[i+1]) with weights w[] (CSR); these and unary[] are only
   read.  x holds the start on entry and the end on return.  The scratch has
   length d: gain[v] is the fitness change of flipping v, imp lists the
   improving variables in any order, and pos[v] is v's slot in imp or -1; the
   run stops with NO_MEMORY if it cannot be allocated.  max_steps < 0 means
   no limit.  When out_var is not NULL, step t writes its variable and gain to
   out_var[t] and out_gain[t], which must hold max_steps entries.  On a tie
   with stop_on_tie set, the run stops before the tied step and reports the
   tie's size and gain. */
int STEEPEST(int32_t d, const CELL *constant, const int32_t *off, const int32_t *nbr,
             const CELL *w, const CELL *unary, uint8_t *x, int64_t max_steps,
             int32_t stop_on_tie, int32_t *out_var, CELL *out_gain, CELL *res)
{
    /* Two blocks, not one: the compiler then knows that gain and imp do not
       alias, and the loop ran about 10% faster than with one shared block. */
    size_t n = d > 0 ? (size_t)d : 1;  /* malloc(0) may return NULL */
    CELL *gain = malloc(n * sizeof *gain);
    int32_t *imp = malloc(2 * n * sizeof *imp);
    if (!gain || !imp) {
        free(gain);
        free(imp);
        return NO_MEMORY;
    }
    int32_t *pos = imp + n;
    VALUE fit = LOAD(constant, 0);
    int32_t n_imp = 0;
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
        pos[i] = -1;
        if (g > 0) {
            pos[i] = n_imp;
            imp[n_imp++] = i;
        }
    }
    STORE(res, R_FIT_START, fit);

    int64_t steps = 0, ties = 0;
    VALUE min_gain = 0;
    int status = PEAK;
    while (n_imp > 0) {
        if (steps == max_steps) {
            status = LIMIT;
            break;
        }
        int32_t best = -1;
        VALUE best_g = 0;
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

        int32_t last = imp[--n_imp];  /* swap-remove best from imp */
        imp[pos[best]] = last;
        pos[last] = pos[best];
        pos[best] = -1;

        fit += best_g;
        x[best] ^= 1;
        STORE(gain, best, -best_g);
        for (int32_t k = off[best]; k < off[best + 1]; k++) {
            int32_t u = nbr[k];
            VALUE dg = x[best] ? LOAD(w, k) : -LOAD(w, k);  /* change of u's gradient */
            VALUE g = LOAD(gain, u) + (x[u] ? -dg : dg);
            STORE(gain, u, g);
            if (g > 0 && pos[u] < 0) {
                pos[u] = n_imp;
                imp[n_imp++] = u;
            } else if (g <= 0 && pos[u] >= 0) {
                last = imp[--n_imp];
                imp[pos[u]] = last;
                pos[last] = pos[u];
                pos[u] = -1;
            }
        }

        if (out_var) {
            out_var[steps] = best;
            STORE(out_gain, steps, best_g);
        }
        steps++;
        if (min_gain == 0 || best_g < min_gain)
            min_gain = best_g;
    }
    STORE(res, R_STEPS, steps);
    STORE(res, R_FIT_END, fit);
    STORE(res, R_MIN_GAIN, min_gain);
    STORE(res, R_TIES, ties);
    free(gain);
    free(imp);
    return status;
}

#endif
