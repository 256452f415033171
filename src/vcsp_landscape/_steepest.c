/* Steepest ascent on a binary Boolean VCSP, in int64 arithmetic.

   The native twin of the Python loop in search.steepest_ascent, which stays
   the reference: the same lowest-index tie rule, tie count, minimum gain,
   max_steps guard and "error" tie policy.  The caller guarantees
   |constant| + sum|unary| + sum|binary| < 2^62, so no fitness, gradient or
   gain can overflow.  Every buffer belongs to the caller; nothing is
   allocated here.

   Compiled on first use by search._native_kernel and called through ctypes. */
#include <stdint.h>

enum { PEAK = 0, LIMIT = 1, TIE = 2 };  /* why the run stopped */

/* Slots of res[]. */
enum { R_STEPS, R_FIT_START, R_FIT_END, R_MIN_GAIN, R_TIES, R_TIE_MOVES, R_TIE_GAIN };

/* d variables; binary neighbours of i are nbr[off[i] .. off[i+1]) with weights
   w[] (CSR).  x holds the start on entry and the end on return.  gain, imp and
   pos are scratch of length d: gain[v] is the fitness change of flipping v,
   imp lists the improving variables in any order, and pos[v] is v's slot in
   imp or -1.  max_steps < 0 means no limit.  When out_var is not NULL, step t
   writes its variable and gain to out_var[t] and out_gain[t], which must hold
   max_steps entries.  On a tie with stop_on_tie set, the run stops before the
   tied step and reports the tie's size and gain. */
int vcsp_steepest(int32_t d, int64_t constant, const int32_t *off, const int32_t *nbr,
                  const int64_t *w, const int64_t *unary, uint8_t *x, int64_t *gain,
                  int32_t *imp, int32_t *pos, int64_t max_steps, int32_t stop_on_tie,
                  int32_t *out_var, int64_t *out_gain, int64_t *res)
{
    int64_t fit = constant;
    int32_t n_imp = 0;
    for (int32_t i = 0; i < d; i++) {
        int64_t g = unary[i];
        for (int32_t k = off[i]; k < off[i + 1]; k++) {
            if (x[nbr[k]]) {
                g += w[k];
                if (x[i] && nbr[k] > i)
                    fit += w[k];
            }
        }
        if (x[i]) {
            fit += unary[i];
            g = -g;
        }
        gain[i] = g;
        pos[i] = -1;
        if (g > 0) {
            pos[i] = n_imp;
            imp[n_imp++] = i;
        }
    }
    res[R_FIT_START] = fit;

    int64_t steps = 0, ties = 0, min_gain = 0;
    int status = PEAK;
    while (n_imp > 0) {
        if (steps == max_steps) {
            status = LIMIT;
            break;
        }
        int32_t best = -1;
        int64_t best_g = 0, nmax = 1;
        for (int32_t k = 0; k < n_imp; k++) {
            int32_t v = imp[k];
            int64_t g = gain[v];
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
                res[R_TIE_MOVES] = nmax;
                res[R_TIE_GAIN] = best_g;
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
        gain[best] = -best_g;
        for (int32_t k = off[best]; k < off[best + 1]; k++) {
            int32_t u = nbr[k];
            int64_t dg = x[best] ? w[k] : -w[k];  /* change of u's gradient */
            int64_t g = gain[u] += x[u] ? -dg : dg;
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
            out_gain[steps] = best_g;
        }
        steps++;
        if (min_gain == 0 || best_g < min_gain)
            min_gain = best_g;
    }
    res[R_STEPS] = steps;
    res[R_FIT_END] = fit;
    res[R_MIN_GAIN] = min_gain;
    res[R_TIES] = ties;
    return status;
}
