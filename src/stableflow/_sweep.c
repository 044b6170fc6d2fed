/* Over-relaxed Gauss-Seidel sweeps of the slack-form objective. One call
 * runs a segment of sweeps; after each sweep it writes the trace row (the
 * objective and the stability residuals) and stops early once the state
 * is stable or a residual is NaN.
 *
 * Each flow moves to max(0, x - omega * (g/3)). omega is set by the caller
 * (solvers._OMEGA); with omega = 1.0 the product is exactly g/3, the plain
 * Gauss-Seidel step.
 *
 * Compiled and loaded by _kernel.py. Every floating-point expression below
 * is the one in solvers._python_sweep, pseudoflow._slack_objective and
 * pseudoflow._stability_residuals, evaluated in the same order, and the
 * build turns off contraction into fused multiply-adds, so results are
 * bitwise equal to the Python code. The objective's two sums are
 * sequential, left to right.
 */
#include <math.h>
#include <stdint.h>

/* Arrays of one solve, all C-contiguous; mirrored by _kernel._State. */
typedef struct {
    double *flows;        /* (n_commodities, n_arcs) */
    double *slacks;       /* (n_arcs,) */
    double *totals;       /* (n_arcs,) flow summed over commodities */
    double *excesses;     /* (n_commodities, n_vertices) */
    const double *caps;   /* (n_arcs,) */
    const int64_t *tails; /* (n_arcs,) in [0, n_vertices) */
    const int64_t *heads; /* (n_arcs,) in [0, n_vertices) */
    int64_t n_vertices;
    int64_t n_arcs;
    int64_t n_commodities;
    double use_threshold;
    double omega;         /* over-relaxation factor of the flow step, in (0, 2) */
} sf_state;

/* One sweep: arcs ascending, the arc's slack first, then each commodity's
 * flow moves to max(0, x - omega * (g/3)). Updates flows, slacks, totals
 * and excesses in place. */
static void sweep(sf_state *s)
{
    const int64_t n_arcs = s->n_arcs, n_vertices = s->n_vertices;
    for (int64_t a = 0; a < n_arcs; a++) {
        const double cap = s->caps[a];
        const int64_t tail = s->tails[a], head = s->heads[a];
        double total = s->totals[a];
        /* min(max(cap - total, 0.0), cap), keeping Python's choice on ties. */
        double slack = cap - total;
        if (0.0 > slack)
            slack = 0.0;
        if (cap < slack)
            slack = cap;
        s->slacks[a] = slack;
        for (int64_t k = 0; k < s->n_commodities; k++) {
            double *excess = s->excesses + k * n_vertices;
            double *flow = s->flows + k * n_arcs + a;
            const double grad = (total + slack - cap) + excess[head] - excess[tail];
            const double current = *flow;
            const double target = current - s->omega * (grad / 3.0);
            const double moved = target > 0.0 ? target : 0.0;
            const double delta = moved - current;
            if (delta != 0.0) {
                *flow = moved;
                total += delta;
                excess[tail] -= delta;
                excess[head] += delta;
            }
        }
        s->totals[a] = total;
    }
}

/* out[0]: largest |drop - psi| over pairs whose flow exceeds the use
 * threshold; out[1]: largest positive drop - psi over all pairs, where
 * drop = excess[tail] - excess[head] and psi = max(total - cap, 0). A NaN
 * anywhere makes the result NaN, as the max in the Python code does. */
void sf_residuals(const sf_state *s, double *out)
{
    const int64_t n_arcs = s->n_arcs;
    double used = 0.0, unused = 0.0;
    for (int64_t k = 0; k < s->n_commodities; k++) {
        const double *excess = s->excesses + k * s->n_vertices;
        const double *flow = s->flows + k * n_arcs;
        for (int64_t a = 0; a < n_arcs; a++) {
            double psi = s->totals[a] - s->caps[a];
            if (psi < 0.0)
                psi = 0.0;
            const double gap = (excess[s->tails[a]] - excess[s->heads[a]]) - psi;
            if (flow[a] > s->use_threshold) {
                const double size = fabs(gap);
                if (size > used || size != size)
                    used = size;
            }
            if (gap > unused || gap != gap)
                unused = gap;
        }
    }
    out[0] = used;
    out[1] = unused;
}

/* One sweep, then out[0]: the slack-form objective
 * 0.5 * sum(gap^2) + 0.5 * sum(excess^2), and out[1], out[2]: the
 * residuals of sf_residuals, all of the state after the sweep. */
static void sf_step(sf_state *s, double *out)
{
    sweep(s);
    double gaps = 0.0, excesses = 0.0;
    for (int64_t a = 0; a < s->n_arcs; a++) {
        const double gap = s->totals[a] + s->slacks[a] - s->caps[a];
        gaps += gap * gap;
    }
    for (int64_t i = 0; i < s->n_commodities * s->n_vertices; i++)
        excesses += s->excesses[i] * s->excesses[i];
    out[0] = 0.5 * gaps + 0.5 * excesses;
    sf_residuals(s, out + 1);
}

/* Up to n sweeps; sweep i writes its sf_step row to rows[3i .. 3i+2].
 * Returns the number of sweeps run: it stops after the first row whose
 * larger residual is <= tol or NaN, the rows that end solvers.solve's loop. */
int64_t sf_run(sf_state *s, double tol, int64_t n, double *rows)
{
    for (int64_t i = 0; i < n; i++) {
        double *row = rows + 3 * i;
        sf_step(s, row);
        const double used = row[1], unused = row[2];
        if (used != used || unused != unused || (used <= tol && unused <= tol))
            return i + 1;
    }
    return n;
}
