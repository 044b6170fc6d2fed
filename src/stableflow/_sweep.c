/* The iterations of both solvers of the slack-form objective: over-relaxed
 * Gauss-Seidel sweeps (coordinate descent) and projected gradient steps
 * with Armijo backtracking (PGD). One call runs a segment of iterations of
 * the method the state names; after each it writes the trace row (the
 * objective and the stability residuals) and stops early once the state is
 * stable, a residual is NaN, or no PGD trial descends.
 *
 * Each sweep moves a flow to max(0, x - omega * (g/3)). omega is set by
 * the caller (solvers._OMEGA); with omega = 1.0 the product is exactly
 * g/3, the plain Gauss-Seidel step.
 *
 * Compiled and loaded by _kernel.py. The Python loops in solvers
 * (_python_sweep, _pgd_step) are the reference and the fallback: every
 * floating-point expression below is the one there or in
 * pseudoflow._excess_matrix, _slack_objective and _stability_residuals,
 * evaluated in the same order, and the build turns off contraction into
 * fused multiply-adds, so results are bitwise equal to the Python code.
 * Every sum over an array is sequential, left to right in C order.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* solvers.ARMIJO_BETA, solvers.ARMIJO_SIGMA and the trial cap of
 * solvers._pgd_step. */
#define ARMIJO_BETA 0.5
#define ARMIJO_SIGMA 1e-4
#define ARMIJO_TRIALS 80

/* Arrays of one solve, all C-contiguous; mirrored by _kernel._State. */
typedef struct {
    double *flows;           /* (n_commodities, n_arcs) */
    double *slacks;          /* (n_arcs,) */
    double *totals;          /* (n_arcs,) flow summed over commodities */
    double *excesses;        /* (n_commodities, n_vertices) */
    const double *caps;      /* (n_arcs,) */
    const int64_t *tails;    /* (n_arcs,) in [0, n_vertices) */
    const int64_t *heads;    /* (n_arcs,) in [0, n_vertices) */
    const double *injection; /* (n_commodities, n_vertices); PGD only */
    double *work;            /* PGD only; laid out in pgd_step */
    int64_t n_vertices;
    int64_t n_arcs;
    int64_t n_commodities;
    int64_t pgd;             /* nonzero: PGD steps; zero: sweeps */
    double use_threshold;
    double omega;            /* over-relaxation factor of the flow step, in (0, 2) */
    double value;            /* slack-form objective of the current state */
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

/* numpy's maximum(v, 0.0): a NaN v propagates, and -0.0 gives +0.0. */
static double max_zero(double v)
{
    return (v > 0.0 || v != v) ? v : 0.0;
}

/* numpy's clip(v, 0.0, cap): max then min, each keeping a NaN v and
 * otherwise taking the bound on a tie, so -0.0 gives +0.0. */
static double clip(double v, double cap)
{
    v = max_zero(v);
    return (v < cap || v != v) ? v : cap;
}

/* One projected gradient step with Armijo backtracking from step 1, in
 * place, as solvers._pgd_step. Returns 1 and adds the objective change to
 * s->value when a trial lowers the objective strictly, 0 when none of
 * ARMIJO_TRIALS does. */
static int pgd_step(sf_state *s)
{
    const int64_t n_arcs = s->n_arcs, n_vertices = s->n_vertices;
    const int64_t n_commodities = s->n_commodities;
    const int64_t n_flows = n_commodities * n_arcs;
    const int64_t n_excesses = n_commodities * n_vertices;
    double *flow_grad = s->work;
    double *trial_flows = flow_grad + n_flows;
    double *gap = trial_flows + n_flows;
    double *trial_slacks = gap + n_arcs;
    double *trial_totals = trial_slacks + n_arcs;
    double *trial_gap = trial_totals + n_arcs;
    double *trial_excesses = trial_gap + n_arcs;
    double *inflow = trial_excesses + n_excesses;
    double *outflow = inflow + n_vertices;

    for (int64_t a = 0; a < n_arcs; a++)
        gap[a] = (s->totals[a] + s->slacks[a]) - s->caps[a];
    /* gap[None, :] + excesses[:, heads] - excesses[:, tails], left to right. */
    for (int64_t k = 0; k < n_commodities; k++) {
        const double *excess = s->excesses + k * n_vertices;
        for (int64_t a = 0; a < n_arcs; a++)
            flow_grad[k * n_arcs + a] = (gap[a] + excess[s->heads[a]]) - excess[s->tails[a]];
    }

    double step = 1.0;
    for (int trial = 0; trial < ARMIJO_TRIALS; trial++, step *= ARMIJO_BETA) {
        for (int64_t i = 0; i < n_flows; i++)
            trial_flows[i] = max_zero(s->flows[i] - step * flow_grad[i]);
        for (int64_t a = 0; a < n_arcs; a++)
            trial_slacks[a] = clip(s->slacks[a] - step * gap[a], s->caps[a]);

        /* _sequential_sum starts at the first term; -0.0 + x is x bitwise,
         * so starting at -0.0 adds the same. (An empty sum is then -0.0
         * rather than 0.0; the sign of a zero cannot change the test below,
         * which compares it and rejects a zero change.) */
        double flow_inner = -0.0, slack_inner = -0.0;
        for (int64_t i = 0; i < n_flows; i++)
            flow_inner += flow_grad[i] * (trial_flows[i] - s->flows[i]);
        for (int64_t a = 0; a < n_arcs; a++)
            slack_inner += gap[a] * (trial_slacks[a] - s->slacks[a]);
        const double inner = flow_inner + slack_inner;

        /* trial_flows.sum(axis=0): numpy starts each total at 0.0 and adds
         * the commodities in order. */
        for (int64_t a = 0; a < n_arcs; a++)
            trial_totals[a] = 0.0;
        for (int64_t k = 0; k < n_commodities; k++)
            for (int64_t a = 0; a < n_arcs; a++)
                trial_totals[a] += trial_flows[k * n_arcs + a];
        for (int64_t a = 0; a < n_arcs; a++)
            trial_gap[a] = (trial_totals[a] + trial_slacks[a]) - s->caps[a];
        /* _excess_matrix: injection + (inflow - outflow), where inflow and
         * outflow are bincount scatters over (k, a) in C order, each slot
         * started at 0.0. A slot k*V + v only takes commodity k's flows, so
         * scattering one commodity at a time adds in the same order. */
        for (int64_t k = 0; k < n_commodities; k++) {
            const double *flow = trial_flows + k * n_arcs;
            for (int64_t v = 0; v < n_vertices; v++)
                inflow[v] = outflow[v] = 0.0;
            for (int64_t a = 0; a < n_arcs; a++) {
                inflow[s->heads[a]] += flow[a];
                outflow[s->tails[a]] += flow[a];
            }
            const double *inject = s->injection + k * n_vertices;
            double *excess = trial_excesses + k * n_vertices;
            for (int64_t v = 0; v < n_vertices; v++)
                excess[v] = inject[v] + (inflow[v] - outflow[v]);
        }

        /* The exact change of the quadratic along the move: the trapezoid
         * of the two endpoint gradients. */
        double flow_change = -0.0, slack_change = -0.0;
        for (int64_t k = 0; k < n_commodities; k++) {
            const double *excess = trial_excesses + k * n_vertices;
            for (int64_t a = 0; a < n_arcs; a++) {
                const int64_t i = k * n_arcs + a;
                const double trial_grad =
                    (trial_gap[a] + excess[s->heads[a]]) - excess[s->tails[a]];
                flow_change += (flow_grad[i] + trial_grad) * (trial_flows[i] - s->flows[i]);
            }
        }
        for (int64_t a = 0; a < n_arcs; a++)
            slack_change += (gap[a] + trial_gap[a]) * (trial_slacks[a] - s->slacks[a]);
        const double change = 0.5 * (flow_change + slack_change);

        if (change <= ARMIJO_SIGMA * inner && change < 0.0) {
            memcpy(s->flows, trial_flows, n_flows * sizeof(double));
            memcpy(s->slacks, trial_slacks, n_arcs * sizeof(double));
            memcpy(s->totals, trial_totals, n_arcs * sizeof(double));
            memcpy(s->excesses, trial_excesses, n_excesses * sizeof(double));
            s->value += change;
            return 1;
        }
    }
    return 0;
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

/* The slack-form objective 0.5 * sum(gap^2) + 0.5 * sum(excess^2). */
static double objective(const sf_state *s)
{
    double gaps = 0.0, excesses = 0.0;
    for (int64_t a = 0; a < s->n_arcs; a++) {
        const double gap = s->totals[a] + s->slacks[a] - s->caps[a];
        gaps += gap * gap;
    }
    for (int64_t i = 0; i < s->n_commodities * s->n_vertices; i++)
        excesses += s->excesses[i] * s->excesses[i];
    return 0.5 * gaps + 0.5 * excesses;
}

/* Up to n iterations; iteration i writes rows[3i .. 3i+2]: the objective
 * and the residuals of sf_residuals, all of the state it leaves. Returns
 * the number of rows written. It stops after the first row whose larger
 * residual is <= tol or NaN, the rows that end solvers.solve's loop, and
 * before writing a row when a PGD step finds no descent. */
int64_t sf_run(sf_state *s, double tol, int64_t n, double *rows)
{
    for (int64_t i = 0; i < n; i++) {
        double *row = rows + 3 * i;
        if (s->pgd) {
            if (!pgd_step(s))
                return i;
        } else {
            sweep(s);
            s->value = objective(s);
        }
        row[0] = s->value;
        sf_residuals(s, row + 1);
        const double used = row[1], unused = row[2];
        if (used != used || unused != unused || (used <= tol && unused <= tol))
            return i + 1;
    }
    return n;
}
