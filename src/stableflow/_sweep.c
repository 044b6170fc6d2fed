/* The compiled work of stableflow: per solve, that of both solvers of the
 * slack-form objective, for solvers.solve; the crossover; and the reader:
 *
 * - sf_solve: the whole solve, a buffer of trace rows per call: iterations
 *   of over-relaxed Gauss-Seidel sweeps (coordinate descent) or projected
 *   gradient steps with the exact step (PGD), each followed past the gate
 *   by an extrapolation that is kept or restarted, until the stopping rule
 *   holds; then the final flows and slacks, and the report on them;
 * - sf_crossover, for certify.classify: a basic routing of a FEASIBLE
 *   flow, a copy in which each commodity's free arcs form a forest and the
 *   dust at or below the use threshold is zeroed, and its slacks;
 * - sf_parse, for model.parse_instance: the numbers of a canonical instance
 *   text, read in one pass, or a refusal that sends the text to the Python
 *   parser (model._parse_python), which reads every other text alike.
 *
 * The flows, slacks, totals, excesses and work arrays are views of the one
 * buffer of _kernel.Kernel, and momentum is the extrapolation's own array;
 * the Kernel makes both when it binds. The arcs, capacities and demand
 * injection are the Instance's own arrays, read in place. The Instance
 * checked its arcs when it was built, and a warm start passed
 * PseudoFlow.validate, so nothing here checks them again.
 *
 * Each sweep moves a flow to max(0, x - step * g), step = omega / 3 made
 * once per sweep, so the chain of updates through an arc's total carries a
 * multiply and no divide. omega is set by the caller (solvers._OMEGA);
 * with its 1.5, step is exactly 0.5 and the subtraction is the move's only
 * rounding.
 *
 * Each PGD step moves along d = P(x - g) - x by the t in [0, 1] that
 * minimizes the objective's parabola along d; the box is convex and holds
 * both ends of the move, so it holds the whole move. Slope and curvature
 * are read in units of the scale (a power of two, so dividing by it is
 * exact): the raw products overflow near demands of 1e200, and t would
 * then read 1 at every step.
 *
 * Compiled and loaded by _kernel.py; the library has no other solver. The
 * Python code in tests/reference.py (_python_sweep, _pgd_step, _extrapolate,
 * the numpy driver loop and _crossover) is the reference the tests compare
 * with bit for bit: every floating-point expression below is the one there
 * or in pseudoflow (_excess_matrix, _flow_scatter, _slack_objective,
 * _scaled_objective, _stability_residuals, stability_report), evaluated in
 * the same order, and the build turns off contraction into fused
 * multiply-adds, so results are bitwise equal to the Python code. Every sum
 * over an array is sequential, left to right in C order, and both scatter
 * excesses one commodity at a time.
 *
 * The gate: sf_solve counts the solve's iterations, and the first gate
 * (solvers._MOMENTUM_GATE) of them are plain. The gate's iteration leaves
 * its flows in momentum as the last result; from then on each iteration's
 * result is extrapolated with FISTA's sequence and kept only if its
 * objective, read in units of the scale, is no larger; otherwise the
 * momentum restarts (see extrapolate, and tests/reference.py:_extrapolate).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Arrays of one solve, all C-contiguous; mirrored by _kernel._State. */
typedef struct {
    double *flows;           /* (n_commodities, n_arcs) */
    double *slacks;          /* (n_arcs,) */
    double *totals;          /* (n_arcs,) flow summed over commodities */
    double *excesses;        /* (n_commodities, n_vertices) */
    const double *caps;      /* (n_arcs,) */
    const int64_t *tails;    /* (n_arcs,) in [0, n_vertices) */
    const int64_t *heads;    /* (n_arcs,) in [0, n_vertices) */
    const double *injection; /* (n_commodities, n_vertices) demand injection */
    double *work;            /* inflow and outflow (n_vertices each); PGD adds more, see pgd_step */
    double *momentum;        /* the last result's flows and a copy of the state; see extrapolate */
    int64_t n_vertices;
    int64_t n_arcs;
    int64_t n_commodities;
    int64_t pgd;             /* nonzero: PGD steps; zero: sweeps */
    int64_t iterations;      /* iterations run so far; -1 until row 0 is written */
    int64_t done;            /* nonzero once the solve has stopped and reported */
    int64_t gate;            /* plain iterations before the first extrapolation */
    double use_threshold;
    double omega;            /* over-relaxation factor of the flow step, in (0, 2) */
    double scale;            /* Instance.scale, a power of two; PGD's and extrapolate's unit */
    double theta;            /* FISTA's theta for the next extrapolation; 1 after a restart */
} sf_state;

/* One sweep: arcs ascending, the arc's slack first, then each commodity's
 * flow moves to max(0, x - step * g), step = omega / 3. Updates flows,
 * slacks, totals and excesses in place. */
static void sweep(sf_state *s)
{
    const int64_t n_arcs = s->n_arcs, n_vertices = s->n_vertices;
    const double step = s->omega / 3.0;
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
            const double target = current - step * grad;
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

/* inflow and outflow of one commodity's arc values into the first 2V
 * doubles of work, as the two bincounts pseudoflow._flow_scatter makes per
 * commodity: each slot started at 0.0, arcs in order. */
static void scatter(const sf_state *s, const double *flow)
{
    double *inflow = s->work, *outflow = inflow + s->n_vertices;
    for (int64_t v = 0; v < s->n_vertices; v++)
        inflow[v] = outflow[v] = 0.0;
    for (int64_t a = 0; a < s->n_arcs; a++) {
        inflow[s->heads[a]] += flow[a];
        outflow[s->tails[a]] += flow[a];
    }
}

/* flows.sum(axis=0) of (n_commodities, n_arcs) flows into totals: numpy
 * starts each sum at 0.0 and adds the commodities in order. */
static void sum_flows(const double *flows, double *totals, int64_t n_arcs, int64_t n_commodities)
{
    for (int64_t a = 0; a < n_arcs; a++)
        totals[a] = 0.0;
    for (int64_t k = 0; k < n_commodities; k++)
        for (int64_t a = 0; a < n_arcs; a++)
            totals[a] += flows[k * n_arcs + a];
}

/* Totals and excesses derived from the flows, as flows.sum(axis=0) and
 * pseudoflow._excess_matrix: injection + (inflow - outflow). */
static void derive(sf_state *s)
{
    const int64_t n_vertices = s->n_vertices;
    const double *inflow = s->work, *outflow = inflow + n_vertices;
    sum_flows(s->flows, s->totals, s->n_arcs, s->n_commodities);
    for (int64_t k = 0; k < s->n_commodities; k++) {
        double *excess = s->excesses + k * n_vertices;
        const double *injection = s->injection + k * n_vertices;
        scatter(s, s->flows + k * s->n_arcs);
        for (int64_t v = 0; v < n_vertices; v++)
            excess[v] = injection[v] + (inflow[v] - outflow[v]);
    }
}

/* One projected gradient step with the exact step length, in place, as
 * tests/reference.py:_pgd_step. */
static void pgd_step(sf_state *s)
{
    const int64_t n_arcs = s->n_arcs, n_vertices = s->n_vertices;
    const int64_t n_commodities = s->n_commodities;
    const double scale = s->scale;
    const double *inflow = s->work, *outflow = inflow + n_vertices;
    double *flow_move = s->work + 2 * n_vertices; /* d, then the realized flow change */
    double *gap = flow_move + n_commodities * n_arcs;
    double *slack_move = gap + n_arcs;

    /* _sequential_sum starts at the first term; -0.0 + x is x bitwise, so
     * starting at -0.0 adds the same. (An empty sum is then -0.0 rather
     * than 0.0; either gives t = 0.) */
    double flow_slope = -0.0, slack_slope = -0.0;
    for (int64_t a = 0; a < n_arcs; a++)
        gap[a] = (s->totals[a] + s->slacks[a]) - s->caps[a];
    for (int64_t k = 0; k < n_commodities; k++) {
        const double *excess = s->excesses + k * n_vertices;
        for (int64_t a = 0; a < n_arcs; a++) {
            const int64_t i = k * n_arcs + a;
            /* gap[None, :] + excesses[:, heads] - excesses[:, tails] */
            const double grad = (gap[a] + excess[s->heads[a]]) - excess[s->tails[a]];
            flow_move[i] = max_zero(s->flows[i] - grad) - s->flows[i];
            flow_slope += (grad / scale) * (flow_move[i] / scale);
        }
    }
    for (int64_t a = 0; a < n_arcs; a++) {
        slack_move[a] = clip(s->slacks[a] - gap[a], s->caps[a]) - s->slacks[a];
        slack_slope += (gap[a] / scale) * (slack_move[a] / scale);
    }
    const double slope = flow_slope + slack_slope;

    /* flow_move.sum(axis=0): numpy starts each sum at 0.0 and adds the
     * commodities in order. */
    double gap_curvature = 0.0, excess_curvature = 0.0;
    for (int64_t a = 0; a < n_arcs; a++) {
        double change = 0.0;
        for (int64_t k = 0; k < n_commodities; k++)
            change += flow_move[k * n_arcs + a];
        change = (change + slack_move[a]) / scale;
        gap_curvature += change * change;
    }
    for (int64_t k = 0; k < n_commodities; k++) {
        scatter(s, flow_move + k * n_arcs);
        for (int64_t v = 0; v < n_vertices; v++) {
            const double change = (inflow[v] - outflow[v]) / scale;
            excess_curvature += change * change;
        }
    }
    const double curvature = gap_curvature + excess_curvature;

    double t;
    if (!(slope < 0.0))
        t = 0.0;
    else if (curvature <= -slope)
        t = 1.0;
    else
        t = -slope / curvature;

    for (int64_t k = 0; k < n_commodities; k++) {
        double *flow = s->flows + k * n_arcs;
        double *change = flow_move + k * n_arcs;
        for (int64_t a = 0; a < n_arcs; a++) {
            const double moved = flow[a] + t * change[a];
            change[a] = moved - flow[a];
            flow[a] = moved;
        }
        scatter(s, change);
        double *excess = s->excesses + k * n_vertices;
        for (int64_t v = 0; v < n_vertices; v++)
            excess[v] += inflow[v] - outflow[v];
    }
    for (int64_t a = 0; a < n_arcs; a++)
        s->slacks[a] = clip(s->slacks[a] + t * slack_move[a], s->caps[a]);
    sum_flows(s->flows, s->totals, s->n_arcs, s->n_commodities);
}

/* out[0]: largest |drop - psi| over pairs whose flow exceeds the use
 * threshold; out[1]: largest positive drop - psi over all pairs, where
 * drop = excess[tail] - excess[head] and psi = max(total - cap, 0). A NaN
 * gap on a pair it covers makes a residual NaN, as the max in the Python
 * code does. With multipliers, also writes psi - drop for each (commodity,
 * arc) pair.
 *
 * The loop has no branch on the data: which pairs are used is close to a
 * coin toss, and with a branch the pass took ~7 ns per pair on the bench's
 * large instance (x86_64, gcc 12 -O2), without one ~2.6 ns. A NaN gap fails
 * every comparison, so the maxima skip it, and two integer flags record it
 * instead; the NaN is written once, at the end. */
static void residuals(const sf_state *s, double *out, double *multipliers)
{
    const int64_t n_arcs = s->n_arcs;
    double used = 0.0, unused = 0.0;
    int nan_used = 0, nan_unused = 0;
    for (int64_t k = 0; k < s->n_commodities; k++) {
        const double *excess = s->excesses + k * s->n_vertices;
        const double *flow = s->flows + k * n_arcs;
        for (int64_t a = 0; a < n_arcs; a++) {
            const double psi = max_zero(s->totals[a] - s->caps[a]);
            const double gap = (excess[s->tails[a]] - excess[s->heads[a]]) - psi;
            if (multipliers)
                multipliers[k * n_arcs + a] = -gap;
            const int selected = flow[a] > s->use_threshold;
            const double size = selected ? fabs(gap) : 0.0;
            used = size > used ? size : used;
            unused = gap > unused ? gap : unused;
            nan_used |= selected & (gap != gap);
            nan_unused |= gap != gap;
        }
    }
    out[0] = nan_used ? NAN : used;
    out[1] = nan_unused ? NAN : unused;
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

/* The objective in units of the scale, 0.5 * sum((gap/s)^2) +
 * 0.5 * sum((excess/s)^2); the scale is a power of two, so dividing by it
 * is exact. Raw, the objective overflows to inf near demands of 1e200, and
 * inf <= inf would keep every extrapolation. */
static double scaled_objective(const sf_state *s)
{
    double gaps = 0.0, excesses = 0.0;
    for (int64_t a = 0; a < s->n_arcs; a++) {
        const double gap = (s->totals[a] + s->slacks[a] - s->caps[a]) / s->scale;
        gaps += gap * gap;
    }
    for (int64_t i = 0; i < s->n_commodities * s->n_vertices; i++) {
        const double excess = s->excesses[i] / s->scale;
        excesses += excess * excess;
    }
    return 0.5 * gaps + 0.5 * excesses;
}

/* Past the gate, after each iteration: the iteration's result x+ is
 * extrapolated to y = max(0, x+ + beta * (x+ - x_prev)), x_prev the last
 * iteration's result, with FISTA's beta = (theta - 1) / theta' and
 * theta' = (1 + sqrt(1 + 4 theta^2)) / 2 (Beck-Teboulle 2009). y's slacks
 * are set to their optimum for its totals, and its totals and excesses are
 * derived. y is kept, and theta becomes theta', if its scaled objective is
 * <= x+'s; otherwise x+ is restored and theta reset to 1 (adaptive
 * restart, O'Donoghue-Candes 2015). momentum holds x_prev's flows, then a
 * copy of x+'s slacks, totals and excesses; once y is made, x_prev's
 * flows are x+'s. As tests/reference.py:_extrapolate. */
static void extrapolate(sf_state *s)
{
    const int64_t n_arcs = s->n_arcs, size = s->n_commodities * n_arcs;
    const int64_t n_excesses = s->n_commodities * s->n_vertices;
    double *prev = s->momentum, *slacks = prev + size;
    double *totals = slacks + n_arcs, *excesses = totals + n_arcs;
    const double kept = scaled_objective(s);
    const double theta = (1.0 + sqrt(1.0 + 4.0 * s->theta * s->theta)) / 2.0;
    const double beta = (s->theta - 1.0) / theta;
    for (int64_t a = 0; a < n_arcs; a++) {
        slacks[a] = s->slacks[a];
        totals[a] = s->totals[a];
    }
    for (int64_t i = 0; i < n_excesses; i++)
        excesses[i] = s->excesses[i];
    for (int64_t i = 0; i < size; i++) {
        const double x = s->flows[i];
        s->flows[i] = max_zero(x + beta * (x - prev[i]));
        prev[i] = x;
    }
    derive(s);
    for (int64_t a = 0; a < n_arcs; a++)
        s->slacks[a] = clip(s->caps[a] - s->totals[a], s->caps[a]);
    if (scaled_objective(s) <= kept) {
        s->theta = theta;
        return;
    }
    for (int64_t i = 0; i < size; i++)
        s->flows[i] = prev[i];
    for (int64_t a = 0; a < n_arcs; a++) {
        s->slacks[a] = slacks[a];
        s->totals[a] = totals[a];
    }
    for (int64_t i = 0; i < n_excesses; i++)
        s->excesses[i] = excesses[i];
    s->theta = 1.0;
}

/* One iteration, a sweep or PGD step, then, past the gate, an
 * extrapolation; the gate's own iteration copies its flows to momentum as
 * the last result. */
static void iterate(sf_state *s)
{
    if (s->pgd)
        pgd_step(s);
    else
        sweep(s);
    if (++s->iterations > s->gate)
        extrapolate(s);
    else if (s->iterations == s->gate)
        for (int64_t j = 0; j < s->n_commodities * s->n_arcs; j++)
            s->momentum[j] = s->flows[j];
}

/* The final state and its report, as tests/reference.py:solve makes them:
 * flows become max(flows, 0) and the slacks their optimum for the derived
 * totals, in place. out holds heights (n_vertices, n_commodities),
 * congestions (n_arcs,), implied multipliers (n_commodities, n_arcs) and
 * the used and unused residuals, in that order. */
static void report(sf_state *s, double *out)
{
    const int64_t n_arcs = s->n_arcs, n_vertices = s->n_vertices;
    const int64_t n_commodities = s->n_commodities;
    double *heights = out;
    double *congestions = heights + n_vertices * n_commodities;
    double *multipliers = congestions + n_arcs;
    for (int64_t i = 0; i < n_commodities * n_arcs; i++)
        s->flows[i] = max_zero(s->flows[i]);
    derive(s);
    for (int64_t a = 0; a < n_arcs; a++) {
        s->slacks[a] = clip(s->caps[a] - s->totals[a], s->caps[a]);
        congestions[a] = max_zero(s->totals[a] - s->caps[a]);
    }
    for (int64_t k = 0; k < n_commodities; k++)
        for (int64_t v = 0; v < n_vertices; v++)
            heights[v * n_commodities + k] = s->excesses[k * n_vertices + v];
    residuals(s, multipliers + n_commodities * n_arcs, multipliers);
}

/* For solvers.solve, as tests/reference.py:solve: up to n_rows trace rows
 * per call, resumed where the last call left off, and the number written
 * returned. Row i, at rows[3i .. 3i+2], holds the objective and the used and
 * unused residuals after iteration i; row 0's totals and excesses are
 * derived from the flows. A row stops the solve when a residual is NaN or
 * both are <= tol, but totals and excesses drift from the flows as they are
 * updated, so an iteration's row within tol is first re-derived, and the
 * solve runs on if that reads above tol. It also stops after max_iters
 * iterations. At the stop, out gets the report and done is set. */
int64_t sf_solve(sf_state *s, double tol, int64_t max_iters, double *rows, int64_t n_rows,
                 double *out)
{
    int64_t n = 0;
    while (n < n_rows && !s->done) {
        double *row = rows + 3 * n++;
        if (s->iterations < 0) {
            derive(s);
            s->iterations = 0;
        } else {
            iterate(s);
        }
        row[0] = objective(s);
        residuals(s, row + 1, 0);
        if (s->iterations > 0 && row[1] <= tol && row[2] <= tol) {
            derive(s);
            residuals(s, row + 1, 0);
        }
        const double used = row[1], unused = row[2];
        if (used != used || unused != unused || (used <= tol && unused <= tol)
            || s->iterations >= max_iters) {
            report(s, out);
            s->done = 1;
        }
    }
    return n;
}

/* Arrays and sizes of one crossover, all C-contiguous; mirrored by
 * _kernel._Routing. */
typedef struct {
    const double *flows;  /* (n_commodities, n_arcs) the flows to route */
    double *out;          /* (n_commodities + 1, n_arcs): the routing, then its slacks */
    const double *caps;   /* (n_arcs,) */
    const int64_t *tails; /* (n_arcs,) in [0, n_vertices) */
    const int64_t *heads; /* (n_arcs,) in [0, n_vertices) */
    int64_t n_vertices;
    int64_t n_arcs;
    int64_t n_commodities;
    double threshold;     /* flows at or below it are unused */
} sf_routing;

/* Re-roots v's tree at v and hangs it from `to` by `arc`. */
static void graft(int64_t *parent, int64_t *up, int64_t v, int64_t to, int64_t arc)
{
    while (v >= 0) {
        const int64_t next = parent[v], next_arc = up[v];
        parent[v] = to;
        up[v] = arc;
        to = v;
        arc = next_arc;
        v = next;
    }
}

/* Moves arc b's flow by delta, up when rising and down otherwise; an arc
 * whose amount, the room left or the flow, is delta lands exactly on its
 * room or on 0.0. As tests/reference.py:_push. */
static void move(double *flow, const double *room, int64_t b, int64_t rising, double delta)
{
    if (rising)
        flow[b] = room[b] - flow[b] == delta ? room[b] : flow[b] + delta;
    else
        flow[b] = flow[b] == delta ? 0.0 : flow[b] - delta;
}

/* For certify.classify, as tests/reference.py:_crossover: a basic routing
 * of a FEASIBLE flow. out's first K*A doubles get a copy of flows in which each
 * commodity's free arcs form a forest, with flows at or below the threshold
 * zeroed, and the next A the slacks' optimum for its totals.
 *
 * Commodities are routed in order, each against the totals the ones before
 * it left. An arc's room is max(cap - (total - x), x), so no push raises an
 * overload, and the arc is free while threshold < x < room - threshold.
 * The arcs above the threshold are scanned in id order, and the free ones
 * kept as a forest of parent pointers. A free arc joining two trees links
 * them. An arc closing a cycle with the tree path between its ends gets a
 * push around that cycle, as tests/reference.py:_push gives it; an arc at
 * its room only when the push lowers it and empties an arc. Then the tree arcs that
 * left the free set are cut, and the entering arc is linked if it is free.
 * Each push keeps every excess. An arc the scan has passed is in the
 * forest, or not free and never moved again, so after the scan the free
 * arcs are the forest's.
 *
 * The routing does not depend on the forest's shape, since an arc closes at
 * most one cycle with a forest, so this code chooses the shape for speed:
 * the meeting vertex is found by walking up from both ends in turn, each
 * marking what it passes, and a link re-roots the shallower end's tree.
 * Returns -1, with out unfinished, when the scratch cannot be allocated,
 * else 0. */
int64_t sf_crossover(const sf_routing *r)
{
    const int64_t n_vertices = r->n_vertices, n_arcs = r->n_arcs;
    const int64_t n_commodities = r->n_commodities, size = n_commodities * n_arcs;
    const double threshold = r->threshold;
    const int64_t *tails = r->tails, *heads = r->heads;
    double *totals = r->out + size; /* the slack row, until the end */
    int64_t *parent = malloc(sizeof(int64_t) * 7 * n_vertices + sizeof(double) * n_arcs);
    if (!parent)
        return -1;
    /* up[v] is the arc joining v and parent[v]. A walk from the tail marks
     * the vertices it passes with stamp and lists them in path, one from
     * the head marks them with stamp + 1 and lists them in to_head; place[v]
     * is v's index in its list. The cycle's tree arcs are up[path[i]] for
     * i < n_cycle, and along[i] is 1 when the cycle, run from tail to head
     * across the entering arc, crosses up[path[i]] forward. */
    int64_t *up = parent + n_vertices;
    int64_t *mark = up + n_vertices;
    int64_t *place = mark + n_vertices;
    int64_t *path = place + n_vertices;
    int64_t *to_head = path + n_vertices;
    int64_t *along = to_head + n_vertices;
    double *room = (double *)(along + n_vertices);
    int64_t stamp = 0;
    for (int64_t v = 0; v < n_vertices; v++)
        mark[v] = -1;
    for (int64_t i = 0; i < size; i++)
        r->out[i] = r->flows[i];
    sum_flows(r->flows, totals, n_arcs, n_commodities);

    for (int64_t k = 0; k < n_commodities; k++) {
        double *flow = r->out + k * n_arcs;
        const double *before = r->flows + k * n_arcs;
        for (int64_t a = 0; a < n_arcs; a++) {
            const double limit = r->caps[a] - (totals[a] - before[a]);
            room[a] = limit >= before[a] ? limit : before[a];
        }
        for (int64_t v = 0; v < n_vertices; v++)
            parent[v] = -1;
#define FREE(b) (threshold < flow[b] && flow[b] < room[b] - threshold)
        for (int64_t a = 0; a < n_arcs; a++) {
            if (!(flow[a] > threshold))
                continue;
            const int64_t at_room = !FREE(a);
            const int64_t tail = tails[a], head = heads[a];
            int64_t n_tail = 1, n_head = 1, u = tail, w = head, meet = -1;
            path[0] = tail;
            to_head[0] = head;
            mark[tail] = stamp;
            mark[head] = stamp + 1;
            place[tail] = place[head] = 0;
            while (u >= 0 || w >= 0) {
                if (u >= 0 && (u = parent[u]) >= 0) {
                    path[n_tail++] = u;
                    if (mark[u] == stamp + 1) {
                        meet = u;
                        n_head = place[u] + 1;
                        break;
                    }
                    mark[u] = stamp;
                    place[u] = n_tail - 1;
                }
                if (w >= 0 && (w = parent[w]) >= 0) {
                    to_head[n_head++] = w;
                    if (mark[w] == stamp) {
                        meet = w;
                        n_tail = place[w] + 1;
                        break;
                    }
                    mark[w] = stamp + 1;
                    place[w] = n_head - 1;
                }
            }
            stamp += 2;
            /* Each end's depth: its path's length, or after a push the
             * index of the first cut on it. */
            int64_t depth_tail = n_tail - 1, depth_head = n_head - 1;
            if (meet >= 0) {
                /* lowered[j] and raised[j]: the least flow among the arcs
                 * that the way raising the along arcs (j = 1), or lowering
                 * them (j = 0), lowers, and the least room left among those
                 * it raises. */
                const int64_t n_cycle = n_tail + n_head - 2;
                double lowered[2] = {flow[a], INFINITY};
                double raised[2] = {INFINITY, room[a] - flow[a]};
                for (int64_t i = 0; i < n_cycle; i++) {
                    if (i >= n_tail - 1)
                        path[i] = to_head[i - n_tail + 1];
                    const int64_t v = path[i], b = up[v];
                    const int64_t forward = along[i] = (i < n_tail - 1 ? heads[b] : tails[b]) == v;
                    if (flow[b] < lowered[!forward])
                        lowered[!forward] = flow[b];
                    if (room[b] - flow[b] < raised[forward])
                        raised[forward] = room[b] - flow[b];
                }
                const int64_t fills0 = raised[0] < lowered[0], fills1 = raised[1] < lowered[1];
                if (at_room && fills0)
                    continue;
                const double delta0 = fills0 ? raised[0] : lowered[0];
                const double delta1 = fills1 ? raised[1] : lowered[1];
                const int64_t raise_along =
                    !at_room && (fills1 < fills0 || (fills1 == fills0 && delta1 < delta0));
                const double delta = raise_along ? delta1 : delta0;
                move(flow, room, a, raise_along, delta);
                depth_tail = depth_head = n_vertices;
                for (int64_t i = n_cycle - 1; i >= 0; i--) {
                    const int64_t b = up[path[i]];
                    move(flow, room, b, along[i] == raise_along, delta);
                    if (FREE(b))
                        continue;
                    parent[path[i]] = -1;
                    if (i < n_tail - 1)
                        depth_tail = i;
                    else
                        depth_head = i - (n_tail - 1);
                }
            }
            if (!FREE(a))
                continue;
            if (depth_tail < depth_head)
                graft(parent, up, tail, head, a);
            else
                graft(parent, up, head, tail, a);
        }
#undef FREE
        for (int64_t a = 0; a < n_arcs; a++)
            totals[a] += flow[a] - before[a];
    }

    for (int64_t i = 0; i < size; i++)
        if (r->out[i] <= threshold)
            r->out[i] = 0.0;
    sum_flows(r->out, totals, n_arcs, n_commodities);
    for (int64_t a = 0; a < n_arcs; a++)
        totals[a] = clip(r->caps[a] - totals[a], r->caps[a]);
    free(parent);
    return 0;
}

/* One instance text and the buffers its numbers go to; mirrored by
 * _kernel._Text. sf_parse sets the counts. */
typedef struct {
    const char *text;      /* length bytes, then a NUL */
    int64_t length;
    int64_t *ids;          /* (2 * capacity,) */
    double *values;        /* (capacity,) */
    int64_t capacity;      /* most arcs plus commodities the buffers hold */
    int64_t n_vertices;
    int64_t n_arcs;
    int64_t n_commodities;
} sf_text;

/* Whether a token ends at p: a blank, a newline or the text's end. */
static int token_end(const char *p, const char *end)
{
    return p == end || *p == ' ' || *p == '\t' || *p == '\n';
}

static const char *blanks(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        p++;
    return p;
}

static const char *digits(const char *p, const char *end)
{
    while (p < end && *p >= '0' && *p <= '9')
        p++;
    return p;
}

/* The end of the token at p if it is the word w, else NULL. */
static const char *word(const char *p, const char *end, const char *w)
{
    for (; *w; p++, w++)
        if (p == end || *p != *w)
            return NULL;
    return token_end(p, end) ? p : NULL;
}

/* Reads the unsigned decimal of 1 to 18 digits at p, which fits an
 * int64_t; returns the token's end, or NULL for any other token. */
static const char *integer(const char *p, const char *end, int64_t *out)
{
    const char *stop = digits(p, end);
    if (stop == p || stop - p > 18 || !token_end(stop, end))
        return NULL;
    int64_t value = 0;
    for (; p < stop; p++)
        value = 10 * value + (*p - '0');
    *out = value;
    return stop;
}

/* Reads the real digits[.digits][(e|E)[+|-]digits] at p; returns the
 * token's end, or NULL for any other token. strtod rounds correctly, as
 * Python's float does, but reads the locale's decimal point; the value is
 * kept only if strtod stops at the token's end, so under a comma-decimal
 * LC_NUMERIC a token with a '.' is refused rather than misread. */
static const char *real(const char *p, const char *end, double *out)
{
    const char *stop = digits(p, end), *part;
    if (stop == p)
        return NULL;
    if (stop < end && *stop == '.') {
        part = stop + 1;
        if ((stop = digits(part, end)) == part)
            return NULL;
    }
    if (stop < end && (*stop == 'e' || *stop == 'E')) {
        part = stop + 1;
        if (part < end && (*part == '+' || *part == '-'))
            part++;
        if ((stop = digits(part, end)) == part)
            return NULL;
    }
    if (!token_end(stop, end))
        return NULL;
    char *parsed;
    *out = strtod(p, &parsed);
    return parsed == stop ? stop : NULL;
}

/* For model.parse_instance: reads a canonical instance text in one pass.
 * The text is ASCII; its first line is 'p mcf V A K', and each further
 * line is 'a tail head capacity' or 'c source sink demand', in any order.
 * Tokens are separated by blanks (spaces and tabs) and lines by '\n'; the
 * last newline is optional. Every id and count is an unsigned decimal of
 * at most 18 digits, and every real is read by real() above. For such a
 * text, model._parse_python reads the same numbers.
 *
 * ids gets the arcs' tails and then the commodities' sources, then the
 * arcs' heads and the commodities' sinks, each less 1; values gets the
 * capacities and then the demands. A + K must fit the capacity, which the
 * caller takes from the text's length, so no count in the text sizes a
 * buffer. Returns 0 with the counts set, or 1 for any other text, with the
 * buffers unfinished. Only syntax is checked: model.Instance checks the
 * numbers. */
int64_t sf_parse(sf_text *t)
{
    const char *p = blanks(t->text, t->text + t->length), *end = t->text + t->length;
    int64_t counts[3];
    if (!(p = word(p, end, "p")) || !(p = word(blanks(p, end), end, "mcf")))
        return 1;
    for (int i = 0; i < 3; i++)
        if (!(p = integer(blanks(p, end), end, counts + i)))
            return 1;
    const int64_t n_arcs = counts[1], size = counts[1] + counts[2];
    if (size > t->capacity)
        return 1;
    int64_t *firsts = t->ids, *seconds = t->ids + size, arc = 0, commodity = n_arcs;
    for (;;) {
        p = blanks(p, end);
        if (p == end)
            break;
        if (*p++ != '\n')
            return 1;
        if (p == end)
            break;
        int64_t slot, first, second;
        const char *q;
        if ((q = word(p = blanks(p, end), end, "a")) && arc < n_arcs)
            slot = arc++;
        else if ((q = word(p, end, "c")) && commodity < size)
            slot = commodity++;
        else
            return 1;
        if (!(q = integer(blanks(q, end), end, &first))
            || !(q = integer(blanks(q, end), end, &second))
            || !(p = real(blanks(q, end), end, t->values + slot)))
            return 1;
        firsts[slot] = first - 1;
        seconds[slot] = second - 1;
    }
    if (arc != n_arcs || commodity != size)
        return 1;
    t->n_vertices = counts[0];
    t->n_arcs = n_arcs;
    t->n_commodities = counts[2];
    return 0;
}
