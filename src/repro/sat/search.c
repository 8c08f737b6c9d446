/* The C-accelerated solver cores of repro.sat.solver.
 *
 * The exported entry points operate on flat buffers allocated and owned by
 * the Python side:
 *
 *   repro_propagate   two-watched-literal unit propagation (the PR-3 core,
 *                     called once per search step by the pure-Python loop);
 *   repro_search      the full CDCL search kernel: propagation, first-UIP
 *                     conflict analysis with clause learning and local
 *                     minimization, backjumping, VSIDS bump/decay/rescale,
 *                     the activity order heap, phase saving, assumption
 *                     decisions and Luby restarts;
 *   repro_cancel_trail    the trail-undo loop of Solver._cancel_until;
 *   repro_check_clauses   validation of a flat int32 clause buffer;
 *   repro_load_clauses    the bulk clause loader: Solver.add_clause for
 *                     every clause of a flat int32 buffer, at level 0,
 *                     tagged with the open layer's selector if any;
 *   repro_unlink_dead     clause retraction in one sweep (layer pops,
 *                     learnt-database reduction): mark dead, unlink the
 *                     dead watchers of each affected list in one pass;
 *   repro_analyze_final   the assumption-core trail walk.
 *
 * Each implements exactly the same algorithm, over exactly the same data
 * layout, as its pure-Python mirror (Solver._propagate_python,
 * Solver._search_python, repro.sat.flat.check_clause_buffer, a loop of
 * Solver.add_clause, Solver._unlink_dead_python and
 * Solver._final_decisions_python).  Any behavioural divergence between the
 * two is a bug; the differential suites (tests/test_propagation_backends.py,
 * tests/test_search_backends.py, tests/test_clause_load.py) compare models,
 * conflicts, cores, statistics and solver internals across backends.
 *
 * Data layout (all "long" words unless noted):
 *
 *   arena    clause arena.  A clause at offset `ref` occupies
 *              arena[ref]     header: size << 2 | dead << 1 | learnt
 *              arena[ref+1]   next watch pointer for watch slot 0
 *              arena[ref+2]   next watch pointer for watch slot 1
 *              arena[ref+3]   blocker literal for watch slot 0
 *              arena[ref+4]   blocker literal for watch slot 1
 *              arena[ref+5..] the literals (internal 2*var+sign encoding)
 *            A watch pointer packs (ref << 1) | slot; 0 is the list end
 *            (offset 0 of the arena is a sentinel, so no clause has ref 0).
 *            The arena's *logical* length may trail its physical capacity:
 *            the kernel appends learnt clauses into the preallocated slack
 *            and exits with EXIT_CAPACITY before it could overflow.
 *   heads    per-literal heads of the intrusive watcher lists.
 *   assigns  per-variable value: -1 unassigned, 0 false, 1 true (signed char).
 *   levels   per-variable decision level.
 *   reasons  per-variable reason clause ref (0 = decision / no reason).
 *   trail    the assignment trail (fixed capacity: one slot per variable).
 *   trail_lim   per-decision-level trail bounds (capacity provisioned by the
 *            driver: one slot per variable plus one per assumption).
 *   polarity per-variable saved phase (signed char 0/1).
 *   seen     per-variable conflict-analysis marker (signed char 0/1).
 *   activity per-variable VSIDS activity (double).
 *   heap / heap_pos   the activity order heap and its position index
 *            (heap_pos[var] is -1 when var is not in the heap).
 *   assumptions   the solve call's assumption literals (internal encoding).
 *   scratch  out-buffer receiving the refs of newly learnt clauses; the
 *            driver drains it into Solver._learnts after every call.
 *   bumplog  out-buffer recording clause-activity events in execution
 *            order: a positive entry is a learnt clause ref that was
 *            bumped, a 0 entry is the per-conflict decay marker.  Clause
 *            activities only influence Python-side database reduction, so
 *            the driver replays the log through Solver._clause_bump for a
 *            bit-identical activity table without the kernel needing the
 *            activity dict.
 *   tmp      analysis scratch: the first num_vars+2 words hold the raw
 *            learnt clause, the second num_vars+2 words the minimized one.
 *   state    the 32-word bookkeeping block (see _S_* in solver.py).
 *   fp       [var_inc, var_decay] (doubles, var_inc written back).
 *
 * repro_search returns (and stores in state) one of the EXIT_* codes.
 */

#define HDR 5
#define FLAG_LEARNT 1
#define FLAG_DEAD 2

#define EXIT_SAT 1
#define EXIT_UNSAT 2
#define EXIT_ASSUMPTION 3
#define EXIT_REDUCE 4
#define EXIT_CAPACITY 5
#define EXIT_CONFLICT_BUDGET 6
#define EXIT_DECISION_BUDGET 7

/* ------------------------------------------------------------ propagation */

static long propagate(long *arena, long *heads, signed char *assigns,
                      long *levels, long *reasons, long *trail,
                      long *qhead_io, long *trail_len_io, long current_level,
                      long *count_io)
{
    long qhead = *qhead_io;
    long trail_len = *trail_len_io;
    long propagated = 0;
    long conflict = 0;

    while (qhead < trail_len) {
        long p = trail[qhead++];
        propagated++;
        long false_lit = p ^ 1;
        long *prev = &heads[false_lit];
        long ptr = *prev;
        while (ptr) {
            long ref = ptr >> 1;
            long slot = ptr & 1;
            long next = arena[ref + 1 + slot];
            /* Blocker literal: when the cached literal is already true the
             * clause is satisfied and needs no inspection at all. */
            long blocker = arena[ref + 3 + slot];
            signed char bval = assigns[blocker >> 1];
            if (bval >= 0 && (bval ^ (blocker & 1)) == 1) {
                prev = &arena[ref + 1 + slot];
                ptr = next;
                continue;
            }
            long base = ref + HDR;
            long other = arena[base + (1 - slot)];
            if (other != blocker) {
                signed char oval = assigns[other >> 1];
                if (oval >= 0 && (oval ^ (other & 1)) == 1) {
                    arena[ref + 3 + slot] = other; /* refresh the blocker */
                    prev = &arena[ref + 1 + slot];
                    ptr = next;
                    continue;
                }
            }
            long size = arena[ref] >> 2;
            int moved = 0;
            for (long k = 2; k < size; k++) {
                long lit = arena[base + k];
                signed char v = assigns[lit >> 1];
                if (v < 0 || (v ^ (lit & 1)) == 1) {
                    /* Move this watch slot to `lit`. */
                    arena[base + slot] = lit;
                    arena[base + k] = false_lit;
                    arena[ref + 3 + slot] = other;
                    arena[ref + 1 + slot] = heads[lit];
                    heads[lit] = ptr;
                    *prev = next;
                    moved = 1;
                    break;
                }
            }
            if (moved) {
                ptr = next;
                continue;
            }
            /* No replacement: the clause is unit on `other` or conflicting. */
            {
                signed char oval = assigns[other >> 1];
                if (oval >= 0 && (oval ^ (other & 1)) == 0) {
                    qhead = trail_len; /* consume the queue */
                    conflict = ref;
                    goto done;
                }
            }
            {
                long var = other >> 1;
                assigns[var] = (signed char) ((other & 1) ^ 1);
                levels[var] = current_level;
                reasons[var] = ref;
                trail[trail_len++] = other;
            }
            prev = &arena[ref + 1 + slot];
            ptr = next;
        }
    }
done:
    *qhead_io = qhead;
    *trail_len_io = trail_len;
    *count_io += propagated;
    return conflict;
}

long repro_propagate(long *arena, long *heads, signed char *assigns,
                     long *levels, long *reasons, long *trail, long *state)
{
    long qhead = state[0];
    long trail_len = state[1];
    long conflict = propagate(arena, heads, assigns, levels, reasons, trail,
                              &qhead, &trail_len, state[2], &state[3]);
    state[0] = qhead;
    state[1] = trail_len;
    return conflict;
}

/* ------------------------------------------------------------- order heap */

static void heap_sift_up(long *heap, long *pos, double *act, long i)
{
    long var = heap[i];
    double a = act[var];
    while (i > 0) {
        long parent = (i - 1) >> 1;
        long pvar = heap[parent];
        if (act[pvar] >= a)
            break;
        heap[i] = pvar;
        pos[pvar] = i;
        i = parent;
    }
    heap[i] = var;
    pos[var] = i;
}

static void heap_sift_down(long *heap, long *pos, double *act, long size, long i)
{
    long var = heap[i];
    double a = act[var];
    for (;;) {
        long left = 2 * i + 1;
        if (left >= size)
            break;
        long right = left + 1;
        long child = left;
        if (right < size && act[heap[right]] > act[heap[left]])
            child = right;
        long cvar = heap[child];
        if (a >= act[cvar])
            break;
        heap[i] = cvar;
        pos[cvar] = i;
        i = child;
    }
    heap[i] = var;
    pos[var] = i;
}

static void heap_insert(long *heap, long *pos, double *act, long *size, long var)
{
    if (pos[var] >= 0)
        return;
    heap[*size] = var;
    pos[var] = *size;
    heap_sift_up(heap, pos, act, *size);
    (*size)++;
}

static long heap_pop(long *heap, long *pos, double *act, long *size)
{
    long top = heap[0];
    (*size)--;
    long last = heap[*size];
    pos[top] = -1;
    if (*size) {
        heap[0] = last;
        pos[last] = 0;
        heap_sift_down(heap, pos, act, *size, 0);
    }
    return top;
}

static void var_bump(double *act, double *fp, long num_vars,
                     long *heap, long *pos, long *heap_size, long var)
{
    act[var] += fp[0];
    if (act[var] > 1e100) {
        for (long v = 1; v <= num_vars; v++)
            act[v] *= 1e-100;
        fp[0] *= 1e-100;
        for (long i = *heap_size / 2 - 1; i >= 0; i--)
            heap_sift_down(heap, pos, act, *heap_size, i);
    }
    if (pos[var] >= 0)
        heap_sift_up(heap, pos, act, pos[var]);
}

/* --------------------------------------------------------- search helpers */

static void attach(long *arena, long *heads, long ref)
{
    long base = ref + HDR;
    long lit0 = arena[base];
    long lit1 = arena[base + 1];
    arena[ref + 3] = lit1;
    arena[ref + 4] = lit0;
    arena[ref + 1] = heads[lit0];
    heads[lit0] = ref << 1;
    arena[ref + 2] = heads[lit1];
    heads[lit1] = (ref << 1) | 1;
}

static void enqueue(signed char *assigns, long *levels, long *reasons,
                    long *trail, long *trail_len, long level_count,
                    long ilit, long reason_ref)
{
    long var = ilit >> 1;
    if (assigns[var] >= 0)
        return; /* mirror Solver._enqueue: already assigned, nothing to do */
    assigns[var] = (signed char) ((ilit & 1) ^ 1);
    levels[var] = level_count;
    reasons[var] = reason_ref;
    trail[(*trail_len)++] = ilit;
}

static void cancel_until(long *trail, long *trail_lim, signed char *assigns,
                         signed char *polarity, long *reasons,
                         long *heap, long *pos, double *act, long *heap_size,
                         long *trail_len, long *qhead, long *level_count,
                         long *search_floor, long level)
{
    if (*level_count <= level)
        return;
    if (level < *search_floor)
        *search_floor = level;
    long bound = trail_lim[level];
    for (long index = *trail_len - 1; index >= bound; index--) {
        long ilit = trail[index];
        long var = ilit >> 1;
        assigns[var] = -1;
        polarity[var] = (signed char) (((ilit & 1) == 0) ? 1 : 0);
        reasons[var] = 0;
        heap_insert(heap, pos, act, heap_size, var);
    }
    *trail_len = bound;
    *level_count = level;
    *qhead = bound;
}

static long luby(long index)
{
    /* The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (0-based index). */
    long size = 1, sequence = 0;
    while (size < index + 1) {
        sequence++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        sequence--;
        index %= size;
    }
    return 1L << sequence;
}

/* First-UIP conflict analysis with seen-buffer local minimization.  The raw
 * learnt clause is assembled in tmp[0..], the minimized clause (asserting
 * literal first, deepest remaining literal second) in tmp[num_vars+2..].
 * Returns the backjump level and stores the minimized length in *out_len. */
static long analyze(long *arena, long *levels, long *reasons, long *trail,
                    signed char *seen, double *act, double *fp, long num_vars,
                    long *heap, long *pos, long *heap_size,
                    long trail_len, long level_count, long conflict,
                    long *tmp, long *bumplog, long *log_len,
                    long *out_len, long *minimized_count)
{
    long *learnt = tmp;
    long *minimized = tmp + num_vars + 2;
    long llen = 1;
    long counter = 0;
    long p = -1;
    long index = trail_len - 1;
    long clause = conflict;

    for (;;) {
        if (arena[clause] & FLAG_LEARNT)
            bumplog[(*log_len)++] = clause;
        long base = clause + HDR;
        long size = arena[clause] >> 2;
        for (long k = 0; k < size; k++) {
            long q = arena[base + k];
            if (p != -1 && (q >> 1) == (p >> 1))
                continue;
            long var = q >> 1;
            if (!seen[var] && levels[var] > 0) {
                seen[var] = 1;
                var_bump(act, fp, num_vars, heap, pos, heap_size, var);
                if (levels[var] >= level_count)
                    counter++;
                else
                    learnt[llen++] = q;
            }
        }
        while (!seen[trail[index] >> 1])
            index--;
        p = trail[index];
        clause = reasons[p >> 1];
        seen[p >> 1] = 0;
        counter--;
        index--;
        if (counter == 0)
            break;
    }
    learnt[0] = p ^ 1;

    /* Local minimization over the shared seen buffer: seen[var] == 1 holds
     * exactly for the vars of learnt[1..] here (the UIP was cleared when
     * dequeued and cannot occur in a lower-level literal's reason).  A
     * literal is redundant when every other literal of its reason clause
     * is already in the learnt clause or fixed at level 0. */
    long mlen = 1;
    minimized[0] = learnt[0];
    for (long i = 1; i < llen; i++) {
        long q = learnt[i];
        long reason = reasons[q >> 1];
        if (!reason) {
            minimized[mlen++] = q;
            continue;
        }
        int redundant = 1;
        long rbase = reason + HDR;
        long rsize = arena[reason] >> 2;
        for (long k = 0; k < rsize; k++) {
            long var = arena[rbase + k] >> 1;
            if (var != (q >> 1) && !seen[var] && levels[var] > 0) {
                redundant = 0;
                break;
            }
        }
        if (redundant)
            continue;
        minimized[mlen++] = q;
    }
    for (long i = 1; i < llen; i++)
        seen[learnt[i] >> 1] = 0;
    *minimized_count += llen - mlen;

    long backjump = 0;
    if (mlen > 1) {
        long max_index = 1;
        long max_level = levels[minimized[1] >> 1];
        for (long i = 2; i < mlen; i++) {
            long lvl = levels[minimized[i] >> 1];
            if (lvl > max_level) {
                max_level = lvl;
                max_index = i;
            }
        }
        long swap = minimized[1];
        minimized[1] = minimized[max_index];
        minimized[max_index] = swap;
        backjump = max_level;
    }
    *out_len = mlen;
    return backjump;
}

/* ------------------------------------------------------------ the kernel */

long repro_search(long *arena, long *heads, signed char *assigns, long *levels,
                  long *reasons, long *trail, long *trail_lim,
                  signed char *polarity, signed char *seen, double *activity,
                  long *heap, long *heap_pos, long *assumptions,
                  long *scratch, long *bumplog, long *tmp,
                  long *state, double *fp)
{
    long qhead = state[0];
    long trail_len = state[1];
    long level_count = state[2];
    long arena_len = state[4];
    long arena_cap = state[5];
    long heap_size = state[6];
    long num_vars = state[7];
    long n_assumptions = state[8];
    long learnt_count = state[9];
    long max_learnts = state[10];
    long restart_index = state[11];
    long conflict_budget = state[12];
    long conflicts_since_restart = state[13];
    long total_conflicts = state[14];
    long max_conflicts = state[15];
    long free_decisions = state[16];
    long max_decisions = state[17];
    long search_floor = state[18];
    long scratch_len = state[28];
    long scratch_cap = state[29];
    long log_len = state[30];
    long log_cap = state[31];
    long exit_reason = 0;
    long exit_payload = 0;

    for (;;) {
        /* One conflict analysis may allocate a learnt clause of up to
         * num_vars literals, log one bump per resolved clause plus the
         * learnt ref and the decay sentinel, and push one scratch ref:
         * leave for Python before any of that could overflow. */
        if (arena_cap - arena_len < num_vars + HDR + 2 ||
            scratch_len >= scratch_cap ||
            log_cap - log_len < num_vars + 3) {
            exit_reason = EXIT_CAPACITY;
            break;
        }

        long conflict = propagate(arena, heads, assigns, levels, reasons,
                                  trail, &qhead, &trail_len, level_count,
                                  &state[3]);
        if (conflict) {
            state[21]++; /* conflicts */
            conflicts_since_restart++;
            total_conflicts++;
            if (max_conflicts >= 0 && total_conflicts > max_conflicts) {
                exit_reason = EXIT_CONFLICT_BUDGET;
                break;
            }
            if (level_count == 0) {
                exit_reason = EXIT_UNSAT;
                break;
            }
            long mlen = 0;
            long backjump = analyze(arena, levels, reasons, trail, seen,
                                    activity, fp, num_vars, heap, heap_pos,
                                    &heap_size, trail_len, level_count,
                                    conflict, tmp, bumplog, &log_len,
                                    &mlen, &state[26]);
            state[25]++; /* analyses */
            state[27] += level_count - backjump; /* backjumped levels */
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor,
                         backjump);
            long *clause = tmp + num_vars + 2;
            if (mlen == 1) {
                enqueue(assigns, levels, reasons, trail, &trail_len,
                        level_count, clause[0], 0);
            } else {
                long ref = arena_len;
                arena[ref] = (mlen << 2) | FLAG_LEARNT;
                arena[ref + 1] = 0;
                arena[ref + 2] = 0;
                arena[ref + 3] = 0;
                arena[ref + 4] = 0;
                for (long i = 0; i < mlen; i++)
                    arena[ref + HDR + i] = clause[i];
                arena_len += HDR + mlen;
                attach(arena, heads, ref);
                scratch[scratch_len++] = ref;
                bumplog[log_len++] = ref;
                state[24]++; /* learnt clauses */
                learnt_count++;
                enqueue(assigns, levels, reasons, trail, &trail_len,
                        level_count, clause[0], ref);
            }
            bumplog[log_len++] = 0; /* per-conflict clause-decay marker */
            fp[0] /= fp[1];         /* VSIDS decay: var_inc /= var_decay */
            continue;
        }

        if (conflicts_since_restart >= conflict_budget) {
            state[23]++; /* restarts */
            restart_index++;
            conflict_budget = 100 * luby(restart_index);
            conflicts_since_restart = 0;
            /* Assumption-aware restart: keep the established assumption
             * levels and their propagations, undoing only the free
             * decisions above them. */
            cancel_until(trail, trail_lim, assigns, polarity, reasons,
                         heap, heap_pos, activity, &heap_size,
                         &trail_len, &qhead, &level_count, &search_floor,
                         level_count < n_assumptions ? level_count
                                                     : n_assumptions);
            continue;
        }

        if (learnt_count >= max_learnts + trail_len) {
            exit_reason = EXIT_REDUCE;
            break;
        }

        long next_lit = -1;
        while (level_count < n_assumptions) {
            long assumption = assumptions[level_count];
            signed char av = assigns[assumption >> 1];
            long value = (av < 0) ? -1 : (av ^ (assumption & 1));
            if (value == 1) {
                trail_lim[level_count++] = trail_len;
            } else if (value == 0) {
                exit_reason = EXIT_ASSUMPTION;
                exit_payload = assumption;
                goto out;
            } else {
                next_lit = assumption;
                break;
            }
        }
        if (next_lit < 0) {
            while (heap_size > 0) {
                long var = heap_pop(heap, heap_pos, activity, &heap_size);
                if (assigns[var] < 0) {
                    state[22]++; /* decisions */
                    next_lit = 2 * var + (polarity[var] ? 0 : 1);
                    break;
                }
            }
            if (next_lit < 0) {
                exit_reason = EXIT_SAT;
                break;
            }
            free_decisions++;
            if (max_decisions >= 0 && free_decisions > max_decisions) {
                /* The branch variable was popped but never enqueued:
                 * reinsert it so it is not lost to future searches
                 * (mirrors Solver._search_python). */
                heap_insert(heap, heap_pos, activity, &heap_size,
                            next_lit >> 1);
                exit_reason = EXIT_DECISION_BUDGET;
                break;
            }
        }
        trail_lim[level_count++] = trail_len;
        enqueue(assigns, levels, reasons, trail, &trail_len, level_count,
                next_lit, 0);
    }
out:
    state[0] = qhead;
    state[1] = trail_len;
    state[2] = level_count;
    state[4] = arena_len;
    state[6] = heap_size;
    state[9] = learnt_count;
    state[11] = restart_index;
    state[12] = conflict_budget;
    state[13] = conflicts_since_restart;
    state[14] = total_conflicts;
    state[16] = free_decisions;
    state[18] = search_floor;
    state[19] = exit_reason;
    state[20] = exit_payload;
    state[28] = scratch_len;
    state[30] = log_len;
    return exit_reason;
}

/* ------------------------------------------------------------ backtrack */

/* Solver._cancel_until for backtracks the Python side performs: undo the
 * trail from its end down to position `bound` (the first entry of the
 * level backtracked out of), saving phases, clearing reasons and
 * reinserting the variables into the order heap, exactly as the kernel's
 * cancel_until does.  state: [0] trail_len, [1] heap_size (updated). */
void repro_cancel_trail(long *trail, signed char *assigns,
                        signed char *polarity, long *reasons, long *heap,
                        long *heap_pos, double *activity, long *state,
                        long bound)
{
    long heap_size = state[1];
    for (long index = state[0] - 1; index >= bound; index--) {
        long ilit = trail[index];
        long var = ilit >> 1;
        assigns[var] = -1;
        polarity[var] = (signed char) (((ilit & 1) == 0) ? 1 : 0);
        reasons[var] = 0;
        heap_insert(heap, heap_pos, activity, &heap_size, var);
    }
    state[1] = heap_size;
}

/* ------------------------------------------------------ clause retraction */

/* Solver._detach_all: retract the clauses refs[0 .. nrefs-1] in one sweep.
 * Each is marked dead, then the watcher list of every literal one of them
 * watches is walked once and the watchers of dead clauses are unlinked.
 * The surviving watchers keep their relative order, so the heads and the
 * link words of live clauses end up exactly as detaching one clause at a
 * time leaves them (a dead clause's own link words are garbage and are
 * not written).  `seen` marks the literals already swept (bit 1 << sign
 * per variable) and is left zeroed.  The reasons of trail[0 .. trail_len-1]
 * that name a dead clause are cleared (a layer pop passes the level-0
 * trail; database reduction never frees a reason and passes 0).  Returns
 * the arena words the dead clauses occupy. */
long repro_unlink_dead(long *arena, long *heads, signed char *seen,
                       const long *refs, long nrefs, long *reasons,
                       const long *trail, long trail_len)
{
    long garbage = 0;
    for (long i = 0; i < nrefs; i++) {
        long ref = refs[i];
        garbage += (arena[ref] >> 2) + HDR;
        arena[ref] |= FLAG_DEAD;
    }
    for (long i = 0; i < nrefs; i++) {
        long base = refs[i] + HDR;
        for (long slot = 0; slot < 2; slot++) {
            long lit = arena[base + slot];
            signed char bit = (signed char) (1 << (lit & 1));
            if (seen[lit >> 1] & bit)
                continue;
            seen[lit >> 1] |= bit;
            long *prev = &heads[lit];
            long ptr = *prev;
            while (ptr) {
                long ref = ptr >> 1;
                long next = arena[ref + 1 + (ptr & 1)];
                if (arena[ref] & FLAG_DEAD)
                    *prev = next;
                else
                    prev = &arena[ref + 1 + (ptr & 1)];
                ptr = next;
            }
        }
    }
    for (long i = 0; i < nrefs; i++) {
        long base = refs[i] + HDR;
        seen[arena[base] >> 1] = 0;
        seen[arena[base + 1] >> 1] = 0;
    }
    for (long i = 0; i < trail_len; i++) {
        long var = trail[i] >> 1;
        long reason = reasons[var];
        if (reason && (arena[reason] & FLAG_DEAD))
            reasons[var] = 0;
    }
    return garbage;
}

/* ------------------------------------------------------- assumption core */

/* Solver._analyze_final's trail walk: the decisions behind the falsified
 * assumption literal `failed`.  Walks the trail from its end down to
 * position `bound` (where decision level 1 starts): a marked variable with
 * a reason marks that reason's other variables above level 0, a marked
 * decision literal is written to `out`, in walk order.  `seen` is left
 * zeroed.  Returns the number of literals written (at most
 * trail_len - bound). */
long repro_analyze_final(const long *arena, const long *levels,
                         const long *reasons, const long *trail,
                         signed char *seen, long trail_len, long bound,
                         long failed, long *out)
{
    long count = 0;
    seen[failed >> 1] = 1;
    for (long index = trail_len - 1; index >= bound; index--) {
        long ilit = trail[index];
        long var = ilit >> 1;
        if (!seen[var])
            continue;
        long reason = reasons[var];
        if (!reason) {
            out[count++] = ilit;
        } else {
            long base = reason + HDR;
            long size = arena[reason] >> 2;
            for (long k = 0; k < size; k++) {
                long qvar = arena[base + k] >> 1;
                if (qvar != var && levels[qvar] > 0)
                    seen[qvar] = 1;
            }
        }
        seen[var] = 0;
    }
    seen[failed >> 1] = 0;
    return count;
}

/* ------------------------------------------------------ flat clause load */

/* Validate a flat clause buffer before anything indexes with it.  Clause i
 * is lits[ends[i-1] .. ends[i]) with ends[-1] taken as 0.  Returns 0 when
 * the offsets never decrease, the last offset equals nlits and every
 * literal is non-zero with |lit| <= num_vars; otherwise the code of the
 * first broken rule: 1 a decreasing offset, 2 a last offset other than
 * nlits, 3 a zero literal, 4 a literal beyond num_vars. */
long repro_check_clauses(const int *lits, long nlits, const int *ends,
                         long nclauses, long num_vars)
{
    long prev = 0;
    for (long i = 0; i < nclauses; i++) {
        if (ends[i] < prev)
            return 1;
        prev = ends[i];
    }
    if (prev != nlits)
        return 2;
    for (long k = 0; k < nlits; k++) {
        long lit = lits[k];
        if (lit == 0)
            return 3;
        if (lit > num_vars || -lit > num_vars)
            return 4;
    }
    return 0;
}

/* The bulk clause loader: the effect of Solver.add_clause on clauses
 * first .. last-1 of a flat buffer of nclauses clauses, in order, at
 * decision level 0.  Solver.add_clause_buffer validates
 * the whole buffer and range table once (repro_check_clauses) and then
 * loads it in slices, growing the arena between calls, so the arena grows
 * the way per-clause loading grows it.
 *
 * Clause i is lits[ends[i-1] .. ends[i]).  The range table assigns
 * selectors: clause i lies in range r when range_ends[r-1] <= i <
 * range_ends[r], and when range_sels[r] != 0 the literal -range_sels[r]
 * is appended to it (the clause grouping of the paper's Section 3.4);
 * clauses past the last range carry no selector.  A non-zero layer_sel is
 * the selector of the innermost open layer: -layer_sel is appended after
 * the range selector, the literal order in which add_clause tags a layered
 * clause.  Per clause, exactly as
 * add_clause: literals map to the internal 2*var+sign encoding, a repeated
 * literal is dropped, a tautology or a literal true at level 0 drops the
 * clause, a literal false at level 0 is dropped; an empty result makes the
 * formula unsatisfiable, a unit is enqueued at level 0 and propagated at
 * once, and a longer clause is written at the arena's logical end and
 * attached to the watch lists.  `seen` serves as a per-variable mark of
 * the literals kept so far (1 + sign) and is left zeroed.
 *
 * state: [0] qhead, [1] trail_len, [2] arena_len, [3] propagations (added
 * to), [4] num_vars, [5] arena capacity; out: [6] refs written to `refs`,
 * [7] 1 while the formula is consistent, 0 once it became unsatisfiable.
 * Returns 0; or, without touching any solver state, 1 when the slice's
 * offsets leave [0, nlits] or decrease, 3/4 for a zero or out-of-range
 * literal in it, 5 for a selector out of range, 6 when the arena capacity
 * cannot hold the slice (HDR + 2 words per clause beyond its literals). */
long repro_load_clauses(long *arena, long *heads, signed char *assigns,
                        long *levels, long *reasons, long *trail,
                        signed char *seen, const int *lits, long nlits,
                        const int *ends, long nclauses, long first,
                        long last, const int *range_ends,
                        const int *range_sels, long nranges, long layer_sel,
                        long *refs, long *state)
{
    long num_vars = state[4];
    if (first < 0 || last < first || last > nclauses)
        return 1;
    long begin = first > 0 ? ends[first - 1] : 0;
    if (begin < 0 || begin > nlits)
        return 1;
    long prev = begin;
    for (long i = first; i < last; i++) {
        if (ends[i] < prev || ends[i] > nlits)
            return 1;
        prev = ends[i];
    }
    for (long k = begin; k < prev; k++) {
        long lit = lits[k];
        if (lit == 0)
            return 3;
        if (lit > num_vars || -lit > num_vars)
            return 4;
    }
    for (long r = 0; r < nranges; r++)
        if (range_sels[r] < 0 || range_sels[r] > num_vars)
            return 5;
    if (layer_sel < 0 || layer_sel > num_vars)
        return 5;
    long qhead = state[0];
    long trail_len = state[1];
    long arena_len = state[2];
    if (state[5] - arena_len < (last - first) * (HDR + 2) + (prev - begin))
        return 6;

    long nrefs = 0;
    long ok = 1;
    long start = begin;
    long r = 0;
    for (long i = first; i < last; i++) {
        while (r < nranges && range_ends[r] <= i)
            r++;
        long selector = r < nranges ? range_sels[r] : 0;
        long tail[2];
        long ntail = 0;
        if (selector)
            tail[ntail++] = -selector;
        if (layer_sel)
            tail[ntail++] = -layer_sel;
        long end = ends[i];
        long total = end - start + ntail;
        long base = arena_len + HDR;
        long n = 0;
        int dropped = 0;
        for (long k = 0; k < total; k++) {
            long lit = start + k < end ? lits[start + k] : tail[start + k - end];
            long var = lit < 0 ? -lit : lit;
            long ilit = 2 * var + (lit < 0 ? 1 : 0);
            signed char mark = seen[var];
            if (mark) {
                if (mark == 1 + (ilit & 1))
                    continue; /* repeated literal */
                dropped = 1;  /* tautology */
                break;
            }
            signed char value = assigns[var];
            if (value >= 0 && levels[var] == 0) {
                if ((value ^ (ilit & 1)) == 1) {
                    dropped = 1; /* satisfied at level 0 */
                    break;
                }
                continue; /* falsified at level 0 */
            }
            seen[var] = (signed char) (1 + (ilit & 1));
            arena[base + n++] = ilit;
        }
        for (long k = 0; k < n; k++)
            seen[arena[base + k] >> 1] = 0;
        start = end;
        if (dropped)
            continue;
        if (n == 0) {
            ok = 0;
            break;
        }
        if (n == 1) {
            enqueue(assigns, levels, reasons, trail, &trail_len, 0,
                    arena[base], 0);
            if (propagate(arena, heads, assigns, levels, reasons, trail,
                          &qhead, &trail_len, 0, &state[3])) {
                ok = 0;
                break;
            }
            continue;
        }
        long ref = arena_len;
        arena[ref] = n << 2;
        arena[ref + 1] = 0;
        arena[ref + 2] = 0;
        arena[ref + 3] = 0;
        arena[ref + 4] = 0;
        arena_len = base + n;
        attach(arena, heads, ref);
        refs[nrefs++] = ref;
    }
    state[0] = qhead;
    state[1] = trail_len;
    state[2] = arena_len;
    state[6] = nrefs;
    state[7] = ok;
    return 0;
}
