/**
 * @file
 * The global coherence invariant checker (the runtime half of the paper's
 * correctness argument).
 *
 * Registered on the SoC like the watchdog — last in tick order, never
 * mutating simulated state — the checker holds the hierarchy to the
 * invariants the paper argues on paper:
 *
 *  - "swmr"             single-writer / multi-reader across L1s (§2.2):
 *                       at most one Trunk per line, a Trunk is the sole
 *                       holder, and only a Trunk may be dirty.
 *  - "inclusivity"      every line an L1 holds is resident in the L2
 *                       directory and recorded for that holder (§3.4);
 *                       an L1 Trunk must be the directory's trunk. (The
 *                       directory may transiently record *more* permission
 *                       than an L1 still has — shrink reports are applied
 *                       at C-channel arrival — but never less.)
 *  - "flushq-meta"      flush-queue snapshots agree with the array: a
 *                       hit entry's line is resident with the snapshotted
 *                       dirty bit, and a dirty entry is a hit (§5.2/§5.4,
 *                       maintained by the probe_invalidate interlock).
 *  - "probe-invalidate" once a probe has passed its invalidate-queue
 *                       stage, no queued entry on the probed line still
 *                       claims dirty data (or, for a toN probe, a hit).
 *  - "fshr-fsm"         FSHR transitions follow the six-state machine of
 *                       Figure 7 (§5.2).
 *  - "flush-counter"    flush counter == queued + in-FSHR CBO.X (§5.3).
 *  - "value-coherence"  a clean quiet L1 line's bytes equal the L2 copy;
 *                       at checkNow(), a clean quiet L2 line's bytes
 *                       equal DRAM. The
 *                       hierarchy agreement chain is the checker's shadow
 *                       memory oracle: together with the fuzzer's
 *                       per-word program-order oracle it gives end-to-end
 *                       load-value checking.
 *  - "skip-soundness"   a set skip bit on a clean quiet line implies no
 *                       dirty copy below and bytes identical to DRAM (§6).
 *  - "slice-routing"    with an address-interleaved L2, every line a
 *                       slice works on (MSHR request, eviction victim,
 *                       buffered RootRelease, or directory residence)
 *                       homes to that slice; a hit
 *                       means the crossbar misrouted a request.
 *  - "flush-counter-global" the summed flush counters across all L1s
 *                       equal the summed queue + FSHR occupancy — the
 *                       machine-wide fence progress ledger stays
 *                       conserved even when one flush epoch's
 *                       RootReleases fan out across several slices.
 *  - "data-residency"   an L2 entry's bytes are resident whenever its
 *                       state policy or its dirty bit requires them.
 *
 * Value/skip checks only fire on *quiet* lines (no FSHR, flush-queue
 * entry, probe, writeback, MSHR or L2 transaction in flight on the line):
 * while a transaction is mid-flight the levels legitimately disagree.
 * Structural invariants hold unconditionally every cycle.
 *
 * Cadence: the checker is event-driven. The invariants scoped to
 * in-flight machinery (flush queues, FSHR FSMs, flush counters, in-flight
 * slice routing) are O(cores x queue) and run every executed cycle. The
 * line-scoped ones (swmr, inclusivity, directory residence and routing,
 * value-coherence, skip-soundness) run only on the lines the cycle
 * touched: every L1's arrays, every L2 slice's directory and data store
 * and the DRAM backing store keep a TouchLog of the slots they wrote
 * (sim/touch_log.hh), with the line each slot held before its first
 * write, and the checker drains them after all components have ticked.
 * A touched line that is not yet quiet waits in a pending set and gets
 * its value checks on the first cycle it is quiet, so every change of a
 * line's bytes or skip bit is value-checked. checkNow() (end-of-run
 * audits, watchdog escalation) sweeps every line instead, and adds the
 * L2-vs-DRAM clean-line scan. CheckerConfig::differential runs that
 * full sweep beside the incremental check every executed cycle and
 * panics if they disagree — the proof that the touch logs miss nothing.
 *
 * The checker reads end-of-cycle state only; with fast-forward enabled it
 * still observes every state change, because skipped cycles are provably
 * idle. Enabling it never changes simulated timing.
 */

#ifndef SKIPIT_VERIFY_CHECKER_HH
#define SKIPIT_VERIFY_CHECKER_HH

#include <cstddef>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "l1/structures.hh"
#include "sim/simulator.hh"
#include "sim/ticked.hh"
#include "sim/types.hh"

namespace skipit {
class DataCache;
class L2Cache;
class Dram;
} // namespace skipit

namespace skipit::verify {

/** Checker parameters. */
struct CheckerConfig
{
    bool enabled = true;
    /** Panic on the first violation (tests, CI) instead of latching it
     *  for later inspection (fuzzing, watchdog escalation). */
    bool fatal = true;
    /** Run the value-coherence / skip-soundness byte comparisons. */
    bool check_values = true;
    /** Check skip-bit soundness. The SoC clears this automatically for
     *  configurations where the skip bit is genuinely unsound (skip_it
     *  without grant_data_dirty, reachable through the ablation axes). */
    bool check_skip = true;
    /** Self-check of the incremental checker: also run the full
     *  line sweep every executed cycle and panic ("incremental checker
     *  missed ...") when the two find different violations. Costs a
     *  full sweep per cycle; for fuzzing and CI, never the default. */
    bool differential = false;
    /** Latched-violation cap when not fatal. */
    std::size_t max_violations = 64;
};

/** One detected invariant violation. */
struct Violation
{
    Cycle cycle = 0;
    std::string invariant; //!< named key, e.g. "probe-invalidate"
    std::string detail;
};

/** See file comment. */
class CoherenceChecker : public Ticked
{
  public:
    CoherenceChecker(std::string name, Simulator &sim,
                     const CheckerConfig &cfg);

    /// @name Wiring (SoC construction; all optional)
    /// @{
    /** Each registration enables the structure's touch logs (when the
     *  checker is enabled); the checker drains them every tick. */
    void addL1(const DataCache &l1);
    /** Register one L2 slice; call once per slice in slice-index order
     *  (a single call for the monolithic slices=1 L2). */
    void setL2(const L2Cache &l2);
    void setDram(const Dram &dram);
    /// @}

    void tick() override;
    /** The checker never forces a cycle to execute: state only changes in
     *  executed cycles, and the checker runs in each of those. */
    Cycle nextWake() const override { return wake_never; }

    /**
     * Exhaustive sweep right now: every structural invariant, every value
     * invariant, plus the full L2-vs-DRAM clean-line agreement scan that
     * is too wide to run per cycle. Honors CheckerConfig::fatal.
     * @return number of new violations found (0 when fatal, it panics)
     */
    std::size_t checkNow();

    /** Non-fatal exhaustive sweep + report, for watchdog escalation. */
    void escalate(std::ostream &os);

    bool clean() const { return violations_.empty(); }
    const std::vector<Violation> &violations() const { return violations_; }
    /** Executed cycles the checker has examined. */
    std::uint64_t checksRun() const { return checks_run_; }
    /** Lines the incremental check examined (touched lines plus pending
     *  lines polled for quiet), summed over executed cycles: the cost
     *  that tracks activity rather than cache size. */
    std::uint64_t linesExamined() const { return lines_examined_; }
    void report(std::ostream &os) const;

    /** Negative control for differential mode (tests only): the next
     *  tick discards every touch log unexamined, as a broken log would. */
    void dropNextTouchLogsForTest() { drop_next_touches_ = true; }

  private:
    Simulator &sim_;
    CheckerConfig cfg_;
    std::vector<const DataCache *> l1s_;
    /** L2 slices in slice-index order; one entry when slices=1. */
    std::vector<const L2Cache *> l2s_;
    const Dram *dram_ = nullptr;

    std::vector<Violation> violations_;
    std::uint64_t checks_run_ = 0;
    std::uint64_t lines_examined_ = 0;
    bool drop_next_touches_ = false;
    /** Previous-tick FSHR states, per L1, for transition checking. */
    std::vector<std::vector<Fshr::State>> prev_fshr_;
    /** When non-null, fail() collects here (up to collect_cap_) instead
     *  of panicking or latching. */
    std::vector<Violation> *collect_ = nullptr;
    std::size_t collect_cap_ = 0;

    /** A touched line whose value checks wait for it to go quiet. */
    struct Pending
    {
        Addr line;
        /** The agent found busy on it last cycle (see lineQuiet). */
        std::size_t busy_agent;
    };

    /** A directory entry written this cycle (still valid). */
    struct TouchedEntry
    {
        const L2Cache *l2;
        unsigned set;
        unsigned way;
    };

    /** This cycle's touched lines (sorted, unique; reused buffer). */
    std::vector<Addr> touched_;
    std::vector<TouchedEntry> touched_entries_; //!< reused buffer
    std::vector<Pending> pending_;
    std::vector<Pending> still_pending_; //!< reused buffer
    /** This cycle's L1 holders of the line being checked (reused). */
    std::vector<std::pair<std::size_t, unsigned>> holders_;
    /** Differential mode, latching: violations the incremental check
     *  has reported, so the full sweep's repeats of a persisting
     *  violation are not counted as misses. */
    std::set<std::string> reported_;

    /// @name Per-cycle invariants over in-flight machinery
    /// @{
    /** flushq-meta, probe-invalidate and flush-counter of one L1. */
    void checkL1Queues(std::size_t idx);
    void checkFshrFsm(std::size_t idx);
    /** slice-routing over in-flight lines: no slice works on a line
     *  homing to a sibling (resident lines: checkDirEntry). */
    void checkSliceRouting();
    /** flush-counter-global: machine-wide counter conservation. */
    void checkGlobalFlushCounter();
    void snapshotFshrStates();
    /// @}

    /// @name Line-scoped invariants, shared by both cadences
    /// @{
    /** swmr + inclusivity for the line in one L1 slot. @p shared:
     *  whether another L1 may hold the line too; false (the caller
     *  counted the holders) skips the sole-Trunk scan. */
    void checkL1Line(std::size_t idx, unsigned set, unsigned way,
                     bool shared = true);
    /** value-coherence + skip-soundness for one clean L1 slot whose
     *  line the caller has established is quiet. */
    void checkL1LineValues(std::size_t idx, unsigned set, unsigned way);
    /** slice-routing (residence) + data-residency of one L2 entry. */
    void checkDirEntry(const L2Cache &l2, unsigned set, unsigned way);
    /// @}

    /// @name Incremental cadence
    /// @{
    /** Drain every touch log into touched_ and touched_entries_. */
    void collectTouched();
    /** Check touched_ and pending_; the per-cycle line-scoped check. */
    void checkTouched();
    /** Structural checks of @p line in every L1 that holds it.
     *  @return true if its value checks are due (some L1 holds it
     *  clean). */
    bool checkLineStructure(Addr line);
    void checkLineValues(Addr line);
    /// @}

    /** Every line-scoped invariant over every resident line (checkNow
     *  and the differential reference). */
    void sweepLines();
    void checkL2DramSweep();
    /** Differential mode: incremental and full sweep side by side. */
    void tickDifferential();

    /** The slice whose address range contains @p line (null if none). */
    const L2Cache *homeL2(Addr line) const;

    /** Is any machinery in the whole hierarchy working on @p line?
     *  Agents are the L1s, then the L2 slices; the scan starts at
     *  @p busy_agent and leaves there the agent it found busy, so a
     *  pending line is usually re-polled with one lookup. */
    bool lineQuiet(Addr line, std::size_t &busy_agent) const;
    bool
    lineQuiet(Addr line) const
    {
        std::size_t agent = 0;
        return lineQuiet(line, agent);
    }

    void fail(const char *invariant, std::string detail);
};

} // namespace skipit::verify

#endif // SKIPIT_VERIFY_CHECKER_HH
