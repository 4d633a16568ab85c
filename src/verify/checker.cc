#include "checker.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "coherence/state.hh"
#include "dram/dram.hh"
#include "l1/data_cache.hh"
#include "l2/directory.hh"
#include "l2/cache.hh"
#include "sim/logging.hh"

namespace skipit::verify {

namespace {

const char *
fshrStateName(Fshr::State s)
{
    switch (s) {
      case Fshr::State::Invalid:
        return "invalid";
      case Fshr::State::MetaWrite:
        return "meta_write";
      case Fshr::State::FillBuffer:
        return "fill_buffer";
      case Fshr::State::RootReleaseData:
        return "root_release_data";
      case Fshr::State::RootRelease:
        return "root_release";
      case Fshr::State::RootReleaseAck:
        return "root_release_ack";
    }
    return "?";
}

/**
 * Per-executed-cycle transition legality (Figure 7). Self loops are always
 * legal (an FSHR may wait in a state). RootReleaseAck may complete and be
 * reallocated within one cycle, so it also steps to the two entry states.
 */
bool
fshrTransitionLegal(Fshr::State from, Fshr::State to)
{
    using S = Fshr::State;
    if (from == to)
        return true;
    switch (from) {
      case S::Invalid:
        return to == S::MetaWrite || to == S::RootRelease;
      case S::MetaWrite:
        return to == S::FillBuffer || to == S::RootRelease;
      case S::FillBuffer:
        return to == S::RootReleaseData;
      case S::RootReleaseData:
      case S::RootRelease:
        return to == S::RootReleaseAck;
      case S::RootReleaseAck:
        return to == S::Invalid || to == S::MetaWrite ||
               to == S::RootRelease;
    }
    return false;
}

} // namespace

CoherenceChecker::CoherenceChecker(std::string name, Simulator &sim,
                                   const CheckerConfig &cfg)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg)
{
}

void
CoherenceChecker::addL1(const DataCache &l1)
{
    // Index order must match AgentId order: l1s_[id] is the cache whose
    // TileLink source id is @p id (the SoC adds them in core order).
    l1s_.push_back(&l1);
    prev_fshr_.emplace_back(l1.fshrs().size(), Fshr::State::Invalid);
    if (cfg_.enabled) {
        const L1Arrays &a = l1.arrays();
        a.touches().enable(static_cast<std::size_t>(a.sets()) * a.ways());
    }
}

void
CoherenceChecker::setL2(const L2Cache &l2)
{
    l2s_.push_back(&l2);
    if (cfg_.enabled) {
        const Directory &dir = l2.directory();
        const std::size_t slots =
            static_cast<std::size_t>(dir.sets()) * dir.ways();
        dir.touches().enable(slots);
        l2.store().touches().enable(slots);
    }
}

void
CoherenceChecker::setDram(const Dram &dram)
{
    dram_ = &dram;
    if (cfg_.enabled)
        dram.touches().enable(0);
}

void
CoherenceChecker::tick()
{
    if (!cfg_.enabled)
        return;
    ++checks_run_;
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        checkL1Queues(i);
        checkFshrFsm(i);
    }
    checkSliceRouting();
    checkGlobalFlushCounter();
    if (cfg_.differential)
        tickDifferential();
    else
        checkTouched();
    snapshotFshrStates();
}

std::size_t
CoherenceChecker::checkNow()
{
    if (!cfg_.enabled)
        return 0;
    const std::size_t before = violations_.size();
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        checkL1Queues(i);
        checkFshrFsm(i);
    }
    checkSliceRouting();
    checkGlobalFlushCounter();
    sweepLines();
    if (cfg_.check_values)
        checkL2DramSweep();
    snapshotFshrStates();
    return violations_.size() - before;
}

void
CoherenceChecker::escalate(std::ostream &os)
{
    if (!cfg_.enabled)
        return;
    std::vector<Violation> found;
    collect_ = &found;
    collect_cap_ = cfg_.max_violations;
    checkNow();
    collect_ = nullptr;
    if (found.empty()) {
        os << "CHECKER: full invariant sweep clean @ cycle " << sim_.now()
           << " (stall is a liveness problem, not a coherence one)\n";
        return;
    }
    os << "CHECKER: " << found.size() << " invariant violation(s) @ cycle "
       << sim_.now() << ":\n";
    for (const Violation &v : found) {
        os << "  [" << v.invariant << "] " << v.detail << "\n";
        if (violations_.size() < cfg_.max_violations)
            violations_.push_back(v);
    }
}

void
CoherenceChecker::report(std::ostream &os) const
{
    os << "checker: " << checks_run_ << " cycles checked, "
       << violations_.size() << " violation(s)\n";
    for (const Violation &v : violations_) {
        os << "  cycle " << v.cycle << " [" << v.invariant << "] "
           << v.detail << "\n";
    }
}

void
CoherenceChecker::fail(const char *invariant, std::string detail)
{
    if (collect_ != nullptr) {
        if (collect_->size() < collect_cap_)
            collect_->push_back({sim_.now(), invariant, std::move(detail)});
        return;
    }
    if (cfg_.fatal) {
        SKIPIT_PANIC("coherence invariant '", invariant,
                     "' violated @ cycle ", sim_.now(), ": ", detail);
    }
    if (violations_.size() < cfg_.max_violations)
        violations_.push_back({sim_.now(), invariant, std::move(detail)});
}

const L2Cache *
CoherenceChecker::homeL2(Addr line) const
{
    if (l2s_.empty())
        return nullptr;
    // The slices share one indexing policy (modulo or hashed); ask it
    // where the line homes. l2s_ is registered in slice order.
    const unsigned s = l2s_.front()->indexPolicy().sliceOf(lineAlign(line));
    return s < l2s_.size() ? l2s_[s] : nullptr;
}

bool
CoherenceChecker::lineQuiet(Addr line, std::size_t &busy_agent) const
{
    // Every slice, not just the home one: a misrouted transaction (the
    // very fault slice-routing exists to catch) is still in-flight state.
    const std::size_t agents = l1s_.size() + l2s_.size();
    for (std::size_t k = 0; k < agents; ++k) {
        const std::size_t a = (busy_agent + k) % agents;
        const bool busy = a < l1s_.size()
                              ? l1s_[a]->lineBusy(line)
                              : l2s_[a - l1s_.size()]->lineBusy(line);
        if (busy) {
            busy_agent = a;
            return false;
        }
    }
    return true;
}

void
CoherenceChecker::checkL1Queues(std::size_t idx)
{
    const DataCache &dc = *l1s_[idx];
    const L1Arrays &arrays = dc.arrays();

    // flushq-meta: queue snapshots agree with the array (§5.4's
    // probe_invalidate keeps them coherent through downgrades).
    for (const FlushQueueEntry &e : dc.flushQueue()) {
        if (e.is_dirty && !e.is_hit) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue entry 0x", std::hex,
                     e.addr, " claims dirty data without a hit"));
        }
        if (!e.is_hit)
            continue;
        const int way = arrays.findWay(e.addr);
        if (way < 0) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue hit entry 0x", std::hex,
                     e.addr, " but the line is no longer resident"));
            continue;
        }
        const L1Meta &meta = arrays.meta(arrays.setOf(e.addr),
                                         static_cast<unsigned>(way));
        // probe_invalidate clears the queued snapshot the moment a probe
        // claims the line, but the array bit is only dropped when the
        // probe responds (§5.4) — tolerate that one-directional window
        // while the probe unit is mid-flight on this line.
        const ProbeUnit &pu = dc.probeUnit();
        const bool probe_window =
            pu.busy() && pu.line == e.addr && meta.dirty && !e.is_dirty;
        if (meta.dirty != e.is_dirty && !probe_window) {
            fail("flushq-meta", detail::concat(
                     "l1[", idx, "] flush-queue entry 0x", std::hex,
                     e.addr, " snapshotted dirty=", e.is_dirty,
                     " but the array says dirty=", meta.dirty));
        }
    }

    // probe-invalidate: once the probe passed its invalidate-queue stage,
    // every queued entry on the probed line must reflect the downgrade.
    const ProbeUnit &probe = dc.probeUnit();
    if (probe.state == ProbeUnit::State::CheckConflicts ||
        probe.state == ProbeUnit::State::Respond) {
        for (const FlushQueueEntry &e : dc.flushQueue()) {
            if (e.addr != probe.line)
                continue;
            if (e.is_dirty) {
                fail("probe-invalidate", detail::concat(
                         "l1[", idx, "] probe on 0x", std::hex,
                         probe.line, " passed invalidate-queue but a "
                         "queued entry still claims dirty data"));
            }
            if (probe.cap == Cap::toN && e.is_hit) {
                fail("probe-invalidate", detail::concat(
                         "l1[", idx, "] toN probe on 0x", std::hex,
                         probe.line, " passed invalidate-queue but a "
                         "queued entry still claims a hit"));
            }
        }
    }

    // flush-counter conservation: counter == queued + in-FSHR CBO.X.
    unsigned busy_fshrs = 0;
    for (const Fshr &f : dc.fshrs())
        busy_fshrs += f.busy() ? 1 : 0;
    const unsigned expected =
        static_cast<unsigned>(dc.flushQueue().size()) + busy_fshrs;
    if (dc.flushCounter() != expected) {
        fail("flush-counter", detail::concat(
                 "l1[", idx, "] flush counter ", dc.flushCounter(),
                 " != ", dc.flushQueue().size(), " queued + ", busy_fshrs,
                 " in FSHRs"));
    }
}

void
CoherenceChecker::checkL1Line(std::size_t idx, unsigned set, unsigned way,
                              bool shared)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    const L1Meta &meta = arrays.meta(set, way);
    const Addr line = arrays.addrOf(set, way);
    const AgentId id = static_cast<AgentId>(idx);

    // swmr: only a Trunk may hold dirty data.
    if (meta.dirty && meta.state != ClientState::Trunk) {
        fail("swmr", detail::concat(
                 "l1[", idx, "] holds 0x", std::hex, line,
                 " dirty in state ", toString(meta.state)));
    }
    // swmr: a Trunk is the sole holder across all L1s.
    if (meta.state == ClientState::Trunk && shared) {
        for (std::size_t j = 0; j < l1s_.size(); ++j) {
            if (j == idx)
                continue;
            const ClientState other = l1s_[j]->lineState(line);
            if (other != ClientState::Nothing) {
                fail("swmr", detail::concat(
                         "l1[", idx, "] is Trunk of 0x", std::hex, line,
                         " while l1[", std::dec, j, "] holds it as ",
                         toString(other)));
            }
        }
    }

    // inclusivity: the home slice's directory records (at least) what
    // the L1 actually holds. The reverse is legal in flight.
    const L2Cache *l2 = homeL2(line);
    if (l2 == nullptr)
        return;
    const Directory &dir = l2->directory();
    const int l2_way = dir.findWay(line);
    if (l2_way < 0) {
        fail("inclusivity", detail::concat(
                 "l1[", idx, "] holds 0x", std::hex, line, " (",
                 toString(meta.state), ") absent from L2 slice ", std::dec,
                 l2->sliceIndex(), "'s directory"));
        return;
    }
    const DirEntry &e =
        dir.entry(dir.setOf(line), static_cast<unsigned>(l2_way));
    if (!e.heldBy(id)) {
        fail("inclusivity", detail::concat(
                 "l1[", idx, "] holds 0x", std::hex, line, " (",
                 toString(meta.state),
                 ") but the directory does not record it"));
    } else if (meta.state == ClientState::Trunk && e.trunk != id) {
        fail("inclusivity", detail::concat(
                 "l1[", idx, "] is Trunk of 0x", std::hex, line,
                 " but the directory trunk is agent ", std::dec, e.trunk));
    }
}

void
CoherenceChecker::checkFshrFsm(std::size_t idx)
{
    const std::vector<Fshr> &fshrs = l1s_[idx]->fshrs();
    std::vector<Fshr::State> &prev = prev_fshr_[idx];
    for (std::size_t i = 0; i < fshrs.size(); ++i) {
        const Fshr::State from = prev[i];
        const Fshr::State to = fshrs[i].state;
        if (!fshrTransitionLegal(from, to)) {
            fail("fshr-fsm", detail::concat(
                     "l1[", idx, "] fshr", i, " took illegal transition ",
                     fshrStateName(from), " -> ", fshrStateName(to),
                     " (line 0x", std::hex, fshrs[i].req.addr, ")"));
        }
    }
}

void
CoherenceChecker::snapshotFshrStates()
{
    for (std::size_t idx = 0; idx < l1s_.size(); ++idx) {
        const std::vector<Fshr> &fshrs = l1s_[idx]->fshrs();
        for (std::size_t i = 0; i < fshrs.size(); ++i)
            prev_fshr_[idx][i] = fshrs[i].state;
    }
}

void
CoherenceChecker::checkL1LineValues(std::size_t idx, unsigned set,
                                    unsigned way)
{
    const L1Arrays &arrays = l1s_[idx]->arrays();
    const L1Meta &meta = arrays.meta(set, way);
    const Addr line = arrays.addrOf(set, way);
    const L2Cache *l2 = homeL2(line);
    if (l2 == nullptr)
        return;
    const Directory &dir = l2->directory();
    const int l2_way = dir.findWay(line);
    if (l2_way < 0)
        return; // inclusivity already reported it
    const unsigned l2_set = dir.setOf(line);
    const DirEntry &e = dir.entry(l2_set, static_cast<unsigned>(l2_way));

    // value-coherence: a clean quiet L1 line is a byte-exact copy of the
    // L2's version (however either got it). A tag-only entry (exclusive
    // state policy) has no L2 bytes; the clean line's ground truth is
    // DRAM instead.
    const LineData &l1_bytes = arrays.data(set, way);
    if (e.data_resident) {
        const LineData &l2_bytes =
            l2->store().read(l2_set, static_cast<unsigned>(l2_way));
        if (std::memcmp(l1_bytes.data(), l2_bytes.data(), line_bytes) !=
            0) {
            fail("value-coherence", detail::concat(
                     "l1[", idx, "] clean copy of 0x", std::hex, line,
                     " differs from the L2 copy"));
        }
    } else if (dram_ != nullptr) {
        const LineData dram_bytes = dram_->peekLine(line);
        if (std::memcmp(l1_bytes.data(), dram_bytes.data(), line_bytes) !=
            0) {
            fail("value-coherence", detail::concat(
                     "l1[", idx, "] clean copy of 0x", std::hex, line,
                     " differs from DRAM (L2 entry is tag-only)"));
        }
    }

    // skip-soundness (§6): skip set on a clean line means no dirty copy
    // exists below — the negation of L2's dirty bit.
    if (cfg_.check_skip && meta.skip && e.dirty) {
        fail("skip-soundness", detail::concat(
                 "l1[", idx, "] has skip set on clean 0x", std::hex, line,
                 " but the L2 copy is dirty"));
    }
}

void
CoherenceChecker::checkDirEntry(const L2Cache &l2, unsigned set,
                                unsigned way)
{
    const Directory &dir = l2.directory();
    const DirEntry &e = dir.entry(set, way);
    const Addr line = dir.addrOf(set, way);

    // slice-routing: a slice only ever holds lines homing to it.
    if (!l2.homesLine(line)) {
        fail("slice-routing", detail::concat(
                 "L2 slice ", l2.sliceIndex(), " holds line 0x", std::hex,
                 line, " which homes to slice ", std::dec,
                 l2.indexPolicy().sliceOf(line)));
    }

    // data-residency: the state policy's residency contract. Inclusive
    // keeps every line's bytes; under any policy a dirty line must be
    // backed by real store bytes.
    if (l2.statePolicy().dataAlwaysResident() && !e.data_resident) {
        fail("data-residency", detail::concat(
                 "L2 slice ", l2.sliceIndex(), " entry 0x", std::hex, line,
                 " is tag-only under an always-resident state policy"));
    }
    if (e.dirty && !e.data_resident) {
        fail("data-residency", detail::concat(
                 "L2 slice ", l2.sliceIndex(), " entry 0x", std::hex, line,
                 " is dirty but its bytes are not resident"));
    }
}

void
CoherenceChecker::collectTouched()
{
    touched_.clear();
    for (const DataCache *l1 : l1s_) {
        const L1Arrays &a = l1->arrays();
        TouchLog &log = a.touches();
        touched_.insert(touched_.end(), log.lines().begin(),
                        log.lines().end());
        for (const std::size_t slot : log.slots()) {
            const unsigned set = static_cast<unsigned>(slot / a.ways());
            const unsigned way = static_cast<unsigned>(slot % a.ways());
            if (a.meta(set, way).valid())
                touched_.push_back(a.addrOf(set, way));
        }
        log.clear();
    }
    touched_entries_.clear();
    for (const L2Cache *l2 : l2s_) {
        const Directory &dir = l2->directory();
        // A written store slot is named by its directory entry; only a
        // written directory slot needs its entry re-audited.
        for (TouchLog *log : {&dir.touches(), &l2->store().touches()}) {
            const bool entries = log == &dir.touches();
            touched_.insert(touched_.end(), log->lines().begin(),
                            log->lines().end());
            for (const std::size_t slot : log->slots()) {
                const unsigned set = static_cast<unsigned>(slot / dir.ways());
                const unsigned way = static_cast<unsigned>(slot % dir.ways());
                if (!dir.entry(set, way).valid)
                    continue;
                touched_.push_back(dir.addrOf(set, way));
                if (entries)
                    touched_entries_.push_back({l2, set, way});
            }
            log->clear();
        }
    }
    if (dram_ != nullptr) {
        TouchLog &log = dram_->touches();
        touched_.insert(touched_.end(), log.lines().begin(),
                        log.lines().end());
        log.clear();
    }
    if (drop_next_touches_) {
        drop_next_touches_ = false;
        touched_.clear();
        touched_entries_.clear();
        return;
    }
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());
}

bool
CoherenceChecker::checkLineStructure(Addr line)
{
    holders_.clear();
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const int way = l1s_[i]->arrays().findWay(line);
        if (way >= 0)
            holders_.emplace_back(i, static_cast<unsigned>(way));
    }
    bool clean_holder = false;
    for (const auto &[i, way] : holders_) {
        const L1Arrays &a = l1s_[i]->arrays();
        const unsigned set = a.setOf(line);
        checkL1Line(i, set, way, holders_.size() > 1);
        clean_holder = clean_holder || !a.meta(set, way).dirty;
    }
    return clean_holder && cfg_.check_values && !l2s_.empty();
}

void
CoherenceChecker::checkLineValues(Addr line)
{
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const L1Arrays &a = l1s_[i]->arrays();
        const int way = a.findWay(line);
        if (way < 0)
            continue;
        const unsigned set = a.setOf(line);
        if (!a.meta(set, static_cast<unsigned>(way)).dirty)
            checkL1LineValues(i, set, static_cast<unsigned>(way));
    }
}

void
CoherenceChecker::checkTouched()
{
    collectTouched();
    still_pending_.clear();
    // A line's bytes, skip bit and holders only change through a touch,
    // so a line needs value checks after each touch — once, on the first
    // cycle it is quiet. Pending lines touched again this cycle are
    // handled with the touched set.
    for (Pending p : pending_) {
        if (std::binary_search(touched_.begin(), touched_.end(), p.line))
            continue;
        ++lines_examined_;
        if (lineQuiet(p.line, p.busy_agent))
            checkLineValues(p.line);
        else
            still_pending_.push_back(p);
    }
    for (const TouchedEntry &e : touched_entries_)
        checkDirEntry(*e.l2, e.set, e.way);
    for (const Addr line : touched_) {
        ++lines_examined_;
        if (!checkLineStructure(line))
            continue;
        Pending p{line, 0};
        if (lineQuiet(line, p.busy_agent))
            checkLineValues(line);
        else
            still_pending_.push_back(p);
    }
    pending_.swap(still_pending_);
}

void
CoherenceChecker::sweepLines()
{
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const L1Arrays &a = l1s_[i]->arrays();
        for (unsigned set = 0; set < a.sets(); ++set) {
            for (unsigned way = 0; way < a.ways(); ++way) {
                if (a.meta(set, way).valid())
                    checkL1Line(i, set, way);
            }
        }
    }
    for (const L2Cache *l2 : l2s_) {
        const Directory &dir = l2->directory();
        for (unsigned set = 0; set < dir.sets(); ++set) {
            for (unsigned way = 0; way < dir.ways(); ++way) {
                if (dir.entry(set, way).valid)
                    checkDirEntry(*l2, set, way);
            }
        }
    }
    if (!cfg_.check_values || l2s_.empty())
        return;
    for (std::size_t i = 0; i < l1s_.size(); ++i) {
        const L1Arrays &a = l1s_[i]->arrays();
        for (unsigned set = 0; set < a.sets(); ++set) {
            for (unsigned way = 0; way < a.ways(); ++way) {
                const L1Meta &meta = a.meta(set, way);
                // Dirty lines are legitimately ahead of the levels
                // below; busy lines are mid-transaction.
                if (meta.valid() && !meta.dirty &&
                    lineQuiet(a.addrOf(set, way))) {
                    checkL1LineValues(i, set, way);
                }
            }
        }
    }
}

void
CoherenceChecker::tickDifferential()
{
    std::vector<Violation> incremental;
    std::vector<Violation> full;
    collect_cap_ = static_cast<std::size_t>(-1);
    collect_ = &incremental;
    checkTouched();
    collect_ = &full;
    sweepLines();
    collect_ = nullptr;

    const auto key = [](const Violation &v) {
        return v.invariant + ": " + v.detail;
    };
    std::set<std::string> found_now;
    for (const Violation &v : incremental)
        found_now.insert(key(v));
    std::set<std::string> full_keys;
    for (const Violation &v : full) {
        const std::string k = key(v);
        full_keys.insert(k);
        // A violation the incremental check reported on an earlier
        // cycle persists until its line is touched again; the full
        // sweep re-finds it every cycle.
        if (found_now.count(k) == 0 && reported_.count(k) == 0) {
            SKIPIT_PANIC("incremental checker missed [", v.invariant,
                         "] ", v.detail, " @ cycle ", sim_.now(),
                         " (the full sweep found it)");
        }
    }
    for (const Violation &v : incremental) {
        if (full_keys.count(key(v)) == 0) {
            SKIPIT_PANIC("incremental checker reported [", v.invariant,
                         "] ", v.detail, " @ cycle ", sim_.now(),
                         " but the full sweep did not");
        }
    }
    reported_.insert(found_now.begin(), found_now.end());
    for (Violation &v : incremental)
        fail(v.invariant.c_str(), std::move(v.detail));
}

void
CoherenceChecker::checkL2DramSweep()
{
    // A clean quiet L2 line must match the backing store byte for byte:
    // it was either filled from DRAM or written back to it, and the
    // llc_skip / Inval-discard shortcuts are only sound when this holds.
    // checkNow()-only: a device may legitimately rewrite DRAM behind a
    // resident line (DMA-style tests poke, then CBO.INVAL), so this is
    // an end-of-run audit, not a per-touch one.
    if (l2s_.empty() || dram_ == nullptr)
        return;
    for (const L2Cache *l2 : l2s_) {
        const Directory &dir = l2->directory();
        for (unsigned set = 0; set < dir.sets(); ++set) {
            for (unsigned way = 0; way < dir.ways(); ++way) {
                const DirEntry &e = dir.entry(set, way);
                if (!e.valid || e.dirty || !e.data_resident)
                    continue;
                const Addr line = dir.addrOf(set, way);
                if (!lineQuiet(line))
                    continue;
                const LineData dram_bytes = dram_->peekLine(line);
                const LineData &l2_bytes = l2->store().read(set, way);
                if (std::memcmp(l2_bytes.data(), dram_bytes.data(),
                                line_bytes) != 0) {
                    fail("value-coherence", detail::concat(
                             "L2 slice ", l2->sliceIndex(),
                             " clean copy of 0x", std::hex, line,
                             " differs from DRAM"));
                }
            }
        }
    }
}

void
CoherenceChecker::checkSliceRouting()
{
    for (const L2Cache *l2 : l2s_) {
        if (const auto line = l2->firstForeignInflightLine()) {
            fail("slice-routing", detail::concat(
                     "L2 slice ", l2->sliceIndex(), " is working on line 0x",
                     std::hex, *line, " which homes to slice ", std::dec,
                     l2->indexPolicy().sliceOf(lineAlign(*line))));
        }
    }
}

void
CoherenceChecker::checkGlobalFlushCounter()
{
    if (l1s_.empty())
        return;
    std::uint64_t counters = 0;
    std::uint64_t expected = 0;
    for (const DataCache *l1 : l1s_) {
        counters += l1->flushCounter();
        expected += l1->flushQueue().size();
        for (const Fshr &f : l1->fshrs())
            expected += f.busy() ? 1 : 0;
    }
    if (counters != expected) {
        fail("flush-counter-global", detail::concat(
                 "summed flush counters ", counters, " != ", expected,
                 " total queued + in-FSHR CBO.X across all L1s"));
    }
}

} // namespace skipit::verify
