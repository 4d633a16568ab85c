#include "lsu.hh"

#include "sim/trace.hh"

namespace skipit {

namespace {

const char *
memOpName(MemOpKind k)
{
    switch (k) {
      case MemOpKind::Load:
        return "load";
      case MemOpKind::Store:
        return "store";
      case MemOpKind::CboClean:
        return "cbo.clean";
      case MemOpKind::CboFlush:
        return "cbo.flush";
      case MemOpKind::CboInval:
        return "cbo.inval";
      case MemOpKind::CboZero:
        return "cbo.zero";
      case MemOpKind::Fence:
        return "fence";
      case MemOpKind::Delay:
        return "delay";
      case MemOpKind::Marker:
        return "marker";
      case MemOpKind::WaitUntil:
        return "waituntil";
    }
    return "?";
}

} // namespace

Lsu::Lsu(std::string name, Simulator &sim, const LsuConfig &cfg,
         DataCache &dcache, Stats &stats, AgentId source)
    : Ticked(std::move(name)), sim_(sim), cfg_(cfg), dcache_(dcache),
      stats_(stats), source_(source), sp_(Ticked::name() + ".")
{
    SKIPIT_ASSERT(cfg.window > 0, "LSU window must be > 0");
}

std::uint64_t
Lsu::dispatch(const MemOp &op)
{
    SKIPIT_ASSERT(canDispatch(), "dispatch into a full LSU window");
    SKIPIT_ASSERT(op.kind != MemOpKind::Delay &&
                      op.kind != MemOpKind::WaitUntil,
                  "Delay/WaitUntil ops are handled by the Hart, not the "
                  "LSU");
    Entry e;
    e.op = op;
    e.ticket = next_ticket_++;
    // Transaction ids are allocated unconditionally so attaching a sink
    // never perturbs ids (and thus never perturbs anything downstream).
    // Each LSU allocates from its own id lane, so the ids it hands out
    // depend only on its own dispatch history — never on how dispatches
    // interleave across cores.
    e.txn = sim_.probes().newTxn(
        source_ == invalid_agent ? 0u
                                 : static_cast<unsigned>(source_) + 1);
    if (sim_.probes().active()) {
        sim_.probes().begin(
            sim_.now(), e.txn, "lsu.window", name(),
            trace::detail::concat(memOpName(op.kind), " 0x", std::hex,
                                  op.addr));
    }
    window_.push_back(e);
    return e.ticket;
}

bool
Lsu::isDone(std::uint64_t ticket) const
{
    if (ticket <= retired_upto_)
        return true;
    for (const Entry &e : window_) {
        if (e.ticket == ticket)
            return e.state == EntryState::Done;
    }
    return true; // not in window and past the head: retired
}

std::uint64_t
Lsu::loadValue(std::uint64_t ticket) const
{
    auto it = load_results_.find(ticket);
    SKIPIT_ASSERT(it != load_results_.end(),
                  "loadValue for unknown or incomplete load");
    return it->second;
}

Lsu::Entry *
Lsu::entryForTicket(std::uint64_t ticket)
{
    for (Entry &e : window_) {
        if (e.ticket == ticket)
            return &e;
    }
    return nullptr;
}

const Lsu::Entry *
Lsu::forwardingStore(std::size_t load_idx) const
{
    const MemOp &load = window_[load_idx].op;
    for (std::size_t i = load_idx; i-- > 0;) {
        const Entry &e = window_[i];
        if (e.op.kind != MemOpKind::Store)
            continue;
        if (e.op.addr == load.addr && e.op.size == load.size)
            return &e;
        if (sameLine(e.op.addr, load.addr)) {
            // Overlapping but not word-exact: cannot forward; the caller
            // must wait for the store to complete.
            return nullptr;
        }
    }
    return nullptr;
}

bool
Lsu::olderAllDone(std::size_t idx) const
{
    for (std::size_t i = 0; i < idx; ++i) {
        if (window_[i].state != EntryState::Done)
            return false;
    }
    return true;
}

bool
Lsu::olderFencePending(std::size_t idx) const
{
    for (std::size_t i = 0; i < idx; ++i) {
        if (window_[i].op.kind == MemOpKind::Fence &&
            window_[i].state != EntryState::Done) {
            return true;
        }
    }
    return false;
}

CpuReq
Lsu::toCpuReq(const Entry &e) const
{
    CpuReq req;
    req.addr = e.op.addr;
    req.size = e.op.size;
    req.data = e.op.data;
    req.id = e.ticket;
    req.txn = e.txn;
    req.source = source_;
    switch (e.op.kind) {
      case MemOpKind::Load:
        req.kind = CpuOpKind::Load;
        break;
      case MemOpKind::Store:
        req.kind = CpuOpKind::Store;
        break;
      case MemOpKind::CboClean:
        req.kind = CpuOpKind::CboClean;
        break;
      case MemOpKind::CboFlush:
        req.kind = CpuOpKind::CboFlush;
        break;
      case MemOpKind::CboInval:
        req.kind = CpuOpKind::CboInval;
        break;
      case MemOpKind::CboZero:
        req.kind = CpuOpKind::CboZero;
        break;
      default:
        SKIPIT_PANIC("op kind cannot fire into the cache");
    }
    return req;
}

void
Lsu::drainResponses()
{
    while (dcache_.respReady()) {
        const CpuResp resp = dcache_.popResp();
        Entry *e = entryForTicket(resp.id);
        SKIPIT_ASSERT(e != nullptr, "response for retired ticket");
        SKIPIT_ASSERT(e->state == EntryState::Fired,
                      "response for unfired entry");
        if (resp.nack) {
            e->state = EntryState::Waiting;
            e->retry_at = sim_.now() + cfg_.retry_backoff;
            stats_[sp_ + "retries"]++;
            if (sim_.probes().active()) {
                sim_.probes().instant(sim_.now(), e->txn, "lsu.nack",
                                      name(), "nacked; backing off");
            }
        } else {
            e->state = EntryState::Done;
            if (e->op.kind == MemOpKind::Load) {
                e->load_value = resp.data;
                load_results_[e->ticket] = resp.data;
            }
            if (sim_.probes().active()) {
                sim_.probes().end(
                    sim_.now(), e->txn, "lsu.window", name(),
                    trace::detail::concat(memOpName(e->op.kind), " 0x",
                                          std::hex, e->op.addr));
            }
        }
    }
}

void
Lsu::fire()
{
    unsigned fired = 0;
    for (std::size_t i = 0;
         i < window_.size() && fired < cfg_.fires_per_cycle; ++i) {
        Entry &e = window_[i];
        if (e.state != EntryState::Waiting || sim_.now() < e.retry_at)
            continue;

        if (e.op.kind == MemOpKind::Fence) {
            // FENCE RW,RW: commits once everything older is complete and
            // no flush request is pending in the flush unit (§5.3).
            if (olderAllDone(i) && !dcache_.flushing()) {
                e.state = EntryState::Done;
                stats_[sp_ + "fences"]++;
                if (sim_.probes().active()) {
                    sim_.probes().end(sim_.now(), e.txn, "lsu.window",
                                      name(), "fence released");
                    // Durability-oracle payload: this hart has observed
                    // every older CBO complete (flush counter drained);
                    // their flushed values are now claimed durable.
                    sim_.probes().instant(
                        sim_.now(), e.txn, "persist.fence", name(),
                        "fence retired; flush counter drained", 0,
                        static_cast<std::uint64_t>(source_));
                }
            }
            continue;
        }

        if (e.op.kind == MemOpKind::Load) {
            if (olderFencePending(i))
                continue;
            if (const Entry *st = forwardingStore(i)) {
                // Store-to-load forwarding from the STQ (§3.2).
                e.load_value = st->op.data;
                load_results_[e.ticket] = st->op.data;
                e.state = EntryState::Done;
                stats_[sp_ + "stl_forwards"]++;
                if (sim_.probes().active()) {
                    sim_.probes().end(sim_.now(), e.txn, "lsu.window",
                                      name(), "store-to-load forward");
                }
                continue;
            }
            // An older overlapping (non-forwardable) store must drain
            // before the load may fire.
            bool blocked = false;
            for (std::size_t j = 0; j < i; ++j) {
                const Entry &older = window_[j];
                if (older.state != EntryState::Done &&
                    older.op.kind != MemOpKind::Load &&
                    sameLine(older.op.addr, e.op.addr)) {
                    blocked = true;
                    break;
                }
            }
            if (blocked)
                continue;
            dcache_.submit(toCpuReq(e));
            e.state = EntryState::Fired;
            ++fired;
            if (sim_.probes().active()) {
                sim_.probes().instant(sim_.now(), e.txn, "lsu.fire",
                                      name(), "load fired");
            }
            continue;
        }

        // STQ request (store or CBO.X): fires only once everything older
        // has completed, i.e. when the ROB head points at it (§3.2, §5.1).
        if (!olderAllDone(i))
            continue;
        dcache_.submit(toCpuReq(e));
        e.state = EntryState::Fired;
        ++fired;
        if (sim_.probes().active()) {
            sim_.probes().instant(
                sim_.now(), e.txn, "lsu.fire", name(),
                trace::detail::concat(memOpName(e.op.kind), " fired"));
        }
    }
}

bool
Lsu::fireableNow(std::size_t idx) const
{
    // Keep in lockstep with fire(): any guard added there needs a mirror
    // here, or fast-forward would sleep through a fireable entry.
    const Entry &e = window_[idx];
    if (e.op.kind == MemOpKind::Fence)
        return olderAllDone(idx) && !dcache_.flushing();
    if (e.op.kind == MemOpKind::Load) {
        if (olderFencePending(idx))
            return false;
        if (forwardingStore(idx) != nullptr)
            return true;
        for (std::size_t j = 0; j < idx; ++j) {
            const Entry &older = window_[j];
            if (older.state != EntryState::Done &&
                older.op.kind != MemOpKind::Load &&
                sameLine(older.op.addr, e.op.addr)) {
                return false;
            }
        }
        return true;
    }
    return olderAllDone(idx);
}

Cycle
Lsu::nextWake() const
{
    if (window_.empty())
        return wake_never;
    // A pending cache response wakes drainResponses.
    Cycle wake = dcache_.respWakeAt();
    if (window_.front().state == EntryState::Done)
        return sim_.now(); // retire() has work
    for (std::size_t i = 0; i < window_.size(); ++i) {
        const Entry &e = window_[i];
        if (e.state != EntryState::Waiting)
            continue; // Fired: completion arrives via respWakeAt
        if (sim_.now() < e.retry_at) {
            wake = std::min(wake, e.retry_at);
            continue;
        }
        if (fireableNow(i))
            return sim_.now();
        // Blocked on another entry or on the flush unit: whatever
        // unblocks it is itself a tracked wake source (a response, an
        // LSU fire this cycle, or data-cache activity).
    }
    return wake;
}

void
Lsu::retire()
{
    while (!window_.empty() && window_.front().state == EntryState::Done) {
        retired_upto_ = window_.front().ticket;
        window_.pop_front();
    }
}

void
Lsu::tick()
{
    drainResponses();
    fire();
    retire();
}

} // namespace skipit
