/**
 * @file
 * The write log a mutable simulated structure keeps for the coherence
 * checker: which of its slots were written since the checker last looked,
 * and which line each slot held before its first write.
 *
 * Each log is owned by the structure it records (one L1's arrays, one L2
 * slice's directory or data store, the DRAM backing store). Logging is
 * off until the checker enables it at wiring time; a disabled log costs
 * one branch per write. The checker ticks after every other component
 * and drains every log then, so a log holds exactly the writes of the
 * cycles since the checker's last tick.
 *
 * Sized by the owner's geometry (one byte per slot plus the slots written
 * in one cycle): no hashing and no per-write allocation once warm.
 */

#ifndef SKIPIT_SIM_TOUCH_LOG_HH
#define SKIPIT_SIM_TOUCH_LOG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "types.hh"

namespace skipit {

/** See file comment. */
class TouchLog
{
  public:
    /** Start logging a structure of @p slots slots (0: a line-addressed
     *  structure that only calls markLine()). */
    void
    enable(std::size_t slots)
    {
        enabled_ = true;
        marked_.assign(slots, 0);
    }

    bool enabled() const { return enabled_; }

    /** Is @p slot's first write since the last drain still unrecorded?
     *  Owners test this before computing what the slot held. */
    bool
    wants(std::size_t slot) const
    {
        return enabled_ && marked_[slot] == 0;
    }

    /** Record the first write to @p slot since the last drain; when
     *  @p held, the slot held line @p before (so a replaced or evicted
     *  line is still checked). Call only when wants(@p slot). */
    void
    markSlot(std::size_t slot, bool held, Addr before)
    {
        marked_[slot] = 1;
        slots_.push_back(slot);
        if (held)
            lines_.push_back(before);
    }

    /** Record a write to @p line (line-addressed structures). */
    void
    markLine(Addr line)
    {
        if (enabled_)
            lines_.push_back(line);
    }

    /** Slots written since the last drain, in first-write order. */
    const std::vector<std::size_t> &slots() const { return slots_; }
    /** Lines the written slots held before their first write, plus the
     *  lines markLine() recorded. */
    const std::vector<Addr> &lines() const { return lines_; }

    /** Forget everything recorded (the checker has examined it). */
    void
    clear()
    {
        for (const std::size_t s : slots_)
            marked_[s] = 0;
        slots_.clear();
        lines_.clear();
    }

  private:
    bool enabled_ = false;
    std::vector<std::uint8_t> marked_;
    std::vector<std::size_t> slots_;
    std::vector<Addr> lines_;
};

} // namespace skipit

#endif // SKIPIT_SIM_TOUCH_LOG_HH
