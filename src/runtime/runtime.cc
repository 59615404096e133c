#include "runtime/runtime.h"

namespace oceanstore {

Runtime::Runtime(Simulator &sim, Network &net, std::uint64_t seed,
                 RuntimeKind kind)
    : sim_(sim), net_(net), seed_(seed)
{
    if (kind == RuntimeKind::Threaded)
        pacer_ = std::make_unique<Pacer>(sim_, net_);
}

Runtime::~Runtime() { shutdown(); }

void
Runtime::shutdown()
{
    if (pacer_)
        pacer_->shutdown();
}

RuntimeStats
Runtime::stats() const
{
    Hold h(pacer_.get());
    RuntimeStats s;
    s.timersPending = sim_.pending();
    s.linkQueuedMessages = net_.inFlight();
    if (pacer_) {
        pacer_->fillStats(s);
    } else {
        // The event queue is the timer surface and delivery flights
        // are the "link queue"; the caller's thread runs the loop, so
        // nothing is ever waiting to fire and the loop fields stay 0.
        s.uptime = sim_.now();
        s.tasksExecuted = sim_.eventsExecuted();
    }
    return s;
}

bool
Runtime::runUntil(const std::function<bool()> &pred, SimTime deadline)
{
    if (pacer_)
        return pacer_->runUntil(pred, deadline);
    while (!pred()) {
        if (sim_.now() > deadline)
            return pred();
        if (!sim_.step())
            return pred();
    }
    return true;
}

void
Runtime::advance(SimTime seconds)
{
    if (pacer_)
        pacer_->advance(seconds);
    else
        sim_.runUntil(sim_.now() + seconds);
}

} // namespace oceanstore
