#include "net/bus.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace air::net {

void Bus::attach(ModuleId module, DeliverFn deliver) {
  AIR_ASSERT(station(module) == nullptr);
  const std::size_t index = stations_.size();
  Station station;
  station.module = module;
  station.deliver = std::move(deliver);
  station.switch_index = config_.stations_per_switch == 0
                             ? 0
                             : index / config_.stations_per_switch;
  stations_.push_back(std::move(station));
  station_index_.emplace(module.value(), index);
}

std::size_t Bus::define_virtual_link(const VirtualLinkConfig& config) {
  const std::uint64_t key = vl_key(config.source, config.dest);
  AIR_ASSERT_MSG(vl_index_.find(key) == vl_index_.end(),
                 "duplicate virtual link for (source, dest)");
  const auto index = static_cast<std::uint32_t>(vls_.size());
  vls_.push_back({config, {}, 0});
  vl_index_.emplace(key, index);
  return index;
}

Bus::Station* Bus::station(ModuleId module) {
  const auto it = station_index_.find(module.value());
  return it == station_index_.end() ? nullptr : &stations_[it->second];
}

const Bus::Station* Bus::station(ModuleId module) const {
  const auto it = station_index_.find(module.value());
  return it == station_index_.end() ? nullptr : &stations_[it->second];
}

std::size_t Bus::pending(ModuleId module) const {
  const Station* s = station(module);
  return s == nullptr ? 0 : s->tx_queue.size();
}

std::size_t Bus::switch_of(std::size_t station_index) const {
  return stations_[station_index].switch_index;
}

void Bus::mark_active(std::size_t station_index) {
  Station& s = stations_[station_index];
  if (s.active_pos != kNotActive) return;
  s.active_pos = active_stations_.size();
  active_stations_.push_back(station_index);
}

void Bus::mark_idle(std::size_t station_index) {
  Station& s = stations_[station_index];
  if (s.active_pos == kNotActive) return;
  const std::size_t pos = s.active_pos;
  const std::size_t moved = active_stations_.back();
  active_stations_[pos] = moved;
  stations_[moved].active_pos = pos;
  active_stations_.pop_back();
  s.active_pos = kNotActive;
}

void Bus::push_in_flight(InFlight flight) {
  in_flight_.push_back(std::move(flight));
  std::push_heap(in_flight_.begin(), in_flight_.end(),
                 [](const InFlight& a, const InFlight& b) {
                   return a.deliver_at != b.deliver_at
                              ? a.deliver_at > b.deliver_at
                              : a.seq > b.seq;
                 });
}

Bus::InFlight Bus::pop_in_flight() {
  std::pop_heap(in_flight_.begin(), in_flight_.end(),
                [](const InFlight& a, const InFlight& b) {
                  return a.deliver_at != b.deliver_at
                             ? a.deliver_at > b.deliver_at
                             : a.seq > b.seq;
                });
  InFlight flight = std::move(in_flight_.back());
  in_flight_.pop_back();
  return flight;
}

void Bus::send(ModuleId from, const ipc::RemotePortRef& dest,
               const ipc::Message& message, ipc::ChannelKind kind, Ticks now) {
  const auto it = station_index_.find(from.value());
  AIR_ASSERT_MSG(it != station_index_.end(),
                 "sending module not attached to the bus");
  Station& s = stations_[it->second];
  Frame frame{dest, message, kind, now, 0, kNoVl};
  const auto vl = vl_index_.find(vl_key(from, dest.module));
  if (vl != vl_index_.end()) frame.vl = vl->second;
  if (spans_ != nullptr && message.ctx.trace_id != 0) {
    frame.span = spans_->begin(
        telemetry::SpanKind::kMsgBusTransit, now, message.ctx.parent_span,
        message.ctx.trace_id, from.value(), dest.module.value(),
        static_cast<std::int64_t>(message.payload.size()));
    frame.message.ctx.parent_span = frame.span;
  }
  s.tx_queue.push(std::move(frame));
  ++pending_total_;
  mark_active(it->second);
  ++s.sent;
  ++stats_.frames_sent;
}

void Bus::station_stats(std::vector<StationStats>& out) const {
  out.clear();
  out.reserve(stations_.size());
  for (const auto& s : stations_) {
    out.push_back({s.module, s.sent, s.delivered, s.tx_queue.size()});
  }
}

void Bus::transmit_from(std::size_t owner_index, Ticks now) {
  Station& owner = stations_[owner_index];
  for (std::size_t i = 0;
       i < config_.frames_per_slot && !owner.tx_queue.empty(); ++i) {
    // Per-VL bandwidth budget: a head frame whose VL is still inside its
    // minimum gap blocks the station for the rest of the slot tick
    // (head-of-line, deterministic -- the frames behind it must not
    // overtake within the same reservation).
    if (owner.tx_queue.front().vl != kNoVl) {
      VirtualLink& vl = vls_[owner.tx_queue.front().vl];
      if (now < vl.next_allowed) {
        ++vl.stats.gated;
        break;
      }
    }
    Frame frame = owner.tx_queue.pop();
    --pending_total_;
    Ticks deliver_at = now + config_.propagation_delay;
    if (frame.vl != kNoVl) {
      VirtualLink& vl = vls_[frame.vl];
      ++vl.stats.frames;
      vl.next_allowed = now + vl.config.min_gap;
      const Ticks waited = now - frame.enqueued_at;
      vl.stats.max_queue_wait = std::max(vl.stats.max_queue_wait, waited);
      if (waited > vl.config.jitter_budget) ++vl.stats.jitter_violations;
    }
    // Inter-switch frames pay the trunk hop. On the flat topology every
    // station sits on switch 0, so the term vanishes without a branch on
    // the mode. An unattached destination takes the local path (it will
    // be dropped at delivery, as before).
    const auto dest_it = station_index_.find(frame.dest.module.value());
    if (dest_it != station_index_.end() &&
        stations_[dest_it->second].switch_index != owner.switch_index) {
      deliver_at += config_.switch_hop_delay;
    }
    if (fault_hook_) {
      const FaultDecision fault =
          fault_hook_(transmit_seq_++, owner.module, frame.dest);
      if (fault.drop) {
        ++stats_.frames_fault_dropped;
        if (spans_ != nullptr && frame.span != 0) {
          spans_->end(frame.span, now, telemetry::SpanStatus::kAborted);
        }
        continue;
      }
      if (fault.corrupt && !frame.message.payload.empty()) {
        // Flip every bit of the first payload byte. The routing metadata
        // and the trace context are physically separate (frame header) and
        // stay intact -- the fault is a payload upset, not a misroute.
        frame.message.payload[0] =
            static_cast<char>(~frame.message.payload[0]);
        ++stats_.frames_fault_corrupted;
      }
      if (fault.extra_delay > 0) {
        deliver_at += fault.extra_delay;
        ++stats_.frames_fault_delayed;
      }
    } else {
      ++transmit_seq_;
    }
    push_in_flight({std::move(frame), deliver_at, flight_seq_++});
  }
  if (owner.tx_queue.empty()) mark_idle(owner_index);
}

void Bus::tick(Ticks now) {
  // Deliver frames whose propagation completed, in (deliver_at, transmit
  // order) -- the heap pops them exactly as the stable-sorted deque did.
  while (!in_flight_.empty() && in_flight_.front().deliver_at <= now) {
    InFlight flight = pop_in_flight();
    Station* dest = station(flight.frame.dest.module);
    if (dest == nullptr) {
      ++stats_.frames_dropped;
      if (spans_ != nullptr && flight.frame.span != 0) {
        spans_->end(flight.frame.span, now, telemetry::SpanStatus::kAborted);
      }
      continue;
    }
    stats_.total_latency += now - flight.frame.enqueued_at;
    ++stats_.frames_delivered;
    ++dest->delivered;
    if (spans_ != nullptr && flight.frame.span != 0) {
      spans_->end(flight.frame.span, now);
    }
    dest->deliver(flight.frame.dest.partition, flight.frame.dest.port,
                  flight.frame.message, flight.frame.kind);
  }

  if (stations_.empty() || pending_total_ == 0) return;

  // TDMA: every switch's slot owner transmits up to frames_per_slot frames
  // this tick, switches in index order (the deterministic transmit order
  // transmit_seq_ is keyed on). The flat topology is the one-switch case.
  const std::size_t sps = config_.stations_per_switch;
  if (sps == 0) {
    const auto owner = static_cast<std::size_t>(
        (now / config_.slot_length) % static_cast<Ticks>(stations_.size()));
    transmit_from(owner, now);
    return;
  }
  const std::size_t nswitches = switch_count();
  for (std::size_t s = 0; s < nswitches; ++s) {
    const std::size_t first = s * sps;
    const std::size_t count = std::min(sps, stations_.size() - first);
    const auto owner =
        first + static_cast<std::size_t>((now / config_.slot_length) %
                                         static_cast<Ticks>(count));
    if (!stations_[owner].tx_queue.empty()) transmit_from(owner, now);
  }
}

Ticks Bus::next_delivery(Ticks now) const {
  Ticks earliest = kInfiniteTime;
  if (!in_flight_.empty()) {
    // The heap front is the earliest arrival. A frame already due
    // (deliver_at <= now) is delivered by the next tick.
    earliest = std::max(in_flight_.front().deliver_at, now);
  }
  const std::size_t sps = config_.stations_per_switch;
  for (const std::size_t i : active_stations_) {
    // First tick >= now inside station i's slot of its switch-local cycle;
    // transmission there puts the head frame on the wire, so delivery can
    // follow one propagation delay later. Frames deeper in the queue only
    // transmit later, and VL gating or a switch hop only push delivery
    // later still, so the head's minimum path alone yields the bound.
    std::size_t first = 0;
    std::size_t count = stations_.size();
    if (sps != 0) {
      first = stations_[i].switch_index * sps;
      count = std::min(sps, stations_.size() - first);
    }
    const Ticks cycle = config_.slot_length * static_cast<Ticks>(count);
    const Ticks slot_begin = (now / cycle) * cycle +
                             static_cast<Ticks>(i - first) *
                                 config_.slot_length;
    Ticks transmit;
    if (now < slot_begin) {
      transmit = slot_begin;  // slot still ahead in the current cycle
    } else if (now < slot_begin + config_.slot_length) {
      transmit = now;  // inside the slot right now
    } else {
      transmit = slot_begin + cycle;  // next cycle
    }
    earliest = std::min(earliest, transmit + config_.propagation_delay);
  }
  return earliest;
}

Ticks Bus::idle_ticks(Ticks now) const {
  if (pending_total_ != 0) return 0;
  if (in_flight_.empty()) return kInfiniteTime;
  const Ticks first = in_flight_.front().deliver_at;
  return first > now ? first - now : 0;
}

}  // namespace air::net
