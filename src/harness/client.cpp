#include "harness/client.h"

namespace praft::harness {

ClosedLoopClient::ClosedLoopClient(NodeHost& host, Route route,
                                   kv::WorkloadGenerator gen, Metrics& metrics,
                                   Options opt)
    : host_(host), route_(std::move(route)), gen_(std::move(gen)),
      metrics_(metrics), opt_(opt) {
  host_.attach(this);
}

void ClosedLoopClient::start() {
  const Duration delay = opt_.start_at > host_.now()
                             ? opt_.start_at - host_.now()
                             : 0;
  // Small per-client jitter avoids a synchronized thundering herd at t=0.
  host_.schedule(delay + static_cast<Duration>(host_.random() % 1000),
                 [this] { issue_next(); });
}

void ClosedLoopClient::issue_next() {
  if (stopped_) return;
  current_ = gen_.next(host_.id(), next_seq_++);
  in_flight_ = true;
  sent_at_ = host_.now();  // latency spans every retry of this op
  transmit();
}

void ClosedLoopClient::transmit() {
  ClientRequest req{current_};
  host_.send(route_(current_), Message{req});
  arm_retry(current_.seq);
}

void ClosedLoopClient::arm_retry(uint64_t seq) {
  host_.schedule(opt_.retry_timeout, [this, seq] {
    if (!stopped_ && in_flight_ && current_.seq == seq) {
      ++retries_;
      transmit();
    }
  });
}

void ClosedLoopClient::handle(const net::Packet& p) {
  const auto* msg = net::payload_as<Message>(p);
  if (msg == nullptr) return;
  const auto* reply = std::get_if<ClientReply>(msg);
  if (reply == nullptr || !in_flight_ || reply->seq != current_.seq) return;
  in_flight_ = false;
  ++completed_;
  metrics_.record(host_.now(), host_.site(), current_.is_read(),
                  host_.now() - sent_at_);
  if (reply_probe_) {
    reply_probe_(current_, reply->value, reply->ok, sent_at_, host_.now());
  }
  issue_next();
}

}  // namespace praft::harness
