#include "sftbft/dissem/admission.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sftbft/obs/observer.hpp"

namespace sftbft::dissem {

namespace {

// Counters always; trace instants only for rejections (admissions are too
// frequent to trace individually — the admitted volume is in the counter).
// `times` equal outcomes at one instant report as `times` single ones.
void note_outcome(const DissemConfig& config, AdmissionFrontend::Outcome out,
                  std::size_t backlog, SimTime now, std::uint32_t times = 1) {
  obs::Observer* obs = config.observer;
  if (obs == nullptr) return;
  obs->gauge(config.self, obs::Gauge::kMempoolBacklog,
             static_cast<std::int64_t>(backlog));
  switch (out) {
    case AdmissionFrontend::Outcome::kAdmitted:
      obs->count(config.self, obs::Counter::kAdmitted, times);
      return;
    case AdmissionFrontend::Outcome::kDuplicate:
      obs->count(config.self, obs::Counter::kAdmissionDuplicate, times);
      break;
    case AdmissionFrontend::Outcome::kRateLimited:
      obs->count(config.self, obs::Counter::kAdmissionRateLimited, times);
      break;
    case AdmissionFrontend::Outcome::kBackpressure:
      obs->count(config.self, obs::Counter::kAdmissionBackpressure, times);
      break;
  }
  if (obs->recording()) {
    const char* name =
        out == AdmissionFrontend::Outcome::kDuplicate     ? "reject_duplicate"
        : out == AdmissionFrontend::Outcome::kRateLimited ? "reject_rate_limit"
                                                          : "reject_backpressure";
    for (std::uint32_t i = 0; i < times; ++i) {
      obs->emit(obs::instant_event("admission", name, config.self, now,
                                   {"backlog", backlog}));
    }
  }
}

}  // namespace

AdmissionFrontend::AdmissionFrontend(mempool::Mempool& pool,
                                     DissemConfig config)
    : pool_(pool),
      config_(config),
      clients_(std::max<std::uint32_t>(1, config.clients)),
      recent_(clients_.size() * config.client_dedup_window) {
  pool_.set_capacity(config_.mempool_capacity);
}

AdmissionFrontend::Outcome AdmissionFrontend::submit(std::uint64_t client,
                                                     types::Transaction txn,
                                                     SimTime now) {
  const Outcome out = classify(client, std::move(txn), now);
  note_outcome(config_, out, pool_.pending(), now);
  return out;
}

bool AdmissionFrontend::all_rate_limited(SimTime now) {
  if (config_.client_rate_limit == 0) return false;
  if (now < limited_until_) return true;
  // A spent budget stays spent until its window ends (classify resets a
  // window only once a second has passed), so the answer holds until the
  // earliest window end.
  SimTime until = std::numeric_limits<SimTime>::max();
  for (const ClientState& state : clients_) {
    const SimTime end = state.window_start + seconds(1);
    if (now >= end || state.window_used < config_.client_rate_limit) {
      return false;
    }
    until = std::min(until, end);
  }
  limited_until_ = until;
  return true;
}

void AdmissionFrontend::reject_rate_limited(std::uint32_t count, SimTime now) {
  stats_.rate_limited += count;
  note_outcome(config_, Outcome::kRateLimited, pool_.pending(), now, count);
}

AdmissionFrontend::Outcome AdmissionFrontend::classify(std::uint64_t client,
                                                       types::Transaction txn,
                                                       SimTime now) {
  if (client >= clients_.size()) {
    throw std::out_of_range("AdmissionFrontend::submit: unknown client");
  }
  ClientState& state = clients_[client];
  const std::size_t window = config_.client_dedup_window;
  std::uint64_t* ring = recent_.data() + client * window;
  std::uint64_t* ring_end =
      ring + std::min<std::uint64_t>(state.admitted, window);
  if (std::find(ring, ring_end, txn.id) != ring_end) {
    ++stats_.duplicates;
    return Outcome::kDuplicate;
  }

  if (config_.client_rate_limit > 0) {
    if (now - state.window_start >= seconds(1)) {
      state.window_start = now;
      state.window_used = 0;
    }
    if (state.window_used >= config_.client_rate_limit) {
      ++stats_.rate_limited;
      return Outcome::kRateLimited;
    }
  }

  switch (pool_.submit(txn)) {
    case mempool::Mempool::Admit::kDuplicate:
      ++stats_.duplicates;
      return Outcome::kDuplicate;
    case mempool::Mempool::Admit::kFull:
      ++stats_.backpressured;
      return Outcome::kBackpressure;
    case mempool::Mempool::Admit::kAccepted:
      break;
  }

  ++state.window_used;
  if (window > 0) ring[state.admitted % window] = txn.id;
  ++state.admitted;
  ++stats_.admitted;
  return Outcome::kAdmitted;
}

ClientSwarm::ClientSwarm(sim::Scheduler& sched, AdmissionFrontend& frontend,
                         mempool::WorkloadConfig workload, DissemConfig config,
                         Rng rng)
    : sched_(sched),
      frontend_(frontend),
      workload_(workload),
      config_(config),
      rng_(rng),
      client_seq_(std::max<std::uint32_t>(1, config.clients), 0) {}

void ClientSwarm::top_up() {
  const std::uint32_t clients =
      static_cast<std::uint32_t>(client_seq_.size());
  // Round-robin starts at client 0, so client_seq_[0] is the largest seq.
  if (frontend_.backlog() < workload_.target_pool_size &&
      client_seq_[0] < kFreshSeqs && frontend_.all_rate_limited(sched_.now())) {
    // Over-budget tick (see header): the loop below would reject each
    // client once, in turn, and stop where it started.
    for (std::uint32_t& seq : client_seq_) ++seq;
    frontend_.reject_rate_limited(clients, sched_.now());
    return;
  }
  // Round-robin over the population; every submission is a distinct client
  // transaction (id space: replica | client | per-client sequence).
  std::size_t rejected_streak = 0;
  while (frontend_.backlog() < workload_.target_pool_size) {
    const std::uint32_t client = next_client_;
    next_client_ = (next_client_ + 1) % clients;
    const std::uint64_t id = (id_space_ << 40) |
                             (static_cast<std::uint64_t>(client) << 26) |
                             client_seq_[client]++;
    const auto outcome = frontend_.submit(
        client,
        types::Transaction{.id = id,
                           .submitted_at = sched_.now(),
                           .size_bytes = workload_.txn_size_bytes},
        sched_.now());
    if (outcome == AdmissionFrontend::Outcome::kAdmitted) {
      ++submitted_;
      rejected_streak = 0;
      continue;
    }
    // Backpressure / rate limits reject the whole population eventually —
    // stop instead of spinning (the next refill tick retries).
    if (++rejected_streak >= clients) break;
  }
}

void ClientSwarm::start() {
  if (running_) return;
  running_ = true;
  top_up();
  schedule_refill();
}

void ClientSwarm::schedule_refill() {
  // Refill cadence: Poisson with the configured mean, or lockstep with the
  // batch interval when arrivals are "saturating" (mean 0).
  SimDuration wait = config_.batch_interval;
  if (workload_.mean_interarrival > 0) {
    wait = std::max<SimDuration>(
        1, static_cast<SimDuration>(rng_.exponential(
               static_cast<double>(workload_.mean_interarrival))));
  }
  sched_.schedule_after(wait, [this, epoch = epoch_] {
    if (epoch != epoch_) return;
    top_up();
    schedule_refill();
  });
}

}  // namespace sftbft::dissem
