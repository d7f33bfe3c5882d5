#include "sftbft/obs/observer.hpp"

namespace sftbft::obs {

Observer::Observer(ObsConfig config, std::uint32_t n)
    : config_(config), registries_(n) {
  if (config_.flight_capacity > 0) {
    flight_ = std::make_unique<FlightRecorder>(n, config_.flight_capacity);
  }
}

Registry Observer::merged() const {
  Registry out;
  for (const Registry& registry : registries_) out.merge(registry);
  return out;
}

std::map<std::string, WireDelayStats> Observer::wire_delays() const {
  std::map<std::string, WireDelayStats> rendered;
  for (std::size_t i = 0; i < net::kWireLabelCount; ++i) {
    if (wire_[i].transit_us.count() > 0) {
      rendered.emplace(net::kWireLabelNames[i], wire_[i]);
    }
  }
  return rendered;
}

std::string Observer::trace_json(const std::string& other_data_json) const {
  return chrome_trace_json(trace_.events(), n(), other_data_json);
}

}  // namespace sftbft::obs
