#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "support/codec.hpp"
#include "support/text.hpp"

namespace hpf90d::obs {

namespace {

/// Prometheus sample value: integers render bare (no ".0"), everything
/// else as %.17g — both deterministic for equal inputs.
std::string pnum(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return support::strfmt("%lld", static_cast<long long>(v));
  }
  return support::format_g17(v);
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out += c;
  }
  return out;
}

/// Canonical label block: pairs sorted by key, values escaped, rendered
/// as {k="v",k2="v2"} ("" for an empty set). Doubles as the child map key,
/// so two spellings of the same label set share one instrument.
std::string label_block(const obs::Labels& labels) {
  if (labels.empty()) return {};
  obs::Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first + "=\"" + escape_label(sorted[i].second) + '"';
  }
  out += '}';
  return out;
}

/// The overflow child's block: same keys, every value "_overflow".
std::string overflow_block(const obs::Labels& labels) {
  obs::Labels capped = labels;
  for (auto& kv : capped) kv.second = "_overflow";
  return label_block(capped);
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size());
  for (std::size_t i = 0; i < bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  // Non-cumulative per-bound counts stored; exposition accumulates. Only
  // the first bound >= v is incremented, so observe is O(log n) + one add.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  if (it != bounds_.end()) {
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  // relaxed CAS loop: contended sums lose no updates, order is irrelevant
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::bucket(std::size_t i) const noexcept {
  std::uint64_t cum = 0;
  for (std::size_t j = 0; j <= i && j < bounds_.size(); ++j) {
    cum += buckets_[j].load(std::memory_order_relaxed);
  }
  return cum;
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

Registry::Entry& Registry::family(const std::string& name, std::string&& help,
                                  Kind kind) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry e;
    e.kind = kind;
    e.help = std::move(help);
    it = metrics_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("obs::Registry: " + name + " already registered as another kind");
  }
  return it->second;
}

Counter& Registry::counter(const std::string& name, std::string help,
                           const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = family(name, std::move(help), Kind::Counter);
  std::string block = label_block(labels);
  auto child = e.counters.find(block);
  if (child == e.counters.end()) {
    // fixed-cardinality bound: a new label set past the cap lands on the
    // shared overflow child instead of growing the family
    if (!block.empty() && e.counters.size() >= kMaxChildren) {
      block = overflow_block(labels);
      child = e.counters.find(block);
    }
    if (child == e.counters.end()) {
      child = e.counters.emplace(std::move(block), std::make_unique<Counter>()).first;
    }
  }
  return *child->second;
}

Gauge& Registry::gauge(const std::string& name, std::string help,
                       const Labels& labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = family(name, std::move(help), Kind::Gauge);
  std::string block = label_block(labels);
  auto child = e.gauges.find(block);
  if (child == e.gauges.end()) {
    if (!block.empty() && e.gauges.size() >= kMaxChildren) {
      block = overflow_block(labels);
      child = e.gauges.find(block);
    }
    if (child == e.gauges.end()) {
      child = e.gauges.emplace(std::move(block), std::make_unique<Gauge>()).first;
    }
  }
  return *child->second;
}

Histogram& Registry::histogram(const std::string& name, std::string help,
                               std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = family(name, std::move(help), Kind::Histogram);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

std::string Registry::prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  // std::map iterates sorted by name — the exposition order contract.
  for (const auto& [name, e] : metrics_) {
    out += "# HELP " + name + ' ' + e.help + '\n';
    switch (e.kind) {
      case Kind::Counter:
        out += "# TYPE " + name + " counter\n";
        // map order: the unlabeled sample ("") first, then children
        // sorted by label block
        for (const auto& [block, c] : e.counters) {
          out += name + block + ' ' + pnum(static_cast<double>(c->value())) + '\n';
        }
        break;
      case Kind::Gauge:
        out += "# TYPE " + name + " gauge\n";
        for (const auto& [block, g] : e.gauges) {
          out += name + block + ' ' + pnum(g->value()) + '\n';
        }
        break;
      case Kind::Histogram: {
        out += "# TYPE " + name + " histogram\n";
        const Histogram& h = *e.histogram;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          out += name + "_bucket{le=\"" + pnum(h.bounds()[i]) + "\"} " +
                 pnum(static_cast<double>(h.bucket(i))) + '\n';
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               pnum(static_cast<double>(h.count())) + '\n';
        out += name + "_sum " + pnum(h.sum()) + '\n';
        out += name + "_count " + pnum(static_cast<double>(h.count())) + '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace hpf90d::obs
