#include "cts/obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "cts/obs/json.hpp"
#include "cts/util/error.hpp"

namespace cts::obs {

namespace {

// 1 / log(kGamma), taken once: std::log is not constexpr.
double inv_log_gamma() {
  static const double v = 1.0 / std::log(LogHistogramCell::kGamma);
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// LogHistogramCell

void LogHistogramCell::observe(double v) noexcept {
  // Refused, not clamped: +inf has no bucket (its index overflows int32)
  // and NaN or inf would poison the mean and the snapshot.
  if (!std::isfinite(v)) return;
  if (v > 0.0) {
    // ceil(log_gamma v): exact powers of gamma stay in their own bucket
    // (upper-inclusive).
    const double raw = std::log(v) * inv_log_gamma();
    const double up = std::ceil(raw);
    buckets_[static_cast<std::int32_t>(up)] += 1;
  } else {
    ++zero_count_;
  }
  stats_.add(v);
}

void LogHistogramCell::merge(const LogHistogramCell& other) {
  if (other.stats_.count() == 0) return;
  zero_count_ += other.zero_count_;
  for (const auto& [index, count] : other.buckets_) buckets_[index] += count;
  stats_.merge(other.stats_);
}

double LogHistogramCell::percentile(double q) const noexcept {
  const std::uint64_t n = stats_.count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Matching-rank convention: the estimate targets sorted[ceil(q*n) - 1]
  // (0-based), the same rank the unit tests compute exactly.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  if (rank <= zero_count_) return 0.0;
  std::uint64_t seen = zero_count_;
  for (const auto& [index, count] : buckets_) {
    seen += count;
    if (seen >= rank) {
      // Representative value of bucket (gamma^(i-1), gamma^i]: the midpoint
      // 2*gamma^i/(gamma+1) is within (gamma-1)/(gamma+1) = alpha of every
      // value in the bucket.
      return 2.0 * std::pow(kGamma, static_cast<double>(index)) /
             (kGamma + 1.0);
    }
  }
  return stats_.max();  // unreachable: from_state refuses inconsistent counts
}

LogHistogramCell LogHistogramCell::from_state(
    double gamma, std::uint64_t zero_count,
    std::map<std::int32_t, std::uint64_t> buckets,
    util::MomentAccumulator stats) {
  if (gamma != kGamma) {
    throw util::InvalidArgument(
        "LogHistogramCell: snapshot gamma must be the 2% accuracy base " +
        std::to_string(kGamma));
  }
  std::uint64_t total = zero_count;
  for (const auto& [index, count] : buckets) {
    (void)index;
    util::require(!__builtin_add_overflow(total, count, &total),
                  "LogHistogramCell: snapshot bucket counts overflow");
  }
  util::require(total == stats.count(),
                "LogHistogramCell: snapshot zero + bucket counts differ "
                "from count");
  LogHistogramCell cell;
  cell.zero_count_ = zero_count;
  cell.buckets_ = std::move(buckets);
  cell.stats_ = stats;
  return cell;
}

// ---------------------------------------------------------------------------
// MetricsShard

void MetricsShard::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsShard::add_sum(const std::string& name, double delta) {
  sums_[name].add(delta);
}

void MetricsShard::gauge(const std::string& name, double v, GaugeMode mode) {
  GaugeCell& cell = gauges_[name];
  cell.mode = mode;
  cell.update(v);
}

void MetricsShard::observe_log(const std::string& name, double v) {
  log_histograms_[name].observe(v);
}

void MetricsShard::merge(const MetricsShard& other) {
  for (const auto& [name, delta] : other.counters_) counters_[name] += delta;
  for (const auto& [name, s] : other.sums_) sums_[name].merge(s);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.log_histograms_) {
    log_histograms_[name].merge(h);
  }
}

void MetricsShard::restore_sum(const std::string& name,
                               util::CompensatedSum sum) {
  sums_[name] = sum;
}

void MetricsShard::restore_gauge(const std::string& name, GaugeCell cell) {
  gauges_[name] = cell;
}

void MetricsShard::restore_log_histogram(const std::string& name,
                                         LogHistogramCell cell) {
  log_histograms_.insert_or_assign(name, std::move(cell));
}

bool MetricsShard::empty() const noexcept {
  return counters_.empty() && sums_.empty() && gauges_.empty() &&
         log_histograms_.empty();
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  data_.add(name, delta);
}

void MetricsRegistry::add_sum(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  data_.add_sum(name, delta);
}

void MetricsRegistry::gauge(const std::string& name, double v, GaugeMode mode) {
  const std::lock_guard<std::mutex> lock(mu_);
  data_.gauge(name, v, mode);
}

void MetricsRegistry::observe_log(const std::string& name, double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  data_.observe_log(name, v);
}

void MetricsRegistry::merge(const MetricsShard& shard) {
  if (shard.empty()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  data_.merge(shard);
}

MetricsShard MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return data_;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = data_.counters().find(name);
  return it == data_.counters().end() ? 0 : it->second;
}

double MetricsRegistry::sum(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = data_.sums().find(name);
  return it == data_.sums().end() ? 0.0 : it->second.value();
}

double MetricsRegistry::gauge_value(const std::string& name,
                                    double fallback) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = data_.gauges().find(name);
  return it == data_.gauges().end() ? fallback : it->second.value;
}

bool MetricsRegistry::has_gauge(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return data_.gauges().count(name) > 0;
}

bool MetricsRegistry::log_histogram(const std::string& name,
                                    LogHistogramCell* out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = data_.log_histograms().find(name);
  if (it == data_.log_histograms().end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, v] : data_.counters()) w.key(name).value(v);
  w.end_object();

  w.key("sums").begin_object();
  for (const auto& [name, s] : data_.sums()) w.key(name).value(s.value());
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : data_.gauges()) w.key(name).value(g.value);
  w.end_object();

  w.key("log_histograms").begin_object();
  for (const auto& [name, h] : data_.log_histograms()) {
    w.key(name).begin_object();
    const util::MomentAccumulator& st = h.stats();
    w.key("count").value(st.count());
    w.key("mean").value(st.count() > 0 ? st.mean() : 0.0);
    w.key("min").value(st.count() > 0 ? st.min() : 0.0);
    w.key("max").value(st.count() > 0 ? st.max() : 0.0);
    w.key("p50").value(h.percentile(0.50));
    w.key("p95").value(h.percentile(0.95));
    w.key("p99").value(h.percentile(0.99));
    w.key("p999").value(h.percentile(0.999));
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  data_ = MetricsShard();
}

// ---------------------------------------------------------------------------
// Snapshot serialization

void write_metrics_snapshot(JsonWriter& w, const MetricsShard& shard) {
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, v] : shard.counters()) w.key(name).value(v);
  w.end_object();

  w.key("sums").begin_object();
  for (const auto& [name, s] : shard.sums()) {
    w.key(name).begin_object();
    w.key("value").value(s.value());
    w.key("compensation").value(s.compensation());
    w.end_object();
  }
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : shard.gauges()) {
    w.key(name).begin_object();
    w.key("value").value(g.value);
    w.key("mode").value(g.mode == GaugeMode::kMax ? "max" : "set");
    w.end_object();
  }
  w.end_object();

  w.key("log_histograms").begin_object();
  for (const auto& [name, h] : shard.log_histograms()) {
    const util::MomentAccumulator& st = h.stats();
    w.key(name).begin_object();
    w.key("gamma").value(LogHistogramCell::kGamma);
    w.key("zero").value(h.zero_count());
    w.key("indexes").begin_array();
    for (const auto& [index, count] : h.buckets()) {
      (void)count;
      w.value(static_cast<std::int64_t>(index));
    }
    w.end_array();
    w.key("counts").begin_array();
    for (const auto& [index, count] : h.buckets()) {
      (void)index;
      w.value(count);
    }
    w.end_array();
    w.key("count").value(st.count());
    // min/max are +-inf for an empty accumulator, which JSON cannot carry;
    // from_state ignores every moment field when count is 0.
    w.key("mean").value(st.count() > 0 ? st.mean() : 0.0);
    w.key("m2").value(st.count() > 0 ? st.m2() : 0.0);
    w.key("min").value(st.count() > 0 ? st.min() : 0.0);
    w.key("max").value(st.count() > 0 ? st.max() : 0.0);
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

namespace {

// `what` is the whole message prefix, so a successful read builds no text.
std::uint64_t as_uint(const JsonValue& v, const char* what) {
  return static_cast<std::uint64_t>(v.as_int(what));
}

}  // namespace

MetricsShard metrics_snapshot_from_json(const JsonValue& v) {
  util::require(v.is_object(), "metrics snapshot: expected an object");
  MetricsShard shard;

  for (const auto& [name, counter] : v.at("counters").members) {
    shard.add(name, as_uint(counter, "metrics snapshot: counter"));
  }
  for (const auto& [name, sum] : v.at("sums").members) {
    shard.restore_sum(name, util::CompensatedSum::from_state(
                                sum.at("value").as_number(),
                                sum.at("compensation").as_number()));
  }
  for (const auto& [name, gauge] : v.at("gauges").members) {
    const std::string& mode = gauge.at("mode").as_string();
    util::require(mode == "set" || mode == "max",
                  "metrics snapshot: unknown gauge mode '" + mode + "'");
    GaugeCell cell;
    cell.value = gauge.at("value").as_number();
    cell.mode = mode == "max" ? GaugeMode::kMax : GaugeMode::kSet;
    cell.written = true;
    shard.restore_gauge(name, cell);
  }
  for (const auto& [name, hist] : v.at("log_histograms").members) {
    const auto& index_items = hist.at("indexes").items;
    const auto& count_items = hist.at("counts").items;
    util::require(index_items.size() == count_items.size(),
                  "metrics snapshot: log histogram indexes/counts length "
                  "mismatch");
    std::map<std::int32_t, std::uint64_t> buckets;
    for (std::size_t i = 0; i < index_items.size(); ++i) {
      const auto index = static_cast<std::int32_t>(index_items[i].as_int(
          "metrics snapshot: log histogram index",
          std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max()));
      const std::uint64_t count =
          as_uint(count_items[i], "metrics snapshot: log histogram bucket");
      util::require(buckets.emplace(index, count).second,
                    "metrics snapshot: duplicate log histogram index");
    }
    const util::MomentAccumulator stats = util::MomentAccumulator::from_state(
        as_uint(hist.at("count"), "metrics snapshot: log histogram count"),
        hist.at("mean").as_number(), hist.at("m2").as_number(),
        hist.at("min").as_number(), hist.at("max").as_number());
    shard.restore_log_histogram(
        name,
        LogHistogramCell::from_state(
            hist.at("gamma").as_number(),
            as_uint(hist.at("zero"),
                    "metrics snapshot: log histogram zero count"),
            std::move(buckets), stats));
  }
  return shard;
}

}  // namespace cts::obs
