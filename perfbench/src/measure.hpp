// Measurement plumbing shared by every workload of the benchmark: the host
// clock, order statistics, the oracle ledger behind `attempted`/`failed`,
// and the metric table printed as the final JSON line.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Quantile q of an unsorted sample, interpolated linearly between the two
/// nearest ranks.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return NAN;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Median of an unsorted sample (mean of the middle two when even).
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Fixed-memory histogram of host times: kSub buckets per power of two of
/// nanoseconds, so a quantile resolves to ~0.2% of its value and the
/// footprint does not grow with the run (peak_rss_mib measures the program,
/// not the sample store).
class TimeHistogram {
 public:
  void add(double seconds) {
    const double ns = std::max(seconds * 1e9, 1.0);
    const int octave = std::min(std::ilogb(ns), kOctaves - 1);
    const double frac = std::ldexp(ns, -octave) - 1.0;  // [0, 1)
    const auto sub = std::min(static_cast<int>(frac * kSub), kSub - 1);
    ++buckets_[static_cast<std::size_t>(octave * kSub + sub)];
    ++count_;
    sum_s_ += seconds;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum_s() const { return sum_s_; }

  /// Quantile in seconds, interpolated by rank inside its bucket.
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return NAN;
    const double rank = q * static_cast<double>(count_ - 1);
    double below = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const auto n = static_cast<double>(buckets_[i]);
      if (n > 0.0 && below + n > rank) {
        const int octave = static_cast<int>(i) / kSub;
        const int sub = static_cast<int>(i) % kSub;
        const double lo = std::ldexp(1.0 + sub / double{kSub}, octave);
        const double width = std::ldexp(1.0 / kSub, octave);
        return (lo + width * (rank - below + 0.5) / n) * 1e-9;
      }
      below += n;
    }
    return NAN;
  }

 private:
  static constexpr int kSub = 512;
  static constexpr int kOctaves = 44;  // 1 ns .. ~4.8 h
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(kSub * kOctaves));
  std::uint64_t count_{0};
  double sum_s_{0.0};
};

/// Oracle ledger. Every correctness check of a run lands here; `failed`
/// and `attempted` are reported verbatim in the result line, and a failed
/// check names itself on stderr.
class Checks {
 public:
  /// When set, every expected value is perturbed before comparison (the
  /// self-test proves the oracles can fail).
  bool corrupt_expected{false};

  void expect(bool ok, std::string_view what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "airbench: check failed: %.*s\n",
                   static_cast<int>(what.size()), what.data());
    }
  }

  /// Equality oracle against an expected value (digests, counts).
  void expect_eq(std::uint64_t got, std::uint64_t expected,
                 std::string_view what) {
    if (corrupt_expected) expected ^= 1;
    if (got != expected) {
      std::fprintf(stderr, "airbench: %.*s: got %llx, expected %llx\n",
                   static_cast<int>(what.size()), what.data(),
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(expected));
    }
    expect(got == expected, what);
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Ordered metric table; the JSON writer keeps insertion order.
class MetricTable {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& rows() const { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// Shortest round-trip decimal form: every digit the measurement has.
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

[[nodiscard]] inline std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
