// noise.hpp — system-load and timing-tolerance model.
//
// The paper attributes the residual prediction error to "the tolerance of
// the timing routines and fluctuations in the system load" (§5.1): measured
// times are 1000-run averages with a variance band. The simulator
// reproduces that phenomenon with a seeded multiplicative jitter: small
// lognormal-like perturbations on every computation phase plus occasional
// daemon-interference spikes.
//
// A seed's noise is one stream of raw std::mt19937_64 words, and every draw
// is a std distribution over the next of them: a std::normal_distribution
// draw per compute phase, message and startup skew, and a compute phase's
// spike test (and, when it fires, the spike's size) through
// std::uniform_real_distribution. Normal draws come in pairs (the polar
// method): a draw with no kept half consumes the words of one pair, returns
// one half and keeps the other for the next draw.
//
// Every measured point of a plan draws from the same run seeds, so a
// session builds one NoiseStream per seed and shares it (an
// api::OnceStore): the seed's first words and, for each of the first kMemo
// word positions, the normal pair a draw starting there yields, computed
// once by std::normal_distribution itself. A NoiseModel is the cursor one
// walk draws through. Below the memo it reads pairs and words back; past it
// it continues on a copy of the stream's engine; with no stream (an
// Executor or Simulator::measure_into called without one) it seeds an
// engine of its own. The draws are bit-identical in all three cases, and a
// disabled model (noise off, or a default-constructed one) seeds nothing.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

namespace hpf90d::sim {

namespace detail {

/// One std::normal_distribution pair: the draw it returns and the half it
/// keeps for the next draw, which reads no word.
struct NormalPair {
  double first = 0;
  double second = 0;
};

template <class Words>
NormalPair draw_normal_pair(Words& words) {
  std::normal_distribution<double> gauss(0.0, 1.0);
  const double first = gauss(words);
  return {first, gauss(words)};
}

/// A std::uniform_random_bit_generator with std::mt19937_64's range over
/// `next()`, so the std distributions read the words exactly as they read
/// the engine.
template <class Next>
struct WordSource {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  Next next;
  result_type operator()() { return next(); }
};

}  // namespace detail

/// The noise of one seed, shared by every walk that draws it: immutable
/// once built, so any number of cursors read it concurrently.
class NoiseStream {
 public:
  /// Word positions whose normal pair is memoized.
  static constexpr std::size_t kMemo = 4096;

  explicit NoiseStream(std::uint64_t seed);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  friend class NoiseModel;

  std::uint64_t seed_;
  std::mt19937_64 engine_;            // positioned after words_
  std::vector<std::uint64_t> words_;  // every word a memoized pair reads
  // Per memoized position k (every k below kMemo, unless a pair there reads
  // more than 255 words, where the memo stops): the pair drawn from word k
  // on, and the words it reads.
  std::vector<detail::NormalPair> pairs_;
  std::vector<std::uint8_t> reads_;
};

class NoiseModel {
 public:
  /// Disabled: every factor is exactly unity.
  NoiseModel() = default;
  NoiseModel(std::uint64_t seed, bool enabled, const NoiseStream* stream = nullptr) {
    reset(seed, enabled, stream);
  }

  /// Restarts at `seed`'s first draw, reading `stream` (null, or built for
  /// `seed`) as far as it reaches. A disabled model seeds nothing.
  void reset(std::uint64_t seed, bool enabled, const NoiseStream* stream = nullptr) {
    enabled_ = enabled;
    has_saved_ = false;
    pos_ = 0;
    stream_ = enabled ? stream : nullptr;
    cached_ = memo_ = 0;
    live_ = false;
    if (!enabled) return;
    if (stream_ == nullptr) {
      engine_.emplace(seed);
      live_ = true;
      return;
    }
    if (stream_->seed() != seed) {
      throw std::invalid_argument("noise stream built for another seed");
    }
    cached_ = stream_->words_.size();
    memo_ = stream_->pairs_.size();
  }

  /// Multiplicative factor for a compute phase (mean ~1.0).
  [[nodiscard]] double compute_factor() {
    if (!enabled_) return 1.0;
    const double g = gauss();
    double f = 1.0 + 0.004 * g;
    if (uniform() < 0.01) f += 0.03 * uniform();  // OS daemon hiccup
    return f < 0.995 ? 0.995 : f;
  }

  /// Multiplicative factor for a message (network/DMA variation).
  [[nodiscard]] double comm_factor() {
    if (!enabled_) return 1.0;
    return 1.0 + 0.006 * std::fabs(gauss());
  }

  /// Per-processor skew at program start (loading / clock offsets).
  [[nodiscard]] double startup_skew() {
    if (!enabled_) return 0.0;
    return 4e-6 * std::fabs(gauss());
  }

 private:
  struct NextWord {
    NoiseModel* model;
    std::uint64_t operator()() const { return model->word(); }
  };
  using Words = detail::WordSource<NextWord>;

  double gauss() {
    if (has_saved_) {
      has_saved_ = false;
      return saved_;
    }
    detail::NormalPair p;
    if (pos_ < memo_) {
      p = stream_->pairs_[pos_];
      pos_ += stream_->reads_[pos_];
    } else {
      Words words{{this}};
      p = detail::draw_normal_pair(words);
    }
    saved_ = p.second;
    has_saved_ = true;
    return p.first;
  }

  double uniform() {
    Words words{{this}};
    return std::uniform_real_distribution<double>(0.0, 1.0)(words);
  }

  std::uint64_t word() {
    if (pos_ < cached_) return stream_->words_[pos_++];
    if (!live_) {  // first word past the stream's: pos_ == cached_
      engine_ = stream_->engine_;
      live_ = true;
    }
    ++pos_;
    return (*engine_)();
  }

  const NoiseStream* stream_ = nullptr;
  std::size_t cached_ = 0;  // the stream's words (0: none)
  std::size_t memo_ = 0;    // ... and its memoized positions
  std::size_t pos_ = 0;     // words drawn so far
  bool live_ = false;       // engine_ yields the word at pos_
  std::optional<std::mt19937_64> engine_;
  double saved_ = 0;  // the kept half of the current normal pair
  bool has_saved_ = false;
  bool enabled_ = false;
};

}  // namespace hpf90d::sim
